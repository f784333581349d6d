import errno
import struct

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from rescnn import autodiff as ad
from rescnn import dataset as ds
from rescnn import embeddings as em
from rescnn import model as md
from rescnn.errors import DataError, ShapeError

ECFG = em.EmbeddingConfig(word_dim=6, pos_dim=2, min_distance=-5, max_distance=5, sent_len=12)
SCHEMA = ds.RelationSchema(("NA", "r1", "r2"))
VOCAB = em.Vocabulary([f"t{i}" for i in range(10)])


def config(variant="rescnn_x", conv_layers=5, filters=8, keep_prob=1.0, **kw):
    fc_widths = kw.pop("fc_widths", md.default_fc_widths(variant, filters, SCHEMA.num_relations))
    return md.ModelConfig(
        variant=variant,
        conv_layers=conv_layers,
        window=kw.pop("window", 3),
        filters=filters,
        fc_widths=fc_widths,
        keep_prob=keep_prob,
        num_relations=SCHEMA.num_relations,
        embedding=kw.pop("embedding", ECFG),
        **kw,
    )


def sample_batch(count=2):
    tokens = tuple(f"t{i % 10}" for i in range(9))
    rows = [ds.CorpusInstance(tokens, 1, 4 + i % 3, "", "", "r1") for i in range(count)]
    encoded, _ = em.encode_corpus(rows, VOCAB, ECFG, SCHEMA)
    return encoded


class TestModelConfig:
    def test_variant_checked(self):
        with pytest.raises(ValueError):
            config(variant="resnet")

    def test_conv_layers_must_be_odd(self):
        with pytest.raises(ValueError):
            config(conv_layers=4)

    def test_shallow_variants_fixed_at_one_conv(self):
        for variant in ("cnn_b", "cnn"):
            with pytest.raises(ValueError):
                config(variant=variant, conv_layers=3)
        assert config(variant="cnn", conv_layers=1).num_blocks == 0

    def test_deep_variants_need_three_layers(self):
        with pytest.raises(ValueError):
            config(variant="cnn_x", conv_layers=1)

    def test_fc_count_per_variant(self):
        assert len(md.default_fc_widths("cnn_b", 8, 3)) == 1
        assert len(md.default_fc_widths("rescnn_x", 8, 3)) == 3
        with pytest.raises(ValueError):
            config(fc_widths=(8, 3))

    def test_last_fc_width_is_class_count(self):
        with pytest.raises(ValueError):
            config(fc_widths=(8, 8, 5))

    def test_window_cannot_exceed_sentence(self):
        with pytest.raises(ValueError):
            config(window=13)

    def test_keep_prob_range(self):
        with pytest.raises(ValueError):
            config(keep_prob=0.0)
        with pytest.raises(ValueError):
            config(keep_prob=1.2)

    def test_block_count_follows_depth(self):
        assert config(conv_layers=9).num_blocks == 4
        assert config(conv_layers=3).num_blocks == 1
        assert config(variant="cnn_x", conv_layers=9).residual is False
        assert config(conv_layers=9).residual is True


class TestBuildModel:
    def test_shapes_match_declared_layout(self):
        cfg = config(conv_layers=5)
        model = md.build_model(cfg, seed=1, vocab=VOCAB, schema=SCHEMA)
        for name, shape in md.param_shapes(cfg, len(VOCAB)).items():
            assert model.params[name].data.shape == shape

    def test_same_seed_bit_equal(self):
        cfg = config()
        a = md.build_model(cfg, seed=3, vocab=VOCAB, schema=SCHEMA)
        b = md.build_model(cfg, seed=3, vocab=VOCAB, schema=SCHEMA)
        for name in a.params:
            np.testing.assert_array_equal(a.params[name].data, b.params[name].data)

    def test_different_seeds_differ(self):
        cfg = config()
        a = md.build_model(cfg, seed=3, vocab=VOCAB, schema=SCHEMA)
        b = md.build_model(cfg, seed=4, vocab=VOCAB, schema=SCHEMA)
        assert (a.params["conv0_kernel"].data != b.params["conv0_kernel"].data).any()

    def test_pad_row_is_zero(self):
        model = md.build_model(config(), seed=1, vocab=VOCAB, schema=SCHEMA)
        assert (model.params["word_emb"].data[em.PAD_ID] == 0).all()

    def test_biases_start_at_zero(self):
        model = md.build_model(config(), seed=1, vocab=VOCAB, schema=SCHEMA)
        for name, p in model.params.items():
            if name.endswith("_bias"):
                assert (p.data == 0).all()

    def test_glorot_limit_respected(self):
        cfg = config(conv_layers=5)
        model = md.build_model(cfg, seed=1, vocab=VOCAB, schema=SCHEMA)
        h, cin, cout = model.params["conv0_kernel"].data.shape
        limit = np.sqrt(6.0 / (h * cin + h * cout))
        assert np.abs(model.params["conv0_kernel"].data).max() <= limit

    def test_provided_word_table_is_copied(self):
        table = np.arange(len(VOCAB) * ECFG.word_dim, dtype=float).reshape(len(VOCAB), -1)
        model = md.build_model(config(), seed=1, vocab=VOCAB, schema=SCHEMA, word_table=table)
        np.testing.assert_array_equal(model.params["word_emb"].data[2:], table[2:])
        assert (model.params["word_emb"].data[em.PAD_ID] == 0).all()
        table[2, 0] = 999.0
        assert model.params["word_emb"].data[2, 0] != 999.0

    def test_word_table_shape_checked(self):
        with pytest.raises(ShapeError):
            md.build_model(config(), seed=1, vocab=VOCAB, schema=SCHEMA,
                           word_table=np.zeros((3, ECFG.word_dim)))

    def test_schema_size_must_match_config(self):
        with pytest.raises(ValueError):
            md.Model(config(), VOCAB, ds.RelationSchema(("NA", "r1")), {}, 0)

    @given(st.sampled_from(md.VARIANTS), st.integers(0, 3), st.integers(1, 6))
    def test_parameter_count_closed_form(self, variant, blocks, filters):
        layers = 1 if variant in ("cnn_b", "cnn") else 2 * max(blocks, 1) + 1
        cfg = config(variant=variant, conv_layers=layers, filters=filters)
        model = md.build_model(cfg, seed=0, vocab=VOCAB, schema=SCHEMA)
        assert model.num_parameters() == md.parameter_count(cfg, len(VOCAB))


class TestForward:
    def test_logit_shape(self):
        model = md.build_model(config(), seed=1, vocab=VOCAB, schema=SCHEMA)
        out = md.forward(model, sample_batch(3))
        assert out.data.shape == (3, SCHEMA.num_relations)

    def test_all_variants_run(self):
        for variant, layers in (("cnn_b", 1), ("cnn", 1), ("cnn_x", 5), ("rescnn_x", 9)):
            model = md.build_model(config(variant=variant, conv_layers=layers),
                                   seed=1, vocab=VOCAB, schema=SCHEMA)
            assert md.forward(model, sample_batch()).data.shape == (2, 3)

    def test_train_mode_needs_rng(self):
        model = md.build_model(config(keep_prob=0.5), seed=1, vocab=VOCAB, schema=SCHEMA)
        with pytest.raises(ValueError):
            md.forward(model, sample_batch(), mode="train")

    def test_unknown_mode_rejected(self):
        model = md.build_model(config(), seed=1, vocab=VOCAB, schema=SCHEMA)
        with pytest.raises(ValueError):
            md.forward(model, sample_batch(), mode="predict")

    def test_empty_batch_rejected(self):
        model = md.build_model(config(), seed=1, vocab=VOCAB, schema=SCHEMA)
        with pytest.raises(ValueError):
            md.forward(model, sample_batch(0))

    def test_dropout_only_randomizes_training(self):
        model = md.build_model(config(keep_prob=0.5), seed=1, vocab=VOCAB, schema=SCHEMA)
        batch = sample_batch()
        a = md.forward(model, batch, mode="test").data
        b = md.forward(model, batch, mode="test").data
        np.testing.assert_array_equal(a, b)
        rng = np.random.default_rng(0)
        t1 = md.forward(model, batch, mode="train", rng=rng).data
        t2 = md.forward(model, batch, mode="train", rng=rng).data
        assert (t1 != t2).any()

    def test_gradient_reaches_every_parameter(self):
        model = md.build_model(config(conv_layers=5, keep_prob=1.0), seed=1,
                               vocab=VOCAB, schema=SCHEMA)
        batch = sample_batch(3)
        logits = md.forward(model, batch, mode="test")
        loss = ad.mean(ad.softmax_cross_entropy(logits, np.array([0, 1, 2])))
        model.zero_grads()
        ad.backward(loss)
        for name, p in model.params.items():
            assert p.grad.any(), name


class TestResidualIdentity:
    def test_zeroed_blocks_collapse_to_single_conv_model(self):
        cfg_res = config(variant="rescnn_x", conv_layers=9, keep_prob=1.0)
        residual = md.build_model(cfg_res, seed=5, vocab=VOCAB, schema=SCHEMA)
        for b in range(cfg_res.num_blocks):
            for suffix in ("conv1_kernel", "conv1_bias", "conv2_kernel", "conv2_bias"):
                residual.params[f"block{b}_{suffix}"].data[...] = 0.0
        plain = md.build_model(config(variant="cnn", conv_layers=1, keep_prob=1.0),
                               seed=6, vocab=VOCAB, schema=SCHEMA)
        for name, p in plain.params.items():
            p.data[...] = residual.params[name].data
        batch = sample_batch(3)
        np.testing.assert_allclose(
            md.forward(residual, batch).data, md.forward(plain, batch).data, atol=1e-12
        )


class TestPredictProba:
    def test_rows_are_distributions(self):
        model = md.build_model(config(), seed=1, vocab=VOCAB, schema=SCHEMA)
        probs = md.predict_proba(model, sample_batch(5))
        assert probs.shape == (5, 3)
        np.testing.assert_allclose(probs.sum(axis=1), 1.0)
        assert (probs >= 0).all()

    def test_matches_softmax_of_a_graph_building_forward(self):
        model = md.build_model(config(keep_prob=0.5), seed=1, vocab=VOCAB, schema=SCHEMA)
        batch = sample_batch(5)
        logits = md.forward(model, batch, mode="test")
        assert logits.requires_grad
        shift = logits.data - logits.data.max(axis=1, keepdims=True)
        expd = np.exp(shift)
        np.testing.assert_array_equal(md.predict_proba(model, batch), expd / expd.sum(axis=1, keepdims=True))

    def test_chunking_does_not_change_results(self):
        # chunk size reshapes the matmuls, so reductions may differ by a few ulp
        model = md.build_model(config(), seed=1, vocab=VOCAB, schema=SCHEMA)
        batch = sample_batch(7)
        np.testing.assert_allclose(
            md.predict_proba(model, batch, chunk=2),
            md.predict_proba(model, batch, chunk=100),
            rtol=1e-12,
            atol=0,
        )


class TestCheckpoint:
    def _model(self, seed=5):
        return md.build_model(config(conv_layers=5, keep_prob=0.5), seed=seed,
                              vocab=VOCAB, schema=SCHEMA)

    def test_round_trip_preserves_everything(self, tmp_path):
        model = self._model()
        path = tmp_path / "ck.bin"
        md.save_checkpoint(model, path)
        back = md.load_checkpoint(path)
        assert back.config == model.config
        assert back.vocab.tokens == model.vocab.tokens
        assert back.schema.labels == model.schema.labels
        assert back.seed == model.seed
        for name in model.params:
            np.testing.assert_array_equal(back.params[name].data, model.params[name].data)

    def test_save_load_save_is_bit_identical(self, tmp_path):
        model = self._model()
        first = tmp_path / "a.bin"
        second = tmp_path / "b.bin"
        md.save_checkpoint(model, first)
        md.save_checkpoint(md.load_checkpoint(first), second)
        assert first.read_bytes() == second.read_bytes()

    def test_loaded_model_predicts_identically(self, tmp_path):
        model = self._model()
        path = tmp_path / "ck.bin"
        md.save_checkpoint(model, path)
        batch = sample_batch(4)
        np.testing.assert_array_equal(
            md.predict_proba(model, batch), md.predict_proba(md.load_checkpoint(path), batch)
        )

    def test_label_with_comma_cannot_be_saved(self, tmp_path):
        schema = ds.RelationSchema(("NA", "r,1", "r2"))
        model = md.build_model(config(), seed=1, vocab=VOCAB, schema=schema)
        with pytest.raises(DataError, match="commas"):
            md.save_checkpoint(model, tmp_path / "ck.bin")

    def test_missing_file_is_a_data_error(self, tmp_path):
        with pytest.raises(DataError):
            md.load_checkpoint(tmp_path / "nope.bin")

    def test_truncated_file_rejected(self, tmp_path):
        model = self._model()
        path = tmp_path / "ck.bin"
        md.save_checkpoint(model, path)
        blob = path.read_bytes()
        for cut in (4, 30, len(blob) // 2, len(blob) - 3):
            (tmp_path / "cut.bin").write_bytes(blob[:cut])
            with pytest.raises(DataError):
                md.load_checkpoint(tmp_path / "cut.bin")

    def test_trailing_garbage_rejected(self, tmp_path):
        model = self._model()
        path = tmp_path / "ck.bin"
        md.save_checkpoint(model, path)
        path.write_bytes(path.read_bytes() + b"x")
        with pytest.raises(DataError, match="trailing"):
            md.load_checkpoint(path)

    def test_wrong_format_tag_rejected(self, tmp_path):
        path = tmp_path / "ck.bin"
        manifest = b"format=not-a-checkpoint\n"
        path.write_bytes(struct.pack("<Q", len(manifest)) + manifest)
        with pytest.raises(DataError, match="format"):
            md.load_checkpoint(path)

    def test_non_finite_parameter_rejected(self, tmp_path):
        model = self._model()
        path = tmp_path / "ck.bin"
        md.save_checkpoint(model, path)
        blob = bytearray(path.read_bytes())
        # smash the last eight bytes (inside the final parameter) with a NaN
        blob[-8:] = np.float64("nan").tobytes()
        path.write_bytes(bytes(blob))
        with pytest.raises(DataError, match="non-finite"):
            md.load_checkpoint(path)

    def _saved_blob(self, tmp_path):
        """A saved checkpoint's path, its bytes and the offset of its first parameter record."""
        path = tmp_path / "ck.bin"
        md.save_checkpoint(self._model(), path)
        blob = path.read_bytes()
        return path, bytearray(blob), 8 + struct.unpack("<Q", blob[:8])[0]

    def test_label_count_differing_from_num_relations_rejected(self, tmp_path):
        path, blob, first = self._saved_blob(tmp_path)
        manifest = bytes(blob[8:first]).replace(b"labels=NA,r1,r2\n", b"labels=NA,r1\n")
        path.write_bytes(struct.pack("<Q", len(manifest)) + manifest + bytes(blob[first:]))
        with pytest.raises(DataError, match="2 labels but num_relations=3"):
            md.load_checkpoint(path)

    def test_non_utf8_parameter_name_rejected(self, tmp_path):
        path, blob, first = self._saved_blob(tmp_path)
        assert blob[first + 8 : first + 16] == b"word_emb"
        blob[first + 8] = 0xFF
        path.write_bytes(bytes(blob))
        with pytest.raises(DataError, match="out of order"):
            md.load_checkpoint(path)

    def test_absurd_parameter_name_length_rejected(self, tmp_path):
        path, blob, first = self._saved_blob(tmp_path)
        blob[first : first + 8] = struct.pack("<Q", 1 << 63)
        path.write_bytes(bytes(blob))
        with pytest.raises(DataError, match="9223372036854775808-byte name, expected 'word_emb'"):
            md.load_checkpoint(path)

    @pytest.mark.parametrize("exc", [OSError(errno.ENOSPC, "No space left on device"), KeyboardInterrupt()])
    def test_failed_save_keeps_the_previous_checkpoint(self, tmp_path, monkeypatch, exc):
        path = tmp_path / "ck.bin"
        md.save_checkpoint(self._model(seed=5), path)
        before = path.read_bytes()

        class FailingWriter:
            """Passes the first three writes through, then raises."""

            def __init__(self, handle):
                self.handle = handle
                self.writes = 0

            def __enter__(self):
                return self

            def __exit__(self, *exc_info):
                self.handle.close()

            def write(self, data):
                self.writes += 1
                if self.writes > 3:
                    raise exc
                return self.handle.write(data)

        monkeypatch.setattr(md, "open", lambda *a, **k: FailingWriter(open(*a, **k)), raising=False)
        with pytest.raises(type(exc)):
            md.save_checkpoint(self._model(seed=6), path)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["ck.bin"]

    def test_save_replaces_an_existing_checkpoint(self, tmp_path):
        path = tmp_path / "ck.bin"
        md.save_checkpoint(self._model(seed=5), path)
        md.save_checkpoint(self._model(seed=6), path)
        assert md.load_checkpoint(path).seed == 6
        assert [p.name for p in tmp_path.iterdir()] == ["ck.bin"]


class TestZeroPadRowGrad:
    def test_blanks_only_the_pad_row(self):
        model = md.build_model(config(), seed=1, vocab=VOCAB, schema=SCHEMA)
        model.params["word_emb"].grad[...] = 1.0
        model.zero_pad_row_grad()
        grad = model.params["word_emb"].grad
        assert (grad[em.PAD_ID] == 0).all()
        assert (grad[em.PAD_ID + 1 :] == 1.0).all()
