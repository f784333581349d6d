import io

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from rescnn import autodiff as ad
from rescnn import dataset as ds
from rescnn import embeddings as em
from rescnn.errors import DataError

CFG = em.EmbeddingConfig()
SMALL = em.EmbeddingConfig(word_dim=4, pos_dim=2, min_distance=-5, max_distance=5, sent_len=10)

tokens_st = st.text(alphabet="abcdefgh", min_size=1, max_size=6)


class TestVocabulary:
    def test_reserved_slots(self):
        v = em.Vocabulary()
        assert v.id_of(em.PAD_TOKEN) == em.PAD_ID == 0
        assert v.id_of(em.UNK_TOKEN) == em.UNK_ID == 1
        assert len(v) == 2

    def test_add_is_idempotent(self):
        v = em.Vocabulary()
        first = v.add("cat")
        assert v.add("cat") == first
        assert len(v) == 3

    def test_unknown_token_maps_to_unk(self):
        v = em.Vocabulary(["cat"])
        assert v.id_of("dog") == em.UNK_ID

    def test_from_corpus_sorts_tokens(self):
        class Inst:
            def __init__(self, toks):
                self.tokens = toks

        v = em.Vocabulary.from_corpus([Inst(("b", "a")), Inst(("c", "a"))])
        assert v.tokens == (em.PAD_TOKEN, em.UNK_TOKEN, "a", "b", "c")

    def test_contains(self):
        v = em.Vocabulary(["cat"])
        assert "cat" in v and "dog" not in v


class TestEmbeddingConfig:
    def test_defaults_span_sixty_one_distances(self):
        assert CFG.num_distances == 61
        assert CFG.concat_dim == 60

    def test_distance_range_must_bracket_zero(self):
        with pytest.raises(ValueError):
            em.EmbeddingConfig(min_distance=1)
        with pytest.raises(ValueError):
            em.EmbeddingConfig(max_distance=-1)

    def test_dims_must_be_positive(self):
        with pytest.raises(ValueError):
            em.EmbeddingConfig(word_dim=0)
        with pytest.raises(ValueError):
            em.EmbeddingConfig(sent_len=0)


class TestRelativePosition:
    def test_worked_sentence(self):
        # "Steve_Jobs is the founder of Apple ." with entities at 0 and 5;
        # token 3 sits 3 right of the first entity and 2 left of the second
        assert em.relative_position(3, 0, CFG) - (-CFG.min_distance) == 3
        assert em.relative_position(3, 5, CFG) - (-CFG.min_distance) == -2

    def test_shifted_ids_are_table_indices(self):
        assert em.relative_position(3, 0, CFG) == 33
        assert em.relative_position(3, 5, CFG) == 28

    def test_clipping_at_both_bounds(self):
        assert em.relative_position(50, 5, CFG) == 60
        assert em.relative_position(0, 45, CFG) == 0

    def test_boundary_values_not_clipped(self):
        assert em.relative_position(30, 0, CFG) == 60
        assert em.relative_position(0, 30, CFG) == 0
        assert em.relative_position(31, 0, CFG) == 60

    @given(st.integers(-200, 200), st.integers(0, 99))
    def test_result_always_a_valid_row(self, index, entity):
        rid = em.relative_position(index, entity, CFG)
        assert 0 <= rid < CFG.num_distances


class TestEncodeInstance:
    def test_pads_word_ids_and_extends_distances(self):
        v = em.Vocabulary(["a", "b", "c"])
        enc = em.encode_instance(["a", "b", "c"], 0, 2, 1, v, SMALL)
        assert enc.token_ids.tolist() == [2, 3, 4] + [em.PAD_ID] * 7
        # padding slots keep their literal clamped distance to the entities
        assert enc.pos1_ids.tolist() == [5, 6, 7, 8, 9, 10, 10, 10, 10, 10]
        assert enc.original_length == 3

    def test_unknown_words_become_unk(self):
        v = em.Vocabulary(["a"])
        enc = em.encode_instance(["a", "zzz"], 0, 1, 0, v, SMALL)
        assert enc.token_ids[1] == em.UNK_ID

    def test_truncates_to_sent_len(self):
        v = em.Vocabulary([f"t{i}" for i in range(15)])
        enc = em.encode_instance([f"t{i}" for i in range(15)], 0, 1, 0, v, SMALL)
        assert enc.token_ids.shape == (10,)
        assert enc.original_length == 15

    def test_entity_beyond_truncation_rejected(self):
        v = em.Vocabulary(["a"])
        with pytest.raises(DataError):
            em.encode_instance(["a"] * 15, 0, 12, 0, v, SMALL)

    def test_entity_outside_sentence_rejected(self):
        v = em.Vocabulary(["a"])
        with pytest.raises(DataError):
            em.encode_instance(["a", "a"], 0, 2, 0, v, SMALL)
        with pytest.raises(DataError):
            em.encode_instance(["a", "a"], -1, 0, 0, v, SMALL)

    def test_empty_sentence_rejected(self):
        with pytest.raises(DataError):
            em.encode_instance([], 0, 0, 0, em.Vocabulary(), SMALL)

    def test_pair_key_carried_through(self):
        v = em.Vocabulary(["a", "b"])
        enc = em.encode_instance(["a", "b"], 0, 1, 0, v, SMALL, pair_key=("x", "y"))
        assert enc.pair_key == ("x", "y")


def row_by_row(instances, vocab, cfg, schema):
    """The encoder as one encode_instance call per sentence: the reference."""
    rows, rejected = [], 0
    for inst in instances:
        try:
            rows.append(em.encode_instance(inst.tokens, inst.e1_idx, inst.e2_idx, schema.id_of(inst.relation),
                                           vocab, cfg, pair_key=(inst.e1_id, inst.e2_id)))
        except DataError:
            rejected += 1
    return rows, rejected


def mixed_corpus(seed, count=400):
    """Sentences longer and shorter than SMALL.sent_len, with unknown words,
    the reserved tokens as words, repeated pairs and every rejection cause:
    an empty sentence, an entity outside the sentence, an entity past
    sent_len and an unknown label."""
    rng = np.random.default_rng(seed)
    words = [f"t{i}" for i in range(12)] + [em.PAD_TOKEN, em.UNK_TOKEN]
    out = []
    for _ in range(count):
        length = int(rng.integers(0, 16))
        tokens = tuple(words[int(t)] for t in rng.integers(0, len(words), size=length))
        e1, e2 = (int(e) for e in rng.integers(-1, 17, size=2))
        relation = ("NA", "r1", "r2", "unknown")[int(rng.integers(4))]
        out.append(ds.CorpusInstance(tokens, e1, e2, f"e{int(rng.integers(5))}", f"e{int(rng.integers(5))}",
                                     relation))
    return out


class TestEncodeCorpus:
    VOCAB = em.Vocabulary([f"t{i}" for i in range(8)])  # t8 .. t11 map to UNK
    SCHEMA = ds.RelationSchema(("NA", "r1", "r2"))

    @pytest.mark.parametrize("seed", range(5))
    def test_equals_row_by_row_encoding(self, seed):
        corpus = mixed_corpus(seed)
        got, rejected = em.encode_corpus(corpus, self.VOCAB, SMALL, self.SCHEMA)
        rows, want_rejected = row_by_row(corpus, self.VOCAB, SMALL, self.SCHEMA)
        assert rejected == want_rejected and len(got) == len(rows)
        for name in ("token_ids", "pos1_ids", "pos2_ids"):
            want = np.stack([getattr(r, name) for r in rows])
            assert getattr(got, name).dtype == np.int64
            assert np.array_equal(getattr(got, name), want)
        assert np.array_equal(got.labels, [r.label for r in rows])
        assert np.array_equal(got.original_lengths, [r.original_length for r in rows])
        assert got.pair_keys == [r.pair_key for r in rows]

    def test_corpus_exercises_every_case(self):
        corpus = mixed_corpus(0)
        got, _ = em.encode_corpus(corpus, self.VOCAB, SMALL, self.SCHEMA)
        assert (got.original_lengths > SMALL.sent_len).any()  # truncation
        assert (got.token_ids == em.UNK_ID).any() and (got.token_ids == em.PAD_ID).any()
        causes = {"empty": 0, "outside": 0, "past sent_len": 0, "label": 0}
        for inst in corpus:
            n = len(inst.tokens)
            if n == 0:
                causes["empty"] += 1
            elif not (0 <= inst.e1_idx < n and 0 <= inst.e2_idx < n):
                causes["outside"] += 1
            elif max(inst.e1_idx, inst.e2_idx) >= SMALL.sent_len:
                causes["past sent_len"] += 1
            elif inst.relation == "unknown":
                causes["label"] += 1
        assert all(causes.values()), causes

    def test_all_rejected_gives_an_empty_corpus(self):
        corpus = [ds.CorpusInstance(("a",), 0, 3, "x", "y", "r1")]
        got, rejected = em.encode_corpus(corpus, self.VOCAB, SMALL, self.SCHEMA)
        assert rejected == 1 and len(got) == 0 and not got
        assert got.token_ids.shape == (0, SMALL.sent_len)


class TestEncodedCorpus:
    def _corpus(self):
        encoded, _ = em.encode_corpus(mixed_corpus(3), TestEncodeCorpus.VOCAB, SMALL, TestEncodeCorpus.SCHEMA)
        return encoded

    def test_integer_gives_the_row(self):
        enc = self._corpus()
        row = enc[4]
        assert isinstance(row, em.EncodedInstance)
        assert np.array_equal(row.token_ids, enc.token_ids[4])
        assert row.label == int(enc.labels[4]) and isinstance(row.label, int)
        assert row.pair_key == enc.pair_keys[4]
        assert enc[-1].pair_key == enc.pair_keys[-1]
        assert enc[np.int64(2)].label == int(enc.labels[2])

    def test_slice_and_index_array_select_rows(self):
        enc = self._corpus()
        part = enc[3:9]
        assert isinstance(part, em.EncodedCorpus) and len(part) == 6
        assert part.pairs is enc.pairs
        assert part.pair_keys == enc.pair_keys[3:9]
        picked = enc[np.array([7, 0, 7, 2])]
        assert len(picked) == 4
        assert np.array_equal(picked.token_ids, enc.token_ids[[7, 0, 7, 2]])
        assert picked.pair_keys == [enc.pair_keys[i] for i in (7, 0, 7, 2)]

    def test_iteration_yields_rows_with_labels(self):
        enc = self._corpus()
        rows = list(enc)
        assert len(rows) == len(enc)
        assert [r.label for r in rows] == enc.labels.tolist()
        for i, row in enumerate(rows):
            assert np.array_equal(row.token_ids, enc.token_ids[i])
            assert np.array_equal(row.pos1_ids, enc.pos1_ids[i])
            assert np.array_equal(row.pos2_ids, enc.pos2_ids[i])
            assert row.pair_key == enc.pair_keys[i]
            assert row.original_length == enc.original_lengths[i]


class TestLoadEmbeddings:
    def test_plain_file(self):
        text = io.StringIO("cat 1 2\ndog 3 4\n")
        vocab, table = em.load_embeddings(text)
        assert vocab.tokens == (em.PAD_TOKEN, em.UNK_TOKEN, "cat", "dog")
        assert table.data.shape == (4, 2)
        assert table.requires_grad

    def test_count_dim_header_is_skipped(self):
        vocab, table = em.load_embeddings(io.StringIO("2 3\ncat 1 2 3\ndog 4 5 6\n"))
        assert len(vocab) == 4
        np.testing.assert_array_equal(table.data[2], [1.0, 2.0, 3.0])

    def test_pad_row_is_zero_and_unk_is_mean(self):
        _, table = em.load_embeddings(io.StringIO("cat 1 2\ndog 3 4\n"))
        np.testing.assert_array_equal(table.data[em.PAD_ID], [0.0, 0.0])
        np.testing.assert_array_equal(table.data[em.UNK_ID], [2.0, 3.0])

    def test_dimension_drift_reports_line_number(self):
        with pytest.raises(DataError, match="line 2"):
            em.load_embeddings(io.StringIO("cat 1 2\ndog 3\n"))

    def test_unparseable_component_reports_line_number(self):
        with pytest.raises(DataError, match="line 1"):
            em.load_embeddings(io.StringIO("cat 1 pickle\n"))

    def test_duplicate_token_rejected(self):
        with pytest.raises(DataError, match="duplicate"):
            em.load_embeddings(io.StringIO("cat 1 2\ncat 3 4\n"))

    def test_reserved_token_rejected(self):
        with pytest.raises(DataError, match="reserved"):
            em.load_embeddings(io.StringIO(f"{em.PAD_TOKEN} 1 2\n"))

    def test_non_finite_component_rejected(self):
        with pytest.raises(DataError, match="non-finite"):
            em.load_embeddings(io.StringIO("cat 1 inf\n"))

    def test_empty_file_rejected(self):
        with pytest.raises(DataError):
            em.load_embeddings(io.StringIO(""))
        with pytest.raises(DataError):
            em.load_embeddings(io.StringIO("3 5\n"))

    def test_expected_dim_enforced(self):
        with pytest.raises(DataError, match="expected 5"):
            em.load_embeddings(io.StringIO("cat 1 2\n"), expected_dim=5)

    def test_path_round_trip(self, tmp_path):
        path = tmp_path / "vecs.txt"
        path.write_text("cat 1 2\ndog 3 4\n")
        vocab, table = em.load_embeddings(path)
        assert vocab.id_of("dog") == 3

    @given(
        st.dictionaries(tokens_st, st.lists(st.integers(-50, 50), min_size=3, max_size=3),
                        min_size=1, max_size=8)
    )
    def test_loader_round_trips_written_vectors(self, entries):
        text = "".join(f"{tok} {' '.join(str(v) for v in vec)}\n" for tok, vec in entries.items())
        vocab, table = em.load_embeddings(io.StringIO(text))
        assert len(vocab) == len(entries) + 2
        for tok, vec in entries.items():
            np.testing.assert_array_equal(table.data[vocab.id_of(tok)], np.array(vec, dtype=float))


class TestEmbed:
    VOCAB = em.Vocabulary(["a", "b"])

    def _tables(self, vocab):
        rng = np.random.default_rng(42)
        word = ad.Tensor(rng.normal(size=(len(vocab), SMALL.word_dim)), requires_grad=True)
        pos1 = ad.Tensor(rng.normal(size=(SMALL.num_distances, SMALL.pos_dim)), requires_grad=True)
        pos2 = ad.Tensor(rng.normal(size=(SMALL.num_distances, SMALL.pos_dim)), requires_grad=True)
        return word, pos1, pos2

    def _batch(self, count):
        """``count`` copies of the sentence "a b" with entities at 0 and 1."""
        rows = [ds.CorpusInstance(("a", "b"), 0, 1, "", "", "NA")] * count
        encoded, _ = em.encode_corpus(rows, self.VOCAB, SMALL, ds.RelationSchema(("NA",)))
        return encoded

    def test_single_instance_shape(self):
        word, pos1, pos2 = self._tables(self.VOCAB)
        out = em.embed_batch(word, pos1, pos2, self._batch(1))
        assert out.data.shape == (1, SMALL.sent_len, SMALL.concat_dim)

    def test_batch_stacks_instances(self):
        word, pos1, pos2 = self._tables(self.VOCAB)
        out = em.embed_batch(word, pos1, pos2, self._batch(2))
        assert out.data.shape == (2, SMALL.sent_len, SMALL.concat_dim)
        np.testing.assert_array_equal(out.data[0], out.data[1])

    def test_feature_layout_is_word_then_positions(self):
        word, pos1, pos2 = self._tables(self.VOCAB)
        enc = self._batch(1)
        out = em.embed_batch(word, pos1, pos2, enc).data[0]
        np.testing.assert_array_equal(out[0, : SMALL.word_dim], word.data[enc.token_ids[0, 0]])
        np.testing.assert_array_equal(out[0, SMALL.word_dim : SMALL.word_dim + SMALL.pos_dim],
                                      pos1.data[enc.pos1_ids[0, 0]])

    def test_shared_position_table_rejected(self):
        word, pos1, _ = self._tables(self.VOCAB)
        with pytest.raises(ValueError):
            em.embed_batch(word, pos1, pos1, self._batch(1))
        with pytest.raises(ValueError):
            em.embed_batch(word, pos1, pos1, self._batch(2))

    def test_gradients_reach_all_three_tables(self):
        word, pos1, pos2 = self._tables(self.VOCAB)
        ad.backward(ad.sum_all(em.embed_batch(word, pos1, pos2, self._batch(1))))
        assert word.grad.any() and pos1.grad.any() and pos2.grad.any()
