import resource

import numpy as np
import pytest

from rescnn import autodiff as ad
from rescnn import dataset as ds
from rescnn import embeddings as em
from rescnn import experiments as ex
from rescnn import model as md
from rescnn import training as tr
from rescnn.errors import DataError, TrainingDivergence

ECFG = em.EmbeddingConfig(word_dim=6, pos_dim=2, min_distance=-5, max_distance=5, sent_len=20)


def tiny_corpus(seed=0, num_train=40):
    cfg = ds.SynthConfig(num_relations=3, vocab_size=40, num_train=num_train,
                         num_test=20, min_len=6, max_len=12, seed=seed)
    train, _, _ = ds.synth_generate(cfg)
    return train


def tiny_model(train, seed=1, keep_prob=1.0, variant="cnn", conv_layers=1):
    schema = ds.RelationSchema.from_corpus(train)
    vocab = em.Vocabulary.from_corpus(train)
    mcfg = md.ModelConfig(
        variant=variant,
        conv_layers=conv_layers,
        window=3,
        filters=8,
        fc_widths=md.default_fc_widths(variant, 8, schema.num_relations),
        keep_prob=keep_prob,
        num_relations=schema.num_relations,
        embedding=ECFG,
    )
    return md.build_model(mcfg, seed=seed, vocab=vocab, schema=schema)


def encode(model, train):
    encoded, _ = em.encode_corpus(train, model.vocab, ECFG, model.schema)
    return encoded


class TestTrainConfig:
    def test_defaults(self):
        cfg = tr.TrainConfig()
        assert cfg.batch_size == 64
        assert cfg.learning_rate == 0.001
        assert cfg.epochs == 1

    @pytest.mark.parametrize(
        "kw",
        [
            {"batch_size": 0},
            {"learning_rate": 0.0},
            {"learning_rate": -1.0},
            {"epochs": 0},
            {"holdout_fraction": -0.1},
            {"holdout_fraction": 1.0},
            {"eval_every": -1},
        ],
    )
    def test_rejects_bad_values(self, kw):
        with pytest.raises(ValueError):
            tr.TrainConfig(**kw)


class TestTrainLog:
    def test_csv_layout(self, tmp_path):
        log = tr.TrainLog()
        log.steps.append((1, 0, 0.5))
        log.steps.append((2, 0, 0.25))
        path = tmp_path / "log.csv"
        log.to_csv(path)
        lines = path.read_text().splitlines()
        assert lines[0] == "step,epoch,loss"
        assert lines[1] == "1,0,0.5"
        assert lines[2] == "2,0,0.25"

    def test_csv_floats_round_trip(self, tmp_path):
        loss = 1.0 / 3.0
        log = tr.TrainLog()
        log.steps.append((1, 0, loss))
        path = tmp_path / "log.csv"
        log.to_csv(path)
        assert float(path.read_text().splitlines()[1].split(",")[2]) == loss

    def test_final_loss(self):
        log = tr.TrainLog()
        assert log.final_loss is None
        log.steps.append((1, 0, 0.5))
        log.steps.append((2, 0, 0.125))
        assert log.final_loss == 0.125


class TestTrain:
    def test_loss_decreases_on_learnable_corpus(self):
        train = tiny_corpus()
        model = tiny_model(train)
        log = tr.train(model, train,
                       tr.TrainConfig(batch_size=8, epochs=8, seed=0, learning_rate=0.01))
        first = np.mean([loss for _, _, loss in log.steps[:5]])
        last = np.mean([loss for _, _, loss in log.steps[-5:]])
        assert last < first / 2

    def test_two_runs_are_bit_identical(self):
        train = tiny_corpus()
        cfg = tr.TrainConfig(batch_size=8, epochs=2, seed=7)
        first = tiny_model(train, keep_prob=0.5)
        second = tiny_model(train, keep_prob=0.5)
        log_a = tr.train(first, train, cfg)
        log_b = tr.train(second, train, cfg)
        assert log_a.steps == log_b.steps
        for name in first.params:
            np.testing.assert_array_equal(first.params[name].data, second.params[name].data)

    def test_seed_changes_trajectory(self):
        train = tiny_corpus()
        log_a = tr.train(tiny_model(train), train,
                         tr.TrainConfig(batch_size=8, epochs=1, seed=0))
        log_b = tr.train(tiny_model(train), train,
                         tr.TrainConfig(batch_size=8, epochs=1, seed=1))
        assert log_a.steps != log_b.steps

    def test_step_and_epoch_counters(self):
        train = tiny_corpus(num_train=20)
        log = tr.train(tiny_model(train), train,
                       tr.TrainConfig(batch_size=8, epochs=3, seed=0))
        # 20 sentences at batch 8 gives 3 batches per epoch, ragged tail kept
        assert len(log.steps) == 9
        assert [step for step, _, _ in log.steps] == list(range(1, 10))
        assert [epoch for _, epoch, _ in log.steps] == [0, 0, 0, 1, 1, 1, 2, 2, 2]

    def test_pad_row_stays_zero(self):
        train = tiny_corpus()
        model = tiny_model(train)
        tr.train(model, train, tr.TrainConfig(batch_size=8, epochs=2, seed=0))
        assert (model.params["word_emb"].data[em.PAD_ID] == 0).all()

    def test_unencodable_sentences_are_counted(self):
        train = tiny_corpus()
        broken = ds.CorpusInstance(
            tokens=tuple(f"w{i}" for i in range(50)),  # longer than sent_len
            e1_idx=0, e2_idx=45, e1_id="a", e2_id="b", relation="NA",
        )
        model = tiny_model(train)
        log = tr.train(model, list(train) + [broken],
                       tr.TrainConfig(batch_size=8, epochs=1, seed=0))
        assert log.rejected == 1

    def test_empty_corpus_rejected(self):
        model = tiny_model(tiny_corpus())
        with pytest.raises(DataError):
            tr.train(model, [], tr.TrainConfig())

    def test_nothing_encodable_rejected(self):
        model = tiny_model(tiny_corpus())
        broken = ds.CorpusInstance(
            tokens=tuple(f"w{i}" for i in range(50)),
            e1_idx=0, e2_idx=45, e1_id="a", e2_id="b", relation="NA",
        )
        with pytest.raises(DataError):
            tr.train(model, [broken], tr.TrainConfig())

    def test_divergence_names_the_step(self):
        train = tiny_corpus()
        model = tiny_model(train)
        # huge embeddings times a huge kernel overflow in the first conv
        model.params["word_emb"].data[...] = 1e200
        model.params["conv0_kernel"].data[...] = 1e200
        with np.errstate(over="ignore"), pytest.raises(TrainingDivergence, match="step 1"):
            tr.train(model, train, tr.TrainConfig(batch_size=8, seed=0))

    def test_checkpoint_written_when_requested(self, tmp_path):
        train = tiny_corpus()
        model = tiny_model(train)
        path = tmp_path / "out.bin"
        tr.train(model, train,
                 tr.TrainConfig(batch_size=8, epochs=1, seed=0, checkpoint_path=path))
        loaded = md.load_checkpoint(path)
        for name in model.params:
            np.testing.assert_array_equal(loaded.params[name].data, model.params[name].data)

    def test_dropout_stream_advances_between_steps(self):
        # duplicate batches: with keep_prob below one the two steps see
        # different masks, so their losses differ even at equal parameters
        train = tiny_corpus(num_train=8)
        doubled = list(train) + list(train)
        model = tiny_model(train, keep_prob=0.5)
        log = tr.train(model, doubled,
                       tr.TrainConfig(batch_size=100, epochs=2, seed=0, learning_rate=1e-12))
        losses = [loss for _, _, loss in log.steps]
        assert losses[0] != losses[1]


class TestHoldout:
    def test_eval_points_recorded(self):
        train = tiny_corpus()
        model = tiny_model(train)
        cfg = tr.TrainConfig(batch_size=8, epochs=2, seed=0,
                             holdout_fraction=0.25, eval_every=3)
        log = tr.train(model, train, cfg)
        assert log.evals
        for step, loss in log.evals:
            assert step % 3 == 0
            assert np.isfinite(loss)

    def test_holdout_shrinks_training_stream(self):
        train = tiny_corpus(num_train=40)
        plain = tr.train(tiny_model(train), train,
                         tr.TrainConfig(batch_size=8, epochs=1, seed=0))
        held = tr.train(tiny_model(train), train,
                        tr.TrainConfig(batch_size=8, epochs=1, seed=0,
                                       holdout_fraction=0.25, eval_every=1))
        assert len(held.steps) < len(plain.steps)

    def test_eval_every_without_holdout_records_nothing(self):
        train = tiny_corpus()
        log = tr.train(tiny_model(train), train,
                       tr.TrainConfig(batch_size=8, epochs=1, seed=0, eval_every=2))
        assert log.evals == []

    def test_holdout_split_is_seeded(self):
        train = tiny_corpus(num_train=40)
        cfg = tr.TrainConfig(batch_size=8, epochs=1, seed=3,
                             holdout_fraction=0.25, eval_every=1)
        log_a = tr.train(tiny_model(train), train, cfg)
        log_b = tr.train(tiny_model(train), train, cfg)
        assert log_a.evals == log_b.evals


class TestMetricsHelpers:
    def test_accuracy_reaches_one_on_memorized_corpus(self):
        train = tiny_corpus()
        model = tiny_model(train)
        tr.train(model, train,
                 tr.TrainConfig(batch_size=8, epochs=15, seed=0, learning_rate=0.01))
        assert tr.accuracy_on(model, encode(model, train)) >= 0.95

    def test_empty_sets_rejected(self):
        model = tiny_model(tiny_corpus())
        with pytest.raises(DataError):
            tr.loss_on(model, encode(model, []))
        with pytest.raises(DataError):
            tr.accuracy_on(model, encode(model, []))

    def test_loss_on_matches_mean_cross_entropy(self):
        train = tiny_corpus(num_train=12)
        model = tiny_model(train)
        encoded = encode(model, train)
        probs = md.predict_proba(model, encoded)
        labels = np.array([inst.label for inst in encoded])
        expected = -np.mean(np.log(probs[np.arange(len(labels)), labels]))
        assert tr.loss_on(model, encoded) == pytest.approx(expected, rel=1e-9)


def ladder_rung(lcfg, variant, conv_layers, train, seed=0):
    """A ladder-shape model for one rung, as ``experiments.run_rung`` builds it."""
    schema = ds.synth_schema(lcfg.synth(seed))
    mcfg = md.ModelConfig(
        variant=variant,
        conv_layers=conv_layers,
        window=lcfg.window,
        filters=lcfg.filters,
        fc_widths=md.default_fc_widths(variant, lcfg.filters, schema.num_relations),
        keep_prob=lcfg.keep_prob,
        num_relations=schema.num_relations,
        embedding=lcfg.embedding(),
    )
    return md.build_model(mcfg, seed=seed, vocab=em.Vocabulary.from_corpus(train), schema=schema)


class TestLadderShape:
    def test_one_epoch_final_losses_are_pinned(self):
        # the final step loss of each rung after one epoch at seed 0; any
        # change in the arithmetic of a step moves at least one of them
        lcfg = ex.LadderConfig(epochs=1)
        train, _, _ = ds.synth_generate(lcfg.synth(0))
        cfg = tr.TrainConfig(batch_size=lcfg.batch_size, learning_rate=lcfg.learning_rate, epochs=1, seed=0)
        final = {name: tr.train(ladder_rung(lcfg, variant, layers, train), train, cfg).final_loss
                 for name, variant, layers in ex.RUNGS}
        assert final == {"rescnn_9": 1.9370079388631574, "cnn_9": 1.87669684470916, "cnn_5": 1.879847612385703}

    def test_steady_heap_steps_take_few_page_faults(self, monkeypatch):
        ad.steady_heap()
        if not ad._mallopt:
            pytest.skip("the C library has no mallopt")
        lcfg = ex.LadderConfig(num_train=11 * 64)
        train, _, _ = ds.synth_generate(lcfg.synth(0))
        faults = []
        adam_step = ad.adam_step

        def counted(*args):
            adam_step(*args)
            faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt)

        monkeypatch.setattr(ad, "adam_step", counted)
        tr.train(ladder_rung(lcfg, "rescnn_x", 9, train), train, tr.TrainConfig(epochs=1, seed=0))
        per_step = np.diff(faults)  # per_step[i] is step i + 2
        assert len(per_step) >= 9
        assert (per_step[1:9] < 200).all(), per_step[1:9]
