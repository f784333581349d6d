import numpy as np
import pytest

from rescnn import dataset as ds
from rescnn import embeddings as em
from rescnn import evaluation as ev
from rescnn import model as md
from rescnn import training as tr
from rescnn.errors import DataError


def ranked(*entries):
    """entries: (pair, rid, score) triples already in rank order."""
    return [ev.RankedPrediction(pair, rid, score, i)
            for i, (pair, rid, score) in enumerate(entries)]


class TestPrCurve:
    def test_worked_example(self):
        # two gold facts; first and third predictions hit
        gold = {("a", "b", 1), ("c", "d", 2)}
        preds = ranked((("a", "b"), 1, 0.9), (("e", "f"), 1, 0.8), (("c", "d"), 2, 0.7))
        points = ev.pr_curve(preds, gold)
        assert points == ((1.0, 0.5, 0.9), (0.5, 0.5, 0.8), (2 / 3, 1.0, 0.7))

    def test_one_point_per_rank(self):
        gold = {("a", "b", 1)}
        preds = ranked(*((("p", str(i)), 1, 1.0 - i * 0.1) for i in range(7)))
        assert len(ev.pr_curve(preds, gold)) == 7

    def test_empty_gold_rejected(self):
        with pytest.raises(DataError):
            ev.pr_curve(ranked((("a", "b"), 1, 0.5)), set())

    def test_empty_predictions_give_no_points(self):
        assert ev.pr_curve([], {("a", "b", 1)}) == ()

    def test_recall_hits_one_when_all_gold_found(self):
        gold = {("a", "b", 1), ("c", "d", 1)}
        preds = ranked((("a", "b"), 1, 0.9), (("c", "d"), 1, 0.8))
        assert ev.pr_curve(preds, gold)[-1] == (1.0, 1.0, 0.8)


class TestPrecisionAtN:
    def test_exact_cutoffs(self):
        gold = {("a", "b", 1), ("c", "d", 1)}
        preds = ranked((("a", "b"), 1, 0.9), (("x", "y"), 1, 0.8),
                       (("c", "d"), 1, 0.7), (("u", "v"), 1, 0.6))
        result = ev.precision_at_n(preds, gold, (1, 2, 3, 4))
        assert result.values == {1: 1.0, 2: 0.5, 3: 2 / 3, 4: 0.5}
        assert result.truncated == frozenset()

    def test_cutoff_beyond_list_marks_truncation(self):
        gold = {("a", "b", 1)}
        preds = ranked((("a", "b"), 1, 0.9), (("x", "y"), 1, 0.8))
        result = ev.precision_at_n(preds, gold, (5,))
        assert result.values == {5: 0.5}
        assert result.truncated == frozenset({5})

    def test_nonpositive_cutoff_rejected(self):
        with pytest.raises(ValueError):
            ev.precision_at_n(ranked((("a", "b"), 1, 0.9)), {("a", "b", 1)}, (0,))

    def test_empty_ranking_scores_zero(self):
        result = ev.precision_at_n([], {("a", "b", 1)}, (3,))
        assert result.values == {3: 0.0}
        assert result.truncated == frozenset({3})

    def test_mean(self):
        gold = {("a", "b", 1)}
        preds = ranked((("a", "b"), 1, 0.9), (("x", "y"), 1, 0.8))
        result = ev.precision_at_n(preds, gold, (1, 2))
        assert result.mean == pytest.approx((1.0 + 0.5) / 2)


class TestEncodeGold:
    def test_maps_labels_to_ids(self):
        schema = ds.RelationSchema(("NA", "born_in", "works_at"))
        out = ev.encode_gold([("a", "b", "works_at"), ("c", "d", "born_in")], schema)
        assert out == {("a", "b", 2), ("c", "d", 1)}

    def test_negative_label_rejected(self):
        schema = ds.RelationSchema(("NA", "born_in"))
        with pytest.raises(DataError):
            ev.encode_gold([("a", "b", "NA")], schema)

    def test_unknown_label_rejected(self):
        schema = ds.RelationSchema(("NA", "born_in"))
        with pytest.raises(DataError):
            ev.encode_gold([("a", "b", "lives_in")], schema)


class FakedScoreModel:
    """Stands in for a trained net: scores are read off a fixed table."""

    def __init__(self, schema, table):
        self.schema = schema
        self.table = table


class TestCollectPredictions:
    def _setup(self, scores):
        """scores: list of per-instance probability rows (K columns)."""
        ecfg = em.EmbeddingConfig(word_dim=4, pos_dim=2, min_distance=-3,
                                  max_distance=3, sent_len=8)
        schema = ds.RelationSchema(("NA", "r1", "r2"))
        vocab = em.Vocabulary(["w0", "w1", "w2"])
        mcfg = md.ModelConfig(variant="cnn_b", conv_layers=1, window=3, filters=4,
                              fc_widths=(3,), keep_prob=1.0, num_relations=3,
                              embedding=ecfg)
        model = md.build_model(mcfg, seed=0, vocab=vocab, schema=schema)
        return model

    @staticmethod
    def _encode(model, sentences):
        """EncodedCorpus of (tokens, label, pair key) sentences, entities at 0 and 2."""
        rows = [ds.CorpusInstance(tuple(tokens), 0, 2, key[0], key[1], model.schema.labels[label])
                for tokens, label, key in sentences]
        encoded, _ = em.encode_corpus(rows, model.vocab, model.config.embedding, model.schema)
        return encoded

    def test_max_aggregation_keeps_best_sentence(self, monkeypatch):
        model = self._setup(None)
        encoded = self._encode(model, [
            (["w0", "w1", "w2"], 1, ("x", "y")),
            (["w0", "w1", "w2"], 1, ("x", "y")),
            (["w2", "w1", "w0"], 1, ("u", "v")),
        ])
        table = np.array([
            [0.2, 0.5, 0.3],   # pair (x, y), sentence 0
            [0.1, 0.7, 0.2],   # pair (x, y), sentence 1 (better for r1)
            [0.3, 0.3, 0.4],   # pair (u, v)
        ])
        monkeypatch.setattr(md, "predict_proba", lambda m, e, chunk=256: table)
        preds = ev.collect_predictions(model, encoded)
        by_key = {(p.pair_key, p.relation_id): p for p in preds}
        assert by_key[(("x", "y"), 1)].score == 0.7
        assert by_key[(("x", "y"), 1)].source_index == 1
        assert by_key[(("u", "v"), 2)].score == 0.4
        # two pairs times two positive relations
        assert len(preds) == 4

    def test_tie_keeps_earliest_sentence(self, monkeypatch):
        model = self._setup(None)
        encoded = self._encode(model, [(["w0", "w1", "w2"], 1, ("", ""))] * 2)
        table = np.array([[0.2, 0.5, 0.3], [0.2, 0.5, 0.3]])
        monkeypatch.setattr(md, "predict_proba", lambda m, e, chunk=256: table)
        preds = ev.collect_predictions(model, encoded)
        assert all(p.source_index == 0 for p in preds)

    def test_sort_is_deterministic_under_score_ties(self, monkeypatch):
        model = self._setup(None)
        encoded = self._encode(model, [(["w0", "w1", "w2"], 1, key) for key in (("b", "b"), ("a", "a"))])
        table = np.array([[0.2, 0.4, 0.4], [0.2, 0.4, 0.4]])
        monkeypatch.setattr(md, "predict_proba", lambda m, e, chunk=256: table)
        preds = ev.collect_predictions(model, encoded)
        order = [(p.pair_key, p.relation_id) for p in preds]
        assert order == [(("a", "a"), 1), (("a", "a"), 2),
                         (("b", "b"), 1), (("b", "b"), 2)]

    def test_empty_input(self):
        model = self._setup(None)
        assert ev.collect_predictions(model, self._encode(model, [])) == []

    def test_na_never_ranked(self, monkeypatch):
        model = self._setup(None)
        encoded = self._encode(model, [(["w0", "w1", "w2"], 0, ("", ""))])
        table = np.array([[0.98, 0.01, 0.01]])
        monkeypatch.setattr(md, "predict_proba", lambda m, e, chunk=256: table)
        preds = ev.collect_predictions(model, encoded)
        assert {p.relation_id for p in preds} == {1, 2}


def dict_loop_ranking(pair_keys, probs, num_relations):
    """collect_predictions as one dict update per (sentence, relation): the reference."""
    best = {}
    for i, pair_key in enumerate(pair_keys):
        for rid in range(1, num_relations):
            key = (pair_key, rid)
            score = float(probs[i, rid])
            cur = best.get(key)
            if cur is None or score > cur.score:
                best[key] = ev.RankedPrediction(pair_key, rid, score, i)
    return sorted(best.values(), key=lambda p: (-p.score, p.pair_key, p.relation_id))


class TestCollectPredictionsOracle:
    """Random scores on a coarse grid force ties in both the max and the sort."""

    @pytest.mark.parametrize("num_relations", [2, 3, 6])
    def test_matches_dict_loop(self, monkeypatch, num_relations):
        rng = np.random.default_rng(num_relations)
        entities = ["a", "b", "c", "d", "aa", "B"]
        schema = ds.RelationSchema(("NA", *(f"r{k}" for k in range(1, num_relations))))
        model = FakedScoreModel(schema, None)
        for _ in range(200):
            count = int(rng.integers(1, 40))
            keys = [(entities[int(a)], entities[int(b)]) for a, b in rng.integers(len(entities), size=(count, 2))]
            probs = rng.integers(0, 5, size=(count, num_relations)) / 4.0
            rows = [ds.CorpusInstance(("w",), 0, 0, a, b, "NA") for a, b in keys]
            encoded, _ = em.encode_corpus(rows, em.Vocabulary(), em.EmbeddingConfig(sent_len=3), schema)
            monkeypatch.setattr(md, "predict_proba", lambda m, e, chunk=256: probs)
            want = dict_loop_ranking(keys, probs, num_relations)
            assert ev.collect_predictions(model, encoded) == want

    def test_matches_dict_loop_on_a_trained_model(self, trained):
        model, test, _ = trained
        encoded, _ = em.encode_corpus(test, model.vocab, model.config.embedding, model.schema)
        probs = md.predict_proba(model, encoded)
        want = dict_loop_ranking(encoded.pair_keys, probs, model.schema.num_relations)
        assert ev.collect_predictions(model, encoded) == want


class TestSharedHitSweep:
    def test_precomputed_hits_give_the_same_metrics(self):
        gold = {("a", "b", 1), ("c", "d", 2)}
        preds = ranked((("a", "b"), 1, 0.9), (("e", "f"), 1, 0.8), (("c", "d"), 2, 0.7))
        hits = ev._cumulative_hits(preds, gold)
        assert hits.tolist() == [1, 1, 2]
        assert ev.pr_curve(preds, gold, hits=hits) == ev.pr_curve(preds, gold)
        assert ev.precision_at_n(preds, gold, (1, 2, 5), hits=hits) == ev.precision_at_n(preds, gold, (1, 2, 5))


@pytest.fixture(scope="module")
def trained():
    cfg = ds.SynthConfig(num_relations=3, vocab_size=40, num_train=60,
                         num_test=30, min_len=6, max_len=12, seed=2)
    train, test, gold = ds.synth_generate(cfg)
    schema = ds.RelationSchema.from_corpus(train)
    vocab = em.Vocabulary.from_corpus(train)
    ecfg = em.EmbeddingConfig(word_dim=6, pos_dim=2, min_distance=-5,
                              max_distance=5, sent_len=16)
    mcfg = md.ModelConfig(variant="cnn", conv_layers=1, window=3, filters=8,
                          fc_widths=md.default_fc_widths("cnn", 8, schema.num_relations),
                          keep_prob=1.0, num_relations=schema.num_relations,
                          embedding=ecfg)
    model = md.build_model(mcfg, seed=0, vocab=vocab, schema=schema)
    tr.train(model, train,
             tr.TrainConfig(batch_size=8, epochs=15, seed=0, learning_rate=0.01))
    return model, test, gold


class TestEvaluateEndToEnd:

    def test_report_bookkeeping(self, trained):
        model, test, gold = trained
        report = ev.evaluate(model, test, gold, ns=(5, 10))
        assert report.gold_count == len(ev.encode_gold(gold, model.schema))
        assert len(report.pr_points) == report.prediction_count
        assert set(report.p_at.values) == {5, 10}

    def test_trained_model_ranks_gold_first(self, trained):
        model, test, gold = trained
        report = ev.evaluate(model, test, gold, ns=(5,))
        assert report.p_at.values[5] >= 0.8

    def test_precision_recall_ranges(self, trained):
        model, test, gold = trained
        report = ev.evaluate(model, test, gold)
        for precision, recall, score in report.pr_points:
            assert 0.0 <= precision <= 1.0
            assert 0.0 <= recall <= 1.0
            assert 0.0 <= score <= 1.0
        recalls = [r for _, r, _ in report.pr_points]
        assert recalls == sorted(recalls)


class TestCsvWriters:
    def _report(self):
        return ev.EvalReport(
            pr_points=((1.0, 0.5, 0.9), (0.5, 0.5, 0.8)),
            p_at=ev.PrecisionAtN(values={2: 0.5}, truncated=frozenset()),
            gold_count=2,
            prediction_count=2,
        )

    def test_pr_csv_layout(self, tmp_path):
        path = tmp_path / "pr.csv"
        ev.write_pr_csv(self._report(), path)
        lines = path.read_text().splitlines()
        assert lines[0] == "precision,recall,threshold"
        assert lines[1] == "1.0,0.5,0.9"
        assert len(lines) == 3

    def test_pan_csv_layout(self, tmp_path):
        path = tmp_path / "pan.csv"
        ev.write_pan_csv(self._report(), path)
        lines = path.read_text().splitlines()
        assert lines[0] == "N,precision"
        assert lines[1] == "2,0.5"

    def test_pr_csv_floats_survive_round_trip(self, tmp_path):
        report = ev.EvalReport(
            pr_points=((1 / 3, 1 / 7, 0.123456789012345678),),
            p_at=ev.PrecisionAtN(values={1: 1 / 3}, truncated=frozenset()),
            gold_count=7,
            prediction_count=1,
        )
        path = tmp_path / "pr.csv"
        ev.write_pr_csv(report, path)
        row = path.read_text().splitlines()[1].split(",")
        assert [float(x) for x in row] == [1 / 3, 1 / 7, 0.123456789012345678]
