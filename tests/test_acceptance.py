"""End-to-end checks for the package's headline guarantees.

Each test prints one verdict line (run with ``-s`` to watch them as they
finish). The noise-ladder comparison trains fifteen models and dominates the
runtime of the whole suite; everything else completes in seconds.
"""

import time

import numpy as np
import pytest

from rescnn import autodiff as ad
from rescnn import cli
from rescnn import dataset as ds
from rescnn import embeddings as em
from rescnn import evaluation as ev
from rescnn import experiments as ex
from rescnn import model as md
from rescnn import training as tr


def report(name, ok, detail):
    print(f"{name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{name}: {detail}"


class TestGradientFidelity:
    def test_finite_differences_agree_on_deep_toy_models(self):
        start = time.time()
        worst = 0.0
        for variant in ("cnn_x", "rescnn_x"):
            build = cli._toy_gradcheck_setup(variant, seed=0)
            result = ad.finite_diff_check(build, eps=1e-5)
            worst = max(worst, result.max_rel_err)
        elapsed = time.time() - start
        report(
            "gradient fidelity",
            worst < 1e-4 and elapsed < 60.0,
            f"max rel err {worst:.3e} < 1e-04, {elapsed:.1f}s < 60s",
        )


class TestIdentityShortcut:
    def test_zeroed_blocks_reduce_deep_model_to_single_conv(self):
        ecfg = em.EmbeddingConfig(word_dim=8, pos_dim=3, min_distance=-5,
                                  max_distance=5, sent_len=12)
        schema = ds.RelationSchema(("NA", "r1", "r2", "r3"))
        vocab = em.Vocabulary([f"t{i}" for i in range(12)])
        deep_cfg = md.ModelConfig(variant="rescnn_x", conv_layers=9, window=3,
                                  filters=8, fc_widths=(8, 8, 4), keep_prob=1.0,
                                  num_relations=4, embedding=ecfg)
        deep = md.build_model(deep_cfg, seed=11, vocab=vocab, schema=schema)
        for b in range(deep_cfg.num_blocks):
            for suffix in ("conv1_kernel", "conv1_bias", "conv2_kernel", "conv2_bias"):
                deep.params[f"block{b}_{suffix}"].data[...] = 0.0
        shallow_cfg = md.ModelConfig(variant="cnn", conv_layers=1, window=3,
                                     filters=8, fc_widths=(8, 8, 4), keep_prob=1.0,
                                     num_relations=4, embedding=ecfg)
        shallow = md.build_model(shallow_cfg, seed=12, vocab=vocab, schema=schema)
        for name, param in shallow.params.items():
            param.data[...] = deep.params[name].data
        rows = [ds.CorpusInstance(tuple(f"t{(i + j) % 12}" for j in range(9)), 0, 4, "", "",
                                  schema.labels[i % 4]) for i in range(5)]
        batch, _ = em.encode_corpus(rows, vocab, ecfg, schema)
        diff = np.abs(md.forward(deep, batch).data - md.forward(shallow, batch).data).max()
        report("identity shortcut", diff <= 1e-12, f"max |logit diff| {diff:.3e} <= 1e-12")


class TestDropoutEquivalence:
    def test_monte_carlo_mean_matches_scaled_test_mode(self):
        # E[w (z o r)] = p w z: averaging many masked train-mode outputs must
        # reproduce the deterministic test-mode output that scales by p
        ecfg = em.EmbeddingConfig(word_dim=4, pos_dim=2, min_distance=-3,
                                  max_distance=3, sent_len=8)
        schema = ds.RelationSchema(("NA", "r1", "r2"))
        vocab = em.Vocabulary([f"t{i}" for i in range(8)])
        mcfg = md.ModelConfig(variant="cnn", conv_layers=1, window=3, filters=4,
                              fc_widths=(4, 4, 3), keep_prob=0.5, num_relations=3,
                              embedding=ecfg)
        model = md.build_model(mcfg, seed=1, vocab=vocab, schema=schema)
        rows = [ds.CorpusInstance(tuple(f"t{(i + j) % 8}" for j in range(6)), 0, 3, "", "",
                                  schema.labels[1]) for i in range(3)]
        batch, _ = em.encode_corpus(rows, vocab, ecfg, schema)
        expected = md.forward(model, batch, mode="test").data
        draws = 10_000
        rng = np.random.default_rng((1, 42))
        total = np.zeros_like(expected)
        total_sq = np.zeros_like(expected)
        for _ in range(draws):
            out = md.forward(model, batch, mode="train", rng=rng).data
            total += out
            total_sq += out * out
        mean = total / draws
        variance = np.maximum(total_sq / draws - mean * mean, 0.0)
        se = np.sqrt(variance / draws)
        diff = np.abs(mean - expected)
        # coordinates with zero variance must match outright
        ok = bool(np.all(np.where(se > 0, diff <= 3 * se, diff == 0)))
        worst = float((diff / np.where(se > 0, se, 1.0)).max())
        report("dropout equivalence", ok,
               f"10,000 masks, max |mean - scaled| = {worst:.2f} SE <= 3 SE")


class TestMemorization:
    def test_single_conv_net_memorizes_clean_corpus(self):
        start = time.time()
        scfg = ds.SynthConfig(num_relations=5, num_train=200, num_test=50,
                              noise_rate=0.0, na_fraction=0.0,
                              min_len=8, max_len=20, seed=3)
        train, _, _ = ds.synth_generate(scfg)
        schema = ds.RelationSchema.from_corpus(train)
        vocab = em.Vocabulary.from_corpus(train)
        ecfg = em.EmbeddingConfig(word_dim=50, pos_dim=5, min_distance=-30,
                                  max_distance=30, sent_len=20)
        mcfg = md.ModelConfig(variant="cnn", conv_layers=1, window=3, filters=32,
                              fc_widths=(32, 32, schema.num_relations),
                              keep_prob=0.5, num_relations=schema.num_relations,
                              embedding=ecfg)
        model = md.build_model(mcfg, seed=0, vocab=vocab, schema=schema)
        tr.train(model, train,
                 tr.TrainConfig(batch_size=64, learning_rate=0.001, epochs=50, seed=0))
        encoded, _ = em.encode_corpus(train, vocab, ecfg, schema)
        accuracy = tr.accuracy_on(model, encoded)
        elapsed = time.time() - start
        report("memorization", accuracy >= 0.99 and elapsed < 300.0,
               f"train accuracy {accuracy:.3f} >= 0.99 after 50 epochs, {elapsed:.0f}s < 300s")


class TestRankingMetricOracle:
    @staticmethod
    def _oracle_pr(ranked, gold):
        points = []
        hits = 0
        for k, pred in enumerate(ranked, start=1):
            if (pred.pair_key[0], pred.pair_key[1], pred.relation_id) in gold:
                hits += 1
            points.append((hits / k, hits / len(gold), pred.score))
        return tuple(points)

    @staticmethod
    def _oracle_pan(ranked, gold, ns):
        values = {}
        truncated = set()
        for n in ns:
            if n > len(ranked):
                truncated.add(n)
            top = ranked[: min(n, len(ranked))]
            if not top:
                values[n] = 0.0
                continue
            hits = sum(
                1 for p in top
                if (p.pair_key[0], p.pair_key[1], p.relation_id) in gold
            )
            values[n] = hits / len(top)
        return values, truncated

    def test_metrics_match_brute_force_on_randomized_rankings(self):
        rng = np.random.default_rng(0)
        pairs = [(f"e{a}", f"e{b}") for a in range(4) for b in range(4)]
        trials = 1000
        for _ in range(trials):
            length = int(rng.integers(0, 40))
            ranked = []
            for i in range(length):
                pair = pairs[rng.integers(len(pairs))]
                rid = int(rng.integers(1, 4))
                score = float(rng.integers(0, 10)) / 10.0  # coarse grid forces ties
                ranked.append(ev.RankedPrediction(pair, rid, score, i))
            gold = set()
            for _ in range(int(rng.integers(1, 9))):
                pair = pairs[rng.integers(len(pairs))]
                gold.add((pair[0], pair[1], int(rng.integers(1, 4))))
            assert ev.pr_curve(ranked, gold) == self._oracle_pr(ranked, gold)
            ns = sorted({int(n) for n in rng.integers(1, 50, size=rng.integers(1, 5))})
            result = ev.precision_at_n(ranked, gold, ns)
            values, truncated = self._oracle_pan(ranked, gold, ns)
            assert result.values == values
            assert result.truncated == frozenset(truncated)
        report("ranking metric oracle", True,
               f"{trials} randomized rankings matched exactly")


class TestDeterminism:
    def test_same_seed_runs_are_bit_identical(self, tmp_path):
        data = tmp_path / "data"
        assert cli.main(["synth", "--out", str(data), "--n-train", "80",
                         "--n-test", "40", "--relations", "3", "--vocab", "40",
                         "--min-len", "6", "--max-len", "12", "--seed", "0"]) == 0
        outputs = {}
        for run in ("a", "b"):
            run_dir = tmp_path / f"run_{run}"
            eval_dir = tmp_path / f"eval_{run}"
            assert cli.main(["train", "--corpus", str(data / "train.jsonl"),
                             "--out", str(run_dir), "--variant", "rescnn_x",
                             "--conv-layers", "3", "--m", "8", "--dw", "6",
                             "--dp", "2", "--emin", "-5", "--emax", "5",
                             "--n", "16", "--batch", "8", "--epochs", "2",
                             "--seed", "7"]) == 0
            assert cli.main(["eval", "--checkpoint", str(run_dir / "checkpoint.bin"),
                             "--corpus", str(data / "test.jsonl"),
                             "--gold", str(data / "gold.csv"),
                             "--out", str(eval_dir), "--pan", "5,10"]) == 0
            outputs[run] = {
                "checkpoint.bin": (run_dir / "checkpoint.bin").read_bytes(),
                "trainlog.csv": (run_dir / "trainlog.csv").read_bytes(),
                "pr.csv": (eval_dir / "pr.csv").read_bytes(),
                "pan.csv": (eval_dir / "pan.csv").read_bytes(),
            }
        mismatched = [name for name in outputs["a"]
                      if outputs["a"][name] != outputs["b"][name]]
        report("determinism", not mismatched,
               "checkpoint.bin, trainlog.csv, pr.csv, pan.csv bit-identical"
               if not mismatched else f"mismatch in {mismatched}")


class TestPositionConformance:
    def test_worked_sentence_and_boundary_clipping(self):
        cfg = em.EmbeddingConfig(word_dim=50, pos_dim=5, min_distance=-30,
                                 max_distance=30, sent_len=100)
        tokens = ["Steve_Jobs", "is", "the", "founder", "of", "Apple."]
        # row ids are clipped distances shifted by -min_distance
        head_row = em.relative_position(3, 0, cfg)
        tail_row = em.relative_position(3, 5, cfg)
        distances_ok = (head_row - 30 == 3) and (tail_row - 30 == -2)

        far_left = em.relative_position(0, 99, cfg)
        far_right = em.relative_position(99, 0, cfg)
        clip_ok = (far_left == 0) and (far_right == cfg.num_distances - 1)

        vocab = em.Vocabulary(tokens)
        inst = em.encode_instance(tokens, 0, 5, 0, vocab, cfg)
        encoded_ok = (inst.pos1_ids[3] == head_row) and (inst.pos2_ids[3] == tail_row)

        report("position conformance", distances_ok and clip_ok and encoded_ok,
               f"distances +3/-2 -> rows {head_row}/{tail_row}; "
               f"out-of-range inputs clip to rows 0/{cfg.num_distances - 1}")


class TestNoiseLadder:
    def test_residual_depth_helps_and_plain_depth_hurts(self):
        start = time.time()
        scores = ex.run_ladder(ex.LadderConfig(), seeds=range(5))
        means = ex.summarize(scores)
        elapsed = time.time() - start
        margin = means["rescnn_9"] - means["cnn_9"]
        ordering = means["cnn_9"] <= means["cnn_5"]
        report(
            "noise ladder",
            margin > 0.0 and ordering and elapsed < 1800.0,
            f"mean P@(10,20,50) over 5 seeds: rescnn_9 {means['rescnn_9']:.3f}, "
            f"cnn_9 {means['cnn_9']:.3f}, cnn_5 {means['cnn_5']:.3f}; "
            f"residual margin +{margin:.3f}, deep plain <= shallow plain: {ordering}; "
            f"{elapsed:.0f}s < 1800s",
        )
