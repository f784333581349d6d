"""Each benchmark check passes on the program's real output and fails on a perturbed one.

    PYTHONPATH=src python3 -m pytest bench/tests -q
"""

import os
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.dirname(HERE))
sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(HERE)), "src"))

import checks  # noqa: E402
from rescnn import autodiff as ad  # noqa: E402
from rescnn import dataset as ds  # noqa: E402
from rescnn import embeddings as em  # noqa: E402
from rescnn import evaluation as ev  # noqa: E402
from rescnn import model as md  # noqa: E402
from rescnn import training as tr  # noqa: E402


@pytest.fixture(scope="module")
def setup():
    scfg = ds.SynthConfig(num_relations=3, vocab_size=20, min_len=5, max_len=8, noise_rate=0.3,
                          na_fraction=0.2, num_train=400, num_test=300, num_entities=12, seed=3)
    train_set, test_set, gold = ds.synth_generate(scfg)
    schema = ds.synth_schema(scfg)
    vocab = em.Vocabulary.from_corpus(train_set)
    ecfg = em.EmbeddingConfig(word_dim=4, pos_dim=2, min_distance=-4, max_distance=4, sent_len=8)
    config = md.ModelConfig(variant="rescnn_x", conv_layers=3, window=3, filters=4, fc_widths=(4, 4, 4),
                            keep_prob=0.5, num_relations=schema.num_relations, embedding=ecfg)
    model = md.build_model(config, seed=1, vocab=vocab, schema=schema)
    log = tr.train(model, train_set, tr.TrainConfig(batch_size=16, epochs=1, seed=1))
    return scfg, train_set, test_set, gold, model, log


def rows(instances):
    return [{"tokens": list(i.tokens), "e1_id": i.e1_id, "e2_id": i.e2_id, "relation": i.relation}
            for i in instances]


def reference_for(model, test_set, gold, ns):
    encoded, _ = em.encode_corpus(test_set, model.vocab, model.config.embedding, model.schema)
    probs = md.predict_proba(model, encoded)
    keys = [(i.e1_id, i.e2_id) for i in test_set]
    gold_ids = {(e1, e2, model.schema.labels.index(r)) for e1, e2, r in gold}
    return probs, checks.reference_report(probs, keys, gold_ids, ns)


def test_ranking_matches_and_two_swapped_candidates_fail(setup):
    _scfg, _train, test_set, gold, model, _log = setup
    report = ev.evaluate(model, test_set, gold, ns=(5, 10, 1000))
    _probs, want = reference_for(model, test_set, gold, (5, 10, 1000))
    assert checks.check_report("r", want, report.pr_points, report.p_at.values,
                               report.prediction_count, report.gold_count) == []
    ranked = ev.collect_predictions(model, em.encode_corpus(test_set, model.vocab, model.config.embedding,
                                                            model.schema)[0])
    gold_ids = ev.encode_gold(gold, model.schema)
    hits = [(p.pair_key[0], p.pair_key[1], p.relation_id) in gold_ids for p in ranked]
    k = next(i for i in range(len(hits) - 1) if hits[i] != hits[i + 1])
    ranked[k], ranked[k + 1] = ranked[k + 1], ranked[k]
    swapped = ev.pr_curve(ranked, gold_ids)
    assert checks.check_report("r", want, swapped, report.p_at.values)


def test_probability_rows_fail_when_one_entry_moves(setup):
    _scfg, _train, test_set, gold, model, _log = setup
    probs, _want = reference_for(model, test_set, gold, (5,))
    assert checks.check_probabilities("p", probs) == []
    probs = probs.copy()
    probs[7, 1] += 1e-9
    assert checks.check_probabilities("p", probs)


def test_gradients_pass_and_a_scaled_conv_gradient_fails(setup):
    _scfg, train_set, _test, _gold, model, _log = setup
    batch, _ = em.encode_corpus(train_set[:8], model.vocab, model.config.embedding, model.schema)
    labels = [e.label for e in batch]

    def loss():
        return ad.mean(ad.softmax_cross_entropy(md.forward(model, batch, mode="test"), labels))

    model.zero_grads()
    ad.backward(loss())
    analytic = {name: t.grad.copy() for name, t in model.params.items()}
    assert checks.check_gradients(lambda: float(loss().data), model.params, analytic) == []
    analytic["block0_conv1_kernel"] *= 1.001
    failures = checks.check_gradients(lambda: float(loss().data), model.params, analytic)
    assert failures and all("block0_conv1_kernel" in f for f in failures)


def test_conv_matches_the_sliding_window_and_a_changed_kernel_fails():
    rng = np.random.default_rng(0)
    x, kernel, bias = rng.normal(size=(3, 9, 5)), rng.normal(size=(3, 5, 4)), rng.normal(size=4)
    for padding in ("valid", "same"):
        got = ad.conv1d(ad.Tensor(x), ad.Tensor(kernel), ad.Tensor(bias), padding=padding).data
        assert checks.check_conv(padding, got, checks.conv1d_reference(x, kernel, bias, padding)) == []
        moved = kernel.copy()
        moved[2, 1, 0] *= 1.001
        assert checks.check_conv(padding, got, checks.conv1d_reference(x, moved, bias, padding))


def test_gold_and_clean_labels_fail_on_one_flipped_label(setup):
    _scfg, _train, test_set, gold, _model, _log = setup
    test_rows = rows(test_set)
    assert checks.check_gold("g", gold, test_rows) == []
    assert checks.check_flip_rate("t", test_rows, 0.0, clean=True) == []
    i = next(i for i, r in enumerate(test_rows) if r["relation"] != "NA")
    test_rows[i]["relation"] = "rel_02" if test_rows[i]["relation"] != "rel_02" else "rel_01"
    assert checks.check_gold("g", gold, test_rows)
    assert checks.check_flip_rate("t", test_rows, 0.0, clean=True)


def test_flip_rate_fails_when_the_noise_is_missing(setup):
    scfg, train_set, test_set, _gold, _model, _log = setup
    assert checks.check_flip_rate("train", rows(train_set), scfg.noise_rate) == []
    assert checks.check_flip_rate("train", rows(test_set), scfg.noise_rate)


def test_trainlog_fails_on_a_missing_or_nonfinite_row(setup):
    _scfg, train_set, _test, _gold, _model, log = setup
    assert checks.check_trainlog("l", log.steps, len(train_set), 16, 1) == []
    assert checks.check_trainlog("l", log.steps[:-1], len(train_set), 16, 1)
    broken = list(log.steps)
    broken[3] = (broken[3][0], broken[3][1], float("nan"))
    assert checks.check_trainlog("l", broken, len(train_set), 16, 1)


def test_same_seed_losses_fail_on_one_ulp(setup):
    _scfg, _train, _test, _gold, _model, log = setup
    losses = [s[2] for s in log.steps[:4]]
    assert checks.check_same_losses("d", losses, list(losses)) == []
    moved = list(losses)
    moved[2] = float(np.nextafter(moved[2], np.inf))
    assert checks.check_same_losses("d", losses, moved)
