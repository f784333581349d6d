"""One workload in one process: run it, check its outputs, write the figures.

Started by ``run.py`` with BLAS pinned to one thread in the environment and
``src`` on ``PYTHONPATH``. ``--t0`` is the ``perf_counter`` reading (system
wide CLOCK_MONOTONIC on Linux) taken when the benchmark process started, so
``setup_s`` and ``wall_s`` include interpreter start and imports.

A run repeats whole rounds of its workload until ``--seconds`` seconds have
passed; ``setup_s`` and ``wall_s`` come from the first, cold round and the
rates from all rounds. Checks run after the timed rounds, on round one.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import math
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import checks  # noqa: E402
from tracer import OPS, RssSampler, Tracer  # noqa: E402

LADDER_RUNGS = ("rescnn_9", "cnn_9", "cnn_5")
LADDER_TEST = 5000
STEP_RUNGS = LADDER_RUNGS + ("cnn",)

# rank_eval: a briefly trained rescnn_9 scores a large held-out corpus
RANK_TRAIN = 6400  # 100 steps of 64
RANK_TEST = 20000
RANK_ENTITIES = 500
RANK_CUTOFFS = (100, 200, 500)

# cli_pipeline: synth, train and eval as separate processes
CLI_TRAIN = 20000
CLI_EPOCHS = 2
CLI_TEST = 40000
CLI_CUTOFFS = "100,200,500"
CLI_NOISE = 0.3

FD_SENTENCES = 8  # finite differences run on this many sentences of the train batch
CONV_SENTENCES = 32
RERUN_STEPS = 4


def _rescnn():
    import rescnn
    import rescnn.cli  # noqa: F401  (not imported by the package itself)

    return rescnn


# -- in-process workloads ---------------------------------------------------------


def ladder_round(rescnn, seed, tracer):
    """The three ladder rungs, one epoch each, on one LadderConfig corpus.

    The test split is 5,000 sentences, not the ladder's 1,000, so that each
    rung's evaluation lasts over a second.
    """
    ex = rescnn.experiments
    ex.run_ladder_seed(ex.LadderConfig(epochs=1, num_test=LADDER_TEST), seed)


def rank_round(rescnn, seed, tracer):
    """A rescnn_9 model at ladder shape, trained 100 steps, ranks 20k held-out sentences."""
    ds, em, md, tr, ev, ex = (rescnn.dataset, rescnn.embeddings, rescnn.model, rescnn.training,
                              rescnn.evaluation, rescnn.experiments)
    lcfg = ex.LadderConfig(epochs=1)
    scfg = dataclasses.replace(lcfg.synth(seed), num_train=RANK_TRAIN, num_test=RANK_TEST,
                               num_entities=RANK_ENTITIES)
    train_set, test_set, gold = ds.synth_generate(scfg)
    schema = ds.synth_schema(scfg)
    vocab = em.Vocabulary.from_corpus(train_set)
    config = md.ModelConfig(
        variant="rescnn_x", conv_layers=9, window=lcfg.window, filters=lcfg.filters,
        fc_widths=md.default_fc_widths("rescnn_x", lcfg.filters, schema.num_relations),
        keep_prob=lcfg.keep_prob, num_relations=schema.num_relations, embedding=lcfg.embedding(),
    )
    model = md.build_model(config, seed=seed, vocab=vocab, schema=schema)
    tracer.context = "rescnn_9"
    tr.train(model, train_set, tr.TrainConfig(batch_size=lcfg.batch_size, learning_rate=lcfg.learning_rate,
                                              epochs=1, seed=seed))
    ev.evaluate(model, test_set, gold, ns=RANK_CUTOFFS)


IN_PROCESS = {"ladder_train": (ladder_round, 6), "rank_eval": (rank_round, 2)}


def install(tracer, rescnn, trace):
    tracer.install_phases(rescnn)
    if trace:
        tracer.sampler = RssSampler()
        tracer.sampler.start()
        tracer.install_layers(rescnn)


def uninstall(tracer):
    tracer.uninstall()
    if tracer.sampler is not None:
        tracer.sampler.stop()


def run_in_process(args, tracer):
    rescnn = _rescnn()
    install(tracer, rescnn, args.trace)
    round_fn, ops_per_round = IN_PROCESS[args.workload]
    attempted = failed = 0
    round_marks = []
    start = time.perf_counter()
    while True:
        before = _phase_calls(tracer)
        attempted += ops_per_round
        try:
            round_fn(rescnn, args.seed, tracer)
        except Exception as exc:  # a failed operation is counted, not fatal
            print(f"round failed: {exc!r}", file=sys.stderr)
            failed += ops_per_round - (_phase_calls(tracer) - before)
            break
        finally:
            round_marks.append(len(tracer.spans))
        if time.perf_counter() - start >= args.seconds:
            break
    uninstall(tracer)
    metrics = phase_metrics(tracer, args.t0, round_marks[0])
    failures = [] if failed else check_in_process(rescnn, tracer)
    return attempted, failed, failures, metrics


def _phase_calls(tracer):
    """Training and evaluation calls that returned (only those are captured)."""
    return sum(len(tracer.captured.get(name, ())) for name in ("training.train", "evaluation.evaluate"))


def phase_metrics(tracer, t0, first_round_end):
    """End-to-end figures from the phase spans.

    Each phase time has its full training steps and full prediction chunks
    counted at the median of their own durations in that call, so that a
    burst of contention from other tenants of the machine moves a figure
    less than the burst lasts; everything else in the phase (encoding, the
    first and last step, aggregation, the sweep) counts as measured.
    ``wall_s`` takes the same correction for round one's phases.
    """
    spans = tracer.spans
    children = {}
    for i, (_name, _start, _end, parent) in enumerate(spans):
        children.setdefault(parent, []).append(i)
    train_s = eval_s = correction = 0.0
    first_train = last_eval = None
    for i, (name, start, end, _parent) in enumerate(spans):
        if name == "training.train":
            ends = [spans[c][2] for c in children.get(i, ()) if spans[c][0] == "autodiff.adam_step"]
            full = [b - a for a, b in zip(ends, ends[1:])][:-1]  # steps 2 .. n-1
            saved = _median_saving(full)
            train_s += end - start - saved
            first_train = start if first_train is None else first_train
        elif name == "evaluation.evaluate":
            chunks = [spans[c][2] - spans[c][1] for p in _descendants(children, i, spans, "model.predict_proba")
                      for c in children.get(p, ()) if spans[c][0] == "model.forward"]
            saved = _median_saving(chunks[:-1])  # the last chunk may be partial
            eval_s += end - start - saved
            if i < first_round_end:
                last_eval = end
        else:
            continue
        if i < first_round_end:
            correction += saved
    train_n = sum(len(a[1]) * a[2].epochs for a, _kw, _log in tracer.captured.get("training.train", ()))
    eval_n = sum(len(a[1]) for a, _kw, _report in tracer.captured.get("evaluation.evaluate", ()))
    return {
        "setup_s": first_train - t0,
        "train_sentences_per_s": train_n / train_s,
        "eval_sentences_per_s": eval_n / eval_s,
        "wall_s": last_eval - t0 - correction,
    }


def _median_saving(durations):
    """Measured total minus the total at the median duration."""
    if not durations:
        return 0.0
    return sum(durations) - statistics.median(durations) * len(durations)


def _descendants(children, idx, spans, name):
    """Indices of the spans called ``name`` below span ``idx``."""
    found, stack = [], list(children.get(idx, ()))
    while stack:
        c = stack.pop()
        if spans[c][0] == name:
            found.append(c)
        else:
            stack.extend(children.get(c, ()))
    return sorted(found)


def check_in_process(rescnn, tracer):
    """Every independent check on round one's outputs."""
    failures = []
    (synth_cfg,), _kw, (train_set, test_set, gold) = tracer.captured["dataset.synth_generate"][0]
    train_rows, test_rows = _rows(train_set), _rows(test_set)
    failures += checks.check_gold("gold facts", gold, test_rows)
    failures += checks.check_flip_rate("train labels", train_rows, synth_cfg.noise_rate)
    failures += checks.check_flip_rate("test labels", test_rows, 0.0, clean=True)

    trains = tracer.captured["training.train"]
    evals = tracer.captured["evaluation.evaluate"]
    probs = tracer.captured["model.predict_proba"]
    per_round = len(evals) // len(tracer.captured["dataset.synth_generate"])
    for (model, corpus, cfg), _kw, log in trains[:per_round]:
        label = f"{_rung(model)} trainlog"
        failures += checks.check_trainlog(label, log.steps, len(corpus) - log.rejected, cfg.batch_size, cfg.epochs)
    for ((model, corpus, gold_set, *rest), kw, report), (_a, _k, p) in zip(evals[:per_round], probs):
        label = f"{_rung(model)} evaluation"
        ns = kw.get("ns", rest[0] if rest else None)
        failures += checks.check_probabilities(label, p)
        if len(p) != len(corpus):
            failures.append(f"{label}: {len(p)} scored sentences for {len(corpus)} in the corpus")
            continue
        keys = [(inst.e1_id, inst.e2_id) for inst in corpus]
        want = checks.reference_report(p, keys, _gold_ids(gold_set, model.schema.labels), ns)
        failures += checks.check_report(label, want, report.pr_points, report.p_at.values,
                                        report.prediction_count, report.gold_count)
        failures += check_model(rescnn, label, model, corpus[:CONV_SENTENCES], None)

    (model, corpus, cfg), _kw, log = next(t for t in trains if _rung(t[0][0]) == "rescnn_9")
    failures += check_model(rescnn, "rescnn_9 gradients", model, None, corpus[:FD_SENTENCES])
    failures += checks.check_same_losses("rescnn_9 same-seed re-run", [s[2] for s in log.steps[:RERUN_STEPS]],
                                         rerun_first_steps(rescnn, model, corpus, cfg, RERUN_STEPS))
    return failures


def _rows(instances):
    return [{"tokens": list(i.tokens), "e1_id": i.e1_id, "e2_id": i.e2_id, "relation": i.relation}
            for i in instances]


def _gold_ids(gold, labels):
    return {(e1, e2, labels.index(rel)) for e1, e2, rel in gold}


def _rung(model):
    cfg = model.config
    return cfg.variant if cfg.conv_layers == 1 else f"{cfg.variant.split('_')[0]}_{cfg.conv_layers}"


def check_model(rescnn, label, model, conv_sentences, fd_sentences):
    """Conv forward against the sliding-window reference, or gradients against finite differences."""
    ad, em, md = rescnn.autodiff, rescnn.embeddings, rescnn.model
    failures = []
    if conv_sentences:
        batch, _ = em.encode_corpus(conv_sentences, model.vocab, model.config.embedding, model.schema)
        p = model.params
        x = em.embed_batch(p["word_emb"], p["pos1_emb"], p["pos2_emb"], batch).data
        layers = [("conv0", "valid")] + [(f"block0_conv{j}", "same") for j in (1, 2) if model.config.num_blocks]
        for name, padding in layers:
            kernel, bias = p[f"{name}_kernel"].data, p[f"{name}_bias"].data
            got = ad.conv1d(ad.Tensor(x), ad.Tensor(kernel), ad.Tensor(bias), padding=padding).data
            failures += checks.check_conv(f"{label} {name}", got, checks.conv1d_reference(x, kernel, bias, padding))
            x = got * (got > 0.0)
    if fd_sentences:
        batch, _ = em.encode_corpus(fd_sentences, model.vocab, model.config.embedding, model.schema)
        labels = [e.label for e in batch]

        def loss():
            return ad.mean(ad.softmax_cross_entropy(md.forward(model, batch, mode="test"), labels))

        model.zero_grads()
        ad.backward(loss())
        analytic = {name: t.grad.copy() for name, t in model.params.items()}
        failures += checks.check_gradients(lambda: float(loss().data), model.params, analytic)
    return failures


class _StopTraining(Exception):
    pass


def rerun_first_steps(rescnn, model, corpus, cfg, steps):
    """Losses of the first ``steps`` steps of a fresh same-seed model on the same corpus.

    Training stops by raising from the optimizer once ``steps`` updates are done.
    """
    ad, md, tr = rescnn.autodiff, rescnn.model, rescnn.training
    fresh = md.build_model(model.config, seed=model.seed, vocab=model.vocab, schema=model.schema)
    losses = []
    backward, adam_step = ad.backward, ad.adam_step

    def record(loss):
        losses.append(float(loss.data))
        backward(loss)

    def stop_after(*args, **kwargs):
        adam_step(*args, **kwargs)
        if len(losses) >= steps:
            raise _StopTraining

    ad.backward, ad.adam_step = record, stop_after
    try:
        tr.train(fresh, corpus, cfg)
    except _StopTraining:
        pass
    finally:
        ad.backward, ad.adam_step = backward, adam_step
    return losses


# -- CLI workload ---------------------------------------------------------------------


def cli_commands(run_dir, seed):
    data, run, out = (os.path.join(run_dir, d) for d in ("data", "run", "eval"))
    return data, run, out, [
        ("synth", ["synth", "--out", data, "--q", str(CLI_NOISE), "--n-train", str(CLI_TRAIN),
                   "--n-test", str(CLI_TEST), "--relations", "7", "--vocab", "300", "--min-len", "22",
                   "--max-len", "30", "--na", "0.25", "--seed", str(seed)]),
        ("train", ["train", "--corpus", os.path.join(data, "train.jsonl"), "--out", run, "--variant", "cnn",
                   "--conv-layers", "1", "--m", "32", "--n", "30", "--epochs", str(CLI_EPOCHS), "--seed", str(seed)]),
        ("eval", ["eval", "--checkpoint", os.path.join(run, "checkpoint.bin"), "--corpus",
                  os.path.join(data, "test.jsonl"), "--gold", os.path.join(data, "gold.csv"), "--out", out,
                  "--pan", CLI_CUTOFFS]),
    ]


def run_cli(args, tracer):
    """synth, train and eval; separate processes untraced, ``cli.main`` in-process traced."""
    rescnn = _rescnn() if args.trace else None
    if args.trace:
        install(tracer, rescnn, True)
        tracer.context = "cnn"
    attempted = failed = 0
    first = {}
    start = time.perf_counter()
    round_no = 0
    while True:
        round_dir = os.path.join(args.run_dir, f"round{round_no}")
        data, run, out, commands = cli_commands(round_dir, args.seed)
        for name, argv in commands:
            attempted += 1
            with tracer.span(f"cli.{name}") as idx:
                if args.trace:
                    code = rescnn.cli.main(argv)
                else:
                    code = subprocess.run([sys.executable, "-m", "rescnn", *argv], stdout=sys.stderr,
                                          timeout=150).returncode
            first.setdefault(name, idx)
            if code != 0:
                print(f"rescnn {name} exited with {code}", file=sys.stderr)
                failed += 1
        round_no += 1
        if failed or time.perf_counter() - start >= args.seconds:
            break
    if args.trace:
        uninstall(tracer)
    rates = {"train": 0.0, "eval": 0.0}
    for name, count in (("train", CLI_TRAIN * CLI_EPOCHS), ("eval", CLI_TEST)):
        spent = sum(e - s for n, s, e, _p in tracer.spans if n == f"cli.{name}")
        rates[name] = count * round_no / spent
    metrics = {
        "setup_s": tracer.spans[first["synth"]][2] - args.t0,
        "train_sentences_per_s": rates["train"],
        "eval_sentences_per_s": rates["eval"],
        "wall_s": tracer.spans[first["eval"]][2] - args.t0,
    }
    failures = [] if failed else check_cli(rescnn or _rescnn(), os.path.join(args.run_dir, "round0"), args.seed)
    return attempted, failed, failures, metrics


def check_cli(rescnn, round_dir, seed):
    """Every independent check on the files one CLI round wrote."""
    data, run, out, commands = cli_commands(round_dir, seed)
    failures = []
    for (name, _argv), directory in zip(commands, (data, run, out)):
        with open(os.path.join(directory, "manifest.txt"), encoding="utf-8") as handle:
            if handle.readline().strip() != f"command={name}":
                failures.append(f"{name}: manifest.txt does not name the command")
    train_rows = checks.read_jsonl(os.path.join(data, "train.jsonl"))
    test_rows = checks.read_jsonl(os.path.join(data, "test.jsonl"))
    with open(os.path.join(data, "gold.csv"), encoding="utf-8", newline="") as handle:
        gold = [tuple(row) for row in csv.reader(handle)][1:]
    failures += checks.check_gold("gold.csv", gold, test_rows)
    failures += checks.check_flip_rate("train.jsonl labels", train_rows, CLI_NOISE)
    failures += checks.check_flip_rate("test.jsonl labels", test_rows, 0.0, clean=True)
    with open(os.path.join(run, "trainlog.csv"), encoding="utf-8") as handle:
        log_rows = [line.strip().split(",") for line in handle][1:]
    failures += checks.check_trainlog("trainlog.csv", log_rows, len(train_rows), 64, CLI_EPOCHS)

    ds, em, md = rescnn.dataset, rescnn.embeddings, rescnn.model
    model = md.load_checkpoint(os.path.join(run, "checkpoint.bin"))
    test_set = ds.load_corpus(os.path.join(data, "test.jsonl"), schema=model.schema)
    encoded, rejected = em.encode_corpus(test_set, model.vocab, model.config.embedding, model.schema)
    probs = md.predict_proba(model, encoded)
    failures += checks.check_probabilities("reloaded checkpoint", probs)
    if rejected:
        failures.append(f"eval: {rejected} held-out sentences could not be encoded")
    else:
        keys = [(r["e1_id"], r["e2_id"]) for r in test_rows]
        ns = tuple(int(n) for n in CLI_CUTOFFS.split(","))
        want = checks.reference_report(probs, keys, _gold_ids(gold, model.schema.labels), ns)
        with open(os.path.join(out, "pr.csv"), encoding="utf-8") as handle:
            pr_rows = [line.strip().split(",") for line in handle][1:]
        with open(os.path.join(out, "pan.csv"), encoding="utf-8") as handle:
            pan = {int(n): float(v) for n, v in (line.strip().split(",") for line in list(handle)[1:])}
        failures += checks.check_report("pr.csv and pan.csv", want, pr_rows, pan)
    train_set = ds.load_corpus(os.path.join(data, "train.jsonl"))
    failures += check_model(rescnn, "reloaded checkpoint", model, test_set[:CONV_SENTENCES],
                            train_set[:FD_SENTENCES])
    return failures


# -- traced runs ------------------------------------------------------------------------


def per_layer_metrics(tracer, args, metrics):
    """The per-layer figures of a traced run, by the names BENCHMARK.json lists."""
    table = tracer.table()

    def total(name):
        return table.get(name, {}).get("total_s", 0.0)

    def calls(name):
        return table.get(name, {}).get("calls", 0)

    out = {}
    for op in OPS:
        out[f"autodiff.{op}.fwd_s"] = total(f"autodiff.{op}")
        out[f"autodiff.{op}.bwd_s"] = total(f"autodiff.{op}.bwd")
        out[f"autodiff.{op}.calls"] = calls(f"autodiff.{op}")
    out["autodiff.backward_s"] = table.get("autodiff.backward", {}).get("self_s", 0.0)
    out["autodiff.adam_step_s"] = total("autodiff.adam_step")
    steps = tracer.step_times_ms()
    for rung in STEP_RUNGS:
        times = sorted(steps.get(rung, ()))
        out[f"training.step_ms.{rung}.p50"] = _quantile(times, 0.5)
        out[f"training.step_ms.{rung}.p90"] = _quantile(times, 0.9)
    for rung in LADDER_RUNGS:
        out[f"experiments.run_rung_s.{rung}"] = total(f"experiments.run_rung.{rung}")
    gflop = tracer.conv1d_flop / 1e9
    conv_s = out["autodiff.conv1d.fwd_s"] + out["autodiff.conv1d.bwd_s"]
    out["autodiff.conv1d.gflop"] = gflop
    out["autodiff.conv1d.gflop_per_s"] = gflop / conv_s if conv_s else 0.0
    out["model.predict_proba_s"] = total("model.predict_proba")
    out["embeddings.encode_corpus_s"] = total("embeddings.encode_corpus")
    out["evaluation.collect_predictions_self_s"] = table.get("evaluation.collect_predictions", {}).get("self_s", 0.0)
    out["evaluation.pr_curve_s"] = total("evaluation.pr_curve")
    out["evaluation.precision_at_n_s"] = total("evaluation.precision_at_n")
    out["runtime.gc_pause_s"] = tracer.gc_pause_s
    out["runtime.gc_collections"] = tracer.gc_collections
    out["training.peak_rss_mb"] = tracer.sampler.peak_mb("training")
    out["evaluation.peak_rss_mb"] = tracer.sampler.peak_mb("evaluation")
    for name in ("dataset.synth_generate", "model.build_model", "dataset.write_corpus", "dataset.load_corpus",
                 "model.save_checkpoint", "model.load_checkpoint", "evaluation.write_pr_csv",
                 "cli.synth", "cli.train", "cli.eval"):
        out[f"{name}_s"] = total(name)
    out["cli.startup_s"] = cli_startup_s() if args.workload == "cli_pipeline" else 0.0
    trains = tracer.captured.get("training.train", ())
    evals = tracer.captured.get("evaluation.evaluate", ())
    out["training.steps"] = sum(len(log.steps) for _a, _k, log in trains)
    out["training.sentences"] = sum(len(a[1]) * a[2].epochs for a, _k, _log in trains)
    out["evaluation.sentences"] = sum(len(a[1]) for a, _k, _r in evals)
    out["evaluation.candidates"] = sum(r.prediction_count for _a, _k, r in evals)
    untraced = args.untraced_wall
    out["trace.overhead_pct"] = 100.0 * (metrics["wall_s"] / untraced - 1.0) if untraced else 0.0
    return out


def _quantile(sorted_values, q):
    """Nearest-rank quantile; 0 when there are no samples."""
    if not sorted_values:
        return 0.0
    return sorted_values[min(len(sorted_values) - 1, max(0, math.ceil(q * len(sorted_values)) - 1))]


def cli_startup_s():
    """Wall time of a process that only imports the CLI, as each command pays it."""
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import rescnn.cli"], check=True, timeout=60)
    return time.perf_counter() - start


def write_trace(tracer, args, per_layer):
    path = os.path.join(args.out_dir, f"trace-{args.workload}-seed{args.seed}.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump({
            "workload": args.workload,
            "seed": args.seed,
            "span_fields": ["name", "start_s", "end_s", "parent"],
            "spans": tracer.spans,
            "table": tracer.table(),
            "per_layer": per_layer,
        }, handle)
    return path


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("ladder_train", "rank_eval", "cli_pipeline"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--t0", type=float, required=True)
    parser.add_argument("--run-dir", required=True)
    parser.add_argument("--out-dir", required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--untraced-wall", type=float, default=0.0)
    args = parser.parse_args(argv)

    tracer = Tracer()
    if args.workload == "cli_pipeline":
        attempted, failed, failures, metrics = run_cli(args, tracer)
    else:
        attempted, failed, failures, metrics = run_in_process(args, tracer)
    for failure in failures:
        print(f"CHECK FAILED: {failure}", file=sys.stderr)
    result = {"correct": not failures, "attempted": attempted, "failed": failed, "metrics": metrics}
    if args.trace:
        result["per_layer"] = per_layer_metrics(tracer, args, metrics)
        result["trace_file"] = write_trace(tracer, args, result["per_layer"])
    with open(args.result, "w", encoding="utf-8") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())
