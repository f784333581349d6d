"""Command-line interface: synth, train, eval, gradcheck.

Every run resolves its flags (defaults included) into a manifest.txt inside
the output directory before any work starts; ``--manifest`` replays such a
file and reproduces the original outputs bit for bit. Exit codes: 0 success,
1 usage error, 2 data error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import csv
import os
import sys

from . import autodiff as ad
from . import dataset as ds
from . import embeddings as em
from . import evaluation as ev
from . import model as md
from . import training as tr
from .errors import DataError, NumericsError, UsageError


class _Parser(argparse.ArgumentParser):
    """argparse that reports bad flags as UsageError instead of exiting."""

    def error(self, message):
        raise UsageError(message)


def build_parser():
    parser = _Parser(prog="rescnn", description=__doc__.splitlines()[0])
    parser.add_argument("--manifest", help="replay a previous run from its manifest.txt")
    sub = parser.add_subparsers(dest="command")

    p_train = sub.add_parser("train", parents=(), description="Train a model on a JSONL corpus.")
    p_train.add_argument("--corpus", required=True, help="training corpus (JSONL)")
    p_train.add_argument("--out", required=True, help="output directory")
    p_train.add_argument("--embeddings", default=None, help="pretrained word vectors (text); random init if absent")
    p_train.add_argument("--variant", default="rescnn_x", choices=md.VARIANTS)
    p_train.add_argument("--conv-layers", type=int, default=9, help="total conv layers (odd)")
    p_train.add_argument("--h", type=int, default=3, help="conv window size")
    p_train.add_argument("--m", type=int, default=128, help="conv filters / hidden width")
    p_train.add_argument("--dw", type=int, default=50, help="word embedding dim")
    p_train.add_argument("--dp", type=int, default=5, help="position embedding dim")
    p_train.add_argument("--emin", type=int, default=-30, help="distance clip lower bound")
    p_train.add_argument("--emax", type=int, default=30, help="distance clip upper bound")
    p_train.add_argument("--n", type=int, default=100, help="padded sentence length")
    p_train.add_argument("--batch", type=int, default=64)
    p_train.add_argument("--lr", type=float, default=0.001)
    p_train.add_argument("--epochs", type=int, default=1)
    p_train.add_argument("--keep-prob", type=float, default=0.5)
    p_train.add_argument("--seed", type=int, default=0)

    p_eval = sub.add_parser("eval", description="Score a checkpoint on a held-out corpus.")
    p_eval.add_argument("--checkpoint", required=True)
    p_eval.add_argument("--corpus", required=True, help="held-out corpus (JSONL)")
    p_eval.add_argument("--out", required=True, help="output directory")
    p_eval.add_argument("--gold", default=None, help="gold facts CSV; derived from corpus labels if absent")
    p_eval.add_argument("--pan", default="100,200,300", help="comma-separated P@N cutoffs")

    p_grad = sub.add_parser("gradcheck", description="Finite-difference check on toy deep models.")
    p_grad.add_argument("--eps", type=float, default=1e-5)
    p_grad.add_argument("--threshold", type=float, default=1e-4)
    p_grad.add_argument("--seed", type=int, default=0)
    p_grad.add_argument("--out", default=None, help="optional directory for manifest and report")

    p_synth = sub.add_parser("synth", description="Generate a synthetic noisy-supervision corpus.")
    p_synth.add_argument("--out", required=True, help="output directory")
    p_synth.add_argument("--q", type=float, default=0.0, help="train label flip rate")
    p_synth.add_argument("--n-train", type=int, default=200)
    p_synth.add_argument("--n-test", type=int, default=100)
    p_synth.add_argument("--relations", type=int, default=5, help="positive relation count")
    p_synth.add_argument("--vocab", type=int, default=120, help="filler vocabulary size")
    p_synth.add_argument("--triggers", type=int, default=2, help="trigger tokens per relation")
    p_synth.add_argument("--min-len", type=int, default=8)
    p_synth.add_argument("--max-len", type=int, default=20)
    p_synth.add_argument("--na", type=float, default=0.0, help="fraction of unrelated sentences")
    p_synth.add_argument("--entities", type=int, default=100)
    p_synth.add_argument("--seed", type=int, default=0)
    return parser


# dests per command, in manifest order; paths stay exactly as given
_MANIFEST_FIELDS = {
    "train": ("corpus", "out", "embeddings", "variant", "conv_layers", "h", "m", "dw", "dp",
              "emin", "emax", "n", "batch", "lr", "epochs", "keep_prob", "seed"),
    "eval": ("checkpoint", "corpus", "out", "gold", "pan"),
    "gradcheck": ("eps", "threshold", "seed", "out"),
    "synth": ("out", "q", "n_train", "n_test", "relations", "vocab", "triggers",
              "min_len", "max_len", "na", "entities", "seed"),
}


def write_manifest(args, out_dir):
    path = os.path.join(out_dir, "manifest.txt")
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(f"command={args.command}\n")
        for dest in _MANIFEST_FIELDS[args.command]:
            value = getattr(args, dest)
            if value is not None:
                handle.write(f"{dest}={value}\n")
    return path


def read_manifest(path):
    """Rebuild the argv a manifest run was resolved from."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            lines = [line.rstrip("\n") for line in handle if line.strip()]
    except OSError as exc:
        raise DataError(f"cannot read manifest: {exc}") from None
    pairs = []
    for line in lines:
        key, sep, value = line.partition("=")
        if not sep:
            raise DataError(f"malformed manifest line {line!r}")
        pairs.append((key, value))
    if not pairs or pairs[0][0] != "command":
        raise DataError("manifest must start with a command= line")
    command = pairs[0][1]
    if command not in _MANIFEST_FIELDS:
        raise DataError(f"manifest names unknown command {command!r}")
    argv = [command]
    for key, value in pairs[1:]:
        if key not in _MANIFEST_FIELDS[command]:
            raise DataError(f"manifest field {key!r} does not belong to {command}")
        argv.extend((f"--{key.replace('_', '-')}", value))
    return argv


def _require(condition, message):
    if not condition:
        raise UsageError(message)


def _ensure_out_dir(path):
    try:
        os.makedirs(path, exist_ok=True)
    except OSError as exc:
        raise DataError(f"cannot create output directory: {exc}") from None


def cmd_train(args):
    _require(args.conv_layers % 2 == 1 and args.conv_layers > 0, "--conv-layers must be odd (1 conv plus 2 per block)")
    if args.variant in ("cnn_b", "cnn"):
        _require(args.conv_layers == 1, f"--variant {args.variant} requires --conv-layers 1")
    else:
        _require(args.conv_layers >= 3, f"--variant {args.variant} requires --conv-layers >= 3")
    _require(args.h >= 1, "--h must be positive")
    _require(args.h <= args.n, "--h cannot exceed the padded sentence length --n")
    _require(args.m >= 1, "--m must be positive")
    _require(args.dw >= 1 and args.dp >= 1, "--dw and --dp must be positive")
    _require(args.emin <= 0 <= args.emax, "--emin/--emax must bracket zero")
    _require(args.n >= 1, "--n must be positive")
    _require(args.batch >= 1, "--batch must be positive")
    _require(args.lr > 0, "--lr must be positive")
    _require(args.epochs >= 1, "--epochs must be positive")
    _require(0.0 < args.keep_prob <= 1.0, "--keep-prob must be in (0, 1]")
    _ensure_out_dir(args.out)
    write_manifest(args, args.out)

    corpus = ds.load_corpus(args.corpus)
    if not corpus:
        raise DataError("training corpus is empty")
    schema = ds.RelationSchema.from_corpus(corpus)
    if schema.num_relations < 2:
        raise DataError("corpus contains no positive relation labels")
    word_table = None
    if args.embeddings is not None:
        vocab, word_table = em.load_embeddings(args.embeddings, expected_dim=args.dw)
    else:
        vocab = em.Vocabulary.from_corpus(corpus)
    config = md.ModelConfig(
        variant=args.variant,
        conv_layers=args.conv_layers,
        window=args.h,
        filters=args.m,
        fc_widths=md.default_fc_widths(args.variant, args.m, schema.num_relations),
        keep_prob=args.keep_prob,
        num_relations=schema.num_relations,
        embedding=em.EmbeddingConfig(
            word_dim=args.dw, pos_dim=args.dp,
            min_distance=args.emin, max_distance=args.emax, sent_len=args.n,
        ),
    )
    md.check_storable(schema, vocab)
    model = md.build_model(config, seed=args.seed, vocab=vocab, schema=schema, word_table=word_table)
    log = tr.train(
        model,
        corpus,
        tr.TrainConfig(
            batch_size=args.batch,
            learning_rate=args.lr,
            epochs=args.epochs,
            seed=args.seed,
            checkpoint_path=os.path.join(args.out, "checkpoint.bin"),
        ),
    )
    log.to_csv(os.path.join(args.out, "trainlog.csv"))
    print(f"trained {model.num_parameters()} parameters for {len(log.steps)} steps")
    if log.rejected:
        print(f"skipped {log.rejected} sentences that could not be encoded")
    print(f"final loss {log.final_loss:.6f}")
    print(f"wrote {os.path.join(args.out, 'checkpoint.bin')}")
    return 0


def _parse_cutoffs(text):
    try:
        cutoffs = tuple(int(part) for part in text.split(","))
    except ValueError:
        raise UsageError(f"--pan must be comma-separated integers, got {text!r}") from None
    _require(cutoffs and all(n > 0 for n in cutoffs), "--pan cutoffs must be positive")
    _require(len(set(cutoffs)) == len(cutoffs), "--pan cutoffs must be distinct")
    return cutoffs


def read_gold_csv(path):
    """Gold facts from a CSV with an e1_id,e2_id,relation header."""
    try:
        handle = open(path, "r", encoding="utf-8", newline="")
    except OSError as exc:
        raise DataError(f"cannot open gold file: {exc}") from None
    with handle:
        reader = csv.reader(handle)
        header = next(reader, None)
        if header != ["e1_id", "e2_id", "relation"]:
            raise DataError(f"gold file must start with e1_id,e2_id,relation, got {header}")
        gold = set()
        for row in reader:
            if not row:
                continue
            if len(row) != 3:
                raise DataError(f"gold row {row} does not have three fields")
            gold.add(tuple(row))
    return gold


def write_gold_csv(gold, path):
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["e1_id", "e2_id", "relation"])
        for fact in sorted(gold):
            writer.writerow(fact)


def cmd_eval(args):
    cutoffs = _parse_cutoffs(args.pan)
    _ensure_out_dir(args.out)
    write_manifest(args, args.out)
    model = md.load_checkpoint(args.checkpoint)
    corpus = ds.load_corpus(args.corpus, schema=model.schema)
    if not corpus:
        raise DataError("evaluation corpus is empty")
    gold = read_gold_csv(args.gold) if args.gold is not None else ds.gold_facts(corpus)
    report = ev.evaluate(model, corpus, gold, ns=cutoffs)
    ev.write_pr_csv(report, os.path.join(args.out, "pr.csv"))
    ev.write_pan_csv(report, os.path.join(args.out, "pan.csv"))
    print(f"{report.prediction_count} ranked candidates against {report.gold_count} gold facts")
    width = max(len(f"P@{n}") for n in report.p_at.values)
    for n in sorted(report.p_at.values):
        star = "  (fewer candidates than N)" if n in report.p_at.truncated else ""
        print(f"{f'P@{n}':<{width}}  {report.p_at.values[n]:.4f}{star}")
    print(f"{'mean':<{width}}  {report.p_at.mean:.4f}")
    return 0


def _toy_gradcheck_setup(variant, seed):
    """A deep toy model and batch small enough to finite-difference fully."""
    ecfg = em.EmbeddingConfig(word_dim=4, pos_dim=2, min_distance=-3, max_distance=3, sent_len=7)
    schema = ds.RelationSchema(("NA", "r1", "r2"))
    vocab = em.Vocabulary([f"t{i}" for i in range(8)])
    config = md.ModelConfig(
        variant=variant,
        conv_layers=9,
        window=3,
        filters=3,
        fc_widths=(3, 3, 3),
        keep_prob=1.0,
        num_relations=3,
        embedding=ecfg,
    )
    model = md.build_model(config, seed=seed, vocab=vocab, schema=schema)
    sentences = (
        ("t0 t1 t2 t3 t4 t5 t6", 1, 5, 1),
        ("t7 t6 t5 t4 t3 t2 t1", 0, 3, 2),
        ("t2 t2 t4 t4 t6 t6 t0", 2, 6, 0),
    )
    rows = [
        ds.CorpusInstance(tuple(text.split()), e1, e2, e1_id="", e2_id="", relation=schema.labels[label])
        for text, e1, e2, label in sentences
    ]
    batch, _ = em.encode_corpus(rows, vocab, ecfg, schema)

    def build():
        logits = md.forward(model, batch, mode="test")
        return ad.mean(ad.softmax_cross_entropy(logits, batch.labels)), model.params

    return build


def cmd_gradcheck(args):
    _require(args.eps > 0, "--eps must be positive")
    _require(args.threshold > 0, "--threshold must be positive")
    if args.out is not None:
        _ensure_out_dir(args.out)
        write_manifest(args, args.out)
    lines = []
    worst = 0.0
    for variant in ("cnn_x", "rescnn_x"):
        result = ad.finite_diff_check(_toy_gradcheck_setup(variant, args.seed), eps=args.eps)
        lines.append(f"[{variant}]")
        lines.extend(str(result).splitlines())
        worst = max(worst, result.max_rel_err)
    ok = worst < args.threshold
    lines.append(f"max relative error {worst:.3e} vs threshold {args.threshold:.0e}: {'PASS' if ok else 'FAIL'}")
    report = "\n".join(lines)
    print(report)
    if args.out is not None:
        with open(os.path.join(args.out, "gradcheck.txt"), "w", encoding="utf-8") as handle:
            handle.write(report + "\n")
    return 0 if ok else 3


def cmd_synth(args):
    try:
        scfg = ds.SynthConfig(
            num_relations=args.relations,
            vocab_size=args.vocab,
            triggers_per_relation=args.triggers,
            min_len=args.min_len,
            max_len=args.max_len,
            noise_rate=args.q,
            na_fraction=args.na,
            num_train=args.n_train,
            num_test=args.n_test,
            num_entities=args.entities,
            seed=args.seed,
        )
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    _require(args.n_train >= 1 and args.n_test >= 0, "--n-train must be >= 1 and --n-test >= 0")
    _ensure_out_dir(args.out)
    write_manifest(args, args.out)
    train_set, test_set, gold = ds.synth_generate(scfg)
    ds.write_corpus(os.path.join(args.out, "train.jsonl"), train_set)
    ds.write_corpus(os.path.join(args.out, "test.jsonl"), test_set)
    write_gold_csv(gold, os.path.join(args.out, "gold.csv"))
    print(f"wrote {len(train_set)} train / {len(test_set)} test sentences, {len(gold)} gold facts")
    return 0


_COMMANDS = {
    "train": cmd_train,
    "eval": cmd_eval,
    "gradcheck": cmd_gradcheck,
    "synth": cmd_synth,
}


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.manifest is not None:
            if args.command is not None:
                raise UsageError("--manifest replaces the subcommand; give one or the other")
            args = parser.parse_args(read_manifest(args.manifest))
        if args.command is None:
            raise UsageError("a subcommand is required (train, eval, gradcheck, synth)")
        return _COMMANDS[args.command](args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2
    except NumericsError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
