#!/usr/bin/env python3
"""Compare residual and plain conv depth under label noise.

Trains three models per seed on one shared synthetic corpus (a 9-layer
residual net, a 9-layer plain net, and a 5-layer plain net) and reports the
mean P@N of each across seeds. At the defaults the same fifteen trainings
(five seeds) took 215 s in all, about 43 s per seed, on a shared two-vCPU
machine with one BLAS thread.

Example:

    python scripts/noise_ladder.py --seeds 5
    python scripts/noise_ladder.py --seeds 3 --q 0.4 --epochs 12
"""

import argparse
import sys
import time
from dataclasses import replace

sys.path.insert(0, "src")

from rescnn import experiments as ex


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, default=5, help="number of seeds (0, 1, ...)")
    parser.add_argument("--q", type=float, default=None, help="label flip rate override")
    parser.add_argument("--n-train", type=int, default=None, help="training sentences")
    parser.add_argument("--n-test", type=int, default=None, help="test sentences")
    parser.add_argument("--epochs", type=int, default=None)
    parser.add_argument("--m", type=int, default=None, help="conv filters")
    parser.add_argument("--cutoffs", type=str, default=None,
                        help="comma-separated P@N cutoffs, default 10,20,50")
    return parser.parse_args(argv)


def build_config(args):
    lcfg = ex.LadderConfig()
    overrides = {}
    if args.q is not None:
        overrides["noise_rate"] = args.q
    if args.n_train is not None:
        overrides["num_train"] = args.n_train
    if args.n_test is not None:
        overrides["num_test"] = args.n_test
    if args.epochs is not None:
        overrides["epochs"] = args.epochs
    if args.m is not None:
        overrides["filters"] = args.m
    if args.cutoffs is not None:
        overrides["cutoffs"] = tuple(int(n) for n in args.cutoffs.split(","))
    return replace(lcfg, **overrides) if overrides else lcfg


def main(argv=None):
    args = parse_args(argv)
    lcfg = build_config(args)
    seeds = range(args.seeds)
    print(f"noise rate {lcfg.noise_rate}, {lcfg.num_train} train / "
          f"{lcfg.num_test} test, {lcfg.epochs} epochs, cutoffs {lcfg.cutoffs}")
    scores = {name: [] for name, _, _ in ex.RUNGS}
    for seed in seeds:
        start = time.time()
        for name, value in ex.run_ladder_seed(lcfg, seed).items():
            scores[name].append(value)
        row = "  ".join(f"{name} {scores[name][-1]:.3f}" for name, _, _ in ex.RUNGS)
        print(f"seed {seed}: {row}  ({time.time() - start:.0f}s)")
    means = ex.summarize(scores)
    print("mean:  " + "  ".join(f"{name} {means[name]:.3f}" for name, _, _ in ex.RUNGS))
    margin = means["rescnn_9"] - means["cnn_9"]
    print(f"residual margin at depth 9: {margin:+.3f}; "
          f"deep plain vs shallow plain: {means['cnn_9']:.3f} vs {means['cnn_5']:.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
