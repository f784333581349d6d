"""Benchmark of rescnn: one workload per call, one JSON result as the last line.

    python3 bench/run.py --workload ladder_train --seed 1 --seconds 10 --trace 0

Run from the root of a checkout. The workload runs in a child process
(``worker.py``) whose environment pins BLAS and OpenMP to one thread before
numpy loads and puts the checkout's ``src`` first on ``PYTHONPATH``; the CLI
processes of ``cli_pipeline`` inherit it. ``--trace 0`` prints the end-to-end
metrics of BENCHMARK.json. ``--trace 1`` first makes an untraced run with the
same seed, then a traced one, prints the per-layer metrics, the tracing
overhead against the untraced ``wall_s``, and writes the spans to
``.bench_out/trace-<workload>-seed<seed>.json``.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
DEADLINE_S = 170.0  # a run must end within 180 s

PINNED = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "PYTHONDONTWRITEBYTECODE": "1",  # leave no bytecode caches in the checkout
}


def fail(message):
    print(f"bench: {message}", file=sys.stderr)
    sys.exit(2)


def worker_env():
    env = dict(os.environ, **PINNED)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_worker(args, run_dir, out_dir, trace, t0, untraced_wall=0.0):
    result_path = os.path.join(run_dir, f"result-trace{trace}.json")
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(trace),
           "--t0", repr(t0), "--run-dir", run_dir, "--out-dir", out_dir, "--result", result_path,
           "--untraced-wall", repr(untraced_wall)]
    proc = subprocess.Popen(cmd, env=worker_env(), cwd=ROOT, stdout=sys.stderr, start_new_session=True)
    try:
        code = proc.wait(timeout=max(1.0, DEADLINE_S - (time.perf_counter() - T0)))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        fail(f"{args.workload} did not finish within {DEADLINE_S:.0f} s")
    try:
        os.killpg(proc.pid, signal.SIGKILL)  # anything the worker left behind
    except ProcessLookupError:
        pass
    if code != 0:
        fail(f"{args.workload} worker exited with code {code}")
    with open(result_path, encoding="utf-8") as handle:
        return json.load(handle)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not os.path.isfile(os.path.join(ROOT, "src", "rescnn", "__init__.py")):
        fail("no rescnn sources under src/ in this checkout")

    out_dir = os.path.join(ROOT, ".bench_out")
    run_dir = os.path.join(out_dir, f"run-{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(run_dir)
    try:
        if args.trace:
            untraced = run_worker(args, run_dir, out_dir, 0, time.perf_counter())
            result = run_worker(args, run_dir, out_dir, 1, time.perf_counter(), untraced["metrics"]["wall_s"])
            wanted = spec["per_layer"]
            values = result["per_layer"]
            print(f"bench: tracing overhead {values['trace.overhead_pct']:+.1f}% "
                  f"(traced wall {result['metrics']['wall_s']:.2f} s, untraced {untraced['metrics']['wall_s']:.2f} s); "
                  f"steps {values['training.steps']}, sentences {values['training.sentences']} trained / "
                  f"{values['evaluation.sentences']} ranked, candidates {values['evaluation.candidates']}, "
                  f"conv1d calls {values['autodiff.conv1d.calls']}; spans in {result['trace_file']}",
                  file=sys.stderr)
            result["correct"] = result["correct"] and untraced["correct"]
        else:
            result = run_worker(args, run_dir, out_dir, 0, T0)
            wanted = spec["end_to_end"]
            values = dict(result["metrics"])
            values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        fail(f"the worker reported no {missing}")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    print(json.dumps({"correct": result["correct"], "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
