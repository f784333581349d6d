"""Spans around calls into the rescnn package, recorded from outside it.

The program is not changed: a ``Tracer`` replaces public module attributes
with timing wrappers and puts the originals back on ``uninstall``. A span is
``[name, start, end, parent]`` with ``perf_counter`` seconds and the index of
the enclosing span (-1 at the top). Spans stay in memory until the run ends.

Two sets of wrappers exist. ``install_phases`` wraps only the calls whose
times make the end-to-end metrics: corpus generation, training, evaluation,
prediction, and the forward pass and Adam update that bound each training
step and prediction chunk. It costs two spans per step and is used by every
run. ``install_layers`` adds every other layer boundary and every autodiff
op, including the op's backward closure, and is used only by traced runs.
"""

from __future__ import annotations

import contextlib
import gc
import os
import resource
import threading
import time

OPS = ("conv1d", "relu", "add", "lookup", "concat", "max_over_time", "affine",
       "dropout", "softmax_cross_entropy", "mean")


class Tracer:
    def __init__(self):
        self.spans = []
        self.labels = {}  # span index -> rung label of a training.train span
        self.captured = {}  # span name -> [(args, kwargs, result)]
        self.conv1d_flop = 0  # computed from shapes
        self.context = None  # rung label that training spans take
        self.sampler = None  # RssSampler of a traced run
        self._stack = []
        self._restores = []
        self._gc_start = None
        self.gc_pause_s = 0.0
        self.gc_collections = 0

    # -- spans -------------------------------------------------------------

    def open(self, name):
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), None, self._stack[-1] if self._stack else -1])
        self._stack.append(idx)
        return idx

    def close(self, idx):
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name):
        idx = self.open(name)
        try:
            yield idx
        finally:
            self.close(idx)

    # -- wrapping ------------------------------------------------------------

    def _patch(self, owners, attr, wrapper):
        for owner in owners:
            self._restores.append((owner, attr, getattr(owner, attr)))
            setattr(owner, attr, wrapper)

    def wrap(self, owners, attr, name, capture=False, post=None, phase=None):
        """Replace ``attr`` on every module in ``owners`` with one timed wrapper.

        Names bound by ``from ... import`` live in the importing module, so
        each such module is listed as an owner. ``phase`` names the memory
        phase the call belongs to when an RSS sampler is attached.
        """
        orig = getattr(owners[0], attr)
        tracer = self

        def wrapper(*args, **kwargs):
            idx = tracer.open(name)
            if name == "training.train":
                tracer.labels[idx] = tracer.context
            rss = tracer.sampler.phase(phase) if phase and tracer.sampler else contextlib.nullcontext()
            try:
                with rss:
                    result = orig(*args, **kwargs)
            finally:
                tracer.close(idx)
            if capture:
                tracer.captured.setdefault(name, []).append((args, kwargs, result))
            if post is not None:
                post(result, args)
            return result

        self._patch(owners, attr, wrapper)

    def uninstall(self):
        while self._restores:
            owner, attr, orig = self._restores.pop()
            setattr(owner, attr, orig)
        if self._on_gc in gc.callbacks:
            gc.callbacks.remove(self._on_gc)

    def install_phases(self, rescnn):
        """Wrap the calls that bound the end-to-end phases; capture their results."""
        ad, ds, md, tr, ev = rescnn.autodiff, rescnn.dataset, rescnn.model, rescnn.training, rescnn.evaluation
        self.wrap([ds], "synth_generate", "dataset.synth_generate", capture=True)
        self.wrap([tr], "train", "training.train", capture=True, phase="training")
        self.wrap([ev], "evaluate", "evaluation.evaluate", capture=True, phase="evaluation")
        self.wrap([md], "predict_proba", "model.predict_proba", capture=True)
        # step and prediction-chunk boundaries, for the medians in run metrics
        self.wrap([md], "forward", "model.forward")
        self.wrap([ad], "adam_step", "autodiff.adam_step")

    def install_layers(self, rescnn):
        """Wrap every layer boundary and autodiff op (traced runs only, after ``install_phases``)."""
        ad, ds, em, md, tr, ev, ex = (rescnn.autodiff, rescnn.dataset, rescnn.embeddings, rescnn.model,
                                      rescnn.training, rescnn.evaluation, rescnn.experiments)
        for op in OPS:
            self._wrap_op(ad, op)
        self.wrap([ad], "backward", "autodiff.backward")
        self.wrap([em, tr, ev], "encode_corpus", "embeddings.encode_corpus")
        self.wrap([em], "embed_batch", "embeddings.embed_batch")
        for attr in ("build_model", "save_checkpoint", "load_checkpoint"):
            self.wrap([md], attr, f"model.{attr}")
        for attr in ("collect_predictions", "pr_curve", "precision_at_n", "write_pr_csv", "write_pan_csv"):
            self.wrap([ev], attr, f"evaluation.{attr}")
        for attr in ("write_corpus", "load_corpus"):
            self.wrap([ds], attr, f"dataset.{attr}")
        self._wrap_run_rung(ex)
        gc.callbacks.append(self._on_gc)

    def _wrap_op(self, ad, op):
        tracer = self
        bw_name = f"autodiff.{op}.bwd"

        def time_backward(out, args):
            bw = getattr(out, "_backward", None)
            if bw is None:
                return
            if op == "conv1d":
                x, kernel = args[0], args[1]
                tracer.conv1d_flop += _conv_flop(out, kernel) * (int(x.requires_grad) + int(kernel.requires_grad))

            def timed():
                idx = tracer.open(bw_name)
                try:
                    bw()
                finally:
                    tracer.close(idx)

            out._backward = timed

        def count_forward(out, args):
            if op == "conv1d":
                tracer.conv1d_flop += _conv_flop(out, args[1])
            time_backward(out, args)

        self.wrap([ad], op, f"autodiff.{op}", post=count_forward)

    def _wrap_run_rung(self, ex):
        names = {(variant, layers): name for name, variant, layers in ex.RUNGS}
        orig = ex.run_rung
        tracer = self

        def run_rung(lcfg, variant, conv_layers, *rest, **kwargs):
            tracer.context = names.get((variant, conv_layers), f"{variant}{conv_layers}")
            with tracer.span(f"experiments.run_rung.{tracer.context}"):
                return orig(lcfg, variant, conv_layers, *rest, **kwargs)

        self._patch([ex], "run_rung", run_rung)

    def _on_gc(self, phase, info):
        if phase == "start":
            self._gc_start = time.perf_counter()
        elif self._gc_start is not None:
            self.gc_pause_s += time.perf_counter() - self._gc_start
            self.gc_collections += 1
            self._gc_start = None

    # -- summaries -------------------------------------------------------------

    def table(self):
        """Per span name: calls, total seconds and self seconds (total minus direct children)."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0 and end is not None:
                child_time[parent] += end - start
        out = {}
        for i, (name, start, end, _parent) in enumerate(self.spans):
            if end is None:
                continue
            row = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["total_s"] += end - start
            row["self_s"] += end - start - child_time[i]
        return out

    def step_times_ms(self):
        """Per rung label, the wall time of each training step in ms.

        Step 1 starts where encoding inside ``training.train`` ends; every
        step ends with its ``autodiff.adam_step``.
        """
        children = {}
        for i, (_name, _start, _end, parent) in enumerate(self.spans):
            children.setdefault(parent, []).append(i)
        steps = {}
        for idx, label in self.labels.items():
            mark = None
            for child in children.get(idx, ()):
                name, start, end, _parent = self.spans[child]
                if name == "embeddings.encode_corpus" and mark is None:
                    mark = end
                elif name == "autodiff.adam_step" and mark is not None:
                    steps.setdefault(label, []).append((end - mark) * 1e3)
                    mark = end
        return steps


def _conv_flop(out, kernel):
    """Multiply-adds x 2 of one conv1d pass, computed from the shapes."""
    width, in_ch, out_ch = kernel.data.shape
    positions = out.data.size // out_ch
    return 2 * positions * width * in_ch * out_ch


class RssSampler:
    """Peak resident memory per named phase, sampled from /proc/self/statm.

    A phase that raises the process high-water mark (``ru_maxrss``) takes
    that exact figure; otherwise the highest sample taken inside it counts.
    """

    def __init__(self, interval_s=0.002):
        self._page_mb = os.sysconf("SC_PAGE_SIZE") / 2**20
        self._interval = interval_s
        self._phase = None
        self._peaks = {}
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, daemon=True)

    def _rss_mb(self):
        with open("/proc/self/statm", "rb") as handle:
            return int(handle.read().split()[1]) * self._page_mb

    def _maxrss_mb(self):
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    def _loop(self):
        while not self._stop.wait(self._interval):
            phase = self._phase
            if phase is not None:
                rss = self._rss_mb()
                if rss > self._peaks.get(phase, 0.0):
                    self._peaks[phase] = rss

    def start(self):
        self._thread.start()

    def stop(self):
        self._stop.set()
        self._thread.join(timeout=5.0)

    @contextlib.contextmanager
    def phase(self, name):
        before = self._maxrss_mb()
        self._phase = name
        try:
            yield
        finally:
            self._phase = None
            after = self._maxrss_mb()
            last = after if after > before else self._rss_mb()
            self._peaks[name] = max(self._peaks.get(name, 0.0), last)

    def peak_mb(self, name):
        return self._peaks.get(name, 0.0)
