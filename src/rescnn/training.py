"""Mini-batch Adam training over encoded corpora.

Every random draw flows through seeded generators derived from the run seed
with fixed stream tags, so two runs with equal inputs and seed produce
bit-equal parameter trajectories regardless of platform hash state.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from . import model as md
from .embeddings import encode_corpus
from .errors import DataError, NumericsError, TrainingDivergence

SHUFFLE_TAG = 101
DROPOUT_TAG = 102
HOLDOUT_TAG = 103


@dataclass(frozen=True)
class TrainConfig:
    """Optimization settings; architecture lives on the model itself."""

    batch_size: int = 64
    learning_rate: float = 0.001
    epochs: int = 1
    seed: int = 0
    eval_every: int = 0
    holdout_fraction: float = 0.0
    checkpoint_path: str = None

    def __post_init__(self):
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be positive, got {self.batch_size}")
        if self.learning_rate <= 0.0:
            raise ValueError(f"learning_rate must be positive, got {self.learning_rate}")
        if self.epochs < 1:
            raise ValueError(f"epochs must be positive, got {self.epochs}")
        if not 0.0 <= self.holdout_fraction < 1.0:
            raise ValueError(f"holdout_fraction must be in [0, 1), got {self.holdout_fraction}")
        if self.eval_every < 0:
            raise ValueError(f"eval_every must be non-negative, got {self.eval_every}")


@dataclass
class TrainLog:
    """Per-step losses plus optional holdout evaluations."""

    steps: list = field(default_factory=list)  # (step, epoch, loss)
    evals: list = field(default_factory=list)  # (step, holdout loss)
    rejected: int = 0

    def to_csv(self, path):
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("step,epoch,loss\n")
            for step, epoch, loss in self.steps:
                handle.write(f"{step},{epoch},{loss!r}\n")

    @property
    def final_loss(self):
        return self.steps[-1][2] if self.steps else None


def _batch_loss(model, batch, mode, rng):
    """Mean cross-entropy of an EncodedCorpus batch."""
    logits = md.forward(model, batch, mode=mode, rng=rng)
    return ad.mean(ad.softmax_cross_entropy(logits, batch.labels))


def loss_on(model, encoded, chunk=256):
    """Mean test-mode cross-entropy over an EncodedCorpus."""
    if not encoded:
        raise DataError("cannot evaluate loss on an empty set")
    total = 0.0
    with ad.no_grad():
        for start in range(0, len(encoded), chunk):
            batch = encoded[start : start + chunk]
            total += float(_batch_loss(model, batch, "test", None).data) * len(batch)
    return total / len(encoded)


def accuracy_on(model, encoded, chunk=256):
    """Fraction of the rows of an EncodedCorpus whose argmax class matches the label."""
    if not encoded:
        raise DataError("cannot evaluate accuracy on an empty set")
    probs = md.predict_proba(model, encoded, chunk=chunk)
    hits = int((probs.argmax(axis=1) == encoded.labels).sum())
    return hits / len(encoded)


def train(model, corpus, cfg):
    """Optimize ``model`` in place on ``corpus``; returns a TrainLog.

    Sentences are encoded once up front (unencodable ones are counted and
    dropped). Each epoch reshuffles with a generator keyed on (seed,
    SHUFFLE_TAG, epoch); dropout masks come from (seed, DROPOUT_TAG). A
    non-finite loss aborts with TrainingDivergence naming the step. The PAD
    embedding row is excluded from updates. Fixes the process's allocator
    thresholds first (``autodiff.steady_heap``).
    """
    ad.steady_heap()
    if not corpus:
        raise DataError("training corpus is empty")
    encoded, rejected = encode_corpus(corpus, model.vocab, model.config.embedding, model.schema)
    if not encoded:
        raise DataError("no trainable sentences after encoding")
    holdout = []
    if cfg.holdout_fraction > 0.0:
        cut = int(round(len(encoded) * cfg.holdout_fraction))
        if cut:
            order = np.random.default_rng((cfg.seed, HOLDOUT_TAG)).permutation(len(encoded))
            holdout = encoded[order[:cut]]
            encoded = encoded[order[cut:]]
        if not encoded:
            raise DataError("holdout fraction leaves no training data")
    log = TrainLog(rejected=rejected)
    dropout_rng = np.random.default_rng((cfg.seed, DROPOUT_TAG))
    state = ad.AdamState.for_params(model.param_list())
    step = 0
    for epoch in range(cfg.epochs):
        order = np.random.default_rng((cfg.seed, SHUFFLE_TAG, epoch)).permutation(len(encoded))
        for start in range(0, len(order), cfg.batch_size):
            batch = encoded[order[start : start + cfg.batch_size]]
            step += 1
            try:
                loss = _batch_loss(model, batch, "train", dropout_rng)
            except NumericsError as exc:
                raise TrainingDivergence(f"non-finite loss at step {step}: {exc}") from None
            value = float(loss.data)
            if not np.isfinite(value):
                raise TrainingDivergence(f"non-finite loss at step {step}")
            model.zero_grads()
            ad.backward(loss)
            model.zero_pad_row_grad()
            ad.adam_step(model.param_list(), [p.grad for p in model.param_list()], state, cfg.learning_rate)
            log.steps.append((step, epoch, value))
            if cfg.eval_every and holdout and step % cfg.eval_every == 0:
                log.evals.append((step, loss_on(model, holdout)))
    if cfg.checkpoint_path:
        md.save_checkpoint(model, cfg.checkpoint_path)
    return log
