"""Held-out evaluation against a gold fact set.

Sentence-level scores are aggregated to (entity pair, relation) candidates
by taking the maximum over supporting sentences, candidates are ranked by
score, and the ranking is swept once to produce a precision/recall point per
rank plus precision-at-N cutoffs. Aggregation and ranking run on arrays:
each candidate is a (pair index, relation) code, and two ``np.lexsort``
calls pick each code's best sentence and order the survivors. Ties and float
jitter are tamed by a deterministic sort key, so equal models give byte-equal
reports.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import model as md
from .dataset import NA_LABEL
from .embeddings import encode_corpus
from .errors import DataError


@dataclass(frozen=True)
class RankedPrediction:
    """One (pair, relation) candidate with its best supporting score."""

    pair_key: tuple
    relation_id: int
    score: float
    source_index: int


@dataclass(frozen=True)
class PrecisionAtN:
    """Precision at each requested cutoff; cutoffs past the list length are
    computed over the whole list and flagged as truncated."""

    values: dict
    truncated: frozenset

    @property
    def mean(self):
        return sum(self.values.values()) / len(self.values)


@dataclass(frozen=True)
class EvalReport:
    pr_points: tuple  # (precision, recall, threshold) per rank
    p_at: PrecisionAtN
    gold_count: int
    prediction_count: int


def encode_gold(gold, schema):
    """Gold label-string triples to (e1_id, e2_id, relation_id) triples."""
    out = set()
    for e1, e2, relation in gold:
        if relation == NA_LABEL:
            raise DataError(f"gold fact ({e1}, {e2}) carries the negative label")
        out.add((e1, e2, schema.id_of(relation)))
    return out


def collect_predictions(model, encoded):
    """Max-aggregated positive-relation candidates, best first.

    ``encoded`` is an EncodedCorpus. Every sentence contributes a score for
    each positive relation; per (pair, relation) the highest-scoring
    supporting sentence wins (earliest index on exact ties). Sorting is by descending score with the pair key and
    relation id breaking exact score ties.
    """
    if not encoded:
        return []
    probs = md.predict_proba(model, encoded)
    positive = model.schema.num_relations - 1
    # flat index f is sentence f // positive and relation f % positive + 1
    score = probs[:, 1:].ravel()
    code = (encoded.pair_index[:, None] * positive + np.arange(positive)).ravel()
    # per (pair, relation) code: best score first, earliest sentence on an exact tie
    by_code = np.lexsort((np.arange(len(code)), -score, code))
    grouped = code[by_code]
    best = by_code[np.r_[True, grouped[1:] != grouped[:-1]]]
    sentence, rid = np.divmod(best, positive)
    pair = encoded.pair_index[sentence]
    pairs = encoded.pairs
    pair_rank = np.empty(len(pairs), dtype=np.int64)
    pair_rank[sorted(range(len(pairs)), key=pairs.__getitem__)] = np.arange(len(pairs))
    order = np.lexsort((rid, pair_rank[pair], -score[best]))
    best = best[order]
    columns = (pair[order].tolist(), (rid[order] + 1).tolist(), score[best].tolist(), sentence[order].tolist())
    return [RankedPrediction(pairs[p], r, s, i) for p, r, s, i in zip(*columns)]


def _cumulative_hits(ranked, gold_ids):
    """Gold hits among the first k predictions, for k = 1 .. len(ranked)."""
    is_gold = [(p.pair_key[0], p.pair_key[1], p.relation_id) in gold_ids for p in ranked]
    return np.cumsum(np.array(is_gold, dtype=np.int64))


def pr_curve(ranked, gold_ids, hits=None):
    """One (precision, recall, threshold) point per rank of the sweep.

    The threshold column is the score of the prediction admitted at that
    rank: filtering at >= that score reproduces the first k predictions (up
    to exact ties). ``hits``, when given, holds the gold hits among the first
    k predictions for each k, so that ``evaluate`` sweeps the ranking once.
    """
    if not gold_ids:
        raise DataError("gold set is empty; precision/recall are undefined")
    if hits is None:
        hits = _cumulative_hits(ranked, gold_ids)
    precision = hits / np.arange(1, len(hits) + 1)
    recall = hits / len(gold_ids)
    return tuple(zip(precision.tolist(), recall.tolist(), [p.score for p in ranked]))


def precision_at_n(ranked, gold_ids, ns, hits=None):
    """Precision over the top N for each cutoff in ``ns``.

    ``hits`` is optional, as in ``pr_curve``.
    """
    if hits is None:
        hits = _cumulative_hits(ranked, gold_ids)
    values = {}
    truncated = set()
    for n in ns:
        if n <= 0:
            raise ValueError(f"cutoff must be positive, got {n}")
        if n > len(ranked):
            truncated.add(n)
        k = min(n, len(ranked))
        values[n] = int(hits[k - 1]) / k if k else 0.0
    return PrecisionAtN(values=values, truncated=frozenset(truncated))


def evaluate(model, corpus, gold, ns=(100, 200, 300)):
    """Encode a held-out corpus, rank candidates, and score against gold."""
    encoded, _ = encode_corpus(corpus, model.vocab, model.config.embedding, model.schema)
    gold_ids = encode_gold(gold, model.schema)
    ranked = collect_predictions(model, encoded)
    hits = _cumulative_hits(ranked, gold_ids)
    return EvalReport(
        pr_points=pr_curve(ranked, gold_ids, hits=hits),
        p_at=precision_at_n(ranked, gold_ids, ns, hits=hits),
        gold_count=len(gold_ids),
        prediction_count=len(ranked),
    )


def write_pr_csv(report, path):
    rows = [f"{precision!r},{recall!r},{threshold!r}\n" for precision, recall, threshold in report.pr_points]
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("precision,recall,threshold\n" + "".join(rows))


def write_pan_csv(report, path):
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("N,precision\n")
        for n in sorted(report.p_at.values):
            handle.write(f"{n},{report.p_at.values[n]!r}\n")
