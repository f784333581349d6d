"""Independent checks of the program's outputs.

Each check returns a list of failure messages; an empty list is a pass.
The references here are computed apart from the program: a direct
sliding-window convolution, central finite differences, a vectorised
max-aggregation and ranking, and counts taken from the corpus text. None of
them is a stored copy of an earlier output. ``tests/test_checks.py`` feeds
each check a perturbed input and shows that it fails.
"""

from __future__ import annotations

import json
import math

import numpy as np

NA = "NA"


# -- convolution ---------------------------------------------------------------


def conv1d_reference(x, kernel, bias, padding):
    """Direct sliding-window 1-D convolution of a (batch, seq, in) array.

    'same' pads (width - 1) // 2 zeros on the left and the rest on the right.
    """
    width = kernel.shape[0]
    if padding == "same":
        left = (width - 1) // 2
        x = np.pad(x, ((0, 0), (left, width - 1 - left), (0, 0)))
    batch, seq, _ = x.shape
    steps = seq - width + 1
    out = np.empty((batch, steps, kernel.shape[2]))
    for b in range(batch):
        for t in range(steps):
            out[b, t] = np.tensordot(x[b, t : t + width], kernel, axes=([0, 1], [0, 1])) + bias
    return out


def check_conv(label, got, want, tol=1e-10):
    if got.shape != want.shape:
        return [f"{label}: conv output shape {got.shape}, reference {want.shape}"]
    err = float(np.max(np.abs(got - want) / (1.0 + np.abs(want))))
    return [f"{label}: conv output differs from the sliding-window reference by {err:.3e}"] if err > tol else []


# -- gradients -----------------------------------------------------------------


def pick_coordinates(grad, count):
    """The ``count`` coordinates with the largest |gradient|, in index order."""
    flat = np.abs(grad).reshape(-1)
    top = np.argsort(-flat, kind="stable")[:count]
    return [np.unravel_index(int(i), grad.shape) for i in sorted(top) if flat[i] > 0.0]


def check_gradients(loss_fn, params, analytic, per_param=3, steps=(1e-6, 1e-7), tol=1e-4):
    """Central finite differences at a few coordinates of every parameter.

    ``loss_fn()`` re-evaluates the scalar loss from the current parameter
    values; ``analytic`` maps each name to the gradient under test. A
    coordinate passes when either step size agrees within ``tol`` relative
    error, so that a ReLU kink or a max-over-time switch crossed inside one
    step does not fail a correct gradient; an error in the gradient itself
    shows at both.
    """
    failures = []
    checked = 0
    for name, tensor in params.items():
        grad = analytic[name]
        for ix in pick_coordinates(grad, per_param):
            a = float(grad[ix])
            best = math.inf
            for eps in steps:
                orig = tensor.data[ix]
                tensor.data[ix] = orig + eps
                plus = loss_fn()
                tensor.data[ix] = orig - eps
                minus = loss_fn()
                tensor.data[ix] = orig
                numeric = (plus - minus) / (2.0 * eps)
                best = min(best, abs(a - numeric) / max(abs(a), abs(numeric), 1e-8))
            checked += 1
            if best >= tol:
                failures.append(f"gradient of {name}{list(ix)}: relative error {best:.3e} against finite differences")
    if not checked:
        failures.append("gradient check found no coordinate with a nonzero gradient")
    return failures


# -- ranking ---------------------------------------------------------------------


def rank_candidates(probs, pair_keys):
    """Max-aggregate positive-relation scores per (pair, relation) and rank them.

    Returns parallel arrays (pair index into ``pairs``, relation id, score)
    best first, with ties broken by pair key, then relation id; the earliest
    sentence supplies a tied maximum, which does not change the score.
    """
    pairs = sorted(set(pair_keys))
    pair_ix = {p: i for i, p in enumerate(pairs)}
    sentence_pair = np.array([pair_ix[p] for p in pair_keys], dtype=np.int64)
    num_rel = probs.shape[1]
    best = np.full((len(pairs), num_rel), -np.inf)
    np.maximum.at(best, sentence_pair, probs)
    present = np.zeros(len(pairs), dtype=bool)
    present[sentence_pair] = True
    pi, ri = np.nonzero(present[:, None] & (np.arange(num_rel) >= 1)[None, :])
    scores = best[pi, ri]
    order = np.lexsort((ri, pi, -scores))
    return pairs, pi[order], ri[order], scores[order]


def reference_report(probs, pair_keys, gold_ids, ns):
    """PR points, P@N values and counts from ranked candidates, by brute force."""
    pairs, pi, ri, scores = rank_candidates(probs, pair_keys)
    hit = np.array([(pairs[p][0], pairs[p][1], int(r)) in gold_ids for p, r in zip(pi, ri)], dtype=np.int64)
    cum = np.cumsum(hit)
    k = np.arange(1, len(cum) + 1)
    precision = cum / k
    recall = cum / len(gold_ids)
    points = [(float(p), float(r), float(s)) for p, r, s in zip(precision, recall, scores)]
    p_at = {}
    for n in ns:
        top = min(n, len(cum))
        p_at[n] = float(cum[top - 1] / top) if top else 0.0
    return {"pr_points": points, "p_at": p_at, "prediction_count": len(points), "gold_count": len(gold_ids)}


def check_report(label, want, pr_points, p_at, prediction_count=None, gold_count=None):
    """Exact comparison of a program report with the brute-force one."""
    failures = []
    if prediction_count is not None and prediction_count != want["prediction_count"]:
        failures.append(f"{label}: {prediction_count} candidates, reference {want['prediction_count']}")
    if gold_count is not None and gold_count != want["gold_count"]:
        failures.append(f"{label}: {gold_count} gold facts, reference {want['gold_count']}")
    got_points = [tuple(float(v) for v in row) for row in pr_points]
    if len(got_points) != len(want["pr_points"]):
        failures.append(f"{label}: {len(got_points)} PR points, reference {len(want['pr_points'])}")
    else:
        for rank, (g, w) in enumerate(zip(got_points, want["pr_points"]), start=1):
            if g != w:
                failures.append(f"{label}: PR point at rank {rank} is {g}, reference {w}")
                break
    if {int(n): float(v) for n, v in p_at.items()} != want["p_at"]:
        failures.append(f"{label}: P@N {dict(p_at)}, reference {want['p_at']}")
    return failures


def check_probabilities(label, probs, tol=1e-12):
    failures = []
    if probs.ndim != 2 or not np.isfinite(probs).all() or (probs < 0.0).any():
        failures.append(f"{label}: probabilities are not a finite non-negative matrix")
    else:
        err = float(np.max(np.abs(probs.sum(axis=1) - 1.0))) if len(probs) else 0.0
        if err > tol:
            failures.append(f"{label}: a probability row sums to 1 only within {err:.3e}")
    return failures


# -- corpus, labels and logs --------------------------------------------------------


def read_jsonl(path):
    with open(path, encoding="utf-8") as handle:
        return [json.loads(line) for line in handle if line.strip()]


def trigger_relation(tokens):
    """The relation the generator's trigger token encodes, or NA without one."""
    for tok in tokens:
        parts = tok.split("_")
        if len(parts) == 3 and parts[0] == "trig":
            return f"rel_{int(parts[1]):02d}"
    return NA


def positive_triples(rows):
    """Distinct (e1_id, e2_id, relation) of the non-NA rows."""
    return {(r["e1_id"], r["e2_id"], r["relation"]) for r in rows if r["relation"] != NA}


def check_gold(label, gold, rows):
    want = positive_triples(rows)
    gold = set(map(tuple, gold))
    if gold != want:
        return [f"{label}: gold has {len(gold)} facts, the corpus has {len(want)} positive triples "
                f"({len(gold - want)} extra, {len(want - gold)} missing)"]
    return []


def check_flip_rate(label, rows, q, clean=False, sigmas=5.0):
    """Train labels flip at rate q among trigger sentences; NA and test labels never flip."""
    failures = []
    flips = positives = 0
    for r in rows:
        true = trigger_relation(r["tokens"])
        if true == NA:
            if r["relation"] != NA:
                failures.append(f"{label}: a sentence without a trigger is labelled {r['relation']}")
                break
            continue
        positives += 1
        flips += r["relation"] != true
    if clean:
        if flips:
            failures.append(f"{label}: {flips} held-out labels disagree with their trigger token")
        return failures
    mean = positives * q
    sd = math.sqrt(positives * q * (1.0 - q))
    if abs(flips - mean) > sigmas * sd:
        failures.append(f"{label}: {flips} of {positives} labels flipped, expected {mean:.0f} +- {sigmas * sd:.0f}")
    return failures


def check_trainlog(label, rows, num_sentences, batch, epochs):
    """One row per step, numbered from 1, epochs in order, every loss finite."""
    per_epoch = -(-num_sentences // batch)
    if len(rows) != per_epoch * epochs:
        return [f"{label}: {len(rows)} log rows, expected {per_epoch * epochs}"]
    for i, (step, epoch, loss) in enumerate(rows):
        if int(step) != i + 1 or int(epoch) != i // per_epoch or not math.isfinite(float(loss)):
            return [f"{label}: log row {i + 1} is {(step, epoch, loss)}"]
    return []


def check_same_losses(label, want, got):
    """Bit-identical loss sequences."""
    if [float(v).hex() for v in want] != [float(v).hex() for v in got]:
        return [f"{label}: same-seed re-run losses {got} differ from the run's {want}"]
    return []
