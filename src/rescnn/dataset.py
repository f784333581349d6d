"""Corpus I/O and synthetic distantly supervised data.

Instances are JSON lines with a fixed field set; relation labels live in a
RelationSchema that pins the negative class NA to id 0. The synthetic
generator plants a trigger token that encodes each sentence's true relation,
then corrupts a fraction of the *training* labels, which reproduces the
wrong-label noise that distant supervision introduces while keeping test
labels and the gold fact set clean.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field

import numpy as np

from .errors import DataError

NA_LABEL = "NA"

_FIELDS = ("tokens", "e1_idx", "e2_idx", "e1_id", "e2_id", "relation")
_TOKENS_MSG = "tokens must be a non-empty list of non-empty strings"
# matches exactly the code points for which str.isspace() is true
_WHITESPACE = re.compile(r"\s")


@dataclass(frozen=True)
class CorpusInstance:
    """One labeled sentence with two marked entities."""

    tokens: tuple
    e1_idx: int
    e2_idx: int
    e1_id: str
    e2_id: str
    relation: str


@dataclass(frozen=True)
class RelationSchema:
    """Label/id map; NA is always id 0, positive relations follow."""

    labels: tuple
    _ids: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not self.labels or self.labels[0] != NA_LABEL:
            raise DataError(f"schema must start with {NA_LABEL!r}, got {self.labels[:1]}")
        if len(set(self.labels)) != len(self.labels):
            raise DataError("schema labels must be unique")
        object.__setattr__(self, "_ids", {lab: i for i, lab in enumerate(self.labels)})

    @classmethod
    def from_labels(cls, positive_labels):
        """Schema with NA first and the positive labels in sorted order."""
        ordered = sorted(set(positive_labels) - {NA_LABEL})
        return cls((NA_LABEL, *ordered))

    @classmethod
    def from_corpus(cls, instances):
        return cls.from_labels(inst.relation for inst in instances)

    def id_of(self, label):
        got = self._ids.get(label)
        if got is None:
            raise DataError(f"unknown relation label {label!r}")
        return got

    def label_of(self, relation_id):
        return self.labels[relation_id]

    @property
    def num_relations(self):
        return len(self.labels)


def _parse_line(lineno, line):
    try:
        obj = json.loads(line)
    except json.JSONDecodeError as exc:
        raise DataError(f"line {lineno}: invalid JSON: {exc}") from None
    if not isinstance(obj, dict):
        raise DataError(f"line {lineno}: expected a JSON object")
    missing = [f for f in _FIELDS if f not in obj]
    if missing:
        raise DataError(f"line {lineno}: missing fields {missing}")
    tokens = obj["tokens"]
    if not isinstance(tokens, list) or not tokens:
        raise DataError(f"line {lineno}: {_TOKENS_MSG}")
    try:
        joined = "".join(tokens)  # TypeError unless every token is a string
    except TypeError:
        raise DataError(f"line {lineno}: {_TOKENS_MSG}") from None
    if not all(tokens):
        raise DataError(f"line {lineno}: {_TOKENS_MSG}")
    if _WHITESPACE.search(joined):
        bad = next(t for t in tokens if _WHITESPACE.search(t))
        raise DataError(f"line {lineno}: token {bad!r} contains whitespace")
    for key in ("e1_idx", "e2_idx"):
        if not isinstance(obj[key], int) or isinstance(obj[key], bool):
            raise DataError(f"line {lineno}: {key} must be an integer")
        if not 0 <= obj[key] < len(tokens):
            raise DataError(f"line {lineno}: {key}={obj[key]} outside sentence of length {len(tokens)}")
    for key in ("e1_id", "e2_id", "relation"):
        if not isinstance(obj[key], str) or not obj[key]:
            raise DataError(f"line {lineno}: {key} must be a non-empty string")
    return CorpusInstance(
        tokens=tuple(tokens),
        e1_idx=obj["e1_idx"],
        e2_idx=obj["e2_idx"],
        e1_id=obj["e1_id"],
        e2_id=obj["e2_id"],
        relation=obj["relation"],
    )


def load_corpus(source, schema=None):
    """Parse a JSONL corpus; blank lines are skipped.

    With a schema, every label must be known; offenders are reported
    together in one DataError so a bad file surfaces all of them at once.
    """
    if isinstance(source, (str, bytes)) or hasattr(source, "__fspath__"):
        try:
            handle = open(source, "r", encoding="utf-8")
        except OSError as exc:
            raise DataError(f"cannot read corpus {source}: {exc}") from None
        with handle:
            return load_corpus(handle, schema=schema)
    instances = []
    for lineno, line in enumerate(source, start=1):
        if not line.strip():
            continue
        instances.append(_parse_line(lineno, line))
    if schema is not None:
        unknown = sorted({i.relation for i in instances} - set(schema.labels))
        if unknown:
            raise DataError(f"unknown relation labels: {unknown}")
    return instances


def write_corpus(path, instances):
    """Write instances as compact JSONL with a fixed key order."""
    encode = json.JSONEncoder(separators=(",", ":")).encode
    with open(path, "w", encoding="utf-8") as handle:
        for inst in instances:
            obj = {
                "tokens": list(inst.tokens),
                "e1_idx": inst.e1_idx,
                "e2_idx": inst.e2_idx,
                "e1_id": inst.e1_id,
                "e2_id": inst.e2_id,
                "relation": inst.relation,
            }
            handle.write(encode(obj) + "\n")


def gold_facts(instances):
    """Distinct (e1_id, e2_id, relation) triples, NA excluded."""
    return {(i.e1_id, i.e2_id, i.relation) for i in instances if i.relation != NA_LABEL}


# ---------------------------------------------------------------------------
# synthetic corpus


@dataclass(frozen=True)
class SynthConfig:
    """Knobs for the synthetic noisy-supervision generator.

    ``noise_rate`` is the probability that a positive training sentence gets
    its label flipped to a *different* positive relation; the sentence text
    (and therefore its trigger token) keeps encoding the true relation.
    """

    num_relations: int = 5
    vocab_size: int = 120
    triggers_per_relation: int = 2
    min_len: int = 8
    max_len: int = 20
    noise_rate: float = 0.0
    na_fraction: float = 0.0
    num_train: int = 200
    num_test: int = 100
    num_entities: int = 100
    seed: int = 0

    def __post_init__(self):
        if self.num_relations < 1:
            raise ValueError(f"need at least one positive relation, got {self.num_relations}")
        if self.noise_rate > 0.0 and self.num_relations < 2:
            raise ValueError("label flips need at least two positive relations")
        if not 0.0 <= self.noise_rate < 1.0:
            raise ValueError(f"noise_rate must be in [0, 1), got {self.noise_rate}")
        if not 0.0 <= self.na_fraction < 1.0:
            raise ValueError(f"na_fraction must be in [0, 1), got {self.na_fraction}")
        if self.min_len < 3:
            raise ValueError(f"min_len must be at least 3 (two entities plus a trigger), got {self.min_len}")
        if self.max_len < self.min_len:
            raise ValueError(f"max_len {self.max_len} below min_len {self.min_len}")
        if self.triggers_per_relation < 1:
            raise ValueError("need at least one trigger per relation")
        if self.num_entities < 2:
            raise ValueError("need at least two entities")
        if self.vocab_size < 1:
            raise ValueError("need at least one filler word")


def _relation_name(r):
    return f"rel_{r:02d}"


def _trigger_token(r, variant):
    return f"trig_{r:02d}_{variant}"


def trigger_relation(token):
    """True relation a trigger token encodes, or None for other tokens."""
    if not token.startswith("trig_"):
        return None
    parts = token.split("_")
    if len(parts) != 3:
        return None
    return _relation_name(int(parts[1]))


class _Names(dict):
    """Id -> token string, formatted on first use and reused after."""

    def __init__(self, fmt):
        super().__init__()
        self._fmt = fmt

    def __missing__(self, key):
        name = self[key] = self._fmt(key)
        return name


class _Synth:
    """One seeded stream of sentences for ``cfg``.

    Token strings come from lookup tables indexed by the drawn ids. The
    generator calls and their order are fixed, so a seed always gives the
    same corpus.
    """

    def __init__(self, cfg):
        self.cfg = cfg
        rng = np.random.default_rng(cfg.seed)
        self.random, self.integers, self.choice = rng.random, rng.integers, rng.choice
        self.filler = _Names("w{:03d}".format)
        self.entity = _Names("ent_{:03d}".format)
        self.relation = [_relation_name(r) for r in range(cfg.num_relations)]
        self.trigger = [[_trigger_token(r, v) for v in range(cfg.triggers_per_relation)]
                        for r in range(cfg.num_relations)]

    def sentence(self, is_test):
        """One sentence; a training sentence may carry a flipped label."""
        cfg, integers, filler = self.cfg, self.integers, self.filler
        is_na = cfg.na_fraction > 0.0 and self.random() < cfg.na_fraction
        length = int(integers(cfg.min_len, cfg.max_len + 1))
        e1_num, e2_num = self.choice(cfg.num_entities, size=2, replace=False).tolist()
        tokens = [filler[t] for t in integers(cfg.vocab_size, size=length).tolist()]
        e1_pos, e2_pos, trig_pos = self.choice(length, size=3, replace=False).tolist()
        e1_id, e2_id = self.entity[e1_num], self.entity[e2_num]
        tokens[e1_pos] = e1_id
        tokens[e2_pos] = e2_id
        observed = NA_LABEL
        if not is_na:
            r = int(integers(cfg.num_relations))
            tokens[trig_pos] = self.trigger[r][int(integers(cfg.triggers_per_relation))]
            observed = self.relation[r]
            if not is_test and cfg.noise_rate > 0.0 and self.random() < cfg.noise_rate:
                shift = 1 + int(integers(cfg.num_relations - 1))
                observed = self.relation[(r + shift) % cfg.num_relations]
        return CorpusInstance(
            tokens=tuple(tokens),
            e1_idx=e1_pos,
            e2_idx=e2_pos,
            e1_id=e1_id,
            e2_id=e2_id,
            relation=observed,
        )


def synth_generate(cfg):
    """Build (train, test, gold) from one seeded stream.

    Train labels carry the configured flip noise; test labels are the true
    ones, and ``gold`` is exactly ``gold_facts(test)``, so held-out scoring
    against it measures recovery of the clean signal.
    """
    synth = _Synth(cfg)
    train = [synth.sentence(is_test=False) for _ in range(cfg.num_train)]
    test = [synth.sentence(is_test=True) for _ in range(cfg.num_test)]
    return train, test, gold_facts(test)


def synth_schema(cfg):
    """The label set synth_generate draws from, as a schema."""
    return RelationSchema.from_labels(_relation_name(r) for r in range(cfg.num_relations))
