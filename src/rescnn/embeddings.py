"""Token and position embeddings for entity-pair sentence encoding.

A sentence is mapped to three parallel id sequences: word ids plus, for each
of the two marked entities, the clamped relative distance of every token to
that entity. ``encode_corpus`` encodes a whole corpus at once into an
``EncodedCorpus``: row-aligned (N, sent_len) id arrays, labels, and each
row's entity pair as an index into a table of distinct pairs. Slicing or
indexing it by rows gives another ``EncodedCorpus``, and iterating it gives
one ``EncodedInstance`` per row. ``embed_batch`` gathers the three tables for
an ``EncodedCorpus`` batch and concatenates along the feature axis, giving a
(batch, sent_len, d_w + 2 d_p) tensor; the model entry points take an
``EncodedCorpus`` too. ``encode_instance`` encodes one sentence row by row
and is the reference that ``encode_corpus`` is tested against.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, islice, repeat

import numpy as np

from . import autodiff as ad
from .errors import DataError

PAD_TOKEN = "<PAD>"
UNK_TOKEN = "<UNK>"
PAD_ID = 0
UNK_ID = 1
_RESERVED = (PAD_TOKEN, UNK_TOKEN)


class Vocabulary:
    """Token-to-id map with fixed PAD=0 / UNK=1 slots.

    Unknown tokens resolve to UNK rather than raising; the padding slot is
    what sentence encoding fills past the real tokens.
    """

    def __init__(self, tokens=()):
        self._id_of = {PAD_TOKEN: PAD_ID, UNK_TOKEN: UNK_ID}
        self._tokens = [PAD_TOKEN, UNK_TOKEN]
        for tok in tokens:
            self.add(tok)

    def add(self, token):
        """Insert ``token`` if new; returns its id either way."""
        got = self._id_of.get(token)
        if got is not None:
            return got
        new_id = len(self._tokens)
        self._id_of[token] = new_id
        self._tokens.append(token)
        return new_id

    def id_of(self, token):
        return self._id_of.get(token, UNK_ID)

    def __contains__(self, token):
        return token in self._id_of

    def __len__(self):
        return len(self._tokens)

    @property
    def tokens(self):
        return tuple(self._tokens)

    @classmethod
    def from_corpus(cls, instances):
        """Vocabulary over the sorted set of tokens appearing in ``instances``."""
        seen = set()
        for inst in instances:
            seen.update(inst.tokens)
        seen.difference_update(_RESERVED)
        return cls(sorted(seen))


@dataclass(frozen=True)
class EmbeddingConfig:
    """Dimensions and clipping range of the sentence encoder."""

    word_dim: int = 50
    pos_dim: int = 5
    min_distance: int = -30
    max_distance: int = 30
    sent_len: int = 100

    def __post_init__(self):
        if self.word_dim < 1 or self.pos_dim < 1:
            raise ValueError(f"embedding dims must be positive, got word_dim={self.word_dim} pos_dim={self.pos_dim}")
        if self.min_distance > 0 or self.max_distance < 0:
            raise ValueError(f"distance range [{self.min_distance}, {self.max_distance}] must contain 0")
        if self.sent_len < 1:
            raise ValueError(f"sent_len must be positive, got {self.sent_len}")

    @property
    def num_distances(self):
        return self.max_distance - self.min_distance + 1

    @property
    def concat_dim(self):
        return self.word_dim + 2 * self.pos_dim


@dataclass(frozen=True)
class EncodedInstance:
    """Fixed-length id views of one sentence, ready for table lookup."""

    token_ids: np.ndarray
    pos1_ids: np.ndarray
    pos2_ids: np.ndarray
    label: int
    pair_key: tuple = ("", "")
    original_length: int = 0


@dataclass(frozen=True, eq=False)
class EncodedCorpus:
    """Encoded sentences as row-aligned arrays.

    ``token_ids``, ``pos1_ids`` and ``pos2_ids`` are (N, sent_len) int64;
    ``labels`` and ``original_lengths`` are (N,) int64. Row i's entity pair
    is ``pairs[pair_index[i]]``. A slice or an integer index array selects
    rows and shares the pair table; an integer gives one EncodedInstance.
    """

    token_ids: np.ndarray
    pos1_ids: np.ndarray
    pos2_ids: np.ndarray
    labels: np.ndarray
    pair_index: np.ndarray
    pairs: tuple
    original_lengths: np.ndarray

    def __len__(self):
        return len(self.labels)

    def __getitem__(self, rows):
        if isinstance(rows, (int, np.integer)):
            return EncodedInstance(
                token_ids=self.token_ids[rows],
                pos1_ids=self.pos1_ids[rows],
                pos2_ids=self.pos2_ids[rows],
                label=int(self.labels[rows]),
                pair_key=self.pairs[self.pair_index[rows]],
                original_length=int(self.original_lengths[rows]),
            )
        return EncodedCorpus(
            token_ids=self.token_ids[rows],
            pos1_ids=self.pos1_ids[rows],
            pos2_ids=self.pos2_ids[rows],
            labels=self.labels[rows],
            pair_index=self.pair_index[rows],
            pairs=self.pairs,
            original_lengths=self.original_lengths[rows],
        )

    def __iter__(self):
        return (self[i] for i in range(len(self)))

    @property
    def pair_keys(self):
        """Each row's (e1_id, e2_id) key, in row order."""
        return [self.pairs[i] for i in self.pair_index.tolist()]


def relative_position(index, entity_index, cfg):
    """Clamped signed distance from ``index`` to the entity, shifted to >= 0.

    The raw distance index - entity_index is clipped to
    [min_distance, max_distance] and offset by -min_distance so it indexes a
    table with num_distances rows.
    """
    d = index - entity_index
    d = max(cfg.min_distance, min(cfg.max_distance, d))
    return d - cfg.min_distance


def _position_ids(entity_idx, cfg):
    """(len(entity_idx), sent_len) relative_position ids, one row per entity index.

    Computed in place in the returned array: see encode_corpus on why no
    temporary of that size is freed.
    """
    ids = np.subtract.outer(np.asarray(entity_idx, dtype=np.int64), np.arange(cfg.sent_len))
    np.negative(ids, out=ids)
    np.clip(ids, cfg.min_distance, cfg.max_distance, out=ids)
    ids -= cfg.min_distance
    return ids


def encode_instance(tokens, e1_idx, e2_idx, label, vocab, cfg, pair_key=("", "")):
    """Encode one sentence to padded/truncated id arrays of length sent_len.

    Tokens past sent_len are dropped; an entity falling in the dropped tail
    is a DataError. Padding slots take the PAD word id and the clamped
    distance their (virtual) index would have, so far-right pads saturate at
    the max distance.
    """
    n = len(tokens)
    if n == 0:
        raise DataError("cannot encode an empty sentence")
    for which, e_idx in (("e1", e1_idx), ("e2", e2_idx)):
        if not 0 <= e_idx < n:
            raise DataError(f"{which} index {e_idx} outside sentence of length {n}")
        if e_idx >= cfg.sent_len:
            raise DataError(f"{which} index {e_idx} beyond sent_len {cfg.sent_len} after truncation")
    token_ids = np.full(cfg.sent_len, PAD_ID, dtype=np.int64)
    kept = min(n, cfg.sent_len)
    for i in range(kept):
        token_ids[i] = vocab.id_of(tokens[i])
    pos1, pos2 = _position_ids((e1_idx, e2_idx), cfg)
    return EncodedInstance(
        token_ids=token_ids,
        pos1_ids=pos1,
        pos2_ids=pos2,
        label=int(label),
        pair_key=tuple(pair_key),
        original_length=n,
    )


def encode_corpus(instances, vocab, cfg, schema):
    """Encode every instance at once; sentences that cannot be encoded are dropped.

    Returns (EncodedCorpus, rejected count). A sentence is rejected when it
    is empty, when an entity index lies outside it or at or past sent_len,
    or when its relation label is not in ``schema``. Unknown words just map
    to UNK. Row ids equal ``encode_instance`` on each kept sentence.

    The (N, sent_len) arrays are built in place, with no temporary of their
    size freed. Under glibc, freeing one raises the allocator's mmap and trim
    thresholds. The buffers of every later training step then come from the
    heap and are trimmed back to the system after each step. That made each
    ladder-shape rescnn_9 step fault in about 9,000 pages and run 60% slower.
    """
    instances = list(instances)
    count = len(instances)
    label_ids = {lab: i for i, lab in enumerate(schema.labels)}
    lengths = np.fromiter((len(inst.tokens) for inst in instances), np.int64, count)
    e1 = np.fromiter((inst.e1_idx for inst in instances), np.int64, count)
    e2 = np.fromiter((inst.e2_idx for inst in instances), np.int64, count)
    labels = np.fromiter((label_ids.get(inst.relation, -1) for inst in instances), np.int64, count)
    limit = np.minimum(lengths, cfg.sent_len)
    valid = (0 <= e1) & (e1 < limit) & (0 <= e2) & (e2 < limit) & (labels >= 0)
    rows = np.flatnonzero(valid)
    kept = [instances[i] for i in rows.tolist()]
    n = cfg.sent_len
    # each row is its first n tokens then PAD_TOKEN, which the vocabulary maps to PAD_ID
    padded = chain.from_iterable(islice(chain(inst.tokens, repeat(PAD_TOKEN, n)), n) for inst in kept)
    token_ids = np.fromiter(map(vocab._id_of.get, padded, repeat(UNK_ID)), np.int64, len(kept) * n)
    pair_of = {}
    pair_index = [pair_of.setdefault((inst.e1_id, inst.e2_id), len(pair_of)) for inst in kept]
    encoded = EncodedCorpus(
        token_ids=token_ids.reshape(len(kept), n),
        pos1_ids=_position_ids(e1[rows], cfg),
        pos2_ids=_position_ids(e2[rows], cfg),
        labels=labels[rows],
        pair_index=np.array(pair_index, dtype=np.int64),
        pairs=tuple(pair_of),
        original_lengths=lengths[rows],
    )
    return encoded, count - len(kept)


def load_embeddings(source, expected_dim=None):
    """Read whitespace-separated text vectors: ``token v1 v2 ... vD`` lines.

    ``source`` is a path or an open text handle. An optional first line with
    exactly two integers (count and dimension) is treated as a header. The
    returned table is trainable, row 0 is the all-zero PAD vector, and row 1
    (UNK) is the mean of all loaded vectors. Malformed lines raise DataError
    with a 1-based line number.
    """
    if isinstance(source, (str, bytes)) or hasattr(source, "__fspath__"):
        try:
            handle = open(source, "r", encoding="utf-8")
        except OSError as exc:
            raise DataError(f"cannot read embeddings {source}: {exc}") from None
        with handle:
            return load_embeddings(handle, expected_dim=expected_dim)
    lines = iter(enumerate(source, start=1))
    first = next(lines, None)
    if first is None:
        raise DataError("embedding file is empty")
    vocab = Vocabulary()
    vectors = []
    dim = None

    def consume(lineno, line):
        nonlocal dim
        parts = line.split()
        if not parts:
            return
        token, values = parts[0], parts[1:]
        if dim is None:
            if not values:
                raise DataError(f"line {lineno}: no vector components for token {token!r}")
            dim = len(values)
            if expected_dim is not None and dim != expected_dim:
                raise DataError(f"line {lineno}: vectors have {dim} components, expected {expected_dim}")
        if len(values) != dim:
            raise DataError(f"line {lineno}: expected {dim} components, got {len(values)}")
        if token in _RESERVED:
            raise DataError(f"line {lineno}: token {token!r} is reserved")
        if token in vocab:
            raise DataError(f"line {lineno}: duplicate token {token!r}")
        try:
            vec = np.array([float(v) for v in values], dtype=np.float64)
        except ValueError as exc:
            raise DataError(f"line {lineno}: {exc}") from None
        if not np.isfinite(vec).all():
            raise DataError(f"line {lineno}: non-finite component for token {token!r}")
        vocab.add(token)
        vectors.append(vec)

    lineno, line = first
    header = line.split()
    is_header = len(header) == 2 and all(_is_int(p) for p in header)
    if not is_header:
        consume(lineno, line)
    for lineno, line in lines:
        consume(lineno, line)
    if not vectors:
        raise DataError("embedding file holds no vectors")
    table = np.zeros((len(vocab), dim), dtype=np.float64)
    stacked = np.stack(vectors)
    table[UNK_ID] = stacked.mean(axis=0)
    table[UNK_ID + 1 :] = stacked
    return vocab, ad.Tensor(table, requires_grad=True, name="word_emb")


def _is_int(text):
    try:
        int(text)
    except ValueError:
        return False
    return True


def embed_batch(word_table, pos1_table, pos2_table, batch):
    """Features (batch, sent_len, d_w + 2 d_p) for an EncodedCorpus ``batch``.

    The two position tables must be distinct tensors; sharing one object
    would silently merge head and tail distance meanings.
    """
    if pos1_table is pos2_table:
        raise ValueError("pos1 and pos2 require distinct embedding tables")
    return ad.concat(
        [
            ad.lookup(word_table, batch.token_ids),
            ad.lookup(pos1_table, batch.pos1_ids),
            ad.lookup(pos2_table, batch.pos2_ids),
        ],
        axis=-1,
    )
