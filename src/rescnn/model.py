"""Convolutional relation classifiers of configurable depth.

Four variants share one skeleton: embed, one valid-mode convolution, an
optional stack of same-padded two-convolution blocks, max-over-time pooling,
then fully connected layers with dropout before the last one.

    cnn_b      1 conv, 1 fully connected layer
    cnn        1 conv, 3 fully connected layers
    cnn_x      x conv layers (x odd), 3 fully connected layers
    rescnn_x   cnn_x plus an identity shortcut around every block

A block computes two same-padded conv+ReLU stages; rescnn_x adds the block
input back onto the result (no activation after the add), cnn_x keeps just
the stage output. Depth x counts conv layers only: 1 entry conv plus
(x - 1) / 2 blocks of 2.
"""

from __future__ import annotations

import contextlib
import os
import struct
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from . import embeddings as em
from .dataset import RelationSchema
from .errors import DataError, NumericsError, ShapeError

VARIANTS = ("cnn_b", "cnn", "cnn_x", "rescnn_x")

CHECKPOINT_FORMAT = "rescnn-checkpoint-v1"


def default_fc_widths(variant, filters, num_relations):
    """Hidden layers at the filter width, output layer at num_relations."""
    if variant == "cnn_b":
        return (num_relations,)
    return (filters, filters, num_relations)


@dataclass(frozen=True)
class ModelConfig:
    """Architecture hyperparameters; frozen so models can share it safely."""

    variant: str
    conv_layers: int
    window: int
    filters: int
    fc_widths: tuple
    keep_prob: float
    num_relations: int
    embedding: em.EmbeddingConfig

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ValueError(f"variant must be one of {VARIANTS}, got {self.variant!r}")
        if self.conv_layers < 1 or self.conv_layers % 2 == 0:
            raise ValueError(f"conv_layers must be odd and positive, got {self.conv_layers}")
        if self.variant in ("cnn_b", "cnn") and self.conv_layers != 1:
            raise ValueError(f"{self.variant} has exactly 1 conv layer, got {self.conv_layers}")
        if self.variant in ("cnn_x", "rescnn_x") and self.conv_layers < 3:
            raise ValueError(f"{self.variant} needs at least 3 conv layers, got {self.conv_layers}")
        expected_fc = 1 if self.variant == "cnn_b" else 3
        if len(self.fc_widths) != expected_fc:
            raise ValueError(f"{self.variant} has {expected_fc} fully connected layers, got {len(self.fc_widths)}")
        if any(w < 1 for w in self.fc_widths):
            raise ValueError(f"fc_widths must be positive, got {self.fc_widths}")
        if self.num_relations < 2:
            raise ValueError(f"need at least two classes, got {self.num_relations}")
        if self.fc_widths[-1] != self.num_relations:
            raise ValueError(f"last fc width {self.fc_widths[-1]} must equal num_relations {self.num_relations}")
        if self.window < 1:
            raise ValueError(f"window must be positive, got {self.window}")
        if self.window > self.embedding.sent_len:
            raise ValueError(f"window {self.window} exceeds sent_len {self.embedding.sent_len}")
        if self.filters < 1:
            raise ValueError(f"filters must be positive, got {self.filters}")
        if not 0.0 < self.keep_prob <= 1.0:
            raise ValueError(f"keep_prob must be in (0, 1], got {self.keep_prob}")

    @property
    def num_blocks(self):
        return (self.conv_layers - 1) // 2

    @property
    def residual(self):
        return self.variant == "rescnn_x"


def param_shapes(config, vocab_size):
    """Ordered name -> shape map; the order is the checkpoint layout order."""
    e = config.embedding
    m = config.filters
    h = config.window
    shapes = {
        "word_emb": (vocab_size, e.word_dim),
        "pos1_emb": (e.num_distances, e.pos_dim),
        "pos2_emb": (e.num_distances, e.pos_dim),
        "conv0_kernel": (h, e.concat_dim, m),
        "conv0_bias": (m,),
    }
    for b in range(config.num_blocks):
        shapes[f"block{b}_conv1_kernel"] = (h, m, m)
        shapes[f"block{b}_conv1_bias"] = (m,)
        shapes[f"block{b}_conv2_kernel"] = (h, m, m)
        shapes[f"block{b}_conv2_bias"] = (m,)
    fan_in = m
    for j, width in enumerate(config.fc_widths):
        shapes[f"fc{j}_weight"] = (fan_in, width)
        shapes[f"fc{j}_bias"] = (width,)
        fan_in = width
    return shapes


def parameter_count(config, vocab_size):
    """Closed-form total parameter count, for cross-checking built models."""
    e = config.embedding
    m, h, d = config.filters, config.window, e.concat_dim
    total = vocab_size * e.word_dim + 2 * e.num_distances * e.pos_dim
    total += h * d * m + m
    total += config.num_blocks * 2 * (h * m * m + m)
    fan_in = m
    for width in config.fc_widths:
        total += fan_in * width + width
        fan_in = width
    return total


class Model:
    """Parameters plus everything needed to run them on raw sentences."""

    def __init__(self, config, vocab, schema, params, seed):
        if schema.num_relations != config.num_relations:
            raise ValueError(
                f"schema has {schema.num_relations} relations, config expects {config.num_relations}"
            )
        self.config = config
        self.vocab = vocab
        self.schema = schema
        self.params = params
        self.seed = seed

    def param_list(self):
        return list(self.params.values())

    def zero_grads(self):
        ad.zero_grads(self.params.values())

    def zero_pad_row_grad(self):
        """Keep the PAD embedding frozen at zero by blanking its gradient."""
        self.params["word_emb"].grad[em.PAD_ID] = 0.0

    def num_parameters(self):
        return sum(p.size for p in self.params.values())


def _glorot(rng, shape, fan_in, fan_out):
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=shape)


def build_model(config, seed, vocab, schema, word_table=None):
    """Initialize a model; one rng seeded with ``seed`` drives every draw.

    Draw order is fixed (embeddings, conv kernels, fc weights; biases are
    zeros) so equal seeds give bit-equal models. ``word_table`` (a Tensor or
    array from load_embeddings) replaces the random word table; its row
    count must match the vocabulary.
    """
    shapes = param_shapes(config, len(vocab))
    rng = np.random.default_rng(seed)
    params = {}
    if word_table is None:
        word = rng.uniform(-0.25, 0.25, size=shapes["word_emb"])
    else:
        word = np.array(getattr(word_table, "data", word_table), dtype=np.float64)
        if word.shape != shapes["word_emb"]:
            raise ShapeError(f"word table shape {word.shape} does not match expected {shapes['word_emb']}")
    word[em.PAD_ID] = 0.0
    params["word_emb"] = ad.Tensor(word, requires_grad=True, name="word_emb")
    for name in ("pos1_emb", "pos2_emb"):
        params[name] = ad.Tensor(rng.uniform(-0.25, 0.25, size=shapes[name]), requires_grad=True, name=name)
    for name, shape in shapes.items():
        if name in params:
            continue
        if name.endswith("_bias"):
            params[name] = ad.Tensor(np.zeros(shape), requires_grad=True, name=name)
        elif name.endswith("_kernel"):
            h, cin, cout = shape
            params[name] = ad.Tensor(_glorot(rng, shape, h * cin, h * cout), requires_grad=True, name=name)
        else:
            fan_in, fan_out = shape
            params[name] = ad.Tensor(_glorot(rng, shape, fan_in, fan_out), requires_grad=True, name=name)
    return Model(config, vocab, schema, params, seed)


def forward(model, batch, mode="test", rng=None):
    """Logits (batch, num_relations) for an EncodedCorpus ``batch``.

    ``mode`` controls dropout: train masks with ``rng``, test rescales by
    keep_prob so expected pre-activations match.
    """
    if mode not in ("train", "test"):
        raise ValueError(f"mode must be 'train' or 'test', got {mode!r}")
    if mode == "train" and rng is None:
        raise ValueError("train mode needs an rng for dropout")
    if not batch:
        raise ValueError("forward needs at least one instance")
    cfg = model.config
    p = model.params
    x = em.embed_batch(p["word_emb"], p["pos1_emb"], p["pos2_emb"], batch)
    c = ad.relu(ad.conv1d(x, p["conv0_kernel"], p["conv0_bias"], padding="valid"))
    for b in range(cfg.num_blocks):
        h1 = ad.relu(ad.conv1d(c, p[f"block{b}_conv1_kernel"], p[f"block{b}_conv1_bias"], padding="same"))
        h2 = ad.relu(ad.conv1d(h1, p[f"block{b}_conv2_kernel"], p[f"block{b}_conv2_bias"], padding="same"))
        c = ad.add(c, h2) if cfg.residual else h2
    z = ad.max_over_time(c)
    last = len(cfg.fc_widths) - 1
    for j in range(last):
        z = ad.relu(ad.affine(z, p[f"fc{j}_weight"], p[f"fc{j}_bias"]))
    z = ad.dropout(z, cfg.keep_prob, mode, rng)
    return ad.affine(z, p[f"fc{last}_weight"], p[f"fc{last}_bias"])


def predict_proba(model, encoded, chunk=256):
    """Softmax class probabilities (len(encoded), num_relations).

    ``encoded`` is an EncodedCorpus; each chunk of ``chunk`` rows is one
    forward pass. Runs without building an autodiff graph, on a steady heap
    (``autodiff.steady_heap``).
    """
    ad.steady_heap()
    rows = []
    with ad.no_grad():
        for start in range(0, len(encoded), chunk):
            logits = forward(model, encoded[start : start + chunk], mode="test").data
            shift = logits - logits.max(axis=1, keepdims=True)
            expd = np.exp(shift)
            rows.append(expd / expd.sum(axis=1, keepdims=True))
    return np.concatenate(rows, axis=0)


# ---------------------------------------------------------------------------
# checkpoints
#
# Layout: one binary file holding a u64 little-endian manifest length, the
# UTF-8 manifest (key=value lines: config fields, seed, labels, vocabulary,
# parameter order), then per parameter: u64 name length, name bytes, u64
# rank, u64 dims, raw little-endian float64 data. Loading rebuilds the exact
# model; save-load round trips are bit-identical.


def check_storable(schema, vocab):
    """Reject labels and tokens that the checkpoint manifest cannot hold.

    Callers that train before saving call this first, so a bad label fails
    before any training step rather than at the save.
    """
    for lab in schema.labels:
        if "," in lab or "\n" in lab:
            raise DataError(f"relation label {lab!r} may not contain commas or newlines")
    for tok in vocab.tokens:
        if not tok or any(ch.isspace() for ch in tok):
            raise DataError(f"vocabulary token {tok!r} may not contain whitespace")


def _manifest(model):
    cfg = model.config
    e = cfg.embedding
    labels = model.schema.labels
    check_storable(model.schema, model.vocab)
    pairs = [
        ("format", CHECKPOINT_FORMAT),
        ("variant", cfg.variant),
        ("conv_layers", str(cfg.conv_layers)),
        ("window", str(cfg.window)),
        ("filters", str(cfg.filters)),
        ("fc_widths", ",".join(str(w) for w in cfg.fc_widths)),
        ("keep_prob", repr(cfg.keep_prob)),
        ("num_relations", str(cfg.num_relations)),
        ("word_dim", str(e.word_dim)),
        ("pos_dim", str(e.pos_dim)),
        ("min_distance", str(e.min_distance)),
        ("max_distance", str(e.max_distance)),
        ("sent_len", str(e.sent_len)),
        ("seed", str(model.seed)),
        ("labels", ",".join(labels)),
        ("vocab", " ".join(model.vocab.tokens)),
        ("params", ",".join(model.params.keys())),
    ]
    return "".join(f"{k}={v}\n" for k, v in pairs)


def save_checkpoint(model, path):
    """Write ``model`` to ``path``, replacing any file there in one step.

    The bytes go to a temporary file in the same directory, which is
    renamed over ``path`` only once it is complete. A save that raises or
    is interrupted removes the temporary file and leaves the previous
    checkpoint as it was.
    """
    manifest = _manifest(model).encode("utf-8")
    tmp = f"{os.fspath(path)}.{os.getpid()}.tmp"
    try:
        with open(tmp, "wb") as handle:
            handle.write(struct.pack("<Q", len(manifest)))
            handle.write(manifest)
            for name, tensor in model.params.items():
                encoded = name.encode("utf-8")
                handle.write(struct.pack("<Q", len(encoded)))
                handle.write(encoded)
                handle.write(struct.pack("<Q", tensor.data.ndim))
                for dim in tensor.data.shape:
                    handle.write(struct.pack("<Q", dim))
                handle.write(np.ascontiguousarray(tensor.data, dtype="<f8").tobytes())
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
        raise


def _read_exact(handle, count, what):
    data = handle.read(count)
    if len(data) != count:
        raise DataError(f"checkpoint truncated while reading {what}")
    return data


def _read_u64(handle, what):
    return struct.unpack("<Q", _read_exact(handle, 8, what))[0]


def load_checkpoint(path):
    """Rebuild a Model from a checkpoint file; malformed files raise DataError."""
    try:
        handle = open(path, "rb")
    except OSError as exc:
        raise DataError(f"cannot open checkpoint: {exc}") from None
    with handle:
        manifest_len = _read_u64(handle, "manifest length")
        if manifest_len > 1 << 31:
            raise DataError(f"implausible manifest length {manifest_len}")
        try:
            manifest = _read_exact(handle, manifest_len, "manifest").decode("utf-8")
        except UnicodeDecodeError as exc:
            raise DataError(f"manifest is not valid UTF-8: {exc}") from None
        fields = {}
        for line in manifest.splitlines():
            if not line:
                continue
            key, sep, value = line.partition("=")
            if not sep:
                raise DataError(f"malformed manifest line {line!r}")
            fields[key] = value
        if fields.get("format") != CHECKPOINT_FORMAT:
            raise DataError(f"unrecognized checkpoint format {fields.get('format')!r}")
        try:
            config = ModelConfig(
                variant=fields["variant"],
                conv_layers=int(fields["conv_layers"]),
                window=int(fields["window"]),
                filters=int(fields["filters"]),
                fc_widths=tuple(int(w) for w in fields["fc_widths"].split(",")),
                keep_prob=float(fields["keep_prob"]),
                num_relations=int(fields["num_relations"]),
                embedding=em.EmbeddingConfig(
                    word_dim=int(fields["word_dim"]),
                    pos_dim=int(fields["pos_dim"]),
                    min_distance=int(fields["min_distance"]),
                    max_distance=int(fields["max_distance"]),
                    sent_len=int(fields["sent_len"]),
                ),
            )
            seed = int(fields["seed"])
            labels = tuple(fields["labels"].split(","))
            vocab_tokens = fields["vocab"].split(" ")
            param_names = fields["params"].split(",")
        except KeyError as exc:
            raise DataError(f"manifest is missing field {exc.args[0]!r}") from None
        except ValueError as exc:
            raise DataError(f"malformed manifest value: {exc}") from None
        schema = RelationSchema(labels)
        if schema.num_relations != config.num_relations:
            raise DataError(f"manifest lists {schema.num_relations} labels but num_relations={config.num_relations}")
        if vocab_tokens[: len(em._RESERVED)] != list(em._RESERVED):
            raise DataError("vocabulary must start with the reserved PAD and UNK tokens")
        vocab = em.Vocabulary(vocab_tokens[len(em._RESERVED) :])
        expected = param_shapes(config, len(vocab))
        if param_names != list(expected.keys()):
            raise DataError(f"parameter list {param_names} does not match the architecture")
        params = {}
        for name in param_names:
            # compared as bytes: a stored name that is not UTF-8 or has an absurd length is never decoded or read
            expected_name = name.encode("utf-8")
            name_len = _read_u64(handle, "parameter name length")
            if name_len != len(expected_name):
                raise DataError(f"parameter record has a {name_len}-byte name, expected {name!r}")
            stored = _read_exact(handle, name_len, "parameter name")
            if stored != expected_name:
                raise DataError(f"parameter record {stored!r} out of order, expected {name!r}")
            rank = _read_u64(handle, f"rank of {name}")
            shape = tuple(_read_u64(handle, f"dim of {name}") for _ in range(rank))
            if shape != expected[name]:
                raise DataError(f"parameter {name} has shape {shape}, expected {expected[name]}")
            count = int(np.prod(shape, dtype=np.int64)) if shape else 1
            raw = _read_exact(handle, count * 8, f"data of {name}")
            values = np.frombuffer(raw, dtype="<f8").reshape(shape).astype(np.float64)
            try:
                params[name] = ad.Tensor(values, requires_grad=True, name=name)
            except NumericsError as exc:
                raise DataError(f"parameter {name} holds non-finite values: {exc}") from None
        if handle.read(1):
            raise DataError("trailing bytes after the last parameter record")
    return Model(config, vocab, schema, params, seed)
