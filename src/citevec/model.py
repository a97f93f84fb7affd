"""Model state: configuration, embedding matrices, persistence, inference.

A model couples four embedding matrices with the vocabulary they are
indexed by.  Documents carry two vectors each: the input-side vector used
when the document participates in a context, and the output-side vector
that ranking scores against.  Words carry an input-side vector plus an
output-side vector that only matters during the content pre-training pass.
The attention variant adds one learned score per document and word slot.
"""

from __future__ import annotations

import struct
import zlib
from dataclasses import dataclass, replace

import numpy as np
from scipy.sparse import csr_matrix

from .corpus import Vocabulary, _read_bytes, _word_windows
from .errors import ConfigError, ModelIOError

VARIANTS = ("avg", "att")

_MAGIC = b"DCV2"
_FORMAT_VERSION = 2

# independent RNG streams, keyed off config.seed
_RNG_INIT = 10
_RNG_INFER = 31


@dataclass(frozen=True)
class EmbeddingConfig:
    """Hyperparameters for training and inference.

    ``variant`` selects the hidden layer: "avg" pools participants with a
    uniform mean, "att" with learned softmax weights.  With
    ``structural_context`` false the co-cited documents are left out of
    every training context, which reduces the model to a plain
    citation-context embedding.
    """

    dim: int = 100
    window: int = 50
    negative: int = 1000
    iterations: int = 100
    retrofit_epochs: int = 5
    learning_rate: float = 0.025
    min_lr: float = 0.0001
    variant: str = "avg"
    structural_context: bool = True
    seed: int = 1

    def __post_init__(self):
        # bounded by the model file, which packs these as uint32 and the seed as int64
        for name, low in (("dim", 1), ("window", 1), ("negative", 1),
                          ("iterations", 0), ("retrofit_epochs", 0)):
            value = getattr(self, name)
            if not low <= value < 2**32:
                raise ConfigError(f"{name} must be in [{low}, 2**32), got {value}")
        if not self.learning_rate > self.min_lr >= 0:
            raise ConfigError(
                "need learning_rate > min_lr >= 0, got "
                f"{self.learning_rate} / {self.min_lr}"
            )
        if self.variant not in VARIANTS:
            raise ConfigError(f"variant must be one of {VARIANTS}, got {self.variant!r}")
        if not 0 <= self.seed < 2**63:
            raise ConfigError(f"seed must be in [0, 2**63), got {self.seed}")

    def with_updates(self, **changes) -> "EmbeddingConfig":
        return replace(self, **changes)


@dataclass
class ModelMatrices:
    """The learned parameters, float64 throughout.

    ``attention`` holds one score per slot: documents occupy slots
    [0, n_docs), words occupy [n_docs, n_docs + n_words).
    """

    doc_in: np.ndarray
    doc_out: np.ndarray
    word_in: np.ndarray
    word_out: np.ndarray
    attention: np.ndarray

    @property
    def n_docs(self) -> int:
        return self.doc_in.shape[0]

    @property
    def n_words(self) -> int:
        return self.word_in.shape[0]

    @property
    def dim(self) -> int:
        return self.doc_in.shape[1]

    def arrays(self) -> tuple[np.ndarray, ...]:
        return (self.doc_in, self.doc_out, self.word_in, self.word_out, self.attention)

    def copy(self) -> "ModelMatrices":
        return ModelMatrices(*(a.copy() for a in self.arrays()))

    def all_finite(self) -> bool:
        return all(np.isfinite(a).all() for a in self.arrays())

    def fingerprint(self) -> int:
        crc = 0
        for a in self.arrays():
            crc = zlib.crc32(np.ascontiguousarray(a).tobytes(), crc)
        return crc


@dataclass
class Model:
    config: EmbeddingConfig
    vocab: Vocabulary
    matrices: ModelMatrices
    trained_epochs: int = 0


def init_matrices(vocab: Vocabulary, config: EmbeddingConfig) -> ModelMatrices:
    """Fresh parameters: input vectors uniform in [-0.5/dim, 0.5/dim),
    output vectors and attention scores zero.  Deterministic per seed."""
    rng = np.random.default_rng([config.seed, _RNG_INIT])
    k = config.dim
    doc_in = (rng.random((vocab.n_docs, k)) - 0.5) / k
    word_in = (rng.random((vocab.n_words, k)) - 0.5) / k
    return ModelMatrices(
        doc_in=doc_in,
        doc_out=np.zeros((vocab.n_docs, k)),
        word_in=word_in,
        word_out=np.zeros((vocab.n_words, k)),
        attention=np.zeros(vocab.n_docs + vocab.n_words),
    )


def init_model(vocab: Vocabulary, config: EmbeddingConfig) -> Model:
    return Model(config=config, vocab=vocab, matrices=init_matrices(vocab, config))


def _pack_str(text: str) -> bytes:
    raw = text.encode("utf-8")
    return struct.pack("<I", len(raw)) + raw


def _pack_array(arr: np.ndarray) -> bytes:
    data = np.ascontiguousarray(arr, dtype="<f8")
    head = struct.pack("<I", data.ndim) + struct.pack(f"<{data.ndim}I", *data.shape)
    return head + data.tobytes()


def save_model(model: Model, sink) -> None:
    """Write the model in the binary container format.

    Layout: magic, format version, config block, vocab block, five matrix
    blocks, trailing crc32 over everything before it.  All integers and
    floats little-endian.  Round-trips bit-exactly.
    """
    cfg = model.config
    body = bytearray()
    body += struct.pack(
        "<5I",
        cfg.dim,
        cfg.window,
        cfg.negative,
        cfg.iterations,
        cfg.retrofit_epochs,
    )
    body += struct.pack("<2d", cfg.learning_rate, cfg.min_lr)
    body += struct.pack("<2B", VARIANTS.index(cfg.variant), int(cfg.structural_context))
    body += struct.pack("<qI", cfg.seed, model.trained_epochs)

    vocab = model.vocab
    body += struct.pack("<2I", vocab.n_words, vocab.n_docs)
    for word in vocab.word_list:
        body += _pack_str(word)
    body += np.ascontiguousarray(vocab.word_counts, dtype="<i8").tobytes()
    for doc_id in vocab.doc_list:
        body += _pack_str(doc_id)
    body += np.ascontiguousarray(vocab.doc_cited_counts, dtype="<i8").tobytes()

    for arr in model.matrices.arrays():
        body += _pack_array(arr)

    payload = _MAGIC + struct.pack("<I", _FORMAT_VERSION) + bytes(body)
    payload += struct.pack("<I", zlib.crc32(payload))

    if hasattr(sink, "write"):
        sink.write(payload)
    else:
        with open(sink, "wb") as handle:
            handle.write(payload)


class _Cursor:
    """Sequential reader over a byte buffer with overrun checks."""

    def __init__(self, data: bytes):
        self.data = data
        self.pos = 0

    def take(self, n: int) -> bytes:
        end = self.pos + n
        if n < 0 or end > len(self.data):
            raise ModelIOError("truncated model file")
        chunk = self.data[self.pos : end]
        self.pos = end
        return chunk

    def unpack(self, fmt: str):
        return struct.unpack(fmt, self.take(struct.calcsize(fmt)))

    def take_str(self) -> str:
        (length,) = self.unpack("<I")
        raw = self.take(length)
        try:
            return raw.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ModelIOError(f"vocabulary entry is not valid UTF-8: {exc}") from None

    def take_i64(self, count: int) -> np.ndarray:
        raw = self.take(8 * count)
        return np.frombuffer(raw, dtype="<i8").astype(np.int64)

    def take_array(self) -> np.ndarray:
        (ndim,) = self.unpack("<I")
        if ndim > 2:
            raise ModelIOError(f"unsupported matrix rank {ndim}")
        shape = self.unpack(f"<{ndim}I")
        count = 1
        for side in shape:
            count *= side
        raw = self.take(8 * count)
        # copy so the result is writable and independent of the buffer
        return np.frombuffer(raw, dtype="<f8").astype(np.float64).reshape(shape)


def load_model(source) -> Model:
    """Read a model file; the inverse of save_model.

    Raises ModelIOError on bad magic, unsupported version, checksum
    mismatch, or truncation.  Never returns a partial model.
    """
    data = _read_bytes(source)
    if len(data) < len(_MAGIC) + 8:
        raise ModelIOError("model file too short")
    if data[: len(_MAGIC)] != _MAGIC:
        raise ModelIOError("not a model file (bad magic)")
    (stored_crc,) = struct.unpack("<I", data[-4:])
    if zlib.crc32(data[:-4]) != stored_crc:
        raise ModelIOError("model file checksum mismatch (truncated or corrupted)")

    cur = _Cursor(data[:-4])
    cur.take(len(_MAGIC))
    (version,) = cur.unpack("<I")
    if version != _FORMAT_VERSION:
        raise ModelIOError(f"unsupported model format version {version}")

    dim, window, negative, iterations, retrofit_epochs = cur.unpack("<5I")
    learning_rate, min_lr = cur.unpack("<2d")
    variant_code, structural = cur.unpack("<2B")
    seed, trained_epochs = cur.unpack("<qI")
    if variant_code >= len(VARIANTS):
        raise ModelIOError(f"unknown variant code {variant_code}")
    try:
        config = EmbeddingConfig(
            dim=dim,
            window=window,
            negative=negative,
            iterations=iterations,
            retrofit_epochs=retrofit_epochs,
            learning_rate=learning_rate,
            min_lr=min_lr,
            variant=VARIANTS[variant_code],
            structural_context=bool(structural),
            seed=seed,
        )
    except ConfigError as exc:
        raise ModelIOError(f"invalid configuration in model file: {exc}") from None

    n_words, n_docs = cur.unpack("<2I")
    vocab = Vocabulary()
    vocab.word_list = [cur.take_str() for _ in range(n_words)]
    vocab.word_ids = {w: i for i, w in enumerate(vocab.word_list)}
    vocab.word_counts = cur.take_i64(n_words)
    vocab.doc_list = [cur.take_str() for _ in range(n_docs)]
    vocab.doc_ids = {d: i for i, d in enumerate(vocab.doc_list)}
    vocab.doc_cited_counts = cur.take_i64(n_docs)
    if len(vocab.word_ids) != n_words or len(vocab.doc_ids) != n_docs:
        raise ModelIOError("duplicate vocabulary entries in model file")

    arrays = [cur.take_array() for _ in range(5)]
    if cur.pos != len(cur.data):
        raise ModelIOError("trailing bytes after model payload")
    matrices = ModelMatrices(*arrays)
    expected = {
        "doc_in": (n_docs, dim),
        "doc_out": (n_docs, dim),
        "word_in": (n_words, dim),
        "word_out": (n_words, dim),
        "attention": (n_docs + n_words,),
    }
    for name, shape in expected.items():
        if getattr(matrices, name).shape != shape:
            raise ModelIOError(f"matrix {name} has shape "
                               f"{getattr(matrices, name).shape}, expected {shape}")
    return Model(config=config, vocab=vocab, matrices=matrices, trained_epochs=trained_epochs)


_EXPORTABLE = ("doc_in", "doc_out", "word_in")


def export_word2vec_text(model: Model, which: str, sink) -> None:
    """Dump one matrix in the plain word2vec text format.

    First line is `<count> <dim>`; every other line is a token followed by
    its components.  Document tokens get a `doc:` prefix so ids can never
    collide with words.  Floats use shortest round-trip formatting.
    """
    if which not in _EXPORTABLE:
        raise ConfigError(f"which must be one of {_EXPORTABLE}, got {which!r}")
    matrix = getattr(model.matrices, which)
    if which.startswith("doc"):
        tokens = [f"doc:{doc_id}" for doc_id in model.vocab.doc_list]
    else:
        tokens = model.vocab.word_list

    def emit(out):
        out.write(f"{matrix.shape[0]} {matrix.shape[1]}\n")
        for token, row in zip(tokens, matrix):
            values = " ".join(repr(float(v)) for v in row)
            out.write(f"{token} {values}\n")

    if hasattr(sink, "write"):
        emit(sink)
    else:
        with open(sink, "w", encoding="utf-8", newline="\n") as handle:
            emit(handle)


def infer_doc_vector(model: Model, word_indices, steps: int = 5, lr: float | None = None) -> np.ndarray:
    """Fit a vector for unseen text against the frozen word matrices.

    Starts from the mean of the input-side word vectors, then runs
    content-pass steps that update only the new vector, ``BATCH`` words at
    a time as the content pass does.  Each batch reads the vector as it
    stood at the batch start: word i is predicted from its window words,
    each over m_i and summed from zero in text order, plus vector / m_i;
    the training kernel's output half gives the batch's hidden gradients
    from one draw of noise words, and the vector moves by ``-(lr / m) @
    hidden gradients``.  The model itself is never modified.
    """
    from .train import BATCH, NegativeSampler, _ns_output  # avoids an import cycle

    words = np.asarray(list(word_indices), dtype=np.intp)
    if words.size == 0:
        raise ConfigError("cannot infer a vector from an empty token sequence")
    if steps < 1:
        raise ConfigError(f"steps must be >= 1, got {steps}")
    if words.min() < 0 or words.max() >= model.vocab.n_words:
        raise ConfigError("word index out of range")
    if lr is None:
        lr = model.config.learning_rate

    n, negative = words.size, model.config.negative
    sampler = NegativeSampler(model.vocab.word_counts, seed=[model.config.seed, _RNG_INFER])
    offsets, positions = _word_windows(np.array([0, n]), model.config.window)
    m = np.diff(offsets) + 1  # the vector and the window words
    # the window words are frozen, so their share of each hidden row is fixed
    weights = (1.0 / m)[np.repeat(np.arange(n), m - 1)]
    pool = csr_matrix((weights, positions, offsets), shape=(n, n))
    rows = model.matrices.word_in[words]
    context = pool @ rows
    work = np.empty((2, min(n, BATCH) * (1 + negative), model.matrices.dim))

    vec = rows.mean(axis=0)
    for _ in range(steps):
        for lo in range(0, n, BATCH):
            hi = min(lo + BATCH, n)
            hidden = context[lo:hi] + (1.0 / m[lo:hi])[:, None] * vec
            out = _ns_output(hidden, words[lo:hi], model.matrices.word_out, sampler, negative, work)
            vec = vec - (lr / m[lo:hi]) @ out[2]  # the hidden gradients
    return vec
