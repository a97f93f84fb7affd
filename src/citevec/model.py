"""Model state: configuration, embedding matrices, persistence, inference.

A model couples four embedding matrices with the vocabulary they are
indexed by.  Documents carry two vectors each: the input-side vector used
when the document participates in a context, and the output-side vector
that ranking scores against.  Words carry an input-side vector plus an
output-side vector that only matters during the content pre-training pass.
The attention variant adds one learned score per document and word slot.

A model persists as one binary file (format version 3) whose matrix
blocks start at 64-byte offsets.  Saving streams the blocks to the sink,
and loading reads the file into one aligned buffer that the loaded
matrices view, so neither holds more than one copy of the file.  Loading
reads ``_CHUNK`` bytes at a time and checksums each chunk on a second
thread while the next chunk is read.  Ranking makes a model's arrays
read-only on its first query (``Model._derived``); to edit, assign
``model.matrices = model.matrices.copy()``.
"""

from __future__ import annotations

import math
import os
import queue
import stat
import struct
import threading
import zlib
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from .corpus import Vocabulary, _read_bytes, _word_windows
from .errors import ConfigError, ModelIOError, _check_float, _check_int

VARIANTS = ("avg", "att")

_MAGIC = b"DCV2"  # DocCit2Vec, in every format version; the version follows it
_FORMAT_VERSION = 3
_ALIGN = 64  # matrix blocks start at multiples of this file offset
_CHUNK = 4 << 20  # bytes a load reads per call; 1 MiB reads as fast, 16 MiB slower

# independent RNG streams, keyed off config.seed
_RNG_INIT = 10
_RNG_INFER = 31
# content-pass steps that infer_doc_vector takes over a text
INFER_STEPS = 5


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
            _check_int(name, value)
            if not low <= value < 2**32:
                raise ConfigError(f"{name} must be in [{low}, 2**32), got {value}")
        _check_float("learning_rate", self.learning_rate)
        _check_float("min_lr", self.min_lr)
        if not math.inf > self.learning_rate > self.min_lr >= 0:
            raise ConfigError(
                "need finite learning_rate > min_lr >= 0, got "
                f"{self.learning_rate} / {self.min_lr}"
            )
        if self.variant not in VARIANTS:
            raise ConfigError(f"variant must be one of {VARIANTS}, got {self.variant!r}")
        if not isinstance(self.structural_context, bool):
            raise ConfigError(f"structural_context must be a bool, got {self.structural_context!r}")
        _check_int("seed", self.seed)
        if not 0 <= self.seed < 2**63:
            raise ConfigError(f"seed must be in [0, 2**63), got {self.seed}")


# The model file's config block: EmbeddingConfig's fields in declaration
# order, the variant as its index in VARIANTS, structural_context as a byte.
_CONFIG = struct.Struct("<5I2d2Bq")


def _pack_config(config: EmbeddingConfig) -> bytes:
    values = asdict(config)
    values["variant"] = VARIANTS.index(config.variant)
    return _CONFIG.pack(*values.values())


def _unpack_config(raw: tuple) -> EmbeddingConfig:
    """The config a block's values describe; ModelIOError if it is invalid."""
    values = dict(zip((field.name for field in fields(EmbeddingConfig)), raw))
    if values["variant"] >= len(VARIANTS):
        raise ModelIOError(f"unknown variant code {values['variant']}")
    values["variant"] = VARIANTS[values["variant"]]
    values["structural_context"] = bool(values["structural_context"])
    try:
        return EmbeddingConfig(**values)
    except ConfigError as exc:
        raise ModelIOError(f"invalid configuration in model file: {exc}") from None


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
            crc = zlib.crc32(np.ascontiguousarray(a), crc)
        return crc


@dataclass
class Model:
    config: EmbeddingConfig
    vocab: Vocabulary
    matrices: ModelMatrices
    trained_epochs: int = 0
    # the arrays ranking made read-only, and what it derived from them (``_derived``)
    _frozen: tuple | None = field(default=None, init=False, repr=False, compare=False)

    def _derived(self) -> dict:
        """Where ranking keeps what it derives from this model's arrays, the
        five matrices and the vocabulary's two counts.  Ranking makes a
        model's arrays read-only on its first query; to edit, assign
        ``model.matrices = model.matrices.copy()``.  A model whose
        ``matrices`` or ``vocab`` a caller replaced, or one of whose arrays
        was made writable again, starts afresh, so nothing kept goes stale.

        What is kept, each made on first use: ``infer_doc_vector``'s
        word-noise table and its window pool for each text length of at
        most ``BATCH`` words and each window, ``evaluate``'s cited-id
        order, and ``recommend``'s cited rows (a float64 panel, or a large
        one's float32 unit rows and norms) and, for rank_i4i, the input
        rows' norms or a large model's float32 unit rows, NaN in each row
        the filters' bound does not cover, sized in its module docstring."""
        arrays = (*self.matrices.arrays(), self.vocab.word_counts, self.vocab.doc_cited_counts)
        if self._frozen is not None:
            held, derived = self._frozen
            if all(a is b and not a.flags.writeable for a, b in zip(held, arrays)):
                return derived
        for a in arrays:
            a.flags.writeable = False
        self._frozen = (arrays, {})
        return self._frozen[1]

    def __getstate__(self) -> dict:
        """A pickle or a copy, shallow or deep, leaves out what ranking
        derived; the copy derives its own on its first query."""
        return {**self.__dict__, "_frozen": None}


def _reused(model: Model, name, build):
    """``build()`` on the first call for ``name``, a string or a tuple, on
    the model's current arrays (``Model._derived``), the value it gave on
    every later one."""
    derived = model._derived()
    if name not in derived:
        derived[name] = build()
    return derived[name]


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


def save_model(model: Model, sink) -> None:
    """Write the model in the binary container format, version 3.

    Layout, all integers and floats little-endian: magic ``DCV2``, format
    version 3, config block (``_CONFIG``), trained epochs; word and doc
    counts; per vocabulary list (words, then doc ids) one ``<u4`` array of
    UTF-8 byte lengths, the UTF-8 bytes of every entry end to end, and one
    ``<i8`` array of counts; five matrix blocks, each an ``ndim``/shape
    header and zero padding up to a 64-byte file offset, then the float64
    values; last a crc32 over everything before it.  Round-trips bit-exactly.

    Each block goes straight to ``sink`` (a path, or an object whose
    ``write`` takes bytes-like objects) while a running crc32 is kept, so
    the file is never built in memory; the matrices are written from their
    own memory without a copy.
    """
    if hasattr(sink, "write"):
        _write_model(model, sink.write)
    else:
        with open(sink, "wb") as handle:
            _write_model(model, handle.write)


def _write_model(model: Model, write) -> None:
    crc = offset = 0

    def put(chunk) -> None:
        nonlocal crc, offset
        write(chunk)
        crc = zlib.crc32(chunk, crc)
        offset += memoryview(chunk).nbytes

    put(_MAGIC + struct.pack("<I", _FORMAT_VERSION) + _pack_config(model.config)
        + struct.pack("<I", model.trained_epochs))
    vocab = model.vocab
    put(struct.pack("<2I", vocab.n_words, vocab.n_docs))
    for items, counts in ((vocab.word_list, vocab.word_counts),
                          (vocab.doc_list, vocab.doc_cited_counts)):
        raw = [item.encode("utf-8") for item in items]
        put(np.fromiter(map(len, raw), dtype="<u4", count=len(raw)))
        put(b"".join(raw))
        put(np.ascontiguousarray(counts, dtype="<i8"))
    for arr in model.matrices.arrays():
        data = np.ascontiguousarray(arr, dtype="<f8")
        head = struct.pack(f"<{1 + data.ndim}I", data.ndim, *data.shape)
        put(head + bytes(-(offset + len(head)) % _ALIGN))
        put(data)
    write(struct.pack("<I", crc))


def _aligned_buffer(size: int) -> np.ndarray:
    """``size`` writable bytes whose first byte sits on a 64-byte address."""
    raw = np.empty(size + _ALIGN, dtype=np.uint8)
    start = -raw.ctypes.data % _ALIGN
    return raw[start : start + size]


def _read_aligned(source) -> tuple[np.ndarray, int]:
    """The whole model file in one aligned buffer, and the crc32 of all of
    it but its last 4 bytes, where the stored checksum sits.  A regular file
    is read straight into the buffer; bytes, file-like sources and pipes are
    copied in from the bytes they give, never copied whole first.  Either
    way the buffer fills ``_CHUNK`` bytes at a time (``_fill``)."""
    if isinstance(source, (str, os.PathLike)):
        with open(source, "rb", buffering=0) as handle:
            info = os.fstat(handle.fileno())
            if stat.S_ISREG(info.st_mode):
                return _fill(_aligned_buffer(info.st_size), handle.readinto)
            source = handle.readall()  # a pipe has no size to allocate
    data = memoryview(_read_bytes(source)).cast("B")
    at = 0

    def copy_into(view) -> int:
        nonlocal at
        got = min(len(view), len(data) - at)
        view[:got] = data[at : at + got]
        at += got
        return got

    return _fill(_aligned_buffer(len(data)), copy_into)


def _fill(buf: np.ndarray, readinto) -> tuple[np.ndarray, int]:
    """Fill ``buf`` through ``readinto``, ``_CHUNK`` bytes per call: what was
    read, and the crc32 of all of it but its last 4 bytes.

    A second thread folds each chunk into the crc32 while the next one is
    read: a file's ``readinto`` and zlib's crc32 of a large chunk both
    release the GIL, so the two overlap.  The thread is sent its end in a
    ``finally`` and has ended when this returns or raises; an error on it is
    raised here.  A file that shrank since its size was taken is read to its
    end and checksummed again, up to its new end; one that grew is read up
    to that size.
    """
    view, filled = memoryview(buf), 0
    body = max(len(buf) - 4, 0)
    chunks = queue.SimpleQueue()  # views of the buffer as it fills, then None
    folded = []  # the crc32 of the chunks, or the exception that stopped it

    def fold():
        crc = 0
        try:
            while (chunk := chunks.get()) is not None:
                crc = zlib.crc32(chunk, crc)
        except Exception as exc:  # raised again on the calling thread
            crc = exc
        folded.append(crc)

    # a daemon, so that not even an interrupt before the join can keep the
    # interpreter from exiting
    worker = threading.Thread(target=fold, daemon=True)
    try:
        worker.start()
        while filled < len(buf):
            got = readinto(view[filled : filled + _CHUNK])
            if not got:  # the file shrank since its size was taken
                break
            chunks.put(view[filled : min(filled + got, body)])
            filled += got
    finally:
        chunks.put(None)  # ends the thread, once it has started
        if worker.is_alive():
            worker.join()
    if isinstance(folded[0], Exception):
        raise folded[0]
    if filled < len(buf):
        return buf[:filled], zlib.crc32(view[: max(filled - 4, 0)])
    return buf, folded[0]


def _read_only(values: np.ndarray) -> np.ndarray:
    """A 1-d view of ``values``' memory that NumPy refuses to make writable:
    it views a read-only buffer, and so does every view taken of it."""
    return np.frombuffer(memoryview(values).toreadonly(), values.dtype)


class _Cursor:
    """Sequential reader over the aligned file buffer with overrun checks."""

    def __init__(self, buf: np.ndarray):
        self.buf = buf
        self.pos = 0

    def skip(self, n: int) -> int:
        """Advance past ``n`` bytes and return where they start."""
        start, end = self.pos, self.pos + n
        if n < 0 or end > len(self.buf):
            raise ModelIOError("truncated model file")
        self.pos = end
        return start

    def unpack(self, fmt: str):
        return struct.unpack_from(fmt, self.buf, self.skip(struct.calcsize(fmt)))

    def take(self, dtype: str, count: int) -> np.ndarray:
        """``count`` values of a little-endian ``dtype``: a native-order,
        read-only view into the buffer, copied only on a big-endian machine."""
        size = np.dtype(dtype).itemsize
        start = self.skip(size * count)
        values = self.buf[start : start + size * count].view(dtype)
        return _read_only(values.astype(dtype[1:], copy=False))

    def take_strs(self, count: int) -> list[str]:
        """``count`` strings: their ``<u4`` UTF-8 byte lengths, then their
        bytes end to end.  An ASCII blob is decoded once and sliced, since
        its byte offsets are its character offsets; any other is decoded
        entry by entry, so a length that splits a character is an error."""
        ends = np.cumsum(self.take("<u4", count), dtype=np.uint64).tolist()
        start = self.skip(ends[-1] if ends else 0)
        blob = self.buf[start : self.pos].tobytes()
        try:
            text = blob.decode("utf-8")
            if len(text) == len(blob):
                return [text[a:b] for a, b in zip([0, *ends], ends)]
            return [blob[a:b].decode("utf-8") for a, b in zip([0, *ends], ends)]
        except UnicodeDecodeError as exc:
            raise ModelIOError(f"vocabulary entry is not valid UTF-8: {exc}") from None

    def take_matrix(self) -> np.ndarray:
        (ndim,) = self.unpack("<I")
        if ndim > 2:
            raise ModelIOError(f"unsupported matrix rank {ndim}")
        shape = self.unpack(f"<{ndim}I")
        start = self.skip(-self.pos % _ALIGN)
        if self.buf[start : self.pos].any():
            raise ModelIOError("non-zero padding before a matrix block")
        return self.take("<f8", math.prod(shape)).reshape(shape)


def load_model(source) -> Model:
    """Read a model file; the inverse of save_model.

    ``source`` is a path, bytes, or a binary file-like object.  The file is
    read once into one 64-byte-aligned buffer, ``_CHUNK`` bytes at a time,
    and its crc32 checked before anything is parsed.  The crc32 is computed
    on a second thread, each chunk while the next is read; that thread has
    ended by the time this returns or raises, and an error on it is raised
    here.  The five matrices are C-contiguous, aligned views into that
    buffer, not copies: while any one of them is alive, the whole buffer
    is.  Every array the model holds, the matrices and the
    vocabulary's counts, is read-only, and NumPy refuses to make it writable
    again.  Ranking makes a model's arrays read-only on its first query; to
    edit, assign ``model.matrices = model.matrices.copy()``
    (``Model._derived``).

    Raises ModelIOError on bad magic, unsupported version (files written
    before version 3 included), checksum mismatch, truncation, invalid
    UTF-8, duplicate vocabulary entries, non-zero padding, wrong matrix
    shapes or trailing bytes.  Never returns a partial model.
    """
    buf, crc = _read_aligned(source)
    if len(buf) < len(_MAGIC) + 8:
        raise ModelIOError("model file too short")
    if buf[: len(_MAGIC)].tobytes() != _MAGIC:
        raise ModelIOError("not a model file (bad magic)")
    body = buf[:-4]
    (stored_crc,) = struct.unpack_from("<I", buf, len(body))
    if crc != stored_crc:
        raise ModelIOError("model file checksum mismatch (truncated or corrupted)")

    cur = _Cursor(body)
    cur.skip(len(_MAGIC))
    (version,) = cur.unpack("<I")
    if version != _FORMAT_VERSION:
        raise ModelIOError(f"unsupported model format version {version}")

    config = _unpack_config(cur.unpack(_CONFIG.format))
    (trained_epochs,) = cur.unpack("<I")

    n_words, n_docs = cur.unpack("<2I")
    vocab = Vocabulary()
    vocab.word_list = cur.take_strs(n_words)
    vocab.word_ids = dict(zip(vocab.word_list, range(n_words)))
    # the counts are copied out of the buffer, so that they are aligned
    vocab.word_counts = _read_only(cur.take("<i8", n_words).copy())
    vocab.doc_list = cur.take_strs(n_docs)
    vocab.doc_ids = dict(zip(vocab.doc_list, range(n_docs)))
    vocab.doc_cited_counts = _read_only(cur.take("<i8", n_docs).copy())
    if len(vocab.word_ids) != n_words or len(vocab.doc_ids) != n_docs:
        raise ModelIOError("duplicate vocabulary entries in model file")

    arrays = [cur.take_matrix() for _ in range(5)]
    if cur.pos != len(body):
        raise ModelIOError("trailing bytes after model payload")
    matrices = ModelMatrices(*arrays)
    expected = {
        "doc_in": (n_docs, config.dim),
        "doc_out": (n_docs, config.dim),
        "word_in": (n_words, config.dim),
        "word_out": (n_words, config.dim),
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


def infer_doc_vector(model: Model, word_indices) -> np.ndarray:
    """Fit a vector for unseen text against the frozen word matrices.

    Starts from the mean of the input-side word vectors, then runs
    ``INFER_STEPS`` content-pass steps at the model's ``learning_rate``
    that update only the new vector, ``BATCH`` words at a time as the
    content pass does.  Each batch reads the vector as it stood at the
    batch start: word i is predicted from its window words, each over m_i
    and summed from zero in text order, plus vector / m_i.  The training
    kernel's output half draws the batch's noise words in one call and
    gives its entries, word i's target and then its kept noise words, each
    with a coefficient c_e and its output row.  The vector moves by
    ``-weights @ rows``: one matrix-vector product over the entries, in
    entry order, with the weights ``(lr / m_i) * c_e``, so no hidden
    gradient is formed.  The model is never modified but for its arrays'
    read-only flags (``Model._derived``); its word-noise table is built once
    (``_reused``) and every call draws from a fresh generator, so it infers
    the same vector each time.

    The window pool depends only on the text's length and the window: the
    window words' positions, m, the sparse matrix that sums each word's
    window words over m, and the column of 1 / m.  For a text of at most
    ``BATCH`` words it is built once per length and ``config.window`` and
    kept (``_reused``): at most ``BATCH`` pools per window, of at most
    n · min(n - 1, 2 · window) entries each, n the length.  A longer text
    builds its own on every call.

    Raises ConfigError, before any work, when the words are empty, not a
    flat sequence of ints (bools and floats included) or out of range.
    """
    from scipy.sparse import csr_array  # loaded only where used, as in train._ns_batch

    from .train import BATCH, NegativeSampler, _noise_table, _ns_output  # avoids an import cycle

    items = list(word_indices)
    words = np.asarray(items)
    if words.size == 0:
        raise ConfigError("cannot infer a vector from an empty token sequence")
    if words.ndim != 1 or words.dtype.kind not in "iu" or {bool, np.bool_} & set(map(type, items)):
        raise ConfigError("word indices must be a flat sequence of ints, not bools or floats")
    if words.min() < 0 or words.max() >= model.vocab.n_words:
        raise ConfigError("word index out of range")
    words = words.astype(np.intp)

    n, negative = words.size, model.config.negative
    counts = model.vocab.word_counts
    sampler = NegativeSampler(counts, seed=[model.config.seed, _RNG_INFER],
                              cumulative=_reused(model, "word noise", lambda: _noise_table(counts)))
    window = model.config.window

    def windows():
        offsets, positions = _word_windows(np.array([0, n]), window)
        m = np.diff(offsets) + 1  # the vector and the window words
        shares = 1.0 / m
        # the window words are frozen, so their share of each hidden row is fixed
        pool = csr_array((shares[np.repeat(np.arange(n), m - 1)], positions, offsets), shape=(n, n))
        return m, pool, shares[:, None]

    m, pool, shares = _reused(model, ("window pool", n, window), windows) if n <= BATCH else windows()
    rows = model.matrices.word_in[words]
    context = pool @ rows
    work = np.empty((2, min(n, BATCH) * (1 + negative), model.matrices.dim))

    rates = model.config.learning_rate / m
    vec = rows.mean(axis=0)
    for _ in range(INFER_STEPS):
        for lo in range(0, n, BATCH):
            hi = min(lo + BATCH, n)
            hidden = context[lo:hi] + shares[lo:hi] * vec
            _, entries, gathered = _ns_output(hidden, words[lo:hi], model.matrices.word_out,
                                              sampler, negative, work)
            vec = vec - (rates[lo:hi][entries.example] * entries.coeffs) @ gathered
    return vec
