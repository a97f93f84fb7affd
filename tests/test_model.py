"""Model init, persistence, export, and inference tests."""

import copy
import dataclasses
import hashlib
import importlib
import io
import math
import os
import pickle
import re
import struct
import sys
import threading
import tracemalloc
import types
import zlib

import numpy as np
import pytest

from citevec.corpus import Vocabulary, parse_corpus
from citevec.errors import CitevecError, ConfigError, ModelIOError
from citevec.model import (
    EmbeddingConfig,
    export_word2vec_text,
    infer_doc_vector,
    init_matrices,
    init_model,
    load_model,
    save_model,
)
from citevec.recommend import rank_i4i
from reference import infer_reference, train_module

model_module = importlib.import_module("citevec.model")


def tiny_model(dim=4, text=b"d0\talpha beta [[d1]] gamma\nd1\tbeta delta\n", **cfg):
    corpus = parse_corpus(text)
    config = EmbeddingConfig(
        dim=dim, window=5, negative=3, iterations=2, retrofit_epochs=1, seed=1, **cfg
    )
    return init_model(corpus.vocab, config)


class TestConfig:
    def test_defaults_are_the_reference_configuration(self):
        config = EmbeddingConfig()
        assert config.dim == 100
        assert config.window == 50
        assert config.negative == 1000
        assert config.iterations == 100
        assert config.retrofit_epochs == 5
        assert config.learning_rate == 0.025
        assert config.min_lr == 0.0001
        assert config.variant == "avg"
        assert config.structural_context is True

    def test_validation(self):
        for bad in (
            dict(dim=0),
            dict(window=0),
            dict(negative=0),
            dict(iterations=-1),
            dict(retrofit_epochs=-1),
            dict(learning_rate=0.0001, min_lr=0.0001),
            dict(min_lr=-1e-9),
            dict(variant="mean"),
            dict(seed=-1),
            # the model file packs these as uint32 and the seed as int64
            dict(dim=2**32),
            dict(window=2**32),
            dict(negative=2**32),
            dict(iterations=2**32),
            dict(retrofit_epochs=2**32),
            dict(seed=2**63),
        ):
            with pytest.raises(ConfigError):
                EmbeddingConfig(**bad)

    @pytest.mark.parametrize("bad", [
        dict(dim=2.5), dict(dim=True), dict(window=2.5), dict(negative=2.5), dict(negative=False),
        dict(iterations=1.5), dict(retrofit_epochs=1.0), dict(seed=1.5), dict(seed="1"),
        dict(structural_context="no"), dict(structural_context=1),
        dict(learning_rate=math.inf), dict(learning_rate=math.nan), dict(min_lr=math.nan),
    ], ids=repr)
    def test_bad_types_and_non_finite_rates_fail_when_built(self, bad):
        """Each would otherwise fail later, in train() or save_model, with
        a bare TypeError, IndexError or struct.error, or after an epoch."""
        with pytest.raises(ConfigError):
            EmbeddingConfig(**bad)

    @pytest.mark.parametrize("bad", [
        dict(learning_rate="0.1"), dict(learning_rate=None), dict(learning_rate=True),
        dict(min_lr=None), dict(min_lr="0"), dict(min_lr=False),
    ], ids=repr)
    def test_non_number_rates_fail_when_built(self, bad):
        """Each would otherwise fail in the range check with a bare
        TypeError, or pass it as a bool."""
        name, value = next(iter(bad.items()))
        with pytest.raises(ConfigError, match=f"^{name} must be a number, got {re.escape(repr(value))}$"):
            EmbeddingConfig(**bad)

    def test_largest_values_round_trip(self):
        model = tiny_model(dim=1)
        model.config = EmbeddingConfig(
            dim=1, window=2**32 - 1, negative=2**32 - 1, iterations=2**32 - 1,
            retrofit_epochs=2**32 - 1, seed=2**63 - 1,
        )
        buf = io.BytesIO()
        save_model(model, buf)
        assert load_model(buf.getvalue()).config == model.config


class TestInitMatrices:
    def test_input_ranges_and_zero_outputs(self):
        model = tiny_model(dim=4)
        mats = model.matrices
        for arr in (mats.doc_in, mats.word_in):
            assert arr.shape[1] == 4
            assert (np.abs(arr) <= 0.125).all()
        assert mats.doc_in.any()  # inputs are randomized, not zero
        assert not mats.doc_out.any()
        assert not mats.word_out.any()
        assert not mats.attention.any()
        assert mats.attention.shape == (mats.n_docs + mats.word_in.shape[0],)

    def test_fingerprint_is_the_crc_of_the_array_bytes(self):
        mats = tiny_model(dim=4).matrices
        mats.doc_out = np.asfortranarray(mats.doc_in + 1.0)  # not C-contiguous
        mats.word_out = mats.word_in[:, ::2]  # a strided view
        mats.attention = mats.attention[:0]  # empty
        for a in mats.arrays():
            a.flags.writeable = False
        crc = 0
        for a in mats.arrays():
            crc = zlib.crc32(np.ascontiguousarray(a).tobytes(), crc)
        assert mats.fingerprint() == crc
        assert tiny_model(dim=4).matrices.fingerprint() != crc

    def test_seed_determinism(self):
        corpus = parse_corpus(b"a\tx y [[b]]\n")
        base = EmbeddingConfig(dim=8, seed=5)
        first = init_matrices(corpus.vocab, base)
        second = init_matrices(corpus.vocab, base)
        assert all(np.array_equal(x, y) for x, y in zip(first.arrays(), second.arrays()))
        other = init_matrices(corpus.vocab, dataclasses.replace(base, seed=6))
        assert not np.array_equal(first.doc_in, other.doc_in)


class TestSaveLoad:
    def test_round_trip_is_bit_exact(self):
        model = tiny_model(dim=3)
        model.matrices.doc_out += np.pi  # nontrivial payload
        model.trained_epochs = 7
        buf = io.BytesIO()
        save_model(model, buf)
        loaded = load_model(buf.getvalue())
        for a, b in zip(model.matrices.arrays(), loaded.matrices.arrays()):
            assert np.array_equal(a, b)
            assert a.dtype == b.dtype == np.float64
        assert loaded.config == model.config
        assert loaded.trained_epochs == 7
        assert loaded.vocab.word_list == model.vocab.word_list
        assert loaded.vocab.doc_list == model.vocab.doc_list
        assert np.array_equal(loaded.vocab.word_counts, model.vocab.word_counts)
        assert np.array_equal(loaded.vocab.doc_cited_counts, model.vocab.doc_cited_counts)

    def test_every_config_field_round_trips(self):
        model = tiny_model(dim=4)
        model.config = EmbeddingConfig(
            dim=4, window=3, negative=7, iterations=9, retrofit_epochs=2, learning_rate=0.3,
            min_lr=0.002, variant="att", structural_context=False, seed=12345,
        )
        default = EmbeddingConfig()
        assert all(getattr(model.config, field.name) != getattr(default, field.name)
                   for field in dataclasses.fields(EmbeddingConfig))
        buf = io.BytesIO()
        save_model(model, buf)
        loaded = load_model(buf.getvalue()).config
        assert loaded == model.config
        assert loaded.structural_context is False

    def test_save_is_deterministic_bytes(self, tmp_path):
        model = tiny_model()
        p1, p2 = tmp_path / "m1.bin", tmp_path / "m2.bin"
        save_model(model, str(p1))
        save_model(model, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_truncation_is_detected_everywhere(self):
        model = tiny_model()
        buf = io.BytesIO()
        save_model(model, buf)
        payload = buf.getvalue()
        for cut in range(len(payload)):
            with pytest.raises(ModelIOError):
                load_model(payload[:cut])

    def test_empty_stream_is_an_error(self):
        with pytest.raises(ModelIOError):
            load_model(b"")

    def test_bad_magic_is_an_error(self):
        model = tiny_model()
        buf = io.BytesIO()
        save_model(model, buf)
        payload = b"NOPE" + buf.getvalue()[4:]
        with pytest.raises(ModelIOError, match="magic"):
            load_model(payload)

    def test_version_mismatch_is_an_error(self):
        model = tiny_model()
        buf = io.BytesIO()
        save_model(model, buf)
        # version 1 files also stored a thread count and version 2 files had
        # unaligned matrix blocks; both are refused, not read
        for version in (1, 2, 99):
            payload = bytearray(buf.getvalue())
            payload[4] = version
            # refresh the checksum so the version check itself is exercised
            with pytest.raises(ModelIOError, match="version"):
                load_model(with_fresh_crc(payload))

    def test_invalid_utf8_in_the_vocabulary_is_an_error(self):
        model = tiny_model()
        buf = io.BytesIO()
        save_model(model, buf)
        payload = bytearray(buf.getvalue())
        word_blob = file_layout(payload)[0][0]
        assert bytes(payload[word_blob.start:word_blob.start + 5]) == b"alpha"
        payload[word_blob.start] = 0xFF
        with pytest.raises(ModelIOError, match="UTF-8"):
            load_model(with_fresh_crc(payload))

    def test_non_ascii_vocabulary_round_trips(self):
        model = tiny_model(text="d0\tnaïve x [[é1]]\né1\tnaïve\n".encode())
        buf = io.BytesIO()
        save_model(model, buf)
        vocab = load_model(buf.getvalue()).vocab
        assert vocab.word_list == ["naïve", "x"] and vocab.doc_list == ["d0", "é1"]
        assert vocab.word_ids == {"naïve": 0, "x": 1} and vocab.doc_ids == {"d0": 0, "é1": 1}

    def test_a_length_that_splits_a_character_is_an_error(self):
        model = tiny_model(text="d0\tnaïve x\n".encode())
        buf = io.BytesIO()
        save_model(model, buf)
        payload = bytearray(buf.getvalue())
        word_blob = file_layout(payload)[0][0]
        lengths = word_blob.start - 8
        assert struct.unpack_from("<2I", payload, lengths) == (6, 1)
        # "na" plus the first byte of "ï", then its second byte, "ve" and "x":
        # the blob as a whole is still valid UTF-8
        struct.pack_into("<2I", payload, lengths, 3, 4)
        with pytest.raises(ModelIOError, match="UTF-8"):
            load_model(with_fresh_crc(payload))

    def test_corruption_fails_the_checksum(self):
        model = tiny_model()
        buf = io.BytesIO()
        save_model(model, buf)
        payload = bytearray(buf.getvalue())
        payload[len(payload) // 2] ^= 0xFF
        with pytest.raises(ModelIOError, match="checksum"):
            load_model(bytes(payload))

    def test_single_bit_flips_raise_only_citevec_errors(self):
        """A flip fails the magic or checksum check; with the checksum
        recomputed, the parser sees the damage and may only fail with a
        CitevecError."""
        model = tiny_model()
        buf = io.BytesIO()
        save_model(model, buf)
        payload = buf.getvalue()
        rng = np.random.default_rng(1234)
        for offset in rng.choice(len(payload) - 4, size=400, replace=False):
            flipped = bytearray(payload)
            flipped[offset] ^= 1 << int(rng.integers(8))
            with pytest.raises(ModelIOError):
                load_model(bytes(flipped))
            try:
                load_model(with_fresh_crc(flipped))
            except CitevecError:
                pass


def with_fresh_crc(payload: bytearray) -> bytes:
    """The payload with its trailing CRC-32 recomputed, so a corruption
    reaches the parser instead of failing the checksum."""
    payload[-4:] = struct.pack("<I", zlib.crc32(bytes(payload[:-4])))
    return bytes(payload)


def file_layout(payload) -> tuple[list[range], list[range], list[range]]:
    """Walk a version 3 file by its documented layout: the byte ranges of
    the word and doc-id blobs, and of each matrix block's padding and
    values."""
    pos = struct.calcsize("<4sI5I2d2BqI")  # magic, version, config
    counts = struct.unpack_from("<2I", payload, pos)
    pos += 8
    blobs = []
    for n in counts:
        size = sum(struct.unpack_from(f"<{n}I", payload, pos))
        pos += 4 * n
        blobs.append(range(pos, pos + size))
        pos += size + 8 * n  # the entries, then their <i8 counts
    pads, blocks = [], []
    for _ in range(5):
        (ndim,) = struct.unpack_from("<I", payload, pos)
        shape = struct.unpack_from(f"<{ndim}I", payload, pos + 4)
        pos += 4 + 4 * ndim
        pads.append(range(pos, pos + -pos % 64))
        pos += len(pads[-1])
        blocks.append(range(pos, pos + 8 * math.prod(shape)))
        pos += len(blocks[-1])
    assert pos == len(payload) - 4
    return blobs, pads, blocks


class TestFormatV3:
    def test_matrix_blocks_start_at_64_byte_offsets(self):
        model = tiny_model(dim=3)
        buf = io.BytesIO()
        save_model(model, buf)
        payload = buf.getvalue()
        blobs, _, blocks = file_layout(payload)
        for block, arr in zip(blocks, model.matrices.arrays()):
            assert block.start % 64 == 0
            assert payload[block.start:block.stop] == arr.astype("<f8").tobytes()
        assert payload[blobs[1].start:blobs[1].stop] == b"d0d1"

    def test_non_zero_padding_is_an_error(self):
        """Every file that loads re-saves byte-identical, so no padding
        byte may carry data."""
        model = tiny_model(dim=3)
        buf = io.BytesIO()
        save_model(model, buf)
        payload = buf.getvalue()
        offsets = [i for pad in file_layout(payload)[1] for i in pad]
        assert len(offsets) > 5 * 8
        for offset in offsets:
            damaged = bytearray(payload)
            damaged[offset] = 0x01
            with pytest.raises(ModelIOError, match="padding"):
                load_model(with_fresh_crc(damaged))

    @pytest.mark.parametrize("kind", ["path", "bytes", "file"])
    def test_loaded_matrices_are_aligned_read_only_views(self, kind, tmp_path):
        """Ranking keeps arrays derived from a loaded model, so nothing may
        write into one: not even after a try to make an array writable."""
        model = tiny_model(dim=5)
        path = tmp_path / "m.dcv"
        save_model(model, path)
        source = {"path": path, "bytes": path.read_bytes(), "file": io.BytesIO(path.read_bytes())}
        loaded = load_model(source[kind])
        for arr in loaded.matrices.arrays():
            assert arr.ctypes.data % 64 == 0
            assert arr.flags.c_contiguous and not arr.flags.writeable
            assert arr.dtype == np.float64
        with pytest.raises(ValueError):
            loaded.matrices.doc_in += 1.0
        for arr in (*loaded.matrices.arrays(), loaded.vocab.word_counts,
                    loaded.vocab.doc_cited_counts):
            with pytest.raises(ValueError):
                arr.flags.writeable = True
        assert loaded.matrices.fingerprint() == model.matrices.fingerprint()
        edited = loaded.matrices.copy()  # the way to edit a loaded model
        edited.doc_in += 1.0
        assert np.array_equal(edited.doc_in, model.matrices.doc_in + 1.0)

    def test_a_path_without_a_size_is_read_to_its_end(self):
        model = tiny_model(dim=5)
        buf = io.BytesIO()
        save_model(model, buf)
        read_end, write_end = os.pipe()
        try:
            os.write(write_end, buf.getvalue())  # fits in the pipe's buffer
            os.close(write_end)
            loaded = load_model(f"/dev/fd/{read_end}")
        finally:
            os.close(read_end)
        assert loaded.matrices.fingerprint() == model.matrices.fingerprint()


def served_model(n_docs=20_000, n_words=2_000, dim=100):
    """A model shaped like a served one: many docs, and the matrices make up
    most of its file."""
    vocab = Vocabulary()
    vocab.doc_list = [f"doc-{i}" for i in range(n_docs)]
    vocab.doc_ids = {d: i for i, d in enumerate(vocab.doc_list)}
    vocab.word_list = [f"w{i}" for i in range(n_words)]
    vocab.word_ids = {w: i for i, w in enumerate(vocab.word_list)}
    vocab.word_counts = np.arange(1, n_words + 1, dtype=np.int64)
    vocab.doc_cited_counts = np.arange(n_docs, dtype=np.int64) % 7
    model = init_model(vocab, EmbeddingConfig(dim=dim, negative=5, seed=3))
    model.matrices.doc_out[:] = model.matrices.doc_in[::-1]
    model.matrices.word_out[:] = model.matrices.word_in[::-1]
    model.matrices.attention[:] = np.linspace(-1.0, 1.0, n_docs + n_words)
    return model


def traced(fn, *args):
    """fn(*args) and the traced memory it still held at return and at its
    peak, in bytes; tracemalloc sees NumPy's allocations too."""
    tracemalloc.start()
    try:
        result = fn(*args)
        current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, current, peak


class DigestSink:
    """A sink that keeps a digest of what it is given, not the bytes."""

    def __init__(self):
        self.sha256 = hashlib.sha256()

    def write(self, chunk):
        self.sha256.update(chunk)


class BytearrayFile(io.BytesIO):
    """A file-like source whose read() gives a bytearray, not bytes."""

    def read(self, size=-1):
        return bytearray(super().read(size))


class TestBoundedMemory:
    @pytest.fixture(scope="class")
    def saved(self, tmp_path_factory):
        model = served_model()
        path = tmp_path_factory.mktemp("served") / "served.dcv"
        save_model(model, path)
        return model, path

    def test_save_streams_below_one_matrix_block(self, saved):
        model, path = saved
        sink = DigestSink()
        _, _, peak = traced(save_model, model, sink)
        assert peak < model.matrices.doc_in.nbytes
        assert sink.sha256.hexdigest() == hashlib.sha256(path.read_bytes()).hexdigest()

    def test_load_holds_one_copy_of_the_file(self, saved):
        """The file's bytes are read into one buffer that the matrices
        view; what else load keeps is the vocabulary's own objects."""
        model, path = saved
        size = path.stat().st_size
        loaded, current, peak = traced(load_model, path)
        assert peak <= 1.1 * size
        assert peak - current < 0.01 * size  # no transient copy either
        assert loaded.matrices.fingerprint() == model.matrices.fingerprint()

    def test_a_bytearray_from_a_file_like_source_is_not_copied_whole(self, saved):
        """The bytearray that read() gives and the loaded buffer are the
        only copies of the file held at once."""
        model, path = saved
        size = path.stat().st_size
        loaded, _, peak = traced(load_model, BytearrayFile(path.read_bytes()))
        assert peak <= 2.1 * size
        assert loaded.matrices.fingerprint() == model.matrices.fingerprint()

    def test_save_load_save_is_byte_identical(self, saved):
        _, path = saved
        again = io.BytesIO()
        save_model(load_model(path), again)
        assert again.getvalue() == path.read_bytes()


CHUNK = 4096  # the read size these tests load with, so that a small file spans many


@pytest.fixture
def small_chunks(monkeypatch):
    monkeypatch.setattr(model_module, "_CHUNK", CHUNK)


@pytest.fixture
def started(monkeypatch):
    """The threads started during a test."""
    threads = []
    start = threading.Thread.start

    def spy(thread):
        threads.append(thread)
        start(thread)

    monkeypatch.setattr(threading.Thread, "start", spy)
    return threads


def reporting_larger(extra):
    """An os.fstat that reports every file ``extra`` bytes larger than it is."""
    fstat = os.fstat

    def larger(fd):
        info = fstat(fd)
        return os.stat_result((*info[:6], info.st_size + extra, *info[7:10]))

    return larger


class FailingFile(io.FileIO):
    """A file whose third read raises ``error``."""

    def __init__(self, path, error):
        super().__init__(path, "rb")
        self.reads, self.error = 0, error

    def readinto(self, view):
        self.reads += 1
        if self.reads == 3:
            raise self.error
        return super().readinto(view)


@pytest.mark.usefixtures("small_chunks")
class TestChunkedLoad:
    """A file is checksummed on a second thread, each chunk while the next
    chunk is read; these tests read 4 KiB chunks."""

    @pytest.fixture(scope="class")
    def saved(self, tmp_path_factory):
        model = served_model(n_docs=200, n_words=60, dim=8)
        path = tmp_path_factory.mktemp("chunked") / "m.dcv"
        save_model(model, path)
        # many chunks, and still small enough to fit in a pipe's buffer
        assert 8 * CHUNK < path.stat().st_size < 60_000
        return model, path

    @pytest.mark.parametrize("kind", ["path", "bytes", "file", "bytearray file", "pipe"])
    def test_every_source_loads_the_same_model(self, kind, saved, started):
        model, path = saved
        payload = path.read_bytes()
        if kind == "pipe":
            read_end, write_end = os.pipe()
            try:
                os.write(write_end, payload)
                os.close(write_end)
                loaded = load_model(f"/dev/fd/{read_end}")
            finally:
                os.close(read_end)
        else:
            loaded = load_model({"path": path, "bytes": payload, "file": io.BytesIO(payload),
                                 "bytearray file": BytearrayFile(payload)}[kind])
        assert len(started) == 1 and not started[0].is_alive()
        assert loaded.matrices.fingerprint() == model.matrices.fingerprint()
        assert loaded.vocab.doc_list == model.vocab.doc_list
        again = io.BytesIO()
        save_model(loaded, again)
        assert again.getvalue() == payload

    @pytest.mark.parametrize("where", ["first chunk", "middle chunk", "last chunk", "crc"])
    def test_a_flipped_byte_in_any_chunk_fails_the_checksum(self, where, saved, tmp_path):
        _, path = saved
        payload = bytearray(path.read_bytes())
        size = len(payload)
        offset = {"first chunk": 10, "middle chunk": size // 2, "last chunk": size - 5,
                  "crc": size - 2}[where]
        payload[offset] ^= 0x01
        damaged = tmp_path / "damaged.dcv"
        damaged.write_bytes(payload)
        with pytest.raises(ModelIOError, match="checksum"):
            load_model(damaged)
        with pytest.raises(ModelIOError, match="checksum"):
            load_model(bytes(payload))

    def test_a_read_error_mid_file_is_raised_unchanged(self, saved, monkeypatch, started):
        _, path = saved
        error = OSError(5, "Input/output error")
        baseline = threading.active_count()
        monkeypatch.setattr(model_module, "open",
                            lambda source, mode, buffering: FailingFile(source, error),
                            raising=False)
        with pytest.raises(OSError) as raised:
            load_model(path)
        assert raised.value is error
        assert len(started) == 1 and not started[0].is_alive()
        assert threading.active_count() == baseline

    def test_an_error_on_the_checksum_thread_is_raised_in_the_caller(self, saved, monkeypatch,
                                                                     started):
        _, path = saved

        def crc32(data, value=0):
            raise MemoryError("no room to checksum")

        monkeypatch.setattr(model_module, "zlib", types.SimpleNamespace(crc32=crc32))
        with pytest.raises(MemoryError, match="no room"):
            load_model(path)
        assert len(started) == 1 and not started[0].is_alive()

    @pytest.mark.parametrize("extra", [1, CHUNK, 3 * CHUNK])
    @pytest.mark.parametrize("size", ["one chunk", "many chunks"])
    def test_a_file_that_shrank_since_its_size_was_taken_loads_to_its_end(
            self, size, extra, saved, tmp_path, monkeypatch):
        model, path = saved
        if size == "one chunk":
            model = tiny_model(dim=3)
            path = tmp_path / "tiny.dcv"
            save_model(model, path)
            assert path.stat().st_size < CHUNK
        plain = load_model(path)
        baseline = threading.active_count()
        with monkeypatch.context() as patch:
            patch.setattr(model_module.os, "fstat", reporting_larger(extra))
            loaded = load_model(path)
        assert threading.active_count() == baseline
        assert loaded.matrices.fingerprint() == plain.matrices.fingerprint()
        assert loaded.vocab.word_list == plain.vocab.word_list
        assert loaded.vocab.doc_list == plain.vocab.doc_list

    @pytest.mark.parametrize("cut", [5 * CHUNK + 100, 5 * CHUNK, 3])
    def test_a_file_cut_since_its_size_was_taken_is_an_error(self, cut, saved, tmp_path,
                                                             monkeypatch):
        _, path = saved
        payload = path.read_bytes()
        short = tmp_path / "short.dcv"
        short.write_bytes(payload[:cut])
        baseline = threading.active_count()
        with monkeypatch.context() as patch:
            patch.setattr(model_module.os, "fstat", reporting_larger(len(payload) - cut))
            with pytest.raises(ModelIOError):
                load_model(short)
        assert threading.active_count() == baseline

    def test_concurrent_loads_under_frequent_thread_switches(self, saved):
        """Four threads load at once, ten times each, and so four checksum
        threads run beside them while the interpreter switches threads as
        often as it can: every load still gets its own chunks' crc32."""
        model, path = saved
        loaded = []

        def load():
            for _ in range(10):
                loaded.append(load_model(path).matrices.fingerprint())

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=load) for _ in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert loaded == [model.matrices.fingerprint()] * 40


class TestExport:
    def test_doc_in_line_count_and_prefix(self):
        model = tiny_model(dim=2)
        out = io.StringIO()
        export_word2vec_text(model, "doc_in", out)
        lines = out.getvalue().splitlines()
        assert lines[0] == f"{model.vocab.n_docs} 2"
        assert len(lines) == model.vocab.n_docs + 1
        assert all(line.startswith("doc:") for line in lines[1:])

    def test_word_tokens_are_unprefixed(self):
        model = tiny_model(dim=2)
        out = io.StringIO()
        export_word2vec_text(model, "word_in", out)
        lines = out.getvalue().splitlines()
        tokens = [line.split(" ", 1)[0] for line in lines[1:]]
        assert tokens == model.vocab.word_list

    def test_float_round_trip_exact(self, tmp_path):
        model = tiny_model(dim=3)
        model.matrices.doc_in[0] = [1 / 3, -2.5e-17, 0.1]
        path = tmp_path / "vecs.txt"
        export_word2vec_text(model, "doc_in", str(path))
        lines = path.read_text().splitlines()
        count, dim = map(int, lines[0].split())
        assert (count, dim) == model.matrices.doc_in.shape
        parsed = np.array(
            [[float(v) for v in line.split()[1:]] for line in lines[1:]]
        )
        assert np.array_equal(parsed, model.matrices.doc_in)

    def test_unknown_matrix_name(self):
        model = tiny_model()
        with pytest.raises(ConfigError):
            export_word2vec_text(model, "word_out", io.StringIO())


class TestInferDocVector:
    def test_empty_tokens(self):
        model = tiny_model()
        with pytest.raises(ConfigError):
            infer_doc_vector(model, [])

    def test_start_is_mean_of_word_vectors(self):
        # the output rows start at zero, so every gradient is 0
        model = tiny_model(dim=4)
        w = model.vocab.word_ids["alpha"]
        assert not model.matrices.word_out.any()
        got = infer_doc_vector(model, [w])
        assert np.array_equal(got, model.matrices.word_in[w])

    def test_saturated_gradients_leave_start_unchanged(self):
        # target probability pinned at 1.0 and noise at 0.0 exactly, so the
        # gradient vanishes and the start vector comes back bitwise
        model = tiny_model(dim=4, text=b"d0\taaa bbb\n")
        a = model.vocab.word_ids["aaa"]
        b = model.vocab.word_ids["bbb"]
        model.matrices.word_in[a] = [40.0, 0.0, 0.0, 0.0]
        model.matrices.word_out[a] = [1.0, 0.0, 0.0, 0.0]
        model.matrices.word_out[b] = [-20.0, 0.0, 0.0, 0.0]
        got = infer_doc_vector(model, [a])
        assert np.array_equal(got, model.matrices.word_in[a])

    def test_model_is_never_mutated(self):
        model = tiny_model(dim=6)
        model.matrices.word_out += 0.01
        before = model.matrices.fingerprint()
        infer_doc_vector(model, [0, 1, 2])
        assert model.matrices.fingerprint() == before

    def test_deterministic_per_model_seed(self):
        model = tiny_model(dim=6)
        model.matrices.word_out += 0.01
        first = infer_doc_vector(model, [0, 1])
        second = infer_doc_vector(model, [0, 1])
        assert np.array_equal(first, second)


class TestInferReference:
    # a nine-word text with repeated words, against windows shorter and
    # longer than it, in one batch and in batches of 4, 4 and 1; with all
    # noise mass on word 4, word 4 keeps no noise word and every other word
    # draws only word 4
    words = [0, 1, 2, 1, 3, 0, 4, 2, 1]

    @staticmethod
    def model(window, seed, counts=None):
        model = tiny_model(dim=6, text=b"d0\ta b c d e a b\n")
        model.config = dataclasses.replace(model.config, window=window, learning_rate=0.3)
        if counts is not None:
            model.vocab.word_counts = np.array(counts)
        rng = np.random.default_rng(seed)
        model.matrices.word_in[:] = rng.normal(size=model.matrices.word_in.shape)
        model.matrices.word_out[:] = rng.normal(size=model.matrices.word_out.shape)
        return model

    @pytest.mark.parametrize("batch", [None, 4])
    @pytest.mark.parametrize("window", [2, 9])
    @pytest.mark.parametrize("steps", [1, 3])
    @pytest.mark.parametrize("counts", [None, [0, 0, 0, 0, 5]])
    def test_matches_the_per_word_reference(self, monkeypatch, batch, window, steps, counts):
        if batch is not None:
            monkeypatch.setattr(train_module, "BATCH", batch)
        monkeypatch.setattr(model_module, "INFER_STEPS", steps)
        model = self.model(window, window + steps, counts)
        got = infer_doc_vector(model, self.words)
        want = infer_reference(model, self.words, steps=steps, lr=0.3)
        assert np.array_equal(got, want)
        assert not np.array_equal(got, model.matrices.word_in[self.words].mean(axis=0))

    def test_a_text_longer_than_a_batch(self, monkeypatch):
        """300 words run as batches of 128, 128 and 44, with windows that
        cross the batch edges; a single batch gives a different vector."""
        monkeypatch.setattr(model_module, "INFER_STEPS", 2)
        model = self.model(window=5, seed=7)
        words = list(np.random.default_rng(8).integers(0, 5, 300))
        got = infer_doc_vector(model, words)
        assert np.array_equal(got, infer_reference(model, words, steps=2, lr=0.3))
        monkeypatch.setattr(train_module, "BATCH", 300)
        assert not np.array_equal(got, infer_doc_vector(model, words))


class TestInferWindowPools:
    """A text of at most ``BATCH`` words takes its window pool from the
    model, built once per text length and window; a longer one builds its
    own on every call."""

    @staticmethod
    def model():
        return TestInferReference.model(window=3, seed=11)

    def test_kept_pools_infer_the_reference_bits(self):
        batch = train_module.BATCH
        model = self.model()
        rng = np.random.default_rng(12)
        texts = [rng.integers(0, 5, size=n).tolist() for n in (1, batch, batch + 1, batch, 1)]
        want = [infer_reference(model, words, steps=model_module.INFER_STEPS, lr=0.3)
                for words in texts]
        for _ in range(2):
            for words, vector in zip(texts, want):
                assert np.array_equal(infer_doc_vector(model, words), vector)
        kept = {key for key in model._derived() if key != "word noise"}
        assert kept == {("window pool", 1, 3), ("window pool", batch, 3)}

    def test_another_window_builds_another_pool(self):
        model = self.model()
        words = [0, 1, 2, 1, 3, 0, 4, 2, 1]
        infer_doc_vector(model, words)
        model.config = dataclasses.replace(model.config, window=1)
        got = infer_doc_vector(model, words)
        assert np.array_equal(
            got, infer_reference(model, words, steps=model_module.INFER_STEPS, lr=0.3))
        assert {("window pool", 9, 3), ("window pool", 9, 1)} <= set(model._derived())

    def test_pickles_and_copies_leave_the_pools_out(self):
        model = self.model()
        unqueried = pickle.dumps(model)
        vector = infer_doc_vector(model, [0, 1, 2])
        assert ("window pool", 3, 3) in model._derived()
        assert pickle.dumps(model) == unqueried
        for other in (copy.copy(model), copy.deepcopy(model), pickle.loads(unqueried)):
            assert other._frozen is None
            assert np.array_equal(infer_doc_vector(other, [0, 1, 2]), vector)


def doc_texts(corpus):
    """(doc id, word indices) of every document with known words."""
    texts = []
    for doc in corpus.docs:
        if doc.placeholder:
            continue
        words = [corpus.vocab.word_ids[t.value] for t in doc.tokens
                 if not t.is_cite and t.value in corpus.vocab.word_ids]
        if words:
            texts.append((doc.id, words))
    return texts


def inference_digest(model, texts) -> str:
    """sha256 over each text's inferred vector bytes and its ``rank_i4i``
    list as (doc id, float.hex(score)) pairs, texts in order."""
    digest = hashlib.sha256()
    for words in texts:
        digest.update(infer_doc_vector(model, words).tobytes())
        ranked = rank_i4i(model, words).ranked
        digest.update(repr([(doc_id, float.hex(score)) for doc_id, score in ranked]).encode())
    return digest.hexdigest()


# Regression baseline of ``inference_digest`` on the avg fixture model.  A
# change that moves inference numerics on purpose re-records it.  The
# vector's update, ``-weights @ rows`` over a batch's output entries, is a
# BLAS matrix-vector product and the scores' dot products are one too, and
# their last bits depend on the OpenBLAS kernel (the ranked ids do not), so
# there is one digest per kernel, each taken with OPENBLAS_CORETYPE set;
# Zen ran Haswell's kernels, Core2 Katmai's.
PINNED_INFERENCE = {
    "b5462a656c0848fddb08a1bc1616f27c2f7e722f35687ad8a40aa79b87a1002e": "SkylakeX",
    "9f6884326d0dc54aef933344e5fef8a2d90027c344629b46121a960242ca44c5": "Haswell",
    "41b8462523a9f9a73ed00b32f744cf657144b87c24dc9cc0818827a6b9364039": "Sandybridge",
    "a2601cfaf04cd313e137030b1d645a84874a4e3d1ce42c90369801a634d2d82f": "Nehalem",
    "310ebc2a04ad897c44bf8f4fe65841566461ddf0ce753963f9f1413013dd9f3f": "Katmai",
}


class TestInferOnTrainedFixture:
    def test_inference_bits_are_pinned(self, avg_model, fixture_corpus):
        """Every doc's own words, then all of them as one text that spans
        several batches, at the default steps and lr."""
        texts = [words for _, words in doc_texts(fixture_corpus)]
        texts.append([w for words in texts for w in words])
        assert len(texts[-1]) > 2 * train_module.BATCH
        assert inference_digest(avg_model, texts) in PINNED_INFERENCE

    def test_inferred_vector_lands_near_the_docs_own_vector(self, avg_model, fixture_corpus):
        """Inference from a training doc's own words must point roughly the
        same way as the vector learned for that doc."""
        vocab = fixture_corpus.vocab
        worst = 1.0
        checked = 0
        for doc_id, words in doc_texts(fixture_corpus):
            inferred = infer_doc_vector(avg_model, words)
            own = avg_model.matrices.doc_in[vocab.doc_ids[doc_id]]
            cosine = float(
                inferred @ own / (np.linalg.norm(inferred) * np.linalg.norm(own))
            )
            # regression baseline, re-recorded for batch-start inference
            # steps: min 0.6533, mean 0.8607 over all 40 docs
            assert cosine >= 0.5, doc_id
            worst = min(worst, cosine)
            checked += 1
        assert checked == 40
