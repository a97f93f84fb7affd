"""Corpus ingestion: hyper-documents, vocabularies, and citation relations.

Corpus file format (UTF-8, LF line endings): one document per non-empty
line, ``<doc-id><TAB><text>``.  Inside the text, a standalone token of the
form ``[[<doc-id>]]`` is a citation marker; every other whitespace-separated
token is a word and is lowercased on ingest.  Doc ids referenced only as
citation targets become placeholder documents with empty token streams, so
they can still receive embedding vectors and be recommended.

A parse walks the text once: it numbers each distinct raw token and keeps
one int32 code per token, which a document's ``tokens`` view.  Every later
step reads arrays: the vocabulary, the split and the relations come from
the codes laid end to end (``_flat``, ``_layout``), and the relations are
one ``relations.RelationTable`` of flat integer arrays that training and
evaluation read directly.  Only hand-built documents are walked token by
token.  ``CitationRelation`` and ``RelationTable`` (from ``relations``) and
the synthetic generator (from ``synth``) are importable from here too.
"""

from __future__ import annotations

import io
import os
from collections.abc import Sequence
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import CitevecError, ConfigError, CorpusFormatError
from .relations import CitationRelation, RelationTable, _runs  # noqa: F401 (re-exported)
from .synth import SyntheticSpec, generate_synthetic_corpus  # noqa: F401 (re-exported)

WORD = "word"
CITE = "cite"

# fraction splits hold out only docs with at least this many citations
_SPLIT_MIN_CITES = 2


@dataclass(frozen=True, slots=True)
class Token:
    """One token of a hyper-document: a word or a citation marker."""

    kind: str  # WORD or CITE
    value: str  # lowercased word surface form, or the cited doc id

    @property
    def is_cite(self) -> bool:
        return self.kind == CITE


@dataclass(slots=True)
class HyperDocument:
    """A document id plus its ordered stream of word and citation tokens."""

    id: str
    tokens: Sequence[Token]  # a parsed document's is a read-only view of its parse
    # True for docs that only exist because something cited them.
    placeholder: bool = False

    def cite_targets(self) -> list[str]:
        return [t.value for t in self.tokens if t.kind == CITE]


@dataclass
class Vocabulary:
    """Bidirectional word and doc-id index maps with occurrence counts."""

    word_ids: dict[str, int] = field(default_factory=dict)
    doc_ids: dict[str, int] = field(default_factory=dict)
    word_list: list[str] = field(default_factory=list)
    doc_list: list[str] = field(default_factory=list)
    # word_counts[i]: occurrences of word i; doc_cited_counts[j]: times doc j is cited.
    word_counts: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=np.int64))
    doc_cited_counts: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=np.int64))

    @property
    def n_words(self) -> int:
        return len(self.word_list)

    @property
    def n_docs(self) -> int:
        return len(self.doc_list)

    def same_bindings(self, other: "Vocabulary") -> bool:
        return self.word_list == other.word_list and self.doc_list == other.doc_list


@dataclass(slots=True)
class CorpusStats:
    """``parse_corpus``'s counts: documents, placeholders included; word
    tokens; and citation markers, one citation relation each."""

    n_docs: int = 0
    n_words: int = 0
    n_relations: int = 0


@dataclass
class Corpus:
    """Result of parsing one corpus stream."""

    docs: list[HyperDocument]
    vocab: Vocabulary
    stats: CorpusStats


@dataclass
class SplitResult:
    """Train/test partition of a corpus.

    ``ground_truth`` holds the held-out citations resolved against
    ``train_vocab``; relations whose target is unknown there are dropped and
    counted in ``dropped_relations``.
    """

    train_docs: list[HyperDocument]
    train_vocab: Vocabulary
    test_docs: list[HyperDocument]
    ground_truth: RelationTable
    dropped_relations: int
    test_doc_ids: list[str]


def _cited_id(raw: str, line_number: int | None) -> str | None:
    """The token rule: ``[[<doc-id>]]`` cites ``<doc-id>``, anything else is
    a word (None)."""
    if raw.startswith("[[") and raw.endswith("]]") and len(raw) >= 4:
        target = raw[2:-2]
        if not target:
            raise CorpusFormatError("empty doc id in citation marker", line_number)
        return target
    return None


def _token(raw: str, line_number: int | None) -> Token:
    """``raw`` as a Token, by the token rule of ``_cited_id``."""
    target = _cited_id(raw, line_number)
    return Token(WORD, raw.lower()) if target is None else Token(CITE, target)


def tokenize_text(text: str, line_number: int | None = None) -> list[Token]:
    """Split raw text into word and citation tokens using corpus rules."""
    return [_token(raw, line_number) for raw in text.split()]


class _Parse(dict):
    """One parse: its raw surface forms, numbered on first sight.  Form c
    is a citation marker where ``cites[c]`` and names ``values[c]``, the
    cited id or the lowercased word, by the token rule (``line_number`` is
    the line being read, for the error of an empty marker).  Once the parse
    ends, ``codes`` holds each token's form in corpus order."""

    __slots__ = ("line_number", "values", "cites", "codes", "_forms")

    def __missing__(self, raw: str) -> int:
        target = _cited_id(raw, self.line_number)
        code = self[raw] = len(self.values)
        self.values.append(raw.lower() if target is None else target)
        self.cites.append(target is not None)
        return code

    @property
    def forms(self) -> list[Token]:
        """Each form's Token, made on first read: ``Deep`` and ``deep`` are
        two forms with equal Tokens."""
        if self._forms is None:
            self._forms = [Token(CITE if cite else WORD, value)
                           for cite, value in zip(self.cites, self.values)]
        return self._forms


class _TokenRun(Sequence):
    """A parsed document's tokens, ``parse.codes[start:stop]``, read as the
    list of the parse's Tokens, which it equals."""

    __slots__ = ("parse", "start", "stop")

    def __init__(self, parse: _Parse, start: int, stop: int):
        self.parse, self.start, self.stop = parse, start, stop

    def __len__(self) -> int:
        return self.stop - self.start

    def __getitem__(self, i):
        codes = self.parse.codes[self.start : self.stop][i]
        return self.parse.forms[codes] if codes.ndim == 0 else [self.parse.forms[c] for c in codes]

    def __iter__(self):
        return map(self.parse.forms.__getitem__, self.parse.codes[self.start : self.stop].tolist())

    def __eq__(self, other):
        return list(self) == list(other) if isinstance(other, Sequence) else NotImplemented

    def __repr__(self) -> str:
        return repr(list(self))


class _Flat(NamedTuple):
    """Documents' tokens end to end: token t is of form ``codes[t]`` and a
    marker where ``cite[t]``; form c names ``values[c]``, a cited id where
    ``cites[c]``; doc j's tokens are ``[offsets[j], offsets[j + 1])``."""

    codes: np.ndarray
    cite: np.ndarray
    offsets: np.ndarray
    values: list[str]
    cites: list[bool]


def _flat(docs: list[HyperDocument]) -> _Flat:
    """``docs`` as a ``_Flat``, gathered from the parse's codes when every
    document with tokens comes from one parse, else (hand-built documents)
    by a walk of their Tokens."""
    runs = [doc.tokens for doc in docs]
    parse = next((run.parse for run in runs if isinstance(run, _TokenRun)), None)
    if parse is not None and all(getattr(run, "parse", None) is parse or not run for run in runs):
        starts, stops = (np.fromiter((getattr(run, end, 0) for run in runs), np.intp, len(runs))
                         for end in ("start", "stop"))
        lengths = stops - starts
        codes, values, cites = parse.codes[_runs(starts, lengths)], parse.values, parse.cites
    else:
        index: dict[Token, int] = {}
        lengths = np.fromiter(map(len, runs), np.intp, len(runs))
        codes = np.fromiter((index.setdefault(t, len(index)) for run in runs for t in run),
                            np.intp, lengths.sum())
        values, cites = [t.value for t in index], [t.kind == CITE for t in index]
    cite = np.array(cites, dtype=bool)[codes]
    return _Flat(codes, cite, np.append(0, np.cumsum(lengths)), values, cites)


def _first_seen(values: np.ndarray, size: int) -> np.ndarray:
    """The distinct values, all below ``size``, in the order of their first
    appearance."""
    first = np.full(size, values.size)
    np.minimum.at(first, values, np.arange(values.size))
    seen = np.flatnonzero(first < values.size)
    return seen[np.argsort(first[seen])]


def build_vocabulary(docs: list[HyperDocument]) -> Vocabulary:
    """Index words and doc ids in first-appearance order, with counts: a
    document's id comes before the ids it cites."""
    flat = _flat(docs)
    words: dict[str, int] = {}
    names: dict[str, int] = {}  # cited ids, then doc ids
    key = np.array([(names if cite else words).setdefault(value, len(names if cite else words))
                    for value, cite in zip(flat.values, flat.cites)], dtype=np.intp)
    doc_names = np.array([names.setdefault(doc.id, len(names)) for doc in docs], dtype=np.intp)
    word_keys = key[flat.codes[~flat.cite]]
    word_order = _first_seen(word_keys, len(words))
    # doc j's id is seen at time 2 * offsets[j], the marker at token t at 2 * t + 1
    marks = np.flatnonzero(flat.cite)
    cited = key[flat.codes[marks]]
    times = np.concatenate((2 * flat.offsets[:-1], 2 * marks + 1))
    doc_order = _first_seen(np.concatenate((doc_names, cited))[np.argsort(times, kind="stable")],
                            len(names))
    word_list, name_list = list(words), list(names)
    word_list = [word_list[i] for i in word_order.tolist()]
    doc_list = [name_list[i] for i in doc_order.tolist()]
    return Vocabulary(
        word_ids={w: i for i, w in enumerate(word_list)},
        doc_ids={d: i for i, d in enumerate(doc_list)},
        word_list=word_list,
        doc_list=doc_list,
        word_counts=np.bincount(word_keys, minlength=len(words))[word_order],
        doc_cited_counts=np.bincount(cited, minlength=len(names))[doc_order],
    )


def complete_corpus(line_docs: list[HyperDocument]) -> tuple[list[HyperDocument], Vocabulary]:
    """Build the vocabulary and append placeholder docs for cited-only ids."""
    vocab = build_vocabulary(line_docs)
    present = {doc.id for doc in line_docs}
    docs = list(line_docs)
    for doc_id in vocab.doc_list:
        if doc_id not in present:
            docs.append(HyperDocument(id=doc_id, tokens=[], placeholder=True))
    return docs, vocab


def parse_corpus(source) -> Corpus:
    """Parse a corpus stream into documents, a vocabulary, and statistics.

    ``source`` may be bytes, a binary file object, or a filesystem path.
    Raises CorpusFormatError on malformed lines (carrying the line number)
    and on duplicate doc ids.  Tokens are those of ``tokenize_text``; the
    parse keeps one int32 code per token, naming its raw form, and one
    immutable Token per form, which the documents' ``tokens`` yield.
    """
    docs, vocab = complete_corpus(_parse_lines(source))
    stats = CorpusStats(
        n_docs=len(docs),
        n_words=int(vocab.word_counts.sum()),
        n_relations=int(vocab.doc_cited_counts.sum()),
    )
    return Corpus(docs=docs, vocab=vocab, stats=stats)


def _parse_lines(source) -> list[HyperDocument]:
    """``parse_corpus``'s documents of the corpus's own lines, in order,
    with no placeholder for a cited-only id and no vocabulary: what
    ``split_train_test`` reads.  Raises as ``parse_corpus`` does."""
    data = _read_bytes(source)
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise CorpusFormatError(f"corpus is not valid UTF-8: {exc}") from None

    line_docs: list[HyperDocument] = []
    seen_line_ids: set[str] = set()
    parse, codes = _Parse(), []
    parse.values, parse.cites, parse._forms = [], [], None
    for line_number, line in enumerate(text.split("\n"), start=1):
        line = line.rstrip("\r")
        if not line:
            continue
        if "\t" not in line:
            raise CorpusFormatError("missing TAB between doc id and text", line_number)
        doc_id, body = line.split("\t", 1)
        if not doc_id or doc_id.split() != [doc_id]:  # a whitespace character
            raise CorpusFormatError(f"invalid doc id: {doc_id!r}", line_number)
        if doc_id in seen_line_ids:
            raise CorpusFormatError(f"duplicate doc id: {doc_id!r}", line_number)
        seen_line_ids.add(doc_id)
        parse.line_number = line_number
        start = len(codes)
        codes += map(parse.__getitem__, body.split())
        line_docs.append(HyperDocument(doc_id, _TokenRun(parse, start, len(codes))))
    parse.codes = np.array(codes, dtype=np.int32)
    return line_docs


def _read_bytes(source) -> bytes:
    if isinstance(source, bytes):
        return source
    if isinstance(source, (str, os.PathLike)):
        with open(source, "rb") as handle:
            return handle.read()
    if isinstance(source, io.IOBase) or hasattr(source, "read"):
        data = source.read()
        if isinstance(data, str):
            return data.encode("utf-8")
        return data
    raise TypeError(f"unsupported corpus source: {type(source)!r}")


class _Layout(NamedTuple):
    """Documents laid end to end with their citation markers taken out,
    against a vocabulary: doc j's words are ``words[starts[j]:starts[j +
    1]]`` and ``sources[j]`` is its id's index; per marker, in corpus order,
    its doc, its gap (the position in ``words`` of the next word) and the
    cited doc.  Ids are the vocabulary's, -1 for a name it lacks."""

    words: np.ndarray
    starts: np.ndarray
    sources: np.ndarray
    marker_docs: np.ndarray
    gaps: np.ndarray
    targets: np.ndarray
    flat: _Flat

    def name(self, cite: bool, i: int) -> str:
        """The name of word i (``cite`` false) or of marker i's target."""
        return self.flat.values[self.flat.codes[self.flat.cite == cite][i]]


def _layout(docs: list[HyperDocument], vocab: Vocabulary) -> _Layout:
    """The one walk of the documents' tokens, by arrays: their ``_Layout``."""
    flat = _flat(docs)
    ids = np.array([(vocab.doc_ids if cite else vocab.word_ids).get(value, -1)
                    for value, cite in zip(flat.values, flat.cites)], dtype=np.intp)[flat.codes]
    marks = np.flatnonzero(flat.cite)
    markers_before = np.append(0, np.cumsum(flat.cite))
    return _Layout(
        words=ids[~flat.cite],
        starts=flat.offsets - markers_before[flat.offsets],
        sources=np.array([vocab.doc_ids.get(doc.id, -1) for doc in docs], dtype=np.intp),
        marker_docs=np.searchsorted(flat.offsets, marks, side="right") - 1,
        gaps=marks - np.arange(marks.size),
        targets=ids[marks],
        flat=flat,
    )


def _window_bounds(left, right, start, end, window: int):
    """The window rule, over words laid end to end with the markers removed.

    The window of the place between positions ``left`` and ``right`` is
    ``[max(start, left - window), left)`` followed by ``[right, min(end,
    right + window))``, where ``[start, end)`` holds its document's words.
    A word at p has ``left = p, right = p + 1``, so it is left out of its
    own window; a marker has ``left = right =`` its gap, so its window is
    one slice.  Returns the outer bounds ``lo`` and ``hi``.
    """
    return np.maximum(start, left - window), np.minimum(end, right + window)


def _word_windows(starts: np.ndarray, window: int) -> tuple[np.ndarray, np.ndarray]:
    """Every word's window, over texts laid end to end, text j holding
    positions ``[starts[j], starts[j + 1])``.

    Word p's window words are ``positions[offsets[p]:offsets[p + 1]]``, in
    text order.  Returns ``offsets`` and ``positions``.
    """
    lengths = np.diff(starts)
    pos = np.arange(starts[-1])
    lo, hi = _window_bounds(
        pos, pos + 1, np.repeat(starts[:-1], lengths), np.repeat(starts[1:], lengths), window
    )
    counts = hi - lo - 1
    offsets = np.zeros(pos.size + 1, dtype=np.intp)
    np.cumsum(counts, out=offsets[1:])
    # the t-th window word is at lo + t, shifted past the word itself
    positions = np.repeat(lo - offsets[:-1], counts) + np.arange(offsets[-1])
    positions += positions >= np.repeat(pos, counts)
    return offsets, positions


def _relations(docs: list[HyperDocument], vocab: Vocabulary, window: int):
    """The citation walk, on the ``_Layout``: one relation per citation
    marker whose target ``vocab`` knows, in corpus order, as a
    ``RelationTable``.  The source is the citing doc, the structural docs
    are the known ids the doc cites less the source and the target, and the
    context is the window's words that ``vocab`` knows.

    Also returns the count of markers left out and the first name that
    ``vocab`` lacks and a marker needs, in corpus order, with its doc, or
    None: the doc's id, an id it cites, or a word in the marker's window.
    """
    if window < 1:
        raise ConfigError(f"window must be >= 1, got {window}")
    lay = _layout(docs, vocab)
    doc_of = lay.marker_docs
    lo, hi = _window_bounds(lay.gaps, lay.gaps, lay.starts[doc_of], lay.starts[doc_of + 1], window)
    known = lay.words >= 0
    rank = np.append(0, np.cumsum(known))  # the known words before each position
    missing, found = None, lay.targets >= 0
    lacks_target = np.zeros(len(docs), dtype=bool)
    lacks_target[doc_of[~found]] = True
    lacking = (lay.sources < 0)[doc_of] | lacks_target[doc_of] | (rank[hi] - rank[lo] < hi - lo)
    if lacking.any():
        i = int(lacking.argmax())
        j = int(doc_of[i])
        if lay.sources[j] < 0:
            name = docs[j].id
        elif lacks_target[j]:
            name = lay.name(True, int(np.flatnonzero((doc_of == j) & ~found)[0]))
        else:
            name = lay.name(False, int(lo[i] + np.flatnonzero(~known[lo[i] : hi[i]])[0]))
        missing = docs[j], name

    # per doc, the known ids it cites less its own, ascending: the distinct
    # pairs by a sort and a neighbour test (np.unique without an inverse
    # hashes, and is slower on these sizes); every pair is at least 0
    n = max(vocab.n_docs, 1)
    pairs = np.sort(doc_of[found] * n + lay.targets[found])
    pair_docs, cited = np.divmod(pairs[np.diff(pairs, prepend=-1) != 0], n)
    own = cited == lay.sources[pair_docs]
    pair_docs, cited = pair_docs[~own], cited[~own]
    doc_of, targets = doc_of[found], lay.targets[found]
    lengths = np.bincount(pair_docs, minlength=len(docs))[doc_of]
    members = cited[_runs(np.searchsorted(pair_docs, doc_of), lengths)]
    other = members != np.repeat(targets, lengths)
    n_structural = np.bincount(np.repeat(np.arange(targets.size), lengths)[other],
                               minlength=targets.size)
    table = RelationTable(
        targets=targets.astype(np.int32),
        sources=lay.sources[doc_of].astype(np.int32),
        has_source=lay.sources[doc_of] >= 0,
        structural_offsets=np.append(0, np.cumsum(n_structural)),
        structural=members[other].astype(np.int32),
        words=lay.words[known].astype(np.int32),
        context_starts=rank[lo[found]],
        context_stops=rank[hi[found]],
    )
    return table, int(found.size - targets.size), missing


def extract_relations(
    docs: list[HyperDocument], vocab: Vocabulary, window: int
) -> RelationTable:
    """One citation relation per citation marker occurrence, in corpus order.

    Raises CitevecError when a citing doc, a cited doc or a context word is
    missing from ``vocab``.
    """
    relations, _, missing = _relations(docs, vocab, window)
    if missing is not None:
        doc, name = missing
        raise CitevecError(f"{name!r} in doc {doc.id!r} is not in the vocabulary")
    return relations


def resolve_ground_truth(
    test_docs: list[HyperDocument], vocab: Vocabulary, window: int
) -> tuple[RelationTable, int]:
    """Express held-out citations against an existing (training) vocabulary.

    Relations whose target id is unknown to ``vocab`` are dropped and
    counted.  Unknown context words are skipped after windowing; unknown
    structural ids are dropped from the structural set.  ``source`` is None
    when the citing doc is unknown to ``vocab``.
    """
    relations, dropped, _ = _relations(test_docs, vocab, window)
    return relations, dropped


def split_train_test(
    docs: list[HyperDocument],
    window: int,
    fraction: float | None = None,
    test_ids: list[str] | None = None,
    seed: int = 0,
) -> SplitResult:
    """Hold out documents for testing and rebuild the training vocabulary.

    Exactly one of ``fraction`` and ``test_ids`` must be given.  With
    ``fraction``, held-out docs are drawn (seeded) from the documents that
    carry at least two citations (``_SPLIT_MIN_CITES``); an explicit
    ``test_ids`` list is taken as-is.  Held-out citations are resolved
    against the rebuilt training vocabulary; those citing unknown targets
    are dropped and counted.
    """
    if (fraction is None) == (test_ids is None):
        raise ConfigError("exactly one of fraction and test_ids must be given")

    line_docs = [d for d in docs if not d.placeholder]
    if test_ids is not None:
        wanted = set(test_ids)
        missing = wanted - {d.id for d in line_docs}
        if missing:
            raise ConfigError(f"test ids not in corpus: {sorted(missing)}")
        held = [d for d in line_docs if d.id in wanted]
    else:
        if not 0.0 < fraction < 1.0:
            raise ConfigError(f"test fraction must be in (0, 1), got {fraction}")
        flat = _flat(line_docs)
        markers_before = np.cumsum(np.append(0, flat.cite))[flat.offsets]
        eligible = [d for d, n in zip(line_docs, np.diff(markers_before).tolist())
                    if n >= _SPLIT_MIN_CITES]
        n_test = int(round(fraction * len(eligible)))
        if n_test < 1 or n_test >= len(line_docs):
            raise CitevecError(
                f"test split selects {n_test} of {len(eligible)} eligible docs; "
                "nothing to hold out or nothing left to train on"
            )
        rng = np.random.default_rng(seed)
        picks = rng.permutation(len(eligible))[:n_test]
        held = [eligible[i] for i in sorted(picks)]

    held_ids = {d.id for d in held}
    train_line_docs = [d for d in line_docs if d.id not in held_ids]
    if not train_line_docs:
        raise CitevecError("no training documents left after the split")
    train_docs, train_vocab = complete_corpus(train_line_docs)
    ground_truth, dropped = resolve_ground_truth(held, train_vocab, window)
    if not ground_truth:
        raise CitevecError("empty test set: no held-out citation could be resolved")
    return SplitResult(
        train_docs=train_docs,
        train_vocab=train_vocab,
        test_docs=held,
        ground_truth=ground_truth,
        dropped_relations=dropped,
        test_doc_ids=sorted(held_ids),
    )
