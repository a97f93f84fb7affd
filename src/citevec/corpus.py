"""Corpus ingestion: hyper-documents, vocabularies, and citation relations.

Corpus file format (UTF-8, LF line endings): one document per non-empty
line, ``<doc-id><TAB><text>``.  Inside the text, a standalone token of the
form ``[[<doc-id>]]`` is a citation marker; every other whitespace-separated
token is a word and is lowercased on ingest.  Doc ids referenced only as
citation targets become placeholder documents with empty token streams, so
they can still receive embedding vectors and be recommended.
"""

from __future__ import annotations

import io
import itertools
import os
from dataclasses import dataclass, field

import numpy as np

from .errors import CitevecError, ConfigError, CorpusFormatError

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
    tokens: list[Token]
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


@dataclass(frozen=True, slots=True)
class CitationRelation:
    """One citation occurrence: a training example or a held-out citation.

    ``source`` is the citing doc, ``target`` the cited doc, ``structural``
    the other distinct citation targets of the same document (excluding both
    source and target), and ``context`` the word indices within the window
    around the citation position.  ``source`` is None for a held-out
    citation whose citing document is unknown to the training vocabulary
    (the usual case for fresh manuscripts).
    """

    source: int | None
    target: int
    structural: frozenset[int]
    context: tuple[int, ...]


@dataclass(slots=True)
class CorpusStats:
    n_docs: int = 0
    n_words: int = 0  # total word-token count
    n_citations: int = 0
    n_relations: int = 0
    n_empty_docs: int = 0
    mean_citations_per_doc: float = 0.0


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
    ground_truth: list[CitationRelation]
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


class _Tokens(dict):
    """One parse's tokens by raw surface form, each made by ``_token`` on
    first sight: every occurrence of a form shares one frozen Token.
    ``line_number`` is the line being read, for the error of an empty
    marker."""

    __slots__ = ("line_number",)

    def __missing__(self, raw: str) -> Token:
        token = self[raw] = _token(raw, self.line_number)
        return token


def build_vocabulary(docs: list[HyperDocument]) -> Vocabulary:
    """Index words and doc ids in first-appearance order, with counts."""
    vocab = Vocabulary()
    word_counts: list[int] = []
    cited_counts: list[int] = []

    def doc_slot(doc_id: str) -> int:
        idx = vocab.doc_ids.get(doc_id)
        if idx is None:
            idx = len(vocab.doc_list)
            vocab.doc_ids[doc_id] = idx
            vocab.doc_list.append(doc_id)
            cited_counts.append(0)
        return idx

    for doc in docs:
        doc_slot(doc.id)
        for token in doc.tokens:
            if token.kind == CITE:
                cited_counts[doc_slot(token.value)] += 1
            else:
                idx = vocab.word_ids.get(token.value)
                if idx is None:
                    idx = len(vocab.word_list)
                    vocab.word_ids[token.value] = idx
                    vocab.word_list.append(token.value)
                    word_counts.append(0)
                word_counts[idx] += 1

    vocab.word_counts = np.array(word_counts, dtype=np.int64)
    vocab.doc_cited_counts = np.array(cited_counts, dtype=np.int64)
    return vocab


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
    and on duplicate doc ids.  Tokens are those of ``tokenize_text``, but
    the occurrences of one surface form share one immutable Token.
    """
    data = _read_bytes(source)
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise CorpusFormatError(f"corpus is not valid UTF-8: {exc}") from None

    line_docs: list[HyperDocument] = []
    seen_line_ids: set[str] = set()
    tokens = _Tokens()
    for line_number, line in enumerate(text.split("\n"), start=1):
        line = line.rstrip("\r")
        if not line:
            continue
        if "\t" not in line:
            raise CorpusFormatError("missing TAB between doc id and text", line_number)
        doc_id, body = line.split("\t", 1)
        if not doc_id or any(c.isspace() for c in doc_id):
            raise CorpusFormatError(f"invalid doc id: {doc_id!r}", line_number)
        if doc_id in seen_line_ids:
            raise CorpusFormatError(f"duplicate doc id: {doc_id!r}", line_number)
        seen_line_ids.add(doc_id)
        tokens.line_number = line_number
        line_docs.append(HyperDocument(doc_id, list(map(tokens.__getitem__, body.split()))))

    docs, vocab = complete_corpus(line_docs)
    n_citations = int(vocab.doc_cited_counts.sum())
    stats = CorpusStats(
        n_docs=len(docs),
        n_words=int(vocab.word_counts.sum()),
        n_citations=n_citations,
        n_relations=n_citations,
        n_empty_docs=sum(not doc.tokens for doc in docs),
        mean_citations_per_doc=n_citations / max(len(docs), 1),
    )
    return Corpus(docs=docs, vocab=vocab, stats=stats)


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


def _layout(docs: list[HyperDocument]) -> tuple[list[str], np.ndarray, list]:
    """The docs laid end to end with their citation markers taken out.

    Returns the words, the spans (doc j's words are ``words[starts[j]:
    starts[j + 1]]``) and, per citation marker in corpus order, the doc
    index, the gap the marker sits in (the position in ``words`` of the
    next word) and the cited id.
    """
    words: list[str] = []
    starts = [0]
    markers: list[tuple[int, int, str]] = []
    for j, doc in enumerate(docs):
        for token in doc.tokens:
            if token.kind == CITE:
                markers.append((j, len(words), token.value))
            else:
                words.append(token.value)
        starts.append(len(words))
    return words, np.array(starts, dtype=np.intp), markers


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


def _citations(docs: list[HyperDocument], vocab: Vocabulary, window: int):
    """The citation walk: per citation marker, in corpus order, yields the
    citing doc, the source and target ids, the structural ids (the known ids
    the doc cites, less those two), the window's word ids, and the first
    name ``vocab`` lacks of the doc's id, the ids it cites and the window
    words, or None.  Names missing from ``vocab`` map to None.
    """
    if window < 1:
        raise ConfigError(f"window must be >= 1, got {window}")
    words, starts, markers = _layout(docs)
    doc_ids, word_ids = vocab.doc_ids, vocab.word_ids
    ids = [word_ids.get(w) for w in words]  # the vocabulary's own int objects
    marker_docs, gaps = np.array([m[:2] for m in markers], dtype=np.intp).reshape(-1, 2).T
    lo, hi = _window_bounds(gaps, gaps, starts[marker_docs], starts[marker_docs + 1], window)
    bounds = zip(lo.tolist(), hi.tolist())
    for j, run in itertools.groupby(markers, key=lambda m: m[0]):
        run = list(run)
        doc = docs[j]
        source = doc_ids.get(doc.id)
        cited = {target_id: doc_ids.get(target_id) for _, _, target_id in run}
        known = {i for i in cited.values() if i is not None} - {source}
        missing = doc.id if source is None else next(
            (d for d, i in cited.items() if i is None), None)
        for (_, _, target_id), (a, b) in zip(run, bounds):
            target, context, name = cited[target_id], ids[a:b], missing
            if name is None and None in context:
                name = words[a + context.index(None)]
            yield doc, source, target, frozenset(known - {target}), context, name


def extract_relations(
    docs: list[HyperDocument], vocab: Vocabulary, window: int
) -> list[CitationRelation]:
    """One citation relation per citation marker occurrence, in corpus order.

    Raises CitevecError when a citing doc, a cited doc or a context word is
    missing from ``vocab``.
    """
    relations: list[CitationRelation] = []
    for doc, source, target, structural, context, missing in _citations(docs, vocab, window):
        if missing is not None:
            raise CitevecError(f"{missing!r} in doc {doc.id!r} is not in the vocabulary")
        relations.append(CitationRelation(source, target, structural, tuple(context)))
    return relations


def resolve_ground_truth(
    test_docs: list[HyperDocument], vocab: Vocabulary, window: int
) -> tuple[list[CitationRelation], int]:
    """Express held-out citations against an existing (training) vocabulary.

    Relations whose target id is unknown to ``vocab`` are dropped and
    counted.  Unknown context words are skipped after windowing; unknown
    structural ids are dropped from the structural set.  ``source`` is None
    when the citing doc is unknown to ``vocab``.
    """
    entries: list[CitationRelation] = []
    dropped = 0
    for _, source, target, structural, context, _ in _citations(test_docs, vocab, window):
        if target is None:
            dropped += 1
            continue
        context = tuple(w for w in context if w is not None)
        entries.append(CitationRelation(source, target, structural, context))
    return entries, dropped


def _relation_table(relations: list[CitationRelation], n_docs: int, n_words: int, sourced: bool):
    """The ids of ``relations`` as flat arrays, in relation order: the
    targets, which relations have a source, those sources, the context-word
    counts, the context words, the structural-doc counts and the
    structural docs, each relation's ascending.

    Raises ConfigError naming the first relation with a target, source,
    structural doc or context word outside [0, n_docs) or [0, n_words), or,
    when ``sourced``, with a None source.
    """
    n = len(relations)
    every = np.arange(n)
    n_context = np.fromiter((len(r.context) for r in relations), np.intp, n)
    n_structural = np.fromiter((len(r.structural) for r in relations), np.intp, n)
    has_source = np.fromiter((r.source is not None for r in relations), bool, n)
    targets = np.fromiter((r.target for r in relations), np.intp, n)
    sources = np.fromiter((r.source for r in relations if r.source is not None), np.intp,
                          np.count_nonzero(has_source))
    words = np.fromiter(itertools.chain.from_iterable(r.context for r in relations), np.intp,
                        n_context.sum())
    docs = np.fromiter(itertools.chain.from_iterable(r.structural for r in relations), np.intp,
                       n_structural.sum())
    doc_owner = np.repeat(every, n_structural)
    bad = np.concatenate([owner[(ids < 0) | (ids >= bound)] for ids, owner, bound in (
        (targets, every, n_docs), (sources, every[has_source], n_docs),
        (docs, doc_owner, n_docs), (words, np.repeat(every, n_context), n_words))])
    if sourced:
        bad = np.append(bad, every[~has_source])
    if bad.size:
        i = int(bad.min())
        raise ConfigError(f"relation {i} names an id outside the vocabulary: {relations[i]}")
    docs = docs[np.lexsort((docs, doc_owner))]
    return targets, has_source, sources, n_context, words, n_structural, docs


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
        eligible = [d for d in line_docs if len(d.cite_targets()) >= _SPLIT_MIN_CITES]
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


@dataclass(frozen=True)
class SyntheticSpec:
    """Parameters for the synthetic co-citation corpus generator.

    Each topic gets ``sub_cliques`` cliques of ``clique_size`` cited papers
    plus ``docs_per_topic`` citing documents.  A citing document picks one
    clique of its topic and cites ``cites_per_doc`` of its members, in
    random order (0, the default, cites them all); with probability
    ``distractor_rate`` it also cites one paper of another topic.  Words
    come from a per-topic vocabulary, except a ``noise_rate`` fraction
    drawn from a global shared vocabulary, so words tell the topic apart
    and only co-citation tells the cliques of a topic apart.  Paper ``j``
    of a topic's clique ``s`` is ``t<topic>c<s * clique_size + j>``.
    """

    n_topics: int = 2
    docs_per_topic: int = 16
    clique_size: int = 4
    vocab_per_topic: int = 30
    noise_rate: float = 0.1
    sub_cliques: int = 1
    cites_per_doc: int = 0
    distractor_rate: float = 0.0
    seed: int = 0

    def __post_init__(self):
        for name in ("n_topics", "docs_per_topic", "clique_size", "vocab_per_topic",
                     "sub_cliques"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1, got {getattr(self, name)}")
        if not 0.0 <= self.noise_rate < 1.0:
            raise ConfigError(f"noise_rate must be in [0, 1), got {self.noise_rate}")
        if not 0 <= self.cites_per_doc <= self.clique_size:
            raise ConfigError(
                f"cites_per_doc must be in [0, clique_size], got {self.cites_per_doc}")
        if not 0.0 <= self.distractor_rate <= 1.0:
            raise ConfigError(f"distractor_rate must be in [0, 1], got {self.distractor_rate}")
        if self.distractor_rate > 0.0 and self.n_topics < 2:
            raise ConfigError("a distractor_rate above 0 needs at least 2 topics")


def generate_synthetic_corpus(spec: SyntheticSpec) -> bytes:
    """Emit a corpus with planted per-topic co-citation cliques.

    Deterministic: the output is a pure function of ``spec`` including its
    seed.  A draw that the spec makes pointless (the clique when a topic
    has one, the distractor at rate 0) is not taken, so the defaults give
    the corpus of a generator with one whole clique per topic.
    """
    rng = np.random.default_rng(spec.seed)
    global_vocab = [f"g{m}" for m in range(spec.vocab_per_topic)]
    per_topic = spec.sub_cliques * spec.clique_size
    cites = spec.cites_per_doc or spec.clique_size
    lines: list[str] = []

    def draw_words(topic_vocab: list[str], count: int) -> list[str]:
        words = []
        for _ in range(count):
            if spec.noise_rate > 0.0 and rng.random() < spec.noise_rate:
                words.append(global_vocab[rng.integers(len(global_vocab))])
            else:
                words.append(topic_vocab[rng.integers(len(topic_vocab))])
        return words

    for topic in range(spec.n_topics):
        topic_vocab = [f"w{topic}t{m}" for m in range(spec.vocab_per_topic)]
        papers = [f"t{topic}c{j}" for j in range(per_topic)]
        for doc_id in papers:
            lines.append(doc_id + "\t" + " ".join(draw_words(topic_vocab, 10)))
        for i in range(spec.docs_per_topic):
            first = int(rng.integers(spec.sub_cliques)) * spec.clique_size if spec.sub_cliques > 1 else 0
            order = rng.permutation(spec.clique_size)[:cites].tolist()
            cited = [papers[first + j] for j in order]
            if spec.distractor_rate > 0.0 and rng.random() < spec.distractor_rate:
                other = int(rng.choice([t for t in range(spec.n_topics) if t != topic]))
                cited.append(f"t{other}c{int(rng.integers(per_topic))}")
                rng.shuffle(cited)
            parts: list[str] = []
            for doc_id in cited:
                parts.extend(draw_words(topic_vocab, int(rng.integers(3, 7))))
                parts.append(f"[[{doc_id}]]")
            parts.extend(draw_words(topic_vocab, int(rng.integers(3, 7))))
            lines.append(f"t{topic}d{i}\t" + " ".join(parts))

    return ("\n".join(lines) + "\n").encode("utf-8")
