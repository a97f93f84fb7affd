"""Citation relations: one citation occurrence each, and the flat table of
many that ingestion builds and training and evaluation read.

``corpus.extract_relations`` and ``corpus.resolve_ground_truth`` return a
``RelationTable``: flat integer arrays whose rows read as
``CitationRelation`` views.  ``_relation_table`` gives training and
evaluation the table's arrays, flattening a list of CitationRelation once,
and checks every id against the vocabulary.
"""

from __future__ import annotations

import itertools
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError


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


@dataclass(frozen=True, slots=True, eq=False, repr=False)
class RelationTable(Sequence):
    """Citation relations as flat arrays, in relation order; row i reads as
    a ``CitationRelation`` of Python ints.

    Relation i cites ``targets[i]`` from ``sources[i]`` when
    ``has_source[i]``.  Its structural docs are ``structural[
    structural_offsets[i]:structural_offsets[i + 1]]``, ascending, and its
    context words ``words[context_starts[i]:context_stops[i]]``: the
    windows of one document's markers overlap in ``words``, which holds each
    word of the documents once.
    """

    targets: np.ndarray
    sources: np.ndarray
    has_source: np.ndarray
    structural_offsets: np.ndarray
    structural: np.ndarray
    words: np.ndarray
    context_starts: np.ndarray
    context_stops: np.ndarray

    def __len__(self) -> int:
        return self.targets.size

    def __getitem__(self, i):
        i = range(len(self))[i]
        if isinstance(i, range):
            return [self[j] for j in i]
        a, b = self.structural_offsets[i : i + 2].tolist()
        return CitationRelation(
            int(self.sources[i]) if self.has_source[i] else None,
            int(self.targets[i]),
            frozenset(self.structural[a:b].tolist()),
            tuple(self.words[self.context_starts[i] : self.context_stops[i]].tolist()),
        )

    def __iter__(self):
        sources, structural, words = (a.tolist() for a in (self.sources, self.structural, self.words))
        for i, (target, has, lo, hi, a, b) in enumerate(zip(*(a.tolist() for a in (
                self.targets, self.has_source, self.structural_offsets[:-1],
                self.structural_offsets[1:], self.context_starts, self.context_stops)))):
            yield CitationRelation(sources[i] if has else None, target,
                                   frozenset(structural[lo:hi]), tuple(words[a:b]))

    def __eq__(self, other):
        return list(self) == list(other) if isinstance(other, Sequence) else NotImplemented


def _runs(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """The positions ``starts[i] + t`` for t below ``lengths[i]``, for every
    i in turn, as one array."""
    ends = np.cumsum(lengths)
    return np.repeat(starts - ends + lengths, lengths) + np.arange(lengths.sum())


def _relation_table(relations, n_docs: int, n_words: int, sourced: bool):
    """The ids of ``relations``, a ``RelationTable`` or a list of
    CitationRelation, as flat arrays, in relation order: the targets, which
    relations have a source, those sources, the context-word counts, the
    context words, the structural-doc counts and the structural docs, each
    relation's ascending.  A table is read as it is; a list is flattened.

    Raises ConfigError naming the first relation with a target, source,
    structural doc or context word outside [0, n_docs) or [0, n_words), or,
    when ``sourced``, with a None source.
    """
    table = relations
    if not isinstance(table, RelationTable):
        n = len(relations)
        n_context = np.fromiter((len(r.context) for r in relations), np.intp, n)
        n_structural = np.fromiter((len(r.structural) for r in relations), np.intp, n)
        docs = np.fromiter(itertools.chain.from_iterable(r.structural for r in relations),
                           np.intp, n_structural.sum())
        ends = np.cumsum(n_context)
        table = RelationTable(
            targets=np.fromiter((r.target for r in relations), np.intp, n),
            sources=np.fromiter((-1 if r.source is None else r.source for r in relations),
                                np.intp, n),
            has_source=np.fromiter((r.source is not None for r in relations), bool, n),
            structural_offsets=np.append(0, np.cumsum(n_structural)),
            structural=docs[np.lexsort((docs, np.repeat(np.arange(n), n_structural)))],
            words=np.fromiter(itertools.chain.from_iterable(r.context for r in relations),
                              np.intp, ends[-1] if n else 0),
            context_starts=ends - n_context,
            context_stops=ends,
        )
    every = np.arange(len(table))
    has_source, docs = table.has_source, table.structural
    n_structural = np.diff(table.structural_offsets)
    n_context = table.context_stops - table.context_starts
    words = table.words[_runs(table.context_starts, n_context)]
    sources = table.sources[has_source]
    bad = np.concatenate([owner[(ids < 0) | (ids >= bound)] for ids, owner, bound in (
        (table.targets, every, n_docs), (sources, every[has_source], n_docs),
        (docs, np.repeat(every, n_structural), n_docs),
        (words, np.repeat(every, n_context), n_words))])
    if sourced:
        bad = np.append(bad, every[~has_source])
    if bad.size:
        i = int(bad.min())
        raise ConfigError(f"relation {i} names an id outside the vocabulary: {relations[i]}")
    return table.targets, has_source, sources, n_context, words, n_structural, docs
