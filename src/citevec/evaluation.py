"""The three-case evaluation protocol and its ranking metrics.

Evaluation takes held-out citations, a ``relations.RelationTable`` or a list
of CitationRelation, pools the case-appropriate query of all of them at
once from the table's arrays, ranks documents by the in-for-out score (the
dot product of the query with each output-side document vector), and
averages recall, MAP, and nDCG at a cutoff.  With one relevant item per
citation, MAP is the mean reciprocal rank within the cutoff (MRR@k).

Only the documents cited in training are candidates, as in ``rank_i4o``;
a held-out citation of any other document is a miss.  Each target's place
among them comes from ``recommend._cited_places``, which scores and
filters the cited rows that ``rank_i4o`` ranks.

Accumulation is order-insensitive: each relation's contribution depends
only on the relation itself (Case 2's draws are a hash of the relation's
content, not its position, and the scores do not depend on the block) and
the means use exact summation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .relations import CitationRelation, _relation_table, _runs
from .errors import ConfigError
from .model import Model
# build_query_vector and rank_i4o are not called here; bench/tracing.py
# looks them up in this module
from .recommend import CASES, Query, _check_k, _cited_places, build_query_vector, rank_i4o  # noqa: F401

__all__ = [
    "GroundTruth",
    "MetricReport",
    "AblationRow",
    "evaluate",
    "ablation_report",
    "format_ablation",
]

# A ground-truth set is just the resolved held-out citations from a split.
GroundTruth = Sequence[CitationRelation]


@dataclass(frozen=True)
class MetricReport:
    """Mean metrics over a set of test relations for one query case."""

    case: int
    k: int
    n_relations: int
    recall: float
    mean_average_precision: float
    ndcg: float
    # relations whose query had no participant and were scored as misses
    n_empty_queries: int

    def values(self) -> dict[str, float]:
        return {"recall": self.recall, "map": self.mean_average_precision, "ndcg": self.ndcg}

    def records(self) -> list[str]:
        """Line-oriented records, one metric per line."""
        return [f"case={self.case} metric={name} value={value!r} n={self.n_relations}"
                for name, value in self.values().items()]


# splitmix64's increment and multipliers (Steele, Lea and Flood, OOPSLA 2014)
_GAMMA, _M1, _M2 = (np.uint64(c) for c in (
    0x9E3779B97F4A7C15, 0xBF58476D1CE4E5B9, 0x94D049BB133111EB))


def _mix(x: np.ndarray, y) -> np.ndarray:
    """splitmix64's output function of ``x * gamma + y``, wrapping: a hash
    of each pair of uint64s."""
    x = x * _GAMMA + np.asarray(y, dtype=np.uint64)
    x = (x ^ (x >> np.uint64(30))) * _M1
    x = (x ^ (x >> np.uint64(27))) * _M2
    return x ^ (x >> np.uint64(31))


def _thinning_draws(targets, has_source, sources, n_context, words, n_structural, docs,
                    seed: int) -> np.ndarray:
    """Case 2's uniform draw in [0, 1) for each structural doc of every
    relation in turn (``_relation_table``'s arrays), counter-based as in
    Salmon et al., "Parallel random numbers: as easy as 1, 2, 3" (SC 2011).
    A relation's key is ``_mix(sum, 0)``, the sum wrapping over
    ``_mix(4 * place + field, id)`` for its target (field 0), source or
    2**64 - 1 (1), ascending structural docs (2) and context words (3).
    The structural doc at place p draws the top 53 bits of ``_mix(_mix(key,
    p), seed)``: a relation draws the same alone, permuted or repeated."""
    every, zero = np.arange(targets.size), np.zeros(targets.size, dtype=np.intp)
    source = np.full(targets.size, -1)
    source[has_source] = sources
    places = _runs(zero, n_structural)
    counters = np.concatenate((zero, zero + 1, 4 * places + 2, 4 * _runs(zero, n_context) + 3))
    keys = np.zeros(targets.size, dtype=np.uint64)
    np.add.at(keys, np.concatenate((every, every, np.repeat(every, n_structural),
                                    np.repeat(every, n_context))),
              _mix(counters.astype(np.uint64), np.concatenate((targets, source, docs, words))))
    bits = _mix(_mix(np.repeat(_mix(keys, 0), n_structural), places), int(seed) % 2**64)
    return (bits >> np.uint64(11)) * 2.0**-53


def _add_in_turn(sums: np.ndarray, counts: np.ndarray, ids: np.ndarray, matrix: np.ndarray):
    """Add rows of ``matrix`` to each row of ``sums``, one at a time:
    ``ids`` holds ``counts[0]`` row numbers for sums row 0, then
    ``counts[1]`` for row 1, and so on.  Step t adds the t-th of every row
    that has more than t; taken in order of falling count, those rows are a
    prefix, so a step is one gather and one add."""
    order = np.argsort(-counts, kind="stable")
    starts = (np.cumsum(counts) - counts)[order]
    live = np.searchsorted(-counts[order], -np.arange(counts.max(initial=0)))
    ordered = sums[order]
    for t, n_live in enumerate(live.tolist()):
        ordered[:n_live] += matrix[ids[starts[:n_live] + t]]
    sums[order] = ordered


def _pool_queries(model: Model, relations: GroundTruth, case: int, keep_prob: float, seed: int):
    """Every relation's query vector, pooled for all relations at once.

    A query is the mean of its participants' input rows: the context words
    in order, then the case's structural docs in ascending order, Case 2's
    thinned by ``_thinning_draws``.  The sum runs from zero, one participant
    of every relation per step, the order in which ``build_query_vector``'s
    ``mean(axis=0)`` adds them (NumPy sums a single column pairwise, so at
    dim 1 a query of 8 or more participants can differ in the last bits).

    Returns which relations are usable (have a participant), every
    relation's query (zero if unusable) and target, and the relation and
    document of each exclusion (its structural docs and source).  Raises
    ConfigError naming the first relation with an id outside the vocabulary
    (``_relation_table``).
    """
    table = _relation_table(relations, model.vocab.n_docs, model.vocab.n_words, sourced=False)
    targets, has_source, sources, n_context, words, n_structural, docs = table
    every = np.arange(len(relations))
    doc_owner = np.repeat(every, n_structural)
    if case == 2:
        kept = _thinning_draws(*table, seed) < keep_prob
    else:
        kept = np.full(docs.size, case == 1)
    n_kept = np.bincount(doc_owner[kept], minlength=every.size)
    sums = np.zeros((every.size, model.matrices.dim))
    _add_in_turn(sums, n_context, words, model.matrices.word_in)
    _add_in_turn(sums, n_kept, docs[kept], model.matrices.doc_in)
    count = n_context + n_kept
    np.divide(sums, np.maximum(count, 1)[:, None], out=sums)
    owners = np.concatenate((doc_owner, every[has_source]))
    return count > 0, sums, targets, owners, np.concatenate((docs, sources))


def evaluate(model: Model, ground_truth: GroundTruth, case: int, k: int = 10,
             keep_prob: float = 0.5, seed: int = 0) -> MetricReport:
    """Score a model against held-out citations under one query case.

    The relevant set for each relation is the single true target.  The
    candidates are the documents cited in training, less the structural
    context and the citing document (when known); a target never cited in
    training, or excluded, is a miss.  A relation whose query has no usable
    participants counts as a miss rather than an error; ``n_empty_queries``
    says how many.

    A target at place p < k (``recommend._cited_places``) is a hit at rank
    r = p + 1: recall 1, AP 1/r and nDCG 1/log2(r + 1), as the plain
    definitions give with one relevant item.  Raises ConfigError before any
    work for a bad argument (``case``, ``k`` and ``seed`` must be ints, not
    bools) or empty ground truth.
    """
    Query(case=case, context_words=(), keep_prob=keep_prob, seed=seed)  # rejects bad ones
    _check_k(k)
    if not ground_truth:
        raise ConfigError("ground truth is empty")
    usable, queries, targets, owners, excluded = _pool_queries(
        model, ground_truth, case, keep_prob, seed)
    places = _cited_places(model, usable, queries, targets, owners, excluded, k)
    # hits by place: an unusable query, like a target past k, misses on every metric
    hits = np.bincount(places[places < k])
    hit_places = np.flatnonzero(hits).tolist()
    n = len(ground_truth)

    def mean(gain) -> float:
        return math.fsum(np.repeat([gain(p + 1) for p in hit_places], hits[hit_places]).tolist()) / n

    return MetricReport(case=case, k=k, n_relations=n, recall=int(hits.sum()) / n,
                        mean_average_precision=mean(lambda r: 1 / r),
                        ndcg=mean(lambda r: 1 / math.log2(r + 1)),
                        n_empty_queries=n - int(usable.sum()))


@dataclass(frozen=True)
class AblationRow:
    """One model/case cell of the ablation matrix."""

    model_label: str
    report: MetricReport


def ablation_report(model_avg: Model, model_att: Model, model_nostruct: Model,
                    ground_truth: GroundTruth, k: int = 10, keep_prob: float = 0.5,
                    seed: int = 0) -> list[AblationRow]:
    """Evaluate three model variants under all three query cases.

    All models must share one vocabulary (same corpus, differing only in
    variant flags), otherwise the ground-truth indices would not line up.
    """
    labeled = [("avg", model_avg), ("att", model_att), ("nostruct", model_nostruct)]
    reference = model_avg.vocab
    for label, model in labeled[1:]:
        if not reference.same_bindings(model.vocab):
            raise ConfigError(f"vocabulary mismatch between avg and {label} models")
    rows: list[AblationRow] = []
    for label, model in labeled:
        for case in CASES:
            report = evaluate(model, ground_truth, case, k=k, keep_prob=keep_prob, seed=seed)
            rows.append(AblationRow(model_label=label, report=report))
    return rows


def format_ablation(rows: Iterable[AblationRow]) -> str:
    """Render ablation rows as an aligned human-readable table."""
    header = f"{'model':<10} {'case':>4} {'n':>5} {'recall':>10} {'map':>10} {'ndcg':>10}"
    lines = [header, "-" * len(header)]
    for row in rows:
        r = row.report
        lines.append(f"{row.model_label:<10} {r.case:>4} {r.n_relations:>5} "
                     f"{r.recall:>10.4f} {r.mean_average_precision:>10.4f} {r.ndcg:>10.4f}")
    return "\n".join(lines)
