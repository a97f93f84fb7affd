"""The three-case evaluation protocol and its ranking metrics.

Evaluation takes held-out citations, a ``relations.RelationTable`` or a list
of CitationRelation, pools the case-appropriate query of all of them at
once from the table's arrays, ranks documents by the in-for-out score (the
dot product of the query with each output-side document vector), and
averages recall, MAP, and nDCG at a cutoff.  With one relevant item per
citation, MAP is the mean reciprocal rank within the cutoff (MRR@k).

Only the documents cited in training are candidates, as in ``rank_i4o``;
a held-out citation of any other document is a miss.  The queries are
scored ``EVAL_BATCH`` at a time against the cited rows that ``rank_i4o``
uses (``recommend._cited_panel``), and the metrics come from each target's
place in its row, counted, not ranked (``_places``).  A query's scores are
the same bits in whatever block and row it lands (``_score_block``), but
can differ in the last bits from ``rank_i4o``'s matrix-vector product.

Where ``rank_i4o`` filters, on a large panel, so does ``evaluate``, query
by query (``_near_places``): one float32 product of the unit rows with a
block's unit queries settles most candidates as surely ahead of their
target or surely behind it; the rest, the targets, the rows and queries
the bound does not cover are gathered and scored exactly.  Each place
below k is the one the whole product gives: the reports are the same bits.
Ranking makes a model's arrays read-only on its first query; to edit,
assign ``model.matrices = model.matrices.copy()`` (``Model._derived``).

Accumulation is order-insensitive: each relation's contribution depends
only on the relation itself (Case 2's draws are a hash of the relation's
content, not its position, and the scores do not depend on the block) and
the means use exact summation.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .relations import CitationRelation, _relation_table, _runs
from .errors import ConfigError
from .model import Model, _reused
# build_query_vector and rank_i4o are not called here; bench/tracing.py
# looks them up in this module
from .recommend import (  # noqa: F401
    BLOCK_ROWS, CASES, Query, _check_k, _cited_panel, _gather_panel, _slack32, _unit_rows,
    build_query_vector, rank_i4o)

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

# query vectors per score product; every product has this many rows
EVAL_BATCH = 32


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


def _score_block(panel: np.ndarray, block: np.ndarray, out: np.ndarray) -> np.ndarray:
    """``block @ panel[:n].T`` into ``out``, n being its column count and
    ``panel`` zero-padded to a multiple of ``PAD_ROWS`` rows
    (``recommend._gather_panel``): one product per ``BLOCK_ROWS`` slice.

    A row's scores come out in the same bits whatever the other rows of
    ``block`` hold and wherever it sits, and a document's whatever slice it
    lands in: BLAS rounds the rows past its kernel's last full tile in ways
    that depend on their neighbours, and the padding keeps every document
    and query out of that tail.
    """
    n = out.shape[1]
    for start in range(0, n, BLOCK_ROWS):
        stop = min(start + BLOCK_ROWS, n)
        out[:, start:stop] = (block @ panel[start : start + BLOCK_ROWS].T)[:, : stop - start]
    return out


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


def _places(scores, target_columns, candidate, id_rank) -> np.ndarray:
    """The place of each row's target, ``scores[r, target_columns[r]]``, in
    ``_top_k``'s order: how many of the row's entries that ``candidate``
    marks come before it.  The order is +inf, finite scores descending,
    -inf, then NaN, ties by doc id; ``id_rank()`` gives each column's place
    in the order of the ids, and is called only for a block with a tie or a
    NaN target."""
    target = scores[np.arange(scores.shape[0]), target_columns][:, None]
    ahead = scores > target
    if ((np.count_nonzero(scores == target, axis=1) > 1) | np.isnan(target[:, 0])).any():
        rank = id_rank()
        tied = (scores == target) | (np.isnan(scores) & np.isnan(target))
        ahead |= np.isnan(target) & ~np.isnan(scores)
        ahead |= tied & (rank < rank[target_columns, None])
    return np.count_nonzero(ahead & candidate, axis=1)


def _near_places(doc_out, cited, unit_rows, block, target_columns, banned, k, id_rank) -> np.ndarray:
    """``_places`` of the first ``target_columns.size`` queries of
    ``block``, each against the cited rows ``doc_out[cited]``
    (``_score_block``) with its target at column ``target_columns[r]`` and
    the flat indices ``banned`` of its rows excluded, through the float32
    filter of those rows' unit rows and norms ``unit_rows``
    (``recommend._unit_rows``).  A place of k or more may come back as any
    count of k or more.

    The targets' exact scores t come first, from one ``_score_block`` over
    their rows: the same bits whichever rows are gathered.  A candidate's
    float32 cosine c with the query, of norm q, then places it: c - t/(n·q)
    above ``_slack32(dim)``, n being its row's norm, means its exact score is
    surely above t, below minus that surely below.  Only the candidates in
    between, among them every row and every query that is NaN in its copy
    and any compared with a NaN, are scored exactly, by one
    ``_score_block`` over their rows and the targets', and counted by
    ``_places``; a query with k or more surely ahead is a miss, and none of
    its candidates is scored.

    The proof, in ``recommend._shortlist``'s terms (a', B, U, u, s, q and
    the room).  A candidate's exact score e is compared with t, the same
    bits whichever rows are scored with it: a - h > t and a + h < t, divided
    by the positive sqrt(s)·q.  Per query, q is the norm of ``_unit_rows``,
    a' one float32 product of the block's unit queries p with the unit
    rows, and g = a' - fl(fl(t / q)·fl(1 / sqrt(s))); the candidate is
    surely ahead when g > h' and surely behind when g < -h',
    h' = ``_slack32(n)``.  Write P = sqrt(s)·q and theta = t / P, taken
    exactly.  P·a' is within (B + 2·gamma(U) + 8U)·|x|·|v| of e, as
    rank_i4o's a is, so e > t once a' - theta exceeds
    B'' = (B + 2·gamma(U) + 8U) / (1 - gamma(U) - 4U), and e < t once it is
    below -B''; h' is above B'' by more than 0.005·(n + 2)·u.  g's four
    roundings put it within 4.01U·(|theta| + |g|) of a' - theta, and
    |theta| is at most |a'| + |a' - theta| with |a'| below 1.01: where g is
    near ±h' that is about 9U, paid out of the room, and far from it the
    error, relative, cannot change g's side.  A target row and a query both
    finite in their copies give |t / q| below about 2^450 and |theta| below
    about 2^900: nothing overflows, and an underflow errs by at most 2^-624
    in theta.  Any other target row may give any t: where t / q or the
    product overflows, |theta| is above 2^570 and g's infinite sign is the
    true side, and a NaN g is on neither side.  A row or a query that is
    NaN in its copy makes a' NaN, and so g: the candidate is on neither
    side and is scored exactly.
    """
    n_queries, dim = target_columns.size, block.shape[1]
    units, row_norms = unit_rows
    queries = block[:n_queries]
    every = np.arange(n_queries)
    target = _score_block(_gather_panel(doc_out, cited[target_columns]), block,
                          np.empty((EVAL_BATCH, n_queries)))[every, every]
    slack = _slack32(dim)
    ahead = np.empty((n_queries, units.shape[0]), dtype=bool)
    below = np.empty_like(ahead)
    # each slice's gaps take the bytes of BLOCK_ROWS rows of the panel
    step = BLOCK_ROWS * dim // EVAL_BATCH
    gaps = np.empty((n_queries, step))
    with np.errstate(all="ignore"):  # queries and rows out of range, non-finite targets: NaN gaps
        unit_queries, norms = _unit_rows(queries)
        ratio = target / norms
        inverse = 1.0 / row_norms
        for start in range(0, units.shape[0], step):
            rows = slice(start, start + step)
            gap = gaps[:, : units[rows].shape[0]]
            np.multiply(ratio[:, None], inverse[rows], out=gap)
            np.subtract((units[rows] @ unit_queries.T).T, gap, out=gap)
            np.greater(gap, slack, out=ahead[:, rows])
            np.less(gap, -slack, out=below[:, rows])
    ahead.flat[banned] = False
    below.flat[banned] = True
    sure = np.array([np.count_nonzero(row) for row in ahead])
    below |= ahead
    below[sure >= k] = True
    near_rows, near_columns = np.divmod(np.flatnonzero(~below), units.shape[0])
    columns = np.unique(np.concatenate((near_columns, target_columns)))
    scores = _score_block(_gather_panel(doc_out, cited[columns]), block,
                          np.empty((EVAL_BATCH, columns.size)))
    candidate = np.zeros((n_queries, columns.size), dtype=bool)
    candidate[near_rows, np.searchsorted(columns, near_columns)] = True
    return sure + _places(scores[:n_queries], np.searchsorted(columns, target_columns),
                          candidate, lambda: id_rank()[columns])


def evaluate(model: Model, ground_truth: GroundTruth, case: int, k: int = 10,
             keep_prob: float = 0.5, seed: int = 0) -> MetricReport:
    """Score a model against held-out citations under one query case.

    The relevant set for each relation is the single true target.  The
    candidates are the documents cited in training, less the structural
    context and the citing document (when known); a target never cited in
    training, or excluded, is a miss.  A relation whose query has no usable
    participants counts as a miss rather than an error; ``n_empty_queries``
    says how many.

    The queries whose target can be found are scored ``EVAL_BATCH`` at a
    time and their targets' places counted (``_places``), against the
    cited rows shared with ``rank_i4o``: a small panel scores every cited
    row, and a large one, kept only as ``rank_i4o``'s float32 unit rows, is
    a filter for every block (``_near_places``).  A target at place p < k is
    a hit at rank r = p + 1: recall 1, AP 1/r and nDCG 1/log2(r + 1), as the
    plain definitions give with one relevant item.  Raises ConfigError
    before any work for a bad argument (``case``, ``k`` and ``seed`` must be
    ints, not bools) or empty ground truth.
    """
    Query(case=case, context_words=(), keep_prob=keep_prob, seed=seed)  # rejects bad ones
    _check_k(k)
    if not ground_truth:
        raise ConfigError("ground truth is empty")
    usable, queries, targets, owners, excluded = _pool_queries(
        model, ground_truth, case, keep_prob, seed)
    cited, panel, column, unit_rows = _cited_panel(model)
    # the usable queries whose target was cited and is not excluded
    blocked = np.zeros(len(ground_truth), dtype=bool)
    blocked[owners[excluded == targets[owners]]] = True
    found = np.flatnonzero(usable & (column[targets] >= 0) & ~blocked)
    # their excluded entries, as flat indices into their rows of scores
    at = np.full(len(ground_truth), -1, dtype=np.intp)
    at[found] = np.arange(found.size)
    rows, columns = at[owners], column[excluded]
    banned = np.sort((rows * cited.size + columns)[(rows >= 0) & (columns >= 0)])
    bounds = np.searchsorted(banned, np.arange(0, found.size + EVAL_BATCH, EVAL_BATCH) * cited.size)
    # each cited doc's place in the order of the ids, derived on first need
    id_rank = functools.partial(_reused, model, "cited id rank", lambda: np.argsort(
        np.argsort(np.array(model.vocab.doc_list, dtype=object)[cited])))
    block = np.empty((EVAL_BATCH, model.matrices.dim))
    places = np.empty(found.size, dtype=np.intp)
    for start, lo, hi in zip(range(0, found.size, EVAL_BATCH), bounds.tolist(), bounds[1:].tolist()):
        stop = min(start + EVAL_BATCH, found.size)
        block[: stop - start] = queries[found[start:stop]]
        block[stop - start :] = 0.0
        target_columns = column[targets[found[start:stop]]]
        banned_here = banned[lo:hi] - start * cited.size
        if panel is None:
            places[start:stop] = _near_places(model.matrices.doc_out, cited, unit_rows, block,
                                              target_columns, banned_here, k, id_rank)
        else:
            scores = _score_block(panel, block, np.empty((EVAL_BATCH, cited.size)))
            candidate = np.ones((stop - start, cited.size), dtype=bool)
            candidate.flat[banned_here] = False
            places[start:stop] = _places(scores[: stop - start], target_columns, candidate,
                                         id_rank)
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
