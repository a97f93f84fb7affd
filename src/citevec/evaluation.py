"""The three-case evaluation protocol and its ranking metrics.

Evaluation takes held-out citations, a ``relations.RelationTable`` or a list
of CitationRelation, pools the case-appropriate query of all of them at
once from the table's arrays, ranks documents by the in-for-out score (the
dot product of the query with each output-side document vector), and
averages recall, MAP, and nDCG at a cutoff.  With one relevant item per
citation, MAP is the mean reciprocal rank within the cutoff (MRR@k).

Only the documents cited in training are candidates, as in ``rank_i4o``;
a held-out citation of any other document is a miss.  The queries are
scored ``EVAL_BATCH`` at a time: a block of query vectors is multiplied by
each ``BLOCK_ROWS`` slice of the cited panel that ``rank_i4o`` uses
(``recommend._cited_panel``, built once per loaded model), and the block's
score rows go through one call of the top-k that ``rank_i4o`` uses
(``recommend._top_k``); the metrics come from the target's place in its
row.  The last block of queries is padded with zero rows to
``EVAL_BATCH``, and the panel with zero rows to a multiple of
``PAD_ROWS``, so no document falls in the tail rows of a BLAS kernel: a
query's scores are the same bits in whatever block and row it lands, and a
document's in whatever column and slice.  They can differ in the last bits
from the matrix-vector product ``rank_i4o`` takes.  The scores of a block
take ``EVAL_BATCH`` × n_cited floats.  Python work per relation is left
only in Case 2's seeded draw.

Accumulation is order-insensitive: each relation's contribution depends
only on the relation itself (Case 2 derives its thinning seed from the
relation content, not its position, and the scores do not depend on the
block) and the means use exact summation.
"""

from __future__ import annotations

import math
import zlib
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .relations import CitationRelation, _relation_table
from .errors import ConfigError
from .model import Model
# build_query_vector and rank_i4o are not called here; bench/tracing.py
# looks them up in this module
from .recommend import (  # noqa: F401
    BLOCK_ROWS, CASES, Query, _check_k, _cited_panel, _top_k, build_query_vector, rank_i4o)

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

_METRIC_NAMES = ("recall", "map", "ndcg")

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
        return {
            "recall": self.recall,
            "map": self.mean_average_precision,
            "ndcg": self.ndcg,
        }

    def records(self) -> list[str]:
        """Line-oriented records, one metric per line."""
        by_name = self.values()
        return [
            f"case={self.case} metric={name} value={by_name[name]!r} n={self.n_relations}"
            for name in _METRIC_NAMES
        ]


def _relation_seed(seed: int, relation: CitationRelation) -> int:
    # Content-derived so that Case 2 thinning ignores iteration order.
    canon = (
        f"{relation.target}|{sorted(relation.structural)}"
        f"|{relation.context}|{relation.source}"
    )
    return (zlib.crc32(canon.encode("utf-8")) + seed) & 0xFFFFFFFF


def _score_block(panel: np.ndarray, block: np.ndarray, out: np.ndarray) -> np.ndarray:
    """``block @ panel[:n].T`` into ``out``, n being its column count and
    ``panel`` zero-padded to a multiple of ``PAD_ROWS`` rows
    (``recommend._gather_panel``): one product per ``BLOCK_ROWS`` slice.

    A row's scores come out in the same bits whatever the other rows of
    ``block`` hold and wherever it sits, and a document's whatever slice it
    lands in.  BLAS rounds the documents past the last full tile of its
    kernel in ways that depend on the rows around them; the padding keeps
    every document out of that tail.
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
    in order, then the case's structural docs in ascending order.  The sum
    runs from zero, one participant of every relation per step, which is
    the order ``build_query_vector``'s ``mean(axis=0)`` adds them in (NumPy
    sums a single column pairwise instead, so at dim 1 a query of 8 or more
    participants can differ in the last bits).  Only Case 2 walks the
    relations, to draw each one's thinning from its content-derived seed.

    Returns the indices of the usable relations (those with a participant),
    their query vectors and targets, the documents each relation excludes
    (its structural docs, then its source) laid end to end, and ``bounds``:
    relation i excludes ``excluded[bounds[i]:bounds[i + 1]]``.  Raises
    ConfigError naming the first relation with an id outside the
    vocabulary (``relations._relation_table``).
    """
    targets, has_source, sources, n_context, words, n_structural, docs = _relation_table(
        relations, model.vocab.n_docs, model.vocab.n_words, sourced=False)
    n = len(relations)
    every = np.arange(n)
    doc_owner, source_owner = np.repeat(every, n_structural), every[has_source]
    if case == 2:
        draws = np.empty(docs.size)
        for relation, count, end in zip(relations, n_structural.tolist(),
                                        np.cumsum(n_structural).tolist()):
            if count:
                rng = np.random.default_rng(_relation_seed(seed, relation))
                draws[end - count : end] = rng.random(count)
        kept = draws < keep_prob
    else:
        kept = np.full(docs.size, case == 1)
    n_kept = np.bincount(doc_owner[kept], minlength=n)
    sums = np.zeros((n, model.matrices.dim))
    _add_in_turn(sums, n_context, words, model.matrices.word_in)
    _add_in_turn(sums, n_kept, docs[kept], model.matrices.doc_in)
    count = n_context + n_kept
    usable = np.flatnonzero(count)
    queries = sums[usable] / count[usable, None]

    owner = np.concatenate((doc_owner, source_owner))
    order = np.argsort(owner, kind="stable")
    bounds = np.searchsorted(owner[order], np.arange(n + 1))
    return usable, queries, targets[usable], np.concatenate((docs, sources))[order], bounds


def evaluate(
    model: Model,
    ground_truth: GroundTruth,
    case: int,
    k: int = 10,
    keep_prob: float = 0.5,
    seed: int = 0,
) -> MetricReport:
    """Score a model against held-out citations under one query case.

    The relevant set for each relation is the single true target.  The
    candidates are the documents cited in training, less the structural
    context and the citing document (when known); a target never cited in
    training is a miss.  A relation whose query has no usable participants
    counts as a miss rather than an error; ``n_empty_queries`` says how many.

    The query vectors are pooled first (``_pool_queries``), then scored in
    blocks of ``EVAL_BATCH`` against the slices of the cited panel
    (``_score_block``), the last block padded with zero rows; the scores
    take ``EVAL_BATCH`` × n_cited floats.  A loaded model builds the panel
    once, and ``rank_i4o`` shares it; any other model gathers it on every
    call.  One ``_top_k`` call ranks each block, and the metrics come from the
    target's place in its row: recall 1, AP 1/rank and nDCG
    1/log2(rank + 1) for a hit within k, 0 for a miss, which is what the
    plain definitions give with one relevant item.
    """
    Query(case=case, context_words=(), keep_prob=keep_prob)  # rejects a bad case or keep_prob
    _check_k(k)
    if not ground_truth:
        raise ConfigError("ground truth is empty")
    usable, queries, targets, excluded, bounds = _pool_queries(
        model, ground_truth, case, keep_prob, seed)
    cited, panel = _cited_panel(model)
    # a document's column among the candidates, -1 if it was never cited
    column = np.full(model.vocab.n_docs, -1, dtype=np.intp)
    column[cited] = np.arange(cited.size)
    target_columns = column[targets]
    # the columns each relation excludes, laid end to end
    banned_columns = column[excluded]
    candidate = banned_columns >= 0
    ends = np.append(0, np.cumsum(candidate))[bounds]
    banned_columns = banned_columns[candidate]
    firsts, lasts = ends[usable].tolist(), ends[usable + 1].tolist()
    block = np.empty((EVAL_BATCH, panel.shape[1]))
    scores = np.empty((EVAL_BATCH, cited.size))
    ranks: list[int] = []  # 1-based, of each target found within k
    for start in range(0, usable.size, EVAL_BATCH):
        stop = min(start + EVAL_BATCH, usable.size)
        block[: stop - start] = queries[start:stop]
        block[stop - start :] = 0.0
        _score_block(panel, block, scores)
        banned = [banned_columns[a:b] for a, b in zip(firsts[start:stop], lasts[start:stop])]
        ranked, counts = _top_k(scores[: stop - start], k, model.vocab.doc_list, cited, banned)
        place = np.arange(ranked.size) - np.repeat(np.cumsum(counts) - counts, counts)
        hit = (ranked == np.repeat(target_columns[start:stop], counts)) & (place < k)
        ranks += (place[hit] + 1).tolist()
    # an unusable query, like a target outside the top k, is a miss on every metric
    n = len(ground_truth)
    return MetricReport(
        case=case,
        k=k,
        n_relations=n,
        recall=len(ranks) / n,
        mean_average_precision=math.fsum(1 / rank for rank in ranks) / n,
        ndcg=math.fsum(1 / math.log2(rank + 1) for rank in ranks) / n,
        n_empty_queries=n - usable.size,
    )


@dataclass(frozen=True)
class AblationRow:
    """One model/case cell of the ablation matrix."""

    model_label: str
    report: MetricReport


def ablation_report(
    model_avg: Model,
    model_att: Model,
    model_nostruct: Model,
    ground_truth: GroundTruth,
    k: int = 10,
    keep_prob: float = 0.5,
    seed: int = 0,
) -> list[AblationRow]:
    """Evaluate three model variants under all three query cases.

    All models must share one vocabulary (same corpus, differing only in
    variant flags), otherwise the ground-truth indices would not line up.
    """
    labeled = [
        ("avg", model_avg),
        ("att", model_att),
        ("nostruct", model_nostruct),
    ]
    reference = model_avg.vocab
    for label, model in labeled[1:]:
        if not reference.same_bindings(model.vocab):
            raise ConfigError(f"vocabulary mismatch between avg and {label} models")
    rows: list[AblationRow] = []
    for label, model in labeled:
        for case in CASES:
            report = evaluate(
                model, ground_truth, case, k=k, keep_prob=keep_prob, seed=seed
            )
            rows.append(AblationRow(model_label=label, report=report))
    return rows


def format_ablation(rows: Iterable[AblationRow]) -> str:
    """Render ablation rows as an aligned human-readable table."""
    header = f"{'model':<10} {'case':>4} {'n':>5} {'recall':>10} {'map':>10} {'ndcg':>10}"
    lines = [header, "-" * len(header)]
    for row in rows:
        r = row.report
        lines.append(
            f"{row.model_label:<10} {r.case:>4} {r.n_relations:>5} "
            f"{r.recall:>10.4f} {r.mean_average_precision:>10.4f} {r.ndcg:>10.4f}"
        )
    return "\n".join(lines)
