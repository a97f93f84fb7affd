"""Ranking metrics and the three-case evaluation protocol.

Evaluation walks a list of held-out citations, builds the case-appropriate
query for each, ranks documents by the in-for-out score (the dot product of
the query with each output-side document vector), and averages recall, MAP,
and nDCG at a cutoff.

The queries are scored ``EVAL_BATCH`` at a time: a block of query vectors
is multiplied by the output matrix, ``BLOCK_ROWS`` documents to a product,
and each row of the result goes through the same top-k as ``rank_i4o``
(``recommend._top_k``).  Every product has one shape, ``EVAL_BATCH``
queries by ``BLOCK_ROWS`` documents: the last block of queries and the last
documents are padded with zero rows.  BLAS can round a row differently when
the shape changes, but at one shape a query's scores are the same bits in
whatever block and row it lands.  They can differ in the last bits from the
matrix-vector product ``rank_i4o`` takes.  The scores of a block take
``EVAL_BATCH`` × n_docs floats.

Accumulation is order-insensitive: each relation's contribution depends
only on the relation itself (Case 2 derives its thinning seed from the
relation content, not its position, and the scores do not depend on the
block) and the means use exact summation.
"""

from __future__ import annotations

import math
import zlib
from dataclasses import dataclass
from typing import Hashable, Iterable, Sequence

import numpy as np

from .corpus import CitationRelation
from .errors import ConfigError, QueryError
from .model import Model
# rank_i4o is not called here; bench/tracing.py looks it up in this module
from .recommend import BLOCK_ROWS, CASES, Query, _top_k, build_query_vector, rank_i4o  # noqa: F401

__all__ = [
    "GroundTruth",
    "MetricReport",
    "AblationRow",
    "recall_at_k",
    "average_precision",
    "ndcg_at_k",
    "evaluate",
    "ablation_report",
    "format_ablation",
]

# A ground-truth set is just the resolved held-out citations from a split.
GroundTruth = Sequence[CitationRelation]

_METRIC_NAMES = ("recall", "map", "ndcg")

# query vectors per score product; every product has this many rows
EVAL_BATCH = 32


def _check_cutoff(k: int) -> None:
    if k < 1:
        raise ConfigError(f"k must be >= 1, got {k}")


def _check_relevant(relevant: set) -> None:
    if not relevant:
        raise ConfigError("relevant set must be non-empty")


def recall_at_k(ranked: Sequence[Hashable], relevant: set, k: int) -> float:
    """Fraction of the relevant set found in the top k."""
    _check_cutoff(k)
    _check_relevant(relevant)
    hits = sum(1 for item in ranked[:k] if item in relevant)
    return hits / len(relevant)


def average_precision(ranked: Sequence[Hashable], relevant: set, k: int) -> float:
    """Precision at each relevant rank in the top k, over min(|relevant|, k).

    With a single relevant item this reduces to reciprocal rank at k.
    """
    _check_cutoff(k)
    _check_relevant(relevant)
    precisions = []
    hits = 0
    for rank, item in enumerate(ranked[:k], start=1):
        if item in relevant:
            hits += 1
            precisions.append(hits / rank)
    return math.fsum(precisions) / min(len(relevant), k)


def ndcg_at_k(ranked: Sequence[Hashable], relevant: set, k: int) -> float:
    """Binary-relevance nDCG with a 1/log2(rank+1) discount."""
    _check_cutoff(k)
    _check_relevant(relevant)
    gain = math.fsum(
        1.0 / math.log2(rank + 1)
        for rank, item in enumerate(ranked[:k], start=1)
        if item in relevant
    )
    ideal = math.fsum(
        1.0 / math.log2(rank + 1) for rank in range(1, min(len(relevant), k) + 1)
    )
    return gain / ideal


@dataclass(frozen=True)
class MetricReport:
    """Mean metrics over a set of test relations for one query case."""

    case: int
    k: int
    n_relations: int
    recall: float
    mean_average_precision: float
    ndcg: float
    # relations whose query raised QueryError and were scored as misses
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


def _score_block(doc_out: np.ndarray, block: np.ndarray, out: np.ndarray) -> np.ndarray:
    """``block @ doc_out.T`` into ``out``, one product per ``BLOCK_ROWS``
    documents, the last of them padded with zero rows.

    Every product then has one shape, and at one shape a row's scores come
    out in the same bits whatever the other rows of ``block`` hold and
    wherever it sits.  BLAS rounds the documents past the last full tile of
    its kernel in ways that depend on the rows around them, so the padding
    matters.
    """
    n_docs = doc_out.shape[0]
    for start in range(0, n_docs, BLOCK_ROWS):
        rows = doc_out[start : start + BLOCK_ROWS]
        if rows.shape[0] < BLOCK_ROWS:
            rows = np.concatenate((rows, np.zeros((BLOCK_ROWS - rows.shape[0], rows.shape[1]))))
        out[:, start : start + BLOCK_ROWS] = (block @ rows.T)[:, : n_docs - start]
    return out


def evaluate(
    model: Model,
    ground_truth: GroundTruth,
    case: int,
    k: int = 10,
    keep_prob: float = 0.5,
    seed: int = 0,
) -> MetricReport:
    """Score a model against held-out citations under one query case.

    The relevant set for each relation is the single true target; the
    structural context and the citing document (when known) are excluded
    from the candidates.  A relation whose query has no usable participants
    counts as a miss rather than an error; ``n_empty_queries`` says how many.

    All query vectors are built first, then scored in blocks of
    ``EVAL_BATCH`` (``_score_block``), the last block padded with zero
    rows; the scores take ``EVAL_BATCH`` × n_docs floats.
    """
    if case not in CASES:
        raise ConfigError(f"case must be one of {CASES}, got {case}")
    _check_cutoff(k)
    if not ground_truth:
        raise ConfigError("ground truth is empty")
    usable: list[CitationRelation] = []
    vectors: list[np.ndarray] = []
    for relation in ground_truth:
        query = Query(
            case=case,
            context_words=relation.context,
            structural_docs=relation.structural,
            keep_prob=keep_prob,
            seed=_relation_seed(seed, relation),
        )
        try:
            vectors.append(build_query_vector(model, query))
        except QueryError:
            continue
        usable.append(relation)
    n_empty = len(ground_truth) - len(usable)
    # an unusable query is a miss on every metric
    recalls = [0.0] * n_empty
    aps = [0.0] * n_empty
    ndcgs = [0.0] * n_empty
    doc_list = model.vocab.doc_list
    doc_out = model.matrices.doc_out
    block = np.empty((EVAL_BATCH, doc_out.shape[1]))
    scores = np.empty((EVAL_BATCH, doc_out.shape[0]))
    for start in range(0, len(usable), EVAL_BATCH):
        chunk = usable[start : start + EVAL_BATCH]
        block[: len(chunk)] = vectors[start : start + EVAL_BATCH]
        block[len(chunk) :] = 0.0
        _score_block(doc_out, block, scores)
        for relation, row in zip(chunk, scores):
            exclude = {doc_list[d] for d in relation.structural}
            if relation.source is not None:
                exclude.add(doc_list[relation.source])
            relevant = {doc_list[relation.target]}
            ranked = _top_k(model, row, exclude, k).ids()
            recalls.append(recall_at_k(ranked, relevant, k))
            aps.append(average_precision(ranked, relevant, k))
            ndcgs.append(ndcg_at_k(ranked, relevant, k))
    n = len(recalls)
    return MetricReport(
        case=case,
        k=k,
        n_relations=n,
        recall=math.fsum(recalls) / n,
        mean_average_precision=math.fsum(aps) / n,
        ndcg=math.fsum(ndcgs) / n,
        n_empty_queries=n_empty,
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
