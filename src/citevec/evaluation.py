"""Ranking metrics and the three-case evaluation protocol.

Evaluation walks a list of held-out citations, builds the case-appropriate
query for each, ranks documents with the in-for-out scorer, and averages
recall, MAP, and nDCG at a cutoff.  Accumulation is order-insensitive: each
relation's contribution depends only on the relation itself (Case 2 derives
its thinning seed from the relation content, not its position) and the means
use exact summation.
"""

from __future__ import annotations

import math
import zlib
from dataclasses import dataclass
from typing import Hashable, Iterable, Sequence

from .corpus import HeldOutCitation
from .errors import ConfigError, QueryError
from .model import Model
from .recommend import CASES, Query, build_query_vector, rank_i4o

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
GroundTruth = Sequence[HeldOutCitation]

_METRIC_NAMES = ("recall", "map", "ndcg")


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


def _relation_seed(seed: int, relation: HeldOutCitation) -> int:
    # Content-derived so that Case 2 thinning ignores iteration order.
    canon = (
        f"{relation.target}|{sorted(relation.structural)}"
        f"|{relation.context}|{relation.source}"
    )
    return (zlib.crc32(canon.encode("utf-8")) + seed) & 0xFFFFFFFF


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
    """
    if case not in CASES:
        raise ConfigError(f"case must be one of {CASES}, got {case}")
    _check_cutoff(k)
    if not ground_truth:
        raise ConfigError("ground truth is empty")
    recalls: list[float] = []
    aps: list[float] = []
    ndcgs: list[float] = []
    doc_list = model.vocab.doc_list
    n_empty = 0
    for relation in ground_truth:
        query = Query(
            case=case,
            context_words=relation.context,
            structural_docs=relation.structural,
            keep_prob=keep_prob,
            seed=_relation_seed(seed, relation),
        )
        exclude = {doc_list[d] for d in relation.structural}
        if relation.source is not None:
            exclude.add(doc_list[relation.source])
        relevant = {doc_list[relation.target]}
        try:
            qvec = build_query_vector(model, query)
        except QueryError:
            n_empty += 1
            recalls.append(0.0)
            aps.append(0.0)
            ndcgs.append(0.0)
            continue
        ranked = rank_i4o(model, qvec, exclude=exclude, k=k).ids()
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
