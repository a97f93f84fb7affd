"""Query building and candidate ranking.

Three query regimes: Case 1 pools the context words with every co-cited
document, Case 2 keeps each co-cited document with a fixed probability,
Case 3 uses the words alone.  Case 2 here thins with
``default_rng(seed % 2**64)``; ``evaluate`` thins each held-out citation
with its own counter-based draws.
Queries are pooled with the arithmetic mean for both model variants, a
known train/serve skew for "att": only the manuscript is new, and the
scores its words and co-cited documents were trained with go unused at
query time.

Two ranking conventions: rank_i4o scores output-side document vectors by
dot product with the query; rank_i4i fits a vector for the text and scores
input-side document vectors by cosine.  Ties break by ascending doc id and
excluded ids are never returned.  Following hyperdoc2vec's IN-for-OUT and
IN-for-IN roles (Han et al., ACL 2018), rank_i4o ranks only the documents
cited in training (``doc_cited_counts > 0``): the output row of any other
document never got a gradient, and with fewer than k cited candidates left
the list is shorter than k.  rank_i4i ranks every document, since every
input vector is trained.

An i4o ranking over n cited documents costs one matrix-vector product per
``BLOCK_ROWS`` of their rows, gathered into one panel (``_cited_panel``),
then an O(n) partition of the score row at k plus its exclusion count, and a
sort of the candidates at or above that place; the tie rule is the same as
a full sort's.  Every candidate tied at the place is sorted too, so a row
with many ties costs a sort of all of them.
``_top_k`` is the one top-k rule: rank_i4o sends it one score row, and
rank_i4i the scores of every row or of its shortlist.  Its columns name
the documents scored, the cited ones or a shortlist.  ``evaluate`` needs
only the target's place, and counts it in the same order without ranking.

Below ``_FILTER_ENTRIES`` entries (rows × dim), every ranking scores every
candidate row exactly: rank_i4i the input rows and rank_i4o the cited
panel, one matrix-vector product per ``BLOCK_ROWS`` rows, and ``evaluate``
the cited panel block by block.  There the exact product is as fast as
any filter or faster.  At or above it, each filters, then refines.  For
rank_i4i, an approximate cosine of every row, within a proven slack of the
exact one, gives a shortlist (``_shortlist``): the rows whose upper bound
reaches the k-th largest lower bound, and the rows the bound does not
cover, NaN in the copy.  Only those get the exact dot product and the
exact norm of ``np.linalg.norm``; their scores are the same bits as
scoring every row, and no other row can outrank them.  rank_i4o does the
same for the cited panel: a row's approximate dot product is its norm
times the query's times its approximate cosine, and its slack scales with
the same norms.  ``evaluate`` filters the same rows, query by query, with
the same a and h, and scores exactly only the candidates that may sit on
either side of each target.

Ranking makes a model's arrays read-only on its first query; to edit,
assign ``model.matrices = model.matrices.copy()``.  So the arrays that do
not depend on the query are derived once, on first use, and kept on the
model (``Model._derived``): for rank_i4i, below the threshold the input
rows' norms, n_docs float64s, and at or above it a float32 copy of the
input rows scaled to unit norm, n_docs × dim float32s, NaN in the rows its
bound does not cover (``_unit_rows``); and the cited output rows
(``_cited_panel``), a small panel as n_cited × dim float64s, a large one
only as the same float32 copy with their norms, n_cited · dim · 4 +
n_cited · 8 bytes, read by rank_i4o and evaluate.  Each filter then reads
half the bytes of its float64 matrix: one float32 product gives every
approximate cosine, one slack (``_slack32``) bounds its error, and the
shortlist is scored exactly (``_exact_dots`` for i4i).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .corpus import _cited_id
from .errors import ConfigError, QueryError, _check_float, _check_int
from .model import Model, _reused, infer_doc_vector

CASES = (1, 2, 3)
# rows of a document matrix per block, in ``_unit_rows``, in the cited
# panel's products in rank_i4o and evaluate, and in rank_i4i's product over
# every input row: a block stays in cache
BLOCK_ROWS = 1024
# the cited panel is padded to a multiple of this many rows, a multiple of
# the tile of rows that BLAS's matrix-vector kernels take at once
PAD_ROWS = 64
# rank_i4i's error bounds cover squared norms in this range: nothing in a
# score overflows, and underflow costs far less than the margin (_shortlist)
_SAFE_SQUARES = (2.0**-900, 2.0**900)
# the float32 filter's bound is proven for dimensions up to this (_shortlist)
_MAX_DIM32 = 2**16
# rank_i4o filters the cited panel, evaluate the same rows, and rank_i4i
# the input rows, when they hold at least this many entries (rows × dim);
# below, the exact product of every row is as fast or faster.  Sweeps of
# loaded models at dim 100, one BLAS thread on a 2-vCPU Xeon, medians of
# 400 interleaved queries in two runs.  rank_i4o, all cited, exact product
# against filter: 2,048 rows 159-182 against 205-243 µs; 4,096 rows 288-343
# against 303-340 µs; 6,144 rows 385-409 against 384-427 µs; 8,192 rows
# 517-541 against 479-522 µs; 20,000 rows 2,332-2,764 against 1,477-1,722
# µs.  rank_i4i, 23-word texts, whose fit takes most of a query and varied
# between the runs, the filter's median less the exact one's: 2,048 rows
# +39 and +74 µs; 4,096 rows +19 and +40 µs; 6,144 rows -30 and -37 µs;
# 8,192 rows -73 and -65 µs; 20,000 rows -331 and -336 µs.  The pipeline
# benchmark's model (336 × 100) and cited panel (320 × 100) are below, the
# serve benchmark's (50,000 × 100 and 19,984 × 100) above.
_FILTER_ENTRIES = 6144 * 100


def _slack32(dim: int) -> float:
    """How far a float32-filtered cosine may be from the exact one, with
    room for the roundings of ``_shortlist``'s rule; the proof is there."""
    return 1.01 * (dim + 2) * 2.0**-24


@dataclass(frozen=True)
class Query:
    """One recommendation query, already resolved to vocabulary indices."""

    case: int
    context_words: tuple[int, ...]
    structural_docs: frozenset[int] = frozenset()
    keep_prob: float = 0.5  # Case 2 only
    seed: int = 0  # Case 2 only

    def __post_init__(self):
        _check_int("case", self.case)
        _check_int("seed", self.seed)
        _check_float("keep_prob", self.keep_prob)
        if self.case not in CASES:
            raise ConfigError(f"case must be one of {CASES}, got {self.case}")
        if not 0.0 <= self.keep_prob <= 1.0:
            raise ConfigError(f"keep_prob must be in [0, 1], got {self.keep_prob}")


@dataclass
class RecommendationList:
    """Ranked (doc-id, score) pairs, at most the k asked for."""

    ranked: list[tuple[str, float]]
    unknown_words: int = 0  # words of recommend's text that the model lacks


def build_query_vector(model: Model, query: Query) -> np.ndarray:
    """Mean of the participating input vectors for the query's case.

    Case 1 keeps all structural docs, Case 2 keeps each independently with
    probability keep_prob under the query seed, Case 3 keeps none.
    """
    words = np.asarray(query.context_words, dtype=np.intp)
    if query.case == 3:
        kept_docs = np.asarray((), dtype=np.intp)
        if words.size == 0:
            raise QueryError("Case 3 query needs at least one known context word")
    else:
        docs = np.asarray(sorted(query.structural_docs), dtype=np.intp)
        if query.case == 2:
            rng = np.random.default_rng(int(query.seed) % 2**64)
            kept_docs = docs[rng.random(docs.size) < query.keep_prob]
        else:
            kept_docs = docs
    participants = np.concatenate(
        (model.matrices.word_in[words], model.matrices.doc_in[kept_docs]), axis=0
    )
    if participants.shape[0] == 0:
        raise QueryError("query has no participants")
    return participants.mean(axis=0)


def _check_k(k: int) -> None:
    _check_int("k", k)
    if k < 1:
        raise ConfigError(f"k must be >= 1, got {k}")


def _top_k(scores: np.ndarray, k: int, doc_list, columns: np.ndarray, exclude) -> np.ndarray:
    """The best k columns of the score row ``scores``, best first, none of
    the columns in ``exclude``; fewer when fewer are left.

    Column j holds the score of document ``columns[j]``.  Ties break by
    ascending doc id in ``doc_list``; the order is +inf, finite scores,
    -inf, then NaN by id.

    The row is partitioned once, at k plus the exclusion count: the
    entries at or above that place hold at least k that are not excluded,
    so the result is a full sort's.  Every such entry is a candidate, all
    those tied at the place included; when the place's key is NaN, every
    entry is.  The candidates are put in id order by one Python sort, then
    by score by a stable sort.
    """
    _check_k(k)
    place = k + len(exclude)
    kth = math.nan
    if place < scores.size:
        keys = np.negative(scores)  # ascending keys rank best first, NaN last
        keys.partition(place - 1)
        kth = -keys[place - 1]
    kept = np.ones(scores.size, dtype=bool) if math.isnan(kth) else scores >= kth
    kept[exclude] = False
    by_id = np.array(sorted(kept.nonzero()[0].tolist(), key=lambda j: doc_list[columns[j]]),
                     dtype=np.intp)
    return by_id[np.argsort(-scores[by_id], kind="stable")[:k]]


def _banned(model: Model, exclude) -> np.ndarray:
    """The indices of the doc ids in ``exclude``; ids the model does not
    know are ignored.  ConfigError for a ``str``, ``bytes``, anything not
    iterable, or an unhashable element."""
    if not isinstance(exclude, (str, bytes)):
        doc_ids = model.vocab.doc_ids
        try:
            return np.fromiter({doc_ids[d] for d in exclude if d in doc_ids}, dtype=np.intp)
        except TypeError:
            pass
    raise ConfigError(f"exclude must be a collection of doc ids, got {exclude!r}")


def _rank_row(model: Model, scores: np.ndarray, k: int, rows: np.ndarray, banned=()) -> RecommendationList:
    """``_top_k`` of one score row: ``scores[j]`` is the score of document
    ``rows[j]``, and the places in ``banned`` are never returned."""
    doc_list = model.vocab.doc_list
    ranked = _top_k(scores, k, doc_list, rows, np.asarray(banned, dtype=np.intp))
    return RecommendationList([(doc_list[rows[j]], float(scores[j])) for j in ranked.tolist()])


def _gather_panel(matrix: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """``matrix[rows]`` in one buffer, zero rows padding it to a multiple
    of ``PAD_ROWS``."""
    panel = np.empty((-(-rows.size // PAD_ROWS) * PAD_ROWS, matrix.shape[1]))
    np.take(matrix, rows, axis=0, out=panel[: rows.size], mode="clip")
    panel[rows.size :] = 0.0
    return panel


def _cited_panel(model: Model) -> tuple[np.ndarray, np.ndarray | None, np.ndarray, tuple | None]:
    """i4o's candidates: the indices of the documents cited in training,
    ascending; below ``_FILTER_ENTRIES`` entries, their output rows
    (``_gather_panel``), else None; every document's column among them, -1
    for a document never cited; and at or above it, in place of the rows,
    their float32 unit copy and norms (``_unit_rows``), the filter of
    rank_i4o and ``evaluate``, else None.  The output rows of the others
    never got a gradient.  Ranking makes a model's arrays read-only on its first query;
    to edit, assign ``model.matrices = model.matrices.copy()``.  All of
    this is built then, once, in one entry (``_reused``), so the first i4o
    query builds what ``evaluate`` reads."""
    def build():
        rows = np.flatnonzero(model.vocab.doc_cited_counts > 0)
        column = np.full(model.vocab.n_docs, -1, dtype=np.intp)
        column[rows] = np.arange(rows.size)
        doc_out = model.matrices.doc_out
        if rows.size * doc_out.shape[1] < _FILTER_ENTRIES:
            return rows, _gather_panel(doc_out, rows), column, None
        return rows, None, column, _unit_rows(doc_out, rows)
    return _reused(model, "cited panel", build)


def rank_i4o(model: Model, query_vector: np.ndarray, exclude=(), k: int = 10) -> RecommendationList:
    """Rank the documents cited in training by dot product of the query
    with their output vectors.  With fewer than k such documents left
    after the exclusions, the list holds only those.

    Each ``BLOCK_ROWS`` slice of the cited panel (``_cited_panel``) takes
    one matrix-vector product; the last slice ends in the panel's zero rows,
    at a multiple of ``PAD_ROWS``.  BLAS takes the rows past its kernel's
    last full tile of rows another way, and the padding keeps every cited
    row out of that tail: on one BLAS thread, a score is the same bits
    whichever documents are cited, and the same bits as in ``doc_out @
    query_vector`` for a row outside that product's tail (every row, when
    the document count is a multiple of ``PAD_ROWS``).  Ranking makes a
    model's arrays read-only on its first query; to edit, assign
    ``model.matrices = model.matrices.copy()``.  The panel is built on that
    query and kept; a large one, only as its filter.

    A large panel is filtered: each row's approximate dot product is its
    norm times the query's times the float32 cosine of its unit row with
    the query's (``_unit_rows``), within ``_slack32(dim)`` times those
    norms of the exact one, and only ``_shortlist``'s rows are gathered
    from ``doc_out`` and scored as above: whichever documents are in the panel, their
    scores are the same bits, and no other row can reach the top k.
    Raises ConfigError, before any work, for a bad ``k``, a query that is
    not of shape ``(dim,)`` or a bad ``exclude`` (``_banned``).
    """
    _check_k(k)
    query = np.asarray(query_vector, dtype=np.float64)
    if query.shape != (model.matrices.dim,):
        raise ConfigError(f"query_vector must have shape ({model.matrices.dim},), "
                          f"got {query.shape}")
    banned = _banned(model, exclude)
    rows, panel, column, unit_rows = _cited_panel(model)
    banned = column[banned]
    banned = banned[banned >= 0]
    if panel is None:
        units, norms = unit_rows
        query_unit, query_norm = _unit_rows(query[None])
        candidates = np.ones(rows.size, dtype=bool)
        candidates[banned] = False
        with np.errstate(all="ignore"):  # rows or a query out of range: NaN, every such row kept
            scale = norms * query_norm
            short = _shortlist(scale * (units @ query_unit[0]), _slack32(query.size) * scale,
                               candidates, k)
        rows, banned = rows[short], ()
        panel = _gather_panel(model.matrices.doc_out, rows)
    scores = np.empty(panel.shape[0])
    for start in range(0, panel.shape[0], BLOCK_ROWS):
        stop = start + BLOCK_ROWS
        np.matmul(panel[start:stop], query, out=scores[start:stop])
    return _rank_row(model, scores[: rows.size], k, rows, banned=banned)


def _unit_rows(matrix: np.ndarray, rows=None) -> tuple[np.ndarray, np.ndarray]:
    """A float32 copy of ``matrix[rows]`` (all of it for None) with every
    row scaled to unit norm, and the rows' norms in float64.  Each row is
    divided by its norm, the square root of its squared norm in float64,
    then rounded to float32 (``_shortlist`` bounds the error).  A row whose
    squared norm is outside ``_SAFE_SQUARES``, and every row when dim is
    above ``_MAX_DIM32``, is NaN in the copy: the bound does not cover it,
    and every float32 product with it is NaN.  Made ``BLOCK_ROWS`` rows at
    a time: no float64 temporary is larger than a block.
    """
    lo, hi = _SAFE_SQUARES
    n = matrix.shape[0] if rows is None else rows.size
    units = np.empty((n, matrix.shape[1]), dtype=np.float32)
    norms = np.empty(n)
    with np.errstate(all="ignore"):  # zero, tiny, huge and non-finite rows become NaN
        for start in range(0, n, BLOCK_ROWS):
            part = slice(start, start + BLOCK_ROWS)
            block = matrix[part] if rows is None else matrix[rows[part]]
            squares = np.einsum("ij,ij->i", block, block)
            np.sqrt(squares, out=norms[part])
            np.divide(block, norms[part, None], out=units[part])
            units[part][~((lo <= squares) & (squares <= hi))] = np.nan
    if matrix.shape[1] > _MAX_DIM32:
        units[:] = np.nan
    return units, norms


def _shortlist(approx: np.ndarray, slack, candidates: np.ndarray, k: int) -> np.ndarray:
    """The rows among ``candidates`` (a mask) whose exact score could be in
    the top k, in ascending order.

    The rule.  ``approx`` holds an approximate score a of every row, NaN
    for a row the bound does not cover, and else within h of the row's
    exact score e, h being the row's ``slack`` (one float for every row,
    or one per row), with room to spare for the roundings below.  Let tau
    be the k-th largest a - h among the candidates whose a is not NaN.  A
    row with a < tau - h has e <= a + h < tau, and each of the k candidates
    that set tau has e >= a - h >= tau: its exact score is strictly below
    theirs, no tie rule can put it in the top k, and it is dropped.  Every
    other candidate is kept.  A row whose a is NaN is always kept and never
    counted toward tau: its a bounds nothing.  With fewer than k candidates
    whose a is not NaN, tau is NaN and every candidate is kept.  The keys
    h - a, the exact negation of a - h, and tau - h are taken in float64,
    each within 2^-53 of its magnitude: the rows that set tau and the row
    compared pay for those roundings out of their room, which is far
    larger.

    The bounds.  Let x be a row, v the query, n = dim and
    c = x·v / (|x|·|v|).  For a unit roundoff r, a sum of n products, added
    in any order, with or without fused multiply-adds (which round a product
    and a sum once, not twice), is within
    gamma(r) · sum|products| of its exact value, gamma(r) = n·r / (1 - n·r)
    (Higham, "Accuracy and Stability of Numerical Algorithms", 2nd ed.,
    section 3.1).  U = 2^-53 and u = 2^-24 are float64's and float32's
    unit roundoffs.  Both rankings take a row's dot product d with v in
    float64, and the query's norm q as the square root of its sum of
    squares in float64, added in any order (``np.linalg.norm``'s for
    rank_i4i's exact scores, ``_unit_rows``'s for the filters): q is within
    a factor 1 ± (gamma(U) / 2 + 2U) of |v|, and d within gamma(U)·|x|·|v|
    of x·v, since sum |x_j·v_j| ≤ |x|·|v| (Cauchy-Schwarz).

    rank_i4i's exact score is e = d / (sqrt(t)·q), t being sum(x·x) as
    ``np.linalg.norm`` adds it, within a factor 1 ± gamma(U) of |x|²;
    d / (|x|·q), taken exactly, is at most 1 + 3·gamma(U) in magnitude.

    The float32 filter takes an approximate cosine a' as the float32
    product of the row's float32 unit copy w with the query's, p
    (``_unit_rows``).  w_j is x_j / sqrt(s) in float64, s = sum(x·x),
    within a factor 1 ± (gamma(U) / 2 + 2U) of x_j / |x|, then rounded, so
    w_j = (x_j / |x|)·(1 + f_j) + g_j with |f_j| ≤ (1 + 2^-12)·u = rho for
    n ≤ 2^16 and |g_j| below 2^-149, from underflow; p and v alike.  So
    w·p is within 2·rho + rho² of c, and the float32 sum within
    gamma(u)·(1 + rho)² of w·p, plus at most 2^-126 for each of its 2n
    operations that underflows or reads a subnormal, flushed to zero or
    not.  For n ≤ 2^16 that gives B = 1.0041·(n + 2)·u.

    rank_i4i takes a = a' and h = ``_slack32(n)`` = 1.01·(n + 2)·u.  e is
    within 2.01·(n + 2)·U of c (d, t and q as above, and four roundings),
    so |a - e| ≤ B + 2.01·(n + 2)·U, and h leaves room of more than
    0.005·(n + 2)·u against roundings of at most 2^-52.

    rank_i4o, for a large cited panel, scores e = d, the exact dot product
    of the output row.  It takes a = sqrt(s)·q·a' and
    h = ``_slack32(n)``·sqrt(s)·q, the norms multiplied first, each product
    rounded once.  sqrt(s)·q is within a factor 1 ± (gamma(U) + 4U) of
    |x|·|v|, so a is within (B + 2·gamma(U) + 8U)·|x|·|v| of x·v and of d,
    and h is at least (1.01·(n + 2)·u)·(1 - gamma(U) - 6U)·|x|·|v|: the
    room is again above 0.005·(n + 2)·u·|x|·|v|, and each rounding of
    a - h or tau - h is at most 2^-52 of the norms' product of the rows it
    comes from.  Neither bound depends on how BLAS orders or fuses the
    products.  ``evaluate`` compares with the same a' and h
    (``evaluation._near_places`` proves its rule).

    The ranges.  The bounds assume that nothing overflows and that
    underflow costs little.  They hold for rows with s in ``_SAFE_SQUARES``
    and a query whose sum of squares is there: every float64 product and
    sum is then at most about 2^900, an underflowing one errs by at most
    2^-1075, against room of 2^-31 or more of the norms' product and row
    and query norms of at least 2^-450, and every float32 value is at most
    about 1 in magnitude.  Only those rows and queries, and none when n is
    above 2^16, are finite in their copies.  Any other is NaN there, and
    so is its every product: a finite copy has an entry of at least n^-1/2
    in magnitude, so even a BLAS that skips zero entries multiplies the NaN
    by it.  So a is NaN wherever the bound does not hold.
    """
    keys = np.subtract(slack, approx, dtype=np.float64)
    keys[~candidates] = np.nan
    tau = math.nan
    if k <= keys.size:
        keys.partition(k - 1)  # ascending, NaN last
        tau = -keys[k - 1]
    return np.flatnonzero(candidates & ~(approx < tau - slack))


def _exact_dots(doc_in: np.ndarray, vector: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """``(doc_in @ vector)[rows]`` for ascending ``rows``, with the bits of
    the whole product on one BLAS thread: the rows are gathered into one
    panel padded to a multiple of ``PAD_ROWS`` (``_gather_panel``), so that
    none of them falls in the tail of rows that BLAS takes another way,
    except the rows in ``doc_in``'s last partial ``PAD_ROWS`` group, which
    are that tail in the whole product too and are taken from a product
    over that group."""
    tail = doc_in.shape[0] - doc_in.shape[0] % PAD_ROWS
    head = int(np.searchsorted(rows, tail))
    dots = np.empty(rows.size)
    dots[:head] = (_gather_panel(doc_in, rows[:head]) @ vector)[:head]
    if head < rows.size:
        dots[head:] = (doc_in[tail:] @ vector)[rows[head:] - tail]
    return dots


def rank_i4i(model: Model, context_words, exclude=(), k: int = 10) -> RecommendationList:
    """Infer a vector for the words, rank documents by cosine to their
    input vectors: dot / (row norm * query norm), with the dot products of
    ``doc_in @ vector`` and the norms of ``np.linalg.norm``.  Zero-norm
    rows score 0.

    Below ``_FILTER_ENTRIES`` entries in ``doc_in`` every row is scored:
    one matrix-vector product per ``BLOCK_ROWS`` slice of ``doc_in``, as
    rank_i4o scores its panel, and the row norms, taken on the first i4i
    query and kept (``_reused``).  At or above it, the approximate cosines
    of one float32 product of the input rows' unit copy (``_unit_rows``,
    made on the first i4i query and kept) with the query's, within
    ``_slack32`` of the exact ones, pick ``_shortlist``'s rows, and only
    those are scored, by ``_exact_dots``; the others cannot reach the top
    k.  Either way a score is the same bits.  Ranking makes a model's
    arrays read-only on its first query; to edit, assign
    ``model.matrices = model.matrices.copy()``.  Raises QueryError when the
    inferred vector's norm is 0 or not finite, and ConfigError, before any
    work, for a bad ``k``, word or ``exclude``."""
    _check_k(k)
    banned = _banned(model, exclude)
    inferred = infer_doc_vector(model, context_words)
    with np.errstate(over="ignore"):
        query_norm = float(np.linalg.norm(inferred))
    if not 0.0 < query_norm < math.inf:
        raise QueryError(f"inferred query vector has norm {query_norm}")
    doc_in = model.matrices.doc_in
    with np.errstate(all="ignore"):  # non-finite scores are ranked, not warned about
        if doc_in.size < _FILTER_ENTRIES:
            rows = np.arange(doc_in.shape[0])
            dots = np.empty(rows.size)
            for start in range(0, rows.size, BLOCK_ROWS):
                stop = start + BLOCK_ROWS
                np.matmul(doc_in[start:stop], inferred, out=dots[start:stop])
            norms = _reused(model, "row norms", lambda: np.linalg.norm(doc_in, axis=1))
        else:
            candidates = np.ones(doc_in.shape[0], dtype=bool)
            candidates[banned] = False
            units = _reused(model, "unit rows", lambda: _unit_rows(doc_in)[0])
            rows = _shortlist(units @ _unit_rows(inferred[None])[0][0],
                              _slack32(doc_in.shape[1]), candidates, k)
            banned = ()
            dots = _exact_dots(doc_in, inferred, rows)
            norms = np.linalg.norm(doc_in[rows], axis=1)
        scores = dots / (norms * query_norm)
    return _rank_row(model, np.where(norms > 0.0, scores, 0.0), k, rows, banned)


@dataclass
class ResolvedText:
    """Raw text mapped onto a model vocabulary."""

    word_indices: tuple[int, ...]
    marker_ids: list[str]  # citation markers, known or not, in order
    structural_docs: frozenset[int]
    unknown_words: int


def resolve_text(model: Model, raw_text: str) -> ResolvedText:
    """Split with the corpus token rule (``tokenize_text``'s, without
    making tokens) and map the tokens onto the vocabulary.

    Unknown words are dropped and counted; citation markers become the
    structural set (unknown markers cannot participate but are still
    reported for exclusion purposes).
    """
    word_indices: list[int] = []
    marker_ids: list[str] = []
    structural: set[int] = set()
    unknown_words = 0
    doc_ids, word_ids = model.vocab.doc_ids, model.vocab.word_ids
    for raw in raw_text.split():
        target = _cited_id(raw, None)
        if target is not None:
            marker_ids.append(target)
            doc_idx = doc_ids.get(target)
            if doc_idx is not None:
                structural.add(doc_idx)
        else:
            word_idx = word_ids.get(raw.lower())
            if word_idx is None:
                unknown_words += 1
            else:
                word_indices.append(word_idx)
    return ResolvedText(
        word_indices=tuple(word_indices),
        marker_ids=marker_ids,
        structural_docs=frozenset(structural),
        unknown_words=unknown_words,
    )


def recommend(model: Model, raw_text: str, case: int = 1, k: int = 10, keep_prob: float = 0.5,
              seed: int = 0) -> RecommendationList:
    """End-to-end recommendation for a piece of manuscript text.

    Citation markers `[[id]]` in the text form the structural context and
    are never recommended, in Case 3 too.  The list carries the count of
    unknown words, which are dropped.  Raises ConfigError, before a query
    is pooled, for a bad argument (``case``, ``k`` and ``seed`` must be
    ints, not bools), and QueryError, carrying that count, when nothing in
    the text is usable.
    """
    _check_k(k)
    Query(case=case, context_words=(), keep_prob=keep_prob, seed=seed)  # before the text
    resolved = resolve_text(model, raw_text)
    query = Query(case=case, context_words=resolved.word_indices,
                  structural_docs=resolved.structural_docs, keep_prob=keep_prob, seed=seed)
    try:
        query_vector = build_query_vector(model, query)
    except QueryError as exc:
        raise QueryError(
            f"no usable query participants in the text "
            f"({resolved.unknown_words} unknown words): {exc}",
            unknown_words=resolved.unknown_words,
        ) from None
    result = rank_i4o(model, query_vector, exclude=resolved.marker_ids, k=k)
    result.unknown_words = resolved.unknown_words
    return result
