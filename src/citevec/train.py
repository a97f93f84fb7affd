"""Two-step training: content pre-training, then citation training.

Step one fits plain content embeddings: every word is predicted from the
mean of its document's vector and the neighbouring words' input vectors.
Step two trains on citation relations: the hidden layer pools the citing
document, its co-cited documents, and the local context words, and the
cited document's output vector is pushed up against sampled noise
documents.  The "avg" variant pools with a uniform mean, the "att" variant
with softmax-normalized learned scores, one per document and word slot.
Both steps apply the same negative-sampling update, ``_ns_step``, to their
own output matrix: word_out in step one, doc_out in step two.

All gradients are the exact derivatives of the sampled loss, including the
1/m factor the mean contributes, so they can be checked against finite
differences.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy.special import expit

from .corpus import CitationRelation, HyperDocument, Vocabulary, _window_context
from .errors import CitevecError, ConfigError
from .model import Model, ModelMatrices, init_matrices

# independent RNG streams, keyed off config.seed
_RNG_RETROFIT = 11
_RNG_CITATION = 21
_RNG_SHUFFLE = 22

_MAX_RESAMPLE = 100


class NegativeSampler:
    """Draws noise indices with probability proportional to count^power.

    Zero-count items get zero mass.  Draws that collide with an excluded
    index are redrawn a bounded number of times and then dropped, so the
    returned batch may be shorter than requested.
    """

    def __init__(self, counts, seed, power: float = 0.75):
        counts = np.asarray(counts, dtype=np.float64)
        if counts.ndim != 1 or counts.size == 0:
            raise ConfigError("sampler needs a non-empty 1-D count array")
        if (counts < 0).any():
            raise ConfigError("sampler counts must be nonnegative")
        weights = counts**power
        total = weights.sum()
        if not total > 0:
            raise CitevecError("cannot build a noise distribution: all counts are zero")
        self.probabilities = weights / total
        self.cumulative = np.cumsum(self.probabilities)
        self.cumulative[-1] = 1.0  # guard against cumulative rounding
        self.rng = np.random.default_rng(seed)

    def _draw(self, n: int) -> np.ndarray:
        return self.cumulative.searchsorted(self.rng.random(n), side="right")

    def sample(self, n: int, exclude: int | None = None) -> np.ndarray:
        if n < 1:
            raise ConfigError(f"sample size must be >= 1, got {n}")
        draws = self._draw(n)
        if exclude is None or exclude not in draws.tolist():
            return draws
        colliding = draws == exclude
        tries = 0
        while colliding.any() and tries < _MAX_RESAMPLE:
            draws[colliding] = self._draw(int(colliding.sum()))
            colliding = draws == exclude
            tries += 1
        return draws[draws != exclude]


def _softmax(scores: np.ndarray) -> np.ndarray:
    shifted = np.exp(scores - scores.max())
    return shifted / shifted.sum()


def ns_loss_and_grads(hidden, target_out, negatives_out):
    """Negative-sampling loss and its exact gradients.

    loss = -log sigmoid(hidden . target) - sum_i log sigmoid(-hidden . negative_i)
    Returns (loss, grad wrt hidden, grad wrt target row, grads wrt negative rows).
    """
    hidden = np.asarray(hidden, dtype=np.float64)
    target_out = np.asarray(target_out, dtype=np.float64)
    negatives_out = np.asarray(negatives_out, dtype=np.float64)
    if negatives_out.ndim == 1:
        negatives_out = negatives_out[None, :]

    pos_dot = hidden @ target_out
    neg_dots = negatives_out @ hidden
    # -log sigmoid(z) == logaddexp(0, -z), stable for large |z|
    loss = np.logaddexp(0.0, -pos_dot) + np.logaddexp(0.0, neg_dots).sum()

    pos_coeff = expit(pos_dot) - 1.0
    neg_coeffs = expit(neg_dots)
    grad_hidden = pos_coeff * target_out + neg_coeffs @ negatives_out
    grad_target = pos_coeff * hidden
    grad_negatives = neg_coeffs[:, None] * hidden[None, :]
    return float(loss), grad_hidden, grad_target, grad_negatives


class _UpdateTables(NamedTuple):
    """Index arrays of one update, built once per training pass.

    The participants are ``doc_rows`` of doc_in followed by ``ctx`` of
    word_in.  ``slots`` is set for the "att" variant and ``weights`` (the
    uniform mean) otherwise.  ``distinct`` says that no participant row
    repeats.
    """

    target: int
    doc_rows: np.ndarray
    ctx: np.ndarray
    slots: np.ndarray | None
    weights: np.ndarray | None
    distinct: bool


def _update_tables(
    relation: CitationRelation, n_docs: int, variant: str, structural_context: bool
) -> _UpdateTables:
    """Participants in canonical order: source, sorted structural, words."""
    doc_ids = [relation.source] + (sorted(relation.structural) if structural_context else [])
    doc_rows = np.asarray(doc_ids, dtype=np.intp)
    ctx = np.asarray(relation.context, dtype=np.intp)
    slots = weights = None
    if variant == "att":
        slots = np.concatenate((doc_rows, n_docs + ctx))
    else:
        m = doc_rows.size + ctx.size
        weights = np.full(m, 1.0 / m)
    distinct = len(set(doc_ids)) == doc_rows.size and len(set(relation.context)) == ctx.size
    return _UpdateTables(relation.target, doc_rows, ctx, slots, weights, distinct)


def _ns_step(
    tables: _UpdateTables,
    matrices: ModelMatrices,
    out: np.ndarray,
    sampler: NegativeSampler,
    lr: float,
    negative: int,
) -> float:
    """One in-place negative-sampling update; both training passes use it.

    ``out`` is the output matrix the target and the negatives index:
    word_out for the content pass, doc_out for the citation pass.  Returns
    the sampled loss before the update.  If every negative draw collides
    with the target the update is skipped and the loss is 0.

    The loss and gradients are those of ``ns_loss_and_grads``, computed
    inline.  The rows gathered for the forward pass are updated and written
    back with plain indexed assignment when they are distinct; ``ufunc.at``
    is used only when a negative or a participant row repeats.  Both give
    the same float64 sums in the same order.
    """
    target, doc_rows, ctx, slots, weights, distinct = tables
    doc_in, word_in = matrices.doc_in, matrices.word_in

    parts = np.concatenate((doc_in.take(doc_rows, axis=0), word_in.take(ctx, axis=0)))
    if slots is not None:
        weights = _softmax(matrices.attention.take(slots))
    hidden = weights.dot(parts)

    negatives = sampler.sample(negative, exclude=target)
    n = negatives.size
    if n == 0:
        return 0.0
    # ns_loss_and_grads inlined over the output rows: the target, then the negatives
    out_rows = np.empty(1 + n, dtype=np.intp)
    out_rows[0] = target
    out_rows[1:] = negatives
    out_vecs = out.take(out_rows, axis=0)
    target_out, negatives_out = out_vecs[0], out_vecs[1:]
    pos_dot = hidden.dot(target_out)
    neg_dots = negatives_out.dot(hidden)
    loss = np.logaddexp(0.0, -pos_dot) + np.logaddexp(0.0, neg_dots).sum()
    coeffs = np.empty(1 + n)
    coeffs[0] = expit(pos_dot) - 1.0
    coeffs[1:] = expit(neg_dots)
    grad_hidden = coeffs[0] * target_out + coeffs[1:].dot(negatives_out)

    out_steps = np.multiply.outer(coeffs, hidden)
    out_steps *= -lr
    if len(set(negatives.tolist())) == n:
        out_vecs += out_steps
        out[out_rows] = out_vecs
    else:
        np.add.at(out, out_rows, out_steps)  # a negative was drawn twice

    # each participant receives its share of the hidden-layer gradient; with
    # uniform weights every share is the same row
    d = doc_rows.size
    if slots is None:
        in_steps = word_steps = (lr * weights[0]) * grad_hidden
    else:
        projections = parts.dot(grad_hidden)
        mean_projection = weights.dot(projections)
        score_steps = lr * (weights * (projections - mean_projection))
        in_steps = np.multiply.outer(lr * weights, grad_hidden)
        word_steps = in_steps[d:]
    parts -= in_steps  # the gathered participant rows, updated
    doc_in[doc_rows] = parts[:d]
    if distinct:
        word_in[ctx] = parts[d:]
        if slots is not None:
            matrices.attention[slots] -= score_steps
    else:  # a context word repeats: accumulate its shares in order
        np.subtract.at(word_in, ctx, word_steps)
        if slots is not None:
            np.subtract.at(matrices.attention, slots, score_steps)
    return float(loss)


def _lr_at(update: int, total: int, learning_rate: float, min_lr: float) -> float:
    """Linear decay from learning_rate towards min_lr across all updates."""
    if total <= 0:
        return learning_rate
    fraction = update / total
    return max(min_lr, learning_rate + (min_lr - learning_rate) * fraction)


def _content_positions(docs, vocab, window) -> list[_UpdateTables]:
    """One mean-pooled update per word occurrence: the document and the
    window words predict the word."""
    positions = []
    uniform: dict[int, np.ndarray] = {}  # one shared weight vector per size
    for doc in docs:
        doc_rows = np.asarray([vocab.doc_ids[doc.id]], dtype=np.intp)
        for i, token in enumerate(doc.tokens):
            if token.is_cite:
                continue
            ctx_ids = [vocab.word_ids[w] for w in _window_context(doc.tokens, i, window)]
            m = 1 + len(ctx_ids)
            if m not in uniform:
                uniform[m] = np.full(m, 1.0 / m)
            positions.append(
                _UpdateTables(
                    vocab.word_ids[token.value],
                    doc_rows,
                    np.asarray(ctx_ids, dtype=np.intp),
                    None,
                    uniform[m],
                    len(set(ctx_ids)) == len(ctx_ids),
                )
            )
    return positions


def retrofit_pvdm(
    docs: list[HyperDocument],
    vocab: Vocabulary,
    config,
    loss_log: list[float] | None = None,
) -> ModelMatrices:
    """Step one: initialize fresh matrices and pre-train them on content.

    Runs ``config.retrofit_epochs`` passes over every word occurrence,
    predicting the word's output vector from the mean of the document
    vector and the window words, with negative word samples.  Populates
    word_in, word_out, and doc_in; doc_out stays zero for step two.
    With retrofit_epochs=0 the fresh initialization is returned unchanged.
    """
    matrices = init_matrices(vocab, config)
    if config.retrofit_epochs == 0:
        return matrices
    positions = _content_positions(docs, vocab, config.window)
    if not positions:
        return matrices
    sampler = NegativeSampler(vocab.word_counts, seed=[config.seed, _RNG_RETROFIT])
    total = config.retrofit_epochs * len(positions)
    update = 0
    for _ in range(config.retrofit_epochs):
        epoch_loss = 0.0
        for tables in positions:
            lr = _lr_at(update, total, config.learning_rate, config.min_lr)
            update += 1
            epoch_loss += _ns_step(
                tables, matrices, matrices.word_out, sampler, lr, config.negative
            )
        if loss_log is not None:
            loss_log.append(epoch_loss / len(positions))
    return matrices


@dataclass(frozen=True)
class TrainProgress:
    """One per-epoch progress record of the citation-training phase."""

    epoch: int
    relations_seen: int
    current_lr: float
    running_loss: float

    def record(self) -> str:
        return (
            f"epoch={self.epoch} seen={self.relations_seen} "
            f"lr={self.current_lr:.8g} loss={self.running_loss:.8g}"
        )


def train(
    model: Model,
    relations: list[CitationRelation],
    docs: list[HyperDocument],
    on_progress=None,
) -> tuple[Model, list[TrainProgress]]:
    """Run both learning steps in place; returns the model and progress.

    Step two makes ``iterations`` shuffled passes over the relations with a
    linearly decaying learning rate.  Each relation's index tables are built
    once per call and reused by every epoch; ``ufunc.at`` scatters run only
    for updates whose rows repeat.  The result is bit-reproducible per seed.
    """
    if not relations:
        raise ConfigError("cannot train on an empty relation list")
    config = model.config
    model.matrices = retrofit_pvdm(docs, model.vocab, config)
    matrices = model.matrices

    tables = [
        _update_tables(r, matrices.n_docs, config.variant, config.structural_context)
        for r in relations
    ]
    # the trailing 0 keeps the noise stream that earlier releases drew from
    sampler = NegativeSampler(model.vocab.doc_cited_counts, seed=[config.seed, _RNG_CITATION, 0])
    shuffle_rng = np.random.default_rng([config.seed, _RNG_SHUFFLE])
    n = len(relations)
    total = config.iterations * n
    progress: list[TrainProgress] = []
    seen = 0

    for epoch in range(1, config.iterations + 1):
        order = shuffle_rng.permutation(n)
        loss_sum = 0.0
        for pos, index in enumerate(order.tolist(), (epoch - 1) * n):
            lr = _lr_at(pos, total, config.learning_rate, config.min_lr)
            loss_sum += _ns_step(
                tables[index], matrices, matrices.doc_out, sampler, lr, config.negative
            )

        if not matrices.all_finite():
            raise CitevecError(f"non-finite model parameters after epoch {epoch}")
        seen += n
        entry = TrainProgress(
            epoch=epoch,
            relations_seen=seen,
            current_lr=_lr_at(epoch * n - 1, total, config.learning_rate, config.min_lr),
            running_loss=loss_sum / n,
        )
        progress.append(entry)
        if on_progress is not None:
            on_progress(entry)

    model.trained_epochs = config.iterations
    return model, progress
