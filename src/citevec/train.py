"""Two-step training: content pre-training, then citation training.

Step one fits plain content embeddings: every word is predicted from the
mean of its document's vector and the neighbouring words' input vectors.
Step two trains on citation relations: the hidden layer pools the citing
document, its co-cited documents, and the local context words, and the
cited document's output vector is pushed up against sampled noise
documents.  The "avg" variant pools with a uniform mean, the "att" variant
with softmax-normalized learned scores, one per document and word slot.

Both steps turn their examples into flat integer tables once per call
(``_Examples``) and feed them, ``BATCH`` examples at a time, to one
negative-sampling kernel, ``_ns_batch``, pointed at their own output
matrix: word_out in step one, doc_out in step two.  Within a batch every
example reads the parameters as they stood at the batch start and the
steps are applied together at its end (the Hogwild! staleness argument,
Recht et al. 2011, within one batch).  Inference (``infer_doc_vector``)
shares the kernel's output half, ``_ns_output``, and its batches.  Which
words form a window, for a word or a citation, is decided in ``corpus``.

All gradients are the exact derivatives of the sampled loss, including the
1/m factor the mean contributes, so they can be checked against finite
differences.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy.sparse import csc_matrix, csr_matrix
from scipy.special import expit

from .corpus import CitationRelation, HyperDocument, Vocabulary, _layout, _word_windows
from .errors import CitevecError, ConfigError
from .model import Model, ModelMatrices, init_matrices

# independent RNG streams, keyed off config.seed
_RNG_RETROFIT = 11
_RNG_CITATION = 21
_RNG_SHUFFLE = 22

_MAX_RESAMPLE = 100

# examples per kernel call; within a batch the updates see stale parameters
BATCH = 128


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
        """``n`` draws, less those equal to ``exclude``: one row of
        ``sample_rows``."""
        draws, kept = self.sample_rows(np.array([-1 if exclude is None else exclude]), n)
        return draws[0][kept[0]]

    def sample_rows(self, exclude: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
        """``n`` draws for each entry of ``exclude``, from one call.

        Returns the draws, shape ``(len(exclude), n)``, and the mask of those
        kept: row i never keeps ``exclude[i]``.  Colliding draws are redrawn,
        in place and in row-major order, a bounded number of times.
        """
        if n < 1:
            raise ConfigError(f"sample size must be >= 1, got {n}")
        draws = self._draw(exclude.size * n).reshape(exclude.size, n)
        colliding = draws == exclude[:, None]
        tries = 0
        while colliding.any() and tries < _MAX_RESAMPLE:
            draws[colliding] = self._draw(int(colliding.sum()))
            colliding = draws == exclude[:, None]
            tries += 1
        return draws, ~colliding


class _Examples(NamedTuple):
    """Flat index tables of one training pass, built once per call.

    Example i predicts output row ``targets[i]`` from the participants
    ``slots[offsets[i]:offsets[i + 1]]``.  A slot below n_docs is a doc_in
    row; slot n_docs + w is word_in row w.  Slots are also the attention
    ids.  Documents come first, in canonical order, then the words.
    """

    targets: np.ndarray
    offsets: np.ndarray
    slots: np.ndarray

    def take(self, order: np.ndarray) -> "_Examples":
        """The examples in ``order``, gathered from the flat tables."""
        lengths = np.diff(self.offsets)[order]
        offsets = np.zeros(order.size + 1, dtype=np.intp)
        np.cumsum(lengths, out=offsets[1:])
        index = np.repeat(self.offsets[order] - offsets[:-1], lengths)
        index += np.arange(offsets[-1])
        return _Examples(self.targets[order], offsets, self.slots[index])


def _content_examples(docs, vocab: Vocabulary, window: int) -> _Examples:
    """One example per word occurrence, in corpus order: the document and
    the word's window words (``corpus._word_windows``) predict the word."""
    words, starts, _ = _layout(docs)
    words = np.array([vocab.word_ids[w] for w in words], dtype=np.intp)
    offsets, positions = _word_windows(starts, window)
    doc_rows = np.array([vocab.doc_ids[doc.id] for doc in docs], dtype=np.intp)
    # the document slot goes in front of each example's window words
    slots = np.insert(vocab.n_docs + words[positions], offsets[:-1],
                      np.repeat(doc_rows, np.diff(starts)))
    return _Examples(words, offsets + np.arange(offsets.size), slots)


def _citation_examples(
    relations: list[CitationRelation], n_docs: int, structural_context: bool
) -> _Examples:
    """One example per relation: source, sorted structural docs, then the
    context words predict the target."""
    slots: list[int] = []
    offsets = [0]
    for r in relations:
        slots.append(r.source)
        if structural_context:
            slots += sorted(r.structural)
        slots += [n_docs + w for w in r.context]
        offsets.append(len(slots))
    targets = [r.target for r in relations]
    return _Examples(
        np.asarray(targets, dtype=np.intp),
        np.asarray(offsets, dtype=np.intp),
        np.asarray(slots, dtype=np.intp),
    )


def _ns_output(hidden, targets: np.ndarray, out: np.ndarray, sampler: NegativeSampler,
               negative: int, work: np.ndarray) -> tuple:
    """The output half of the negative-sampling step; ``out`` is only read.

    Hidden row i predicts row ``targets[i]`` of ``out`` against ``negative``
    noise rows, all drawn in one ``sample_rows`` call.  ``work`` is space of
    shape (2, rows, dim), rows at least ``len(targets) * (1 + negative)``.
    Returns the per-example loss, the live mask (examples that kept a
    negative; the others have loss 0 and a zero gradient row), the hidden
    gradient, the touched output rows, and their coefficients as a CSC
    matrix (touched row × example, target-then-negative order in a column).

    Per example, in this order: the scores are ``(row * hidden).sum()`` for
    the target and then each kept negative in draw order, and the loss,
    from zero, adds ``logaddexp`` of each; the hidden gradient is the sum,
    from zero, of coefficient * output row, the target's coefficient being
    ``expit(score) - 1`` and a negative's ``expit(score)``.
    """
    b = targets.size
    draws, kept = sampler.sample_rows(targets, negative)
    live = kept.any(axis=1)
    # output entries, per example: the target, then the kept negatives
    valid = np.concatenate((live[:, None], kept), axis=1)
    out_member, column = np.nonzero(valid)
    is_target = column == 0
    out_ptr = np.zeros(b + 1, dtype=np.intp)
    np.cumsum(valid.sum(axis=1), out=out_ptr[1:])
    out_ids = np.concatenate((targets[:, None], draws), axis=1)[valid]
    out_rows, out_inv = np.unique(out_ids, return_inverse=True)
    out_vecs = out[out_rows]

    # gathers write straight into ``work``: with ``out=`` mode "raise" would
    # copy through a temporary; the tables only hold valid indices
    scored = out_vecs.take(out_inv, axis=0, out=work[0, : out_inv.size], mode="clip")
    scored *= hidden.take(out_member, axis=0, out=work[1, : out_inv.size], mode="clip")
    dots = scored.sum(axis=1)
    # -log sigmoid(z) == logaddexp(0, -z), stable for large |z|
    losses = np.bincount(out_member, np.logaddexp(0.0, np.where(is_target, -dots, dots)), b)
    coeffs = expit(dots) - is_target
    grad_hidden = csr_matrix((coeffs, out_inv, out_ptr), shape=(b, out_rows.size)) @ out_vecs
    return losses, live, grad_hidden, out_rows, csc_matrix(
        (coeffs, out_inv, out_ptr), shape=(out_rows.size, b))


def _ns_batch(
    examples: _Examples,
    lo: int,
    hi: int,
    matrices: ModelMatrices,
    out: np.ndarray,
    sampler: NegativeSampler,
    lr: np.ndarray,
    negative: int,
    attention: bool,
    work: np.ndarray,
) -> tuple[float, int]:
    """In-place negative-sampling updates for examples [lo, hi); both
    training passes use it.

    ``out`` is the output matrix the targets and the negatives index:
    word_out for the content pass, doc_out for the citation pass.  ``lr``
    holds one learning rate per example.  ``attention`` pools with a
    softmax over each example's attention scores (and trains them) instead
    of the uniform mean.  ``work`` is working space of shape (3, rows, dim),
    rows at least the batch's slot count and ``(hi - lo) * (1 + negative)``.
    Returns the summed sampled loss before the update and the number of
    skipped examples: an example whose every negative collides with its
    target has loss 0 and changes nothing.

    Every forward pass reads the parameters as they stood at the batch
    start.  Per example, the hidden layer is the sum, from zero and in
    participant order, of weight * row; ``_ns_output`` states the scores,
    the loss and the hidden gradient.  Steps are ``(lr * coefficient) *
    hidden`` for output rows, ``(lr * weight) * hidden gradient`` for
    participant rows and ``lr * (weight * (projection - mean projection))``
    for attention scores.  Each touched row or score sums its steps from
    zero in example order, then participant (or target-then-negative)
    order, and the sum is subtracted once at the end of the batch.
    """
    b = hi - lo
    indptr = examples.offsets[lo : hi + 1]
    slots = examples.slots[indptr[0] : indptr[-1]]
    indptr = indptr - indptr[0]
    counts = np.diff(indptr)
    member = np.repeat(np.arange(b), counts)  # example of each participant

    rows, inv = np.unique(slots, return_inverse=True)
    n_docs = matrices.n_docs
    split = int(rows.searchsorted(n_docs))
    doc_rows, word_rows = rows[:split], rows[split:] - n_docs
    parts = work[0, : rows.size]
    matrices.doc_in.take(doc_rows, axis=0, out=parts[:split], mode="clip")
    matrices.word_in.take(word_rows, axis=0, out=parts[split:], mode="clip")
    if attention:
        scores = matrices.attention[slots]
        shifted = np.exp(scores - np.maximum.reduceat(scores, indptr[:-1])[member])
        weights = shifted / np.bincount(member, shifted, b)[member]
    else:
        weights = (1.0 / counts)[member]
    hidden = csr_matrix((weights, inv, indptr), shape=(b, rows.size)) @ parts

    losses, live, grad_hidden, out_rows, out_coeffs = _ns_output(
        hidden, examples.targets[lo:hi], out, sampler, negative, work[1:]
    )
    out_coeffs.data *= np.repeat(lr, np.diff(out_coeffs.indptr))  # (lr * coefficient)
    out[out_rows] -= out_coeffs @ hidden
    lr_in = lr[member]
    step = csc_matrix((lr_in * weights, inv, indptr), shape=(rows.size, b))
    if attention:
        projected = parts.take(inv, axis=0, out=work[1, : inv.size], mode="clip")
        projected *= grad_hidden.take(member, axis=0, out=work[2, : inv.size], mode="clip")
        projections = projected.sum(axis=1)
        mean = np.bincount(member, weights * projections, b)
        score_steps = lr_in * (weights * (projections - mean[member]))
        matrices.attention[rows] -= np.bincount(inv, score_steps, rows.size)
    parts -= step @ grad_hidden
    matrices.doc_in[doc_rows] = parts[:split]
    matrices.word_in[word_rows] = parts[split:]
    return float(losses.sum()), int(b - live.sum())


def _lr_at(update, total: int, learning_rate: float, min_lr: float):
    """Linear decay from learning_rate towards min_lr across all updates;
    ``update`` may be an array of update numbers."""
    return np.maximum(min_lr, learning_rate + (min_lr - learning_rate) * (update / total))


def _epoch(
    examples: _Examples,
    matrices: ModelMatrices,
    out: np.ndarray,
    sampler: NegativeSampler,
    first_update: int,
    total: int,
    config,
    attention: bool,
) -> tuple[float, int]:
    """One pass over the examples, ``BATCH`` at a time; returns the summed
    loss and the skipped count.  Example i is update ``first_update + i``."""
    n = examples.targets.size
    lr = _lr_at(np.arange(first_update, first_update + n), total,
                config.learning_rate, config.min_lr)
    # Every batch gathers into one buffer.  Fresh multi-megabyte temporaries
    # per batch made glibc trim the heap top and page it back in each time,
    # which halved the kernel's speed in some processes.
    batch_slots = np.diff(examples.offsets[np.append(np.arange(0, n, BATCH), n)])
    work = np.empty((3, max(batch_slots.max(), BATCH * (1 + config.negative)), matrices.dim))
    loss, skipped = 0.0, 0
    for lo in range(0, n, BATCH):
        hi = min(lo + BATCH, n)
        batch_loss, batch_skipped = _ns_batch(
            examples, lo, hi, matrices, out, sampler, lr[lo:hi], config.negative, attention,
            work,
        )
        loss += batch_loss
        skipped += batch_skipped
    return loss, skipped


@dataclass(frozen=True)
class ContentProgress:
    """One per-epoch progress record of the content pass."""

    epoch: int
    occurrences: int
    loss: float  # mean sampled loss per occurrence; skipped ones count 0
    skipped: int

    def record(self) -> str:
        return (
            f"phase=content epoch={self.epoch} loss={self.loss:.8g} "
            f"skipped={self.skipped}"
        )


def retrofit_pvdm(
    docs: list[HyperDocument],
    vocab: Vocabulary,
    config,
    on_epoch=None,
) -> ModelMatrices:
    """Step one: initialize fresh matrices and pre-train them on content.

    Runs ``config.retrofit_epochs`` passes over every word occurrence,
    predicting the word's output vector from the mean of the document
    vector and the window words, with negative word samples.  Populates
    word_in, word_out, and doc_in; doc_out stays zero for step two.
    With retrofit_epochs=0 the fresh initialization is returned unchanged.
    ``on_epoch`` receives a ``ContentProgress`` after every epoch.
    """
    matrices = init_matrices(vocab, config)
    if config.retrofit_epochs == 0:
        return matrices
    examples = _content_examples(docs, vocab, config.window)
    n = examples.targets.size
    if n == 0:
        return matrices
    sampler = NegativeSampler(vocab.word_counts, seed=[config.seed, _RNG_RETROFIT])
    total = config.retrofit_epochs * n
    for epoch in range(1, config.retrofit_epochs + 1):
        loss, skipped = _epoch(
            examples, matrices, matrices.word_out, sampler, (epoch - 1) * n, total,
            config, attention=False,
        )
        if on_epoch is not None:
            on_epoch(ContentProgress(epoch, n, loss / n, skipped))
    return matrices


@dataclass(frozen=True)
class TrainProgress:
    """One per-epoch progress record of the citation-training phase."""

    epoch: int
    relations_seen: int
    current_lr: float
    running_loss: float  # mean sampled loss per relation; skipped ones count 0
    skipped: int

    def record(self) -> str:
        return (
            f"epoch={self.epoch} seen={self.relations_seen} "
            f"lr={self.current_lr:.8g} loss={self.running_loss:.8g} skipped={self.skipped}"
        )


def train(
    model: Model,
    relations: list[CitationRelation],
    docs: list[HyperDocument],
    on_progress=None,
    on_content=None,
) -> tuple[Model, list[TrainProgress]]:
    """Run both learning steps in place; returns the model and progress.

    Step two makes ``iterations`` shuffled passes over the relations with a
    linearly decaying learning rate.  The relations' flat tables are built
    once per call; each epoch gathers them in its shuffled order.
    ``on_progress`` receives each citation epoch's ``TrainProgress``,
    ``on_content`` each content epoch's ``ContentProgress``.  The result is
    bit-reproducible per seed.
    """
    if not relations:
        raise ConfigError("cannot train on an empty relation list")
    config = model.config
    model.matrices = retrofit_pvdm(docs, model.vocab, config, on_epoch=on_content)
    matrices = model.matrices

    examples = _citation_examples(relations, matrices.n_docs, config.structural_context)
    # the trailing 0 keeps the noise stream that earlier releases drew from
    sampler = NegativeSampler(model.vocab.doc_cited_counts, seed=[config.seed, _RNG_CITATION, 0])
    shuffle_rng = np.random.default_rng([config.seed, _RNG_SHUFFLE])
    n = len(relations)
    total = config.iterations * n
    progress: list[TrainProgress] = []
    seen = 0

    for epoch in range(1, config.iterations + 1):
        order = shuffle_rng.permutation(n)
        loss_sum, skipped = _epoch(
            examples.take(order), matrices, matrices.doc_out, sampler, (epoch - 1) * n,
            total, config, attention=config.variant == "att",
        )

        if not matrices.all_finite():
            raise CitevecError(f"non-finite model parameters after epoch {epoch}")
        seen += n
        entry = TrainProgress(
            epoch=epoch,
            relations_seen=seen,
            current_lr=float(_lr_at(epoch * n - 1, total, config.learning_rate, config.min_lr)),
            running_loss=loss_sum / n,
            skipped=skipped,
        )
        progress.append(entry)
        if on_progress is not None:
            on_progress(entry)

    model.trained_epochs = config.iterations
    return model, progress
