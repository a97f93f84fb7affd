"""Two-step training: content pre-training, then citation training.

Step one fits plain content embeddings: every word is predicted from the
mean of its document's vector and the neighbouring words' input vectors.
Step two trains on citation relations: the hidden layer pools the citing
document, its co-cited documents, and the local context words, and the
cited document's output vector is pushed up against sampled noise
documents.  The "avg" variant pools with a uniform mean, the "att" variant
with softmax-normalized learned scores, one per document and word slot.

Both steps turn their examples into flat integer tables once per call
(``_Examples``), from the corpus's own arrays: the content pass from the
documents' codes laid end to end (``corpus._layout``), the citation pass
from a ``relations.RelationTable``, or from a list of CitationRelation
flattened once.  They run their epochs through one loop, ``_run_pass``,
which checks the parameters stay finite and reports each epoch as one
``TrainProgress``.  An epoch feeds the tables, ``BATCH`` examples at a
time, to one negative-sampling kernel, ``_ns_batch``, pointed at the
step's own output matrix: word_out in step one, doc_out in step two.
Within a batch every example reads the parameters as they stood at the
batch start and the steps are applied together at its end (the Hogwild!
staleness argument, Recht et al. 2011, within one batch).  Inference
(``infer_doc_vector``) shares the kernel's output half, ``_ns_output``,
and its batches.  That half does only what both need: it draws the noise,
scores every output entry and returns the entry table with the output row
it gathered for each entry.  Each caller folds those rows its own way:
``_ns_batch`` into the hidden gradient, and from the table the losses, the
touched output rows and their steps, which are training's alone;
inference straight into its one vector.  Which words form a window, for a
word or a citation, is decided in ``corpus``.

All gradients are the exact derivatives of the sampled loss, including the
1/m factor the mean contributes, so they can be checked against finite
differences.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .corpus import HyperDocument, Vocabulary, _layout, _word_windows
from .relations import CitationRelation, _relation_table, _runs
from .errors import CitevecError, ConfigError
from .model import Model, ModelMatrices, init_matrices

# independent RNG streams, keyed off config.seed
_RNG_RETROFIT = 11
_RNG_CITATION = 21
_RNG_SHUFFLE = 22

_MAX_RESAMPLE = 100
# noise mass is count ** _NOISE_POWER (word2vec's unigram^0.75)
_NOISE_POWER = 0.75

# examples per kernel call; within a batch the updates see stale parameters
BATCH = 128


def _noise_table(counts) -> np.ndarray:
    """The noise distribution over ``counts`` as cumulative probabilities:
    item i's probability is count_i^0.75 over the sum of them all."""
    counts = np.asarray(counts, dtype=np.float64)
    if counts.ndim != 1 or counts.size == 0:
        raise ConfigError("sampler needs a non-empty 1-D count array")
    if (counts < 0).any():
        raise ConfigError("sampler counts must be nonnegative")
    weights = counts**_NOISE_POWER
    total = weights.sum()
    if not total > 0:
        raise CitevecError("cannot build a noise distribution: all counts are zero")
    cumulative = np.cumsum(weights / total)
    cumulative[-1] = 1.0  # guard against cumulative rounding
    return cumulative


class NegativeSampler:
    """Draws noise indices with probability proportional to count^0.75.

    Zero-count items get zero mass.  Draws that collide with an excluded
    index are redrawn a bounded number of times and then dropped, so the
    returned batch may be shorter than requested.  ``cumulative``, when
    given, is the ``_noise_table(counts)`` a caller kept; it is only read.
    """

    def __init__(self, counts, seed, cumulative=None):
        self.cumulative = _noise_table(counts) if cumulative is None else cumulative
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
        return _Examples(self.targets[order], offsets,
                         self.slots[_runs(self.offsets[order], lengths)])


def _content_examples(docs, vocab: Vocabulary, window: int) -> _Examples:
    """One example per word occurrence, in corpus order: the document and
    the word's window words (``corpus._word_windows``) predict the word.
    Raises ConfigError naming the first word or doc id ``vocab`` lacks."""
    lay = _layout(docs, vocab)
    if (lay.sources < 0).any():
        raise ConfigError(f"doc id {docs[int(lay.sources.argmin())].id!r} is not in the vocabulary")
    if (lay.words < 0).any():
        raise ConfigError(f"word {lay.name(False, int(lay.words.argmin()))!r} is not in the vocabulary")
    offsets, positions = _word_windows(lay.starts, window)
    # the document slot goes in front of each example's window words
    slots = np.insert(vocab.n_docs + lay.words[positions], offsets[:-1],
                      np.repeat(lay.sources, np.diff(lay.starts)))
    return _Examples(lay.words, offsets + np.arange(offsets.size), slots)


def _citation_examples(
    relations: Sequence[CitationRelation], n_docs: int, n_words: int, structural_context: bool
) -> _Examples:
    """One example per relation: source, sorted structural docs (when
    used), then the context words predict the target.  Raises ConfigError
    naming the first relation with no source or with an id outside the
    vocabulary (``relations._relation_table``), unused structural docs too."""
    targets, _, sources, n_context, words, n_structural, docs = _relation_table(
        relations, n_docs, n_words, sourced=True)
    if not structural_context:
        n_structural, docs = 0 * n_structural, docs[:0]
    offsets = np.zeros(len(relations) + 1, dtype=np.intp)
    np.cumsum(1 + n_structural + n_context, out=offsets[1:])
    slots = np.empty(offsets[-1], dtype=np.intp)
    slots[offsets[:-1]] = sources
    slots[_runs(offsets[:-1] + 1, n_structural)] = docs
    slots[_runs(offsets[1:] - n_context, n_context)] = n_docs + words
    return _Examples(targets.astype(np.intp), offsets, slots)


class _Entries(NamedTuple):
    """The output entries of one ``_ns_output`` call, per example the target
    and then its kept negatives in draw order; example i owns entries
    ``ptr[i]:ptr[i + 1]`` (none when it kept no negative)."""

    example: np.ndarray
    ids: np.ndarray  # the output row each entry scores
    is_target: np.ndarray
    scores: np.ndarray
    coeffs: np.ndarray
    ptr: np.ndarray


def _ns_output(hidden, targets: np.ndarray, out: np.ndarray, sampler: NegativeSampler,
               negative: int, work: np.ndarray) -> tuple[np.ndarray, _Entries, np.ndarray]:
    """The output half of the negative-sampling step: what training and
    inference both need; ``out`` is only read.

    Hidden row i predicts row ``targets[i]`` of ``out`` against ``negative``
    noise rows, all drawn in one ``sample_rows`` call.  ``work`` is space of
    shape (2, rows, dim), rows at least ``len(targets) * (1 + negative)``.
    Returns the live mask (examples that kept a negative; the others have
    no entry), the entries (``_Entries``) and the output rows, one per
    entry, gathered into ``work[0]``.  The hidden gradient, the losses, the
    touched rows and the output steps are training's alone, and
    ``_ns_batch`` derives them from the entries and the rows.

    Per example, in this order: the scores are ``(row * hidden).sum()`` for
    the target and then each kept negative; the coefficient is
    ``expit(score) - 1`` for the target and ``expit(score)`` for a negative.
    """
    # scipy is imported where it is used: ranking and the CLI's other
    # commands never load it
    from scipy.special import expit

    b = targets.size
    draws, kept = sampler.sample_rows(targets, negative)
    live = kept.any(axis=1)
    valid = np.concatenate((live[:, None], kept), axis=1)
    example, column = np.nonzero(valid)
    is_target = column == 0
    ptr = np.zeros(b + 1, dtype=np.intp)
    np.cumsum(valid.sum(axis=1), out=ptr[1:])
    ids = np.concatenate((targets[:, None], draws), axis=1)[valid]

    # gathers write straight into ``work``: with ``out=`` mode "raise" would
    # copy through a temporary; the tables only hold valid indices
    n = ids.size
    rows = out.take(ids, axis=0, out=work[0, :n], mode="clip")
    scored = hidden.take(example, axis=0, out=work[1, :n], mode="clip")
    scored *= rows
    scores = scored.sum(axis=1)
    coeffs = expit(scores) - is_target
    return live, _Entries(example, ids, is_target, scores, coeffs, ptr), rows


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
    participant order, of weight * row; ``_ns_output`` states the scores
    and the coefficients, and the hidden gradient is the sum, from zero and
    in entry order, of coefficient * output row (zero for a skipped
    example).  An example's loss adds, from zero and in entry order,
    ``logaddexp(0, -score)`` for the target and ``logaddexp(0, score)`` for
    each negative.  Steps are ``(lr * coefficient) * hidden`` for output
    rows, ``(lr * weight) * hidden gradient`` for participant rows and
    ``lr * (weight * (projection - mean projection))`` for attention
    scores.  Each touched row or score sums its steps from zero in example
    order, then participant (or target-then-negative) order, and the sum is
    subtracted once at the end of the batch.
    """
    from scipy.sparse import csc_array, csr_array  # as in _ns_output

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
    hidden = csr_array((weights, inv, indptr), shape=(b, rows.size)) @ parts

    live, entries, gathered = _ns_output(
        hidden, examples.targets[lo:hi], out, sampler, negative, work[1:]
    )
    # one gathered row per entry, so the products are summed in entry order
    grad_hidden = csr_array((entries.coeffs, np.arange(entries.ids.size), entries.ptr),
                            shape=(b, entries.ids.size)) @ gathered
    # -log sigmoid(z) == logaddexp(0, -z), stable for large |z|
    scores = entries.scores
    losses = np.bincount(entries.example,
                         np.logaddexp(0.0, np.where(entries.is_target, -scores, scores)), b)
    out_rows, out_inv = np.unique(entries.ids, return_inverse=True)
    out_steps = entries.coeffs * np.repeat(lr, np.diff(entries.ptr))  # (lr * coefficient)
    out[out_rows] -= csc_array((out_steps, out_inv, entries.ptr),
                               shape=(out_rows.size, b)) @ hidden
    lr_in = lr[member]
    step = csc_array((lr_in * weights, inv, indptr), shape=(rows.size, b))
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
class TrainProgress:
    """One per-epoch progress record of either training pass; the callback
    that receives it tells which pass it came from."""

    epoch: int
    seen: int  # the pass's examples so far: word occurrences or relations
    current_lr: float  # the schedule at the epoch's last update
    running_loss: float  # mean sampled loss per example; skipped ones count 0
    skipped: int

    def record(self) -> str:
        return (
            f"epoch={self.epoch} seen={self.seen} "
            f"lr={self.current_lr:.8g} loss={self.running_loss:.8g} skipped={self.skipped}"
        )


def _run_pass(name: str, examples: _Examples, matrices: ModelMatrices, out: np.ndarray,
              sampler: NegativeSampler, epochs: int, config, attention: bool, shuffle_rng,
              on_epoch) -> list[TrainProgress]:
    """``epochs`` passes over the examples, in ``shuffle_rng``'s order per
    epoch (corpus order without one), with one linear learning-rate decay
    across all of them.  After every epoch the parameters must be finite;
    ``on_epoch`` then receives the epoch's ``TrainProgress``."""
    n = examples.targets.size
    total = epochs * n
    progress: list[TrainProgress] = []
    for epoch in range(1, epochs + 1):
        ordered = examples if shuffle_rng is None else examples.take(shuffle_rng.permutation(n))
        loss, skipped = _epoch(ordered, matrices, out, sampler, (epoch - 1) * n, total, config,
                               attention)
        if not matrices.all_finite():
            raise CitevecError(f"non-finite model parameters after {name} epoch {epoch}")
        lr = float(_lr_at(epoch * n - 1, total, config.learning_rate, config.min_lr))
        progress.append(TrainProgress(epoch, epoch * n, lr, loss / n, skipped))
        if on_epoch is not None:
            on_epoch(progress[-1])
    return progress


def retrofit_pvdm(model: Model, docs: list[HyperDocument], on_epoch=None) -> ModelMatrices:
    """Step one: give the model fresh matrices and pre-train them on
    content, with its vocabulary and config; returns the fresh set.

    Runs ``config.retrofit_epochs`` passes over every word occurrence, in
    corpus order, predicting the word's output vector from the mean of the
    document vector and the window words, with negative word samples.
    Populates word_in, word_out, and doc_in; doc_out stays zero for step
    two.  With retrofit_epochs=0 the fresh initialization is left
    unchanged.  ``on_epoch`` receives a ``TrainProgress`` after every epoch.
    The model lets go of its matrices once the documents have been checked,
    before the fresh set is allocated, so the two sets are never held
    together.
    """
    vocab, config = model.vocab, model.config
    examples = _content_examples(docs, vocab, config.window) if config.retrofit_epochs else None
    model.matrices = model._frozen = None
    matrices = model.matrices = init_matrices(vocab, config)
    if examples is None or examples.targets.size == 0:
        return matrices
    sampler = NegativeSampler(vocab.word_counts, seed=[config.seed, _RNG_RETROFIT])
    _run_pass("content", examples, matrices, matrices.word_out, sampler,
              config.retrofit_epochs, config, attention=False, shuffle_rng=None,
              on_epoch=on_epoch)
    return matrices


def train(
    model: Model,
    relations: Sequence[CitationRelation],
    docs: list[HyperDocument],
    on_progress=None,
    on_content=None,
) -> tuple[Model, list[TrainProgress]]:
    """Run both learning steps in place; returns the model and the citation
    pass's progress.

    Step two makes ``iterations`` shuffled passes over the relations (a
    ``relations.RelationTable``, as ``extract_relations`` returns, or a list of
    CitationRelation) with a linearly decaying learning rate.  The
    relations' flat tables are built, and they and the documents are
    checked against the vocabulary, before anything trains: a ConfigError
    leaves ``model.matrices`` as it was.  After the checks the model lets
    go of its matrices and holds the fresh set that step one trains
    (``retrofit_pvdm``).  A pass that diverges raises CitevecError and
    leaves the model holding its matrices as they stood after the epoch
    that diverged, with non-finite values, and ``trained_epochs``
    unchanged.  Each citation epoch gathers the tables in its shuffled
    order.  ``on_progress`` receives each citation epoch's
    ``TrainProgress``, ``on_content`` each content epoch's.  The result is
    bit-reproducible per seed.
    """
    if not relations:
        raise ConfigError("cannot train on an empty relation list")
    config = model.config
    examples = _citation_examples(relations, model.vocab.n_docs, model.vocab.n_words,
                                  config.structural_context)
    matrices = retrofit_pvdm(model, docs, on_epoch=on_content)
    # the trailing 0 keeps the noise stream that earlier releases drew from
    sampler = NegativeSampler(model.vocab.doc_cited_counts, seed=[config.seed, _RNG_CITATION, 0])
    progress = _run_pass(
        "citation", examples, matrices, matrices.doc_out, sampler, config.iterations, config,
        attention=config.variant == "att",
        shuffle_rng=np.random.default_rng([config.seed, _RNG_SHUFFLE]), on_epoch=on_progress,
    )
    model.trained_epochs = config.iterations
    return model, progress
