"""Reference code, written out plainly, that the training kernel is checked against.

The library pools participants inline inside its one batched
negative-sampling kernel.  The pooling functions compute the same hidden
layers one relation at a time from explicit vectors, ``ns_loss_and_grads``
is the kernel's output half for one example, ``batch_reference`` restates
the kernel's batch semantics as a loop over examples, and
``infer_reference`` restates ``infer_doc_vector`` as a loop over words, and
``_window_context`` walks a token stream for one position's window words,
so tests can state what the library must produce without reusing its code.
``backprop`` runs the library kernel on a batch of one relation.
"""

import importlib

import numpy as np
from scipy.special import expit

from citevec.errors import ConfigError
from citevec.model import _RNG_INFER
from citevec.train import NegativeSampler, _citation_examples, _ns_batch

train_module = importlib.import_module("citevec.train")  # the package exports train()


def _window_context(tokens, position: int, window: int) -> list[str]:
    """Words within `window` positions each side; citation markers are
    skipped and do not consume window slots."""
    before: list[str] = []
    i = position - 1
    while i >= 0 and len(before) < window:
        if not tokens[i].is_cite:
            before.append(tokens[i].value)
        i -= 1
    before.reverse()
    after: list[str] = []
    i = position + 1
    while i < len(tokens) and len(after) < window:
        if not tokens[i].is_cite:
            after.append(tokens[i].value)
        i += 1
    return before + after


def ns_loss_and_grads(hidden, target_out, negatives_out):
    """Negative-sampling loss and its exact gradients, in the kernel's order.

    loss = -log sigmoid(hidden . target) - sum_i log sigmoid(-hidden . negative_i)
    Each score is ``(row * hidden).sum()``; the loss and the hidden gradient
    add up from zero, the target first, then the negatives in order.
    Returns (loss, grad wrt hidden, grad wrt target row, grads wrt negative rows).
    """
    hidden = np.asarray(hidden, dtype=np.float64)
    rows = [np.asarray(target_out, dtype=np.float64)]
    rows += list(np.asarray(negatives_out, dtype=np.float64).reshape(-1, hidden.size))
    loss = 0.0
    grad_hidden = np.zeros(hidden.size)
    coeffs = []
    for j, row in enumerate(rows):
        score = (row * hidden).sum()
        # -log sigmoid(z) == logaddexp(0, -z), stable for large |z|
        loss += np.logaddexp(0.0, -score if j == 0 else score)
        coeffs.append(expit(score) - 1.0 if j == 0 else expit(score))
        grad_hidden += coeffs[-1] * row
    grad_rows = [coeff * hidden for coeff in coeffs]
    return float(loss), grad_hidden, grad_rows[0], np.array(grad_rows[1:])


def _stack_participants(source_vec, structural_vecs, context_vecs) -> np.ndarray:
    """Participant rows in the canonical order: source, structural, words."""
    blocks = []
    if source_vec is not None:
        blocks.append(np.asarray(source_vec, dtype=np.float64)[None, :])
    for group in (structural_vecs, context_vecs):
        if group is None:
            continue
        arr = np.asarray(group, dtype=np.float64)
        if arr.size == 0:
            continue
        if arr.ndim == 1:
            arr = arr[None, :]
        blocks.append(arr)
    if not blocks:
        raise ConfigError("hidden layer needs at least one participant")
    return np.concatenate(blocks, axis=0)


def hidden_avg(source_vec, structural_vecs=None, context_vecs=None) -> np.ndarray:
    """Uniform mean of the participant vectors."""
    parts = _stack_participants(source_vec, structural_vecs, context_vecs)
    weights = np.full(parts.shape[0], 1.0 / parts.shape[0])
    return weights @ parts


def attention_ratios(attention_scores, slots) -> np.ndarray:
    """Softmax over the participants' attention scores, max-subtracted."""
    slots = np.asarray(slots, dtype=np.intp)
    if slots.size == 0:
        raise ConfigError("attention needs at least one participant slot")
    scores = np.asarray(attention_scores, dtype=np.float64)[slots]
    shifted = np.exp(scores - scores.max())
    return shifted / shifted.sum()


def hidden_att(attention_scores, slots, source_vec, structural_vecs=None, context_vecs=None) -> np.ndarray:
    """Attention-weighted sum of the participant vectors.

    ``slots`` indexes the score vector in the same order the participants
    are stacked: source doc, structural docs, context words.
    """
    parts = _stack_participants(source_vec, structural_vecs, context_vecs)
    ratios = attention_ratios(attention_scores, slots)
    if ratios.shape[0] != parts.shape[0]:
        raise ConfigError(
            f"{parts.shape[0]} participants but {ratios.shape[0]} attention slots"
        )
    return ratios @ parts


def participant_slots(source: int, structural, context, n_docs: int) -> np.ndarray:
    """Attention-slot ids for one relation, in canonical participant order.

    Documents occupy slots [0, n_docs); word w sits at n_docs + w.
    """
    doc_part = np.asarray([source] + sorted(structural), dtype=np.intp)
    word_part = n_docs + np.asarray(tuple(context), dtype=np.intp)
    return np.concatenate((doc_part, word_part))


def backprop(variant, relation, matrices, sampler, lr, *, negative, structural_context=True) -> float:
    """One citation update for one relation, as a batch of one; returns the
    sampled loss before the step."""
    examples = _citation_examples([relation], matrices.n_docs, structural_context)
    work = np.empty((3, max(examples.slots.size, 1 + negative), matrices.dim))
    loss, _ = _ns_batch(
        examples, 0, 1, matrices, matrices.doc_out, sampler, np.array([lr]), negative,
        attention=variant == "att", work=work,
    )
    return loss


def lr_schedule(update, total, learning_rate, min_lr) -> float:
    """The linear learning-rate decay, for one update number."""
    return max(min_lr, learning_rate + (min_lr - learning_rate) * (update / total))


def batch_reference(examples, matrices, out_name, sampler, lrs, negative, attention, batch):
    """The kernel's batch semantics, one example at a time.

    ``examples`` is a list of ``(target, slots)``; a slot below n_docs is a
    doc_in row and n_docs + w is word_in row w (and both are attention
    ids).  ``out_name`` names the output matrix, ``lrs`` holds one learning
    rate per example.  Every forward pass reads the parameters as they stood
    at its batch start; each touched row sums its steps from zero with
    ``np.add.at`` in example order, then participant (or target, then
    negative) order, and the sum is subtracted at the batch end.  Returns
    the summed loss of each batch and the number of skipped examples.
    """
    n_docs = matrices.n_docs
    batch_losses = []
    skipped = 0
    for lo in range(0, len(examples), batch):
        chunk = examples[lo : lo + batch]
        start = matrices.copy()
        start_out = getattr(start, out_name)
        steps = {name: np.zeros_like(a) for name, a in vars(start).items()}
        draws, kept = sampler.sample_rows(np.array([t for t, _ in chunk], dtype=np.intp), negative)
        losses = []
        for i, (target, slots) in enumerate(chunk):
            lr = lrs[lo + i]
            negatives = draws[i][kept[i]]
            if negatives.size == 0:
                skipped += 1
                losses.append(0.0)
                continue
            rows = [
                start.doc_in[s] if s < n_docs else start.word_in[s - n_docs] for s in slots
            ]
            if attention:
                scores = start.attention[slots]
                shifted = np.exp(scores - scores.max())
                total = 0.0
                for value in shifted:
                    total += value
                weights = shifted / total
            else:
                weights = [1.0 / len(slots)] * len(slots)
            hidden = np.zeros(start.dim)
            for weight, row in zip(weights, rows):
                hidden += weight * row

            loss = 0.0
            grad_hidden = np.zeros(start.dim)
            for j, o in enumerate([target, *negatives.tolist()]):
                score = (start_out[o] * hidden).sum()
                loss += np.logaddexp(0.0, -score if j == 0 else score)
                coeff = expit(score) - 1.0 if j == 0 else expit(score)
                grad_hidden += coeff * start_out[o]
                np.add.at(steps[out_name], o, (lr * coeff) * hidden)
            losses.append(loss)

            projections = [(row * grad_hidden).sum() for row in rows]
            mean = 0.0
            for weight, projection in zip(weights, projections):
                mean += weight * projection
            for s, weight, projection in zip(slots, weights, projections):
                if s < n_docs:
                    np.add.at(steps["doc_in"], s, (lr * weight) * grad_hidden)
                else:
                    np.add.at(steps["word_in"], s - n_docs, (lr * weight) * grad_hidden)
                if attention:
                    np.add.at(steps["attention"], s, lr * (weight * (projection - mean)))
        for name, step in steps.items():
            getattr(matrices, name)[...] = getattr(start, name) - step
        batch_losses.append(float(np.sum(np.array(losses))))
    return batch_losses, skipped


def infer_reference(model, words, steps, lr):
    """``infer_doc_vector`` one word at a time.

    Each step walks the text in batches of ``BATCH`` words.  A batch draws
    its words' noise words in one ``sample_rows`` call, pools word i as the
    sum, from zero, of its window words in text order, each over m_i, plus
    vector / m_i, takes the hidden gradient from ``ns_loss_and_grads`` (zero
    for a word that kept no noise word), and moves the vector, as it stood
    at the batch start, by ``-(lr / m) @ gradients``.
    """
    word_in, word_out = model.matrices.word_in, model.matrices.word_out
    window, negative = model.config.window, model.config.negative
    sampler = NegativeSampler(model.vocab.word_counts, seed=[model.config.seed, _RNG_INFER])
    words = list(words)
    vec = word_in[words].mean(axis=0)
    for _ in range(steps):
        for lo in range(0, len(words), train_module.BATCH):
            batch = words[lo : lo + train_module.BATCH]
            draws, kept = sampler.sample_rows(np.array(batch, dtype=np.intp), negative)
            grads, scales = [], []
            for i, word in enumerate(batch, start=lo):
                context = words[max(0, i - window) : i] + words[i + 1 : i + 1 + window]
                m = 1 + len(context)
                hidden = np.zeros(vec.size)
                for c in context:
                    hidden += (1.0 / m) * word_in[c]
                hidden = hidden + (1.0 / m) * vec
                negatives = draws[i - lo][kept[i - lo]]
                if negatives.size:
                    grads.append(ns_loss_and_grads(hidden, word_out[word], word_out[negatives])[1])
                else:
                    grads.append(np.zeros(vec.size))
                scales.append(lr / m)
            vec = vec - np.array(scales) @ np.array(grads)
    return vec
