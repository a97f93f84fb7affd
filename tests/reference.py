"""Reference pooling, written out plainly, that the training step is checked against.

The library pools participants inline inside its one negative-sampling
step.  These functions compute the same hidden layers one relation at a
time from explicit vectors, so tests can state what the step must produce
without reusing its code.  ``backprop`` runs the library step on a single
relation.
"""

import numpy as np

from citevec.errors import ConfigError
from citevec.train import _ns_step, _update_tables


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
    """One citation update for one relation; returns the sampled loss before the step."""
    tables = _update_tables(relation, matrices.n_docs, variant, structural_context)
    return _ns_step(tables, matrices, matrices.doc_out, sampler, lr, negative)
