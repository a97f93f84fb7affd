"""Brute-force top-k, recomputed from a model's matrices.

The rules come from citevec's documented ranking contract, not from its
code: markers in the text are excluded, scores tie-break by ascending doc
id, Case 1 pools every known marker, Case 2 keeps each (sorted) marker when
the query seed's uniform draw falls below ``KEEP_PROB``, Case 3 pools words
only.  i4o may rank every document or only the documents cited in training
(the fix planned for never-cited documents); a result must equal one of the
two brute-force lists exactly, ids and scores.
"""

from __future__ import annotations

import numpy as np

KEEP_PROB = 0.5  # recommend()'s default Case 2 keep probability


def _resolve(model, text: str):
    words, markers = [], []
    for raw in text.split():
        if raw.startswith("[[") and raw.endswith("]]") and len(raw) >= 4:
            markers.append(raw[2:-2])
        elif raw.lower() in model.vocab.word_ids:
            words.append(model.vocab.word_ids[raw.lower()])
    known = sorted({model.vocab.doc_ids[m] for m in markers if m in model.vocab.doc_ids})
    return np.asarray(words, dtype=np.intp), np.asarray(known, dtype=np.intp), set(markers)


def _top_k(model, scores: np.ndarray, candidates: np.ndarray, k: int) -> list[tuple[str, float]]:
    if candidates.size > k:
        kth = np.partition(scores[candidates], candidates.size - k)[candidates.size - k]
        candidates = candidates[scores[candidates] >= kth]
    doc_list = model.vocab.doc_list
    ranked = sorted(candidates.tolist(), key=lambda d: (-scores[d], doc_list[d]))
    return [(doc_list[d], float(scores[d])) for d in ranked[:k]]


def _candidates(model, excluded: set[str]) -> np.ndarray:
    mask = np.ones(model.vocab.n_docs, dtype=bool)
    mask[[model.vocab.doc_ids[m] for m in excluded if m in model.vocab.doc_ids]] = False
    return np.flatnonzero(mask)


def check_i4o(model, text: str, case: int, k: int, seed: int, got) -> str | None:
    """None if ``got`` (a RecommendationList) is an exact top-k, else why not."""
    m = model.matrices
    words, docs, markers = _resolve(model, text)
    if case == 3:
        docs = docs[:0]
    elif case == 2:
        docs = docs[np.random.default_rng(seed).random(docs.size) < KEEP_PROB]
    query = np.concatenate((m.word_in[words], m.doc_in[docs]), axis=0).mean(axis=0)
    scores = m.doc_out @ query
    candidates = _candidates(model, markers)
    cited = candidates[model.vocab.doc_cited_counts[candidates] > 0]
    if got.ranked in (_top_k(model, scores, candidates, k), _top_k(model, scores, cited, k)):
        return None
    return f"i4o case {case} mismatch for {text!r}: got {got.ranked[:3]}..."


def check_i4i(model, text: str, k: int, inferred: np.ndarray, got) -> str | None:
    """None if ``got`` ranks documents exactly by cosine to ``inferred``."""
    doc_in = model.matrices.doc_in
    _, _, markers = _resolve(model, text)
    norms = np.linalg.norm(doc_in, axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        scores = (doc_in @ inferred) / (norms * float(np.linalg.norm(inferred)))
    scores = np.where(norms > 0.0, scores, 0.0)
    if got.ranked == _top_k(model, scores, _candidates(model, markers), k):
        return None
    return f"i4i mismatch for {text!r}: got {got.ranked[:3]}..."
