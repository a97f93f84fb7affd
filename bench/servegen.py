"""Inputs of the serve-50k workload: a generated model and the text sent to it.

The model has the shape training leaves behind without the cost of
training it: documents and words belong to small latent groups (about eight
cited papers and eight words each), every vector sits near its group's
centroid, citedness is Zipfian over 40% of the documents, and the other 60%
keep the all-zero ``doc_out`` rows they would have after training.  Queries
built from a group's words and papers therefore have a right answer, so
recall@10 measures the ranking rather than noise; the scatter around the
centroids keeps it off its ceiling (about 0.95 for Case 1, 0.8 for Case 3).

Fragments mix the group's words, Zipfian background words and about 10%
out-of-vocabulary tokens, with 0-5 ``[[id]]`` markers of the group's cited
papers.  Every fragment keeps at least one known word, so no Case 3 query
is empty and no operation is expected to fail.
"""

from __future__ import annotations

import math
from importlib import import_module
from dataclasses import dataclass

import numpy as np

corpus = import_module("citevec.corpus")
model_mod = import_module("citevec.model")


GROUP_DOCS = 20  # documents per latent group, 8 of them cited on average
CITED_SHARE = 0.4


@dataclass(frozen=True)
class ServeSize:
    n_docs: int = 50_000
    n_words: int = 20_000
    dim: int = 100
    n_fragments: int = 1000
    heldout_docs: int = 9  # about 27 held-out citations


@dataclass
class ServeInputs:
    model: object
    fragments: list[str]
    heldout: bytes  # corpus lines whose citations evaluate scores


def generate(seed: int, size: ServeSize, window: int) -> ServeInputs:
    rng = np.random.default_rng([seed, 50])
    n_groups = max(1, size.n_docs // GROUP_DOCS)
    doc_group = rng.permutation(size.n_docs) % n_groups
    word_group = rng.integers(n_groups, size=size.n_words)
    cited = rng.random(size.n_docs) < CITED_SHARE

    centroids = rng.standard_normal((n_groups, size.dim)) / math.sqrt(size.dim)

    def near(groups):
        noise = rng.standard_normal((groups.size, size.dim)) * (1.2 / math.sqrt(size.dim))
        return centroids[groups] + noise

    doc_out = near(doc_group)
    doc_out[~cited] = 0.0
    matrices = model_mod.ModelMatrices(
        doc_in=near(doc_group),
        doc_out=doc_out,
        word_in=near(word_group),
        word_out=near(word_group),
        attention=np.zeros(size.n_docs + size.n_words),
    )

    vocab = corpus.Vocabulary()
    vocab.word_list = [f"w{i:05d}" for i in range(size.n_words)]
    vocab.word_ids = {w: i for i, w in enumerate(vocab.word_list)}
    vocab.doc_list = [f"p{i:05d}" for i in range(size.n_docs)]
    vocab.doc_ids = {d: i for i, d in enumerate(vocab.doc_list)}
    word_rank = rng.permutation(size.n_words)  # word_rank[r] is the r-th most frequent
    vocab.word_counts = np.empty(size.n_words, dtype=np.int64)
    vocab.word_counts[word_rank] = 1_000_000 // np.arange(1, size.n_words + 1) + 1
    cited_ids = np.flatnonzero(cited)
    vocab.doc_cited_counts = np.zeros(size.n_docs, dtype=np.int64)
    vocab.doc_cited_counts[rng.permutation(cited_ids)] = 1000 // np.arange(1, cited_ids.size + 1) + 1

    config = model_mod.EmbeddingConfig(dim=size.dim, window=window, negative=5, seed=seed)
    model = model_mod.Model(config=config, vocab=vocab, matrices=matrices)

    zipf_cdf = np.cumsum(1.0 / np.arange(1, size.n_words + 1))
    zipf_cdf /= zipf_cdf[-1]
    group_words = _members(word_group, n_groups)
    group_cited = _members(doc_group[cited_ids], n_groups, cited_ids)
    citable = [g for g in range(n_groups) if group_cited[g].size]

    def fragment(min_markers: int) -> str:
        g = citable[rng.integers(len(citable))]
        n_markers = min(int(rng.integers(min_markers, 6)), group_cited[g].size)
        words = []
        for _ in range(int(rng.integers(8, 25))):
            u = rng.random()
            if u < 0.1:
                words.append(f"x{rng.integers(1_000_000)}")
            elif u < 0.55 and group_words[g].size:
                words.append(vocab.word_list[group_words[g][rng.integers(group_words[g].size)]])
            else:
                words.append(vocab.word_list[word_rank[zipf_cdf.searchsorted(rng.random())]])
        if all(w.startswith("x") for w in words):
            words[0] = vocab.word_list[word_rank[0]]
        markers = rng.choice(group_cited[g], size=n_markers, replace=False)
        for doc in markers:
            words.insert(int(rng.integers(len(words) + 1)), f"[[{vocab.doc_list[doc]}]]")
        return " ".join(words)

    fragments = [fragment(0) for _ in range(size.n_fragments)]
    heldout = "".join(f"q{i}\t{fragment(1)}\n" for i in range(size.heldout_docs))
    return ServeInputs(model=model, fragments=fragments, heldout=heldout.encode("utf-8"))


def _members(groups: np.ndarray, n_groups: int, ids: np.ndarray | None = None) -> list[np.ndarray]:
    """Per group, the ids (default: positions) of its members."""
    ids = np.arange(groups.size) if ids is None else ids
    order = np.argsort(groups, kind="stable")
    bounds = np.searchsorted(groups[order], np.arange(n_groups + 1))
    return [ids[order[bounds[g]:bounds[g + 1]]] for g in range(n_groups)]
