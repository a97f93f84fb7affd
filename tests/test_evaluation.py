"""Metric correctness and the three-case evaluation protocol.

The metric oracles below compute each score from the plain definitions,
using position lists; the hand examples pin them.  ``oracle_evaluate``
ranks with full sorts and scores with them, and ``evaluate``, which takes
its metrics from the target's rank, must agree bitwise: both reduce with
math.fsum, which returns the correctly rounded sum in any order.
"""

import dataclasses
import importlib
import itertools
import math
import random

import numpy as np
import pytest

from citevec.corpus import CitationRelation, parse_corpus, resolve_ground_truth
from citevec.errors import ConfigError, QueryError
from citevec.evaluation import (
    EVAL_BATCH,
    AblationRow,
    MetricReport,
    _places,
    _pool_queries,
    _score_block,
    _thinning_draws,
    ablation_report,
    evaluate,
    format_ablation,
)
from citevec.model import EmbeddingConfig, init_model
from citevec.recommend import BLOCK_ROWS, Query, _gather_panel, build_query_vector, rank_i4o
from citevec.relations import _relation_table

from reference import place_reference, thinned_reference, thinning_draws_reference
from test_recommend import (
    NOT_INTS, make_model, make_vocab, no_work, oracle_rank, reloaded, shuffled_id_model,
    shuffled_ids, special_scores, writable)

evaluation_module = importlib.import_module("citevec.evaluation")
recommend_module = importlib.import_module("citevec.recommend")


def oracle_recall(ranked, relevant, k):
    top = set(ranked[:k])
    return len(relevant & top) / len(relevant)


def oracle_average_precision(ranked, relevant, k):
    # positions of relevant items, 1-based, restricted to the cutoff
    positions = [i + 1 for i, item in enumerate(ranked) if item in relevant and i < k]
    terms = [(j + 1) / pos for j, pos in enumerate(positions)]
    return math.fsum(terms) / min(len(relevant), k)


def oracle_ndcg(ranked, relevant, k):
    positions = [i + 1 for i, item in enumerate(ranked) if item in relevant and i < k]
    gain = math.fsum(1.0 / math.log2(p + 1) for p in positions)
    ideal = math.fsum(1.0 / math.log2(p + 1) for p in range(1, min(len(relevant), k) + 1))
    return gain / ideal


class TestHandExamples:
    def test_recall_single_target_found(self):
        assert oracle_recall(["a", "b", "c"], {"a"}, 10) == 1.0

    def test_recall_half_found(self):
        assert oracle_recall(["a", "x", "y"], {"a", "b"}, 3) == 0.5

    def test_recall_absent(self):
        assert oracle_recall(["x", "y"], {"a"}, 10) == 0.0

    def test_average_precision_worked_example(self):
        got = oracle_average_precision(["a", "x", "b"], {"a", "b"}, 10)
        assert abs(got - (1.0 + 2.0 / 3.0) / 2.0) < 1e-15

    def test_average_precision_first_hit(self):
        assert oracle_average_precision(["a", "x", "y"], {"a"}, 10) == 1.0

    def test_average_precision_no_hits(self):
        assert oracle_average_precision(["x", "y"], {"a"}, 10) == 0.0

    def test_ndcg_top_rank(self):
        assert oracle_ndcg(["a", "x"], {"a"}, 10) == 1.0

    def test_ndcg_rank_two(self):
        got = oracle_ndcg(["x", "a", "y"], {"a"}, 10)
        assert abs(got - 1.0 / math.log2(3)) < 1e-15

    def test_ndcg_pair_in_order(self):
        assert oracle_ndcg(["a", "b", "x"], {"a", "b"}, 10) == 1.0

    def test_empty_relevant_rejected(self):
        # the definitions divide by the size of the relevant set
        for fn in (oracle_recall, oracle_average_precision, oracle_ndcg):
            with pytest.raises(ZeroDivisionError):
                fn(["a"], set(), 10)

    def test_bad_cutoff_rejected(self):
        # evaluate and rank_i4o share one cutoff check
        model = perfect_model(3)
        for k in (0, -1):
            with pytest.raises(ConfigError, match=f"^k must be >= 1, got {k}$"):
                evaluate(model, perfect_ground_truth(3), case=1, k=k)
            with pytest.raises(ConfigError, match=f"^k must be >= 1, got {k}$"):
                rank_i4o(model, np.ones(3), k=k)

    def test_int_arguments_are_checked_first(self, monkeypatch):
        """k, case and seed must be ints, not bools, checked before the
        queries are pooled; numpy ints are ints, and seed may be any."""
        model = perfect_model(4)
        truth = [dataclasses.replace(r, structural=frozenset({(r.target + 1) % 4}))
                 for r in perfect_ground_truth(4)]
        assert evaluate(model, truth, case=np.int64(2), k=np.int64(2), seed=np.int64(-1)) == (
            evaluate(model, truth, case=2, k=2, seed=2**64 - 1))
        monkeypatch.setattr(evaluation_module, "_pool_queries", no_work)
        for name in ("k", "case", "seed"):
            for value in NOT_INTS:
                with pytest.raises(ConfigError, match=f"^{name} must be an int, got "):
                    evaluate(model, truth, **{"case": 1, name: value})


class TestMetricProperties:
    def test_bounds_and_recall_monotonicity(self):
        rng = random.Random(99)
        ids = [f"d{i}" for i in range(25)]
        for _ in range(200):
            ranked = rng.sample(ids, rng.randint(1, 25))
            relevant = set(rng.sample(ids, rng.randint(1, 5)))
            prev_recall = 0.0
            for k in range(1, len(ranked) + 2):
                r = oracle_recall(ranked, relevant, k)
                a = oracle_average_precision(ranked, relevant, k)
                g = oracle_ndcg(ranked, relevant, k)
                for value in (r, a, g):
                    assert 0.0 <= value <= 1.0 + 1e-12
                assert r >= prev_recall
                prev_recall = r

    def test_ndcg_monotone_for_single_target(self):
        # with one relevant item the ideal gain is fixed at 1, so growing
        # the cutoff can only add gain; a larger relevant set lets the
        # ideal grow too and the ratio may legitimately dip
        rng = random.Random(100)
        ids = [f"d{i}" for i in range(25)]
        for _ in range(200):
            ranked = rng.sample(ids, rng.randint(1, 25))
            relevant = {rng.choice(ids)}
            prev = 0.0
            for k in range(1, len(ranked) + 2):
                g = oracle_ndcg(ranked, relevant, k)
                assert g >= prev
                prev = g

    def test_map_ignores_tail_permutations(self):
        # reordering items below the lowest relevant rank cannot change AP
        rng = random.Random(7)
        for _ in range(100):
            relevant = {"r0", "r1"}
            head = ["x1", "r0", "x2", "r1"]
            tail = [f"t{i}" for i in range(6)]
            rng.shuffle(tail)
            base = oracle_average_precision(head + sorted(tail), relevant, 10)
            assert oracle_average_precision(head + tail, relevant, 10) == base


def score_block(doc_out, rows, block, out):
    """``_score_block`` over the panel of ``doc_out[rows]``."""
    return _score_block(_gather_panel(doc_out, rows), block, out)


def reference_query(relation, case, keep_prob=0.5, seed=0):
    """The relation's query, its Case 2 thinning drawn by the reference
    draws: a Case 1 query of the kept structural docs."""
    structural = relation.structural
    if case == 2:
        case, structural = 1, thinned_reference(relation, keep_prob, seed)
    return Query(case=case, context_words=relation.context, structural_docs=structural)


def oracle_evaluate(model, truth, case, k, keep_prob=0.5, seed=0):
    """evaluate() by full sorts over the documents cited in training and the
    plain metric definitions.  The score rows come from the same blocked
    product over every document: the usable queries in order, EVAL_BATCH
    to a block, the last block padded with zero rows."""
    doc_list = model.vocab.doc_list
    never_cited = {doc_list[d] for d in np.flatnonzero(model.vocab.doc_cited_counts == 0)}
    usable, vectors = [], []
    for r in truth:
        query = reference_query(r, case, keep_prob, seed)
        try:
            vectors.append(build_query_vector(model, query))
        except QueryError:
            continue
        usable.append(r)
    n_empty = len(truth) - len(usable)
    metrics = [(0.0, 0.0, 0.0)] * n_empty
    doc_out = model.matrices.doc_out
    every = np.arange(doc_out.shape[0])
    for start in range(0, len(usable), EVAL_BATCH):
        block = np.zeros((EVAL_BATCH, doc_out.shape[1]))
        chunk = vectors[start : start + EVAL_BATCH]
        block[: len(chunk)] = chunk
        rows = score_block(doc_out, every, block, np.empty((EVAL_BATCH, doc_out.shape[0])))
        for r, row in zip(usable[start : start + EVAL_BATCH], rows):
            exclude = never_cited | {doc_list[d] for d in r.structural}
            if r.source is not None:
                exclude.add(doc_list[r.source])
            ranked = [doc_id for doc_id, _ in oracle_rank(model, row, exclude, len(doc_list))]
            relevant = {doc_list[r.target]}
            metrics.append((
                oracle_recall(ranked, relevant, k),
                oracle_average_precision(ranked, relevant, k),
                oracle_ndcg(ranked, relevant, k),
            ))
    n = len(metrics)
    recall, ap, ndcg = (math.fsum(column) / n for column in zip(*metrics))
    return MetricReport(case=case, k=k, n_relations=n, recall=recall,
                        mean_average_precision=ap, ndcg=ndcg, n_empty_queries=n_empty)


def random_relations(rng, n_docs, n_words, n_usable, n_empty, n_docs_only=0):
    """Relations with context words (usable in every case) and, shuffled
    among them, relations with no context and no structural docs (usable in
    none) and relations with structural docs and a source but no context
    (not usable in Case 3)."""
    truth = []
    for _ in range(n_docs_only):
        docs = rng.choice(n_docs, size=4, replace=False).tolist()
        truth.append(CitationRelation(
            source=docs[0], target=docs[1], structural=frozenset(docs[2:]), context=()))
    for _ in range(n_usable):
        docs = rng.choice(n_docs, size=int(rng.integers(2, 6)), replace=False).tolist()
        source = docs.pop() if rng.random() < 0.5 else None
        context = tuple(rng.integers(0, n_words, size=int(rng.integers(1, 4))).tolist())
        truth.append(CitationRelation(
            source=source, target=docs[0], structural=frozenset(docs[1:]), context=context))
    for _ in range(n_empty):
        truth.append(CitationRelation(
            source=None, target=int(rng.integers(n_docs)), structural=frozenset(), context=()))
    order = rng.permutation(len(truth))
    return [truth[i] for i in order]


def uncite(model, rng, share):
    """Mark about ``share`` of the model's documents as never cited in
    training; their output rows keep whatever they hold."""
    counts = model.vocab.doc_cited_counts
    counts[rng.random(counts.size) < share] = 0


class TestBlockedScoring:
    def test_score_block_is_the_matrix_product(self):
        # small integers multiply and add exactly in any order
        rng = np.random.default_rng(8)
        n_docs, dim = 2 * BLOCK_ROWS + 37, 7
        doc_out = rng.integers(-3, 4, size=(n_docs, dim)).astype(float)
        block = rng.integers(-3, 4, size=(EVAL_BATCH, dim)).astype(float)
        every = np.arange(n_docs)
        out = score_block(doc_out, every, block, np.empty((EVAL_BATCH, n_docs)))
        assert np.array_equal(out, block @ doc_out.T)
        for size in (0, 5, BLOCK_ROWS, BLOCK_ROWS + 5):
            rows = np.sort(rng.choice(n_docs, size=size, replace=False))
            out = score_block(doc_out, rows, block, np.empty((EVAL_BATCH, size)))
            assert np.array_equal(out, block @ doc_out[rows].T)

    @pytest.mark.parametrize("n_docs, dim", [(300, 16), (1250, 100), (2 * BLOCK_ROWS + 37, 100)])
    def test_a_row_does_not_depend_on_its_block(self, n_docs, dim):
        # document counts off the BLAS kernel's tile width (300, 1250) are
        # where an unpadded product gave a row different bits in other blocks
        rng = np.random.default_rng(n_docs)
        doc_out = rng.normal(size=(n_docs, dim))
        others = rng.normal(size=(3 * EVAL_BATCH, dim))
        query = rng.normal(size=dim)
        alone = np.zeros((EVAL_BATCH, dim))
        alone[0] = query
        every = np.arange(n_docs)
        expected = score_block(doc_out, every, alone, np.empty((EVAL_BATCH, n_docs)))[0]
        for trial in range(8):
            block = others[rng.choice(others.shape[0], size=EVAL_BATCH, replace=False)]
            block[int(rng.integers(1, EVAL_BATCH + 1)) :] = 0.0  # a padded last block
            row = int(rng.integers(EVAL_BATCH))
            block[row] = query
            got = score_block(doc_out, every, block, np.empty((EVAL_BATCH, n_docs)))[row]
            assert np.array_equal(got, expected), f"trial {trial}"
            # a document's score does not depend on where it is gathered
            rows = np.sort(rng.choice(n_docs, size=int(rng.integers(1, n_docs + 1)), replace=False))
            got = score_block(doc_out, rows, block, np.empty((EVAL_BATCH, rows.size)))[row]
            assert np.array_equal(got, expected[rows]), f"trial {trial}"

    @pytest.mark.parametrize("case", [1, 2, 3])
    def test_matches_brute_force_oracle(self, case):
        """Past two full blocks to a lone last row, with empty queries mixed
        in; zero and repeated output rows make ties at the cutoff common,
        and never-cited documents, some of them targets, keep non-zero
        rows."""
        rng = np.random.default_rng(70 + case)
        n_docs, dim, n_words = 301, 3, 12
        model = shuffled_id_model(rng, n_docs=n_docs, dim=dim, n_words=n_words)
        patterns = rng.integers(-1, 2, size=(9, dim)).astype(float)
        model.matrices.doc_out[:] = patterns[rng.integers(0, 9, size=n_docs)]
        model.matrices.doc_out[rng.random(n_docs) < 0.3] = 0.0
        uncite(model, rng, 0.3)
        model.matrices.word_in[:] = rng.integers(-2, 3, size=(n_words, dim))
        truth = random_relations(rng, n_docs, n_words, n_usable=2 * EVAL_BATCH + 1, n_empty=5)
        for k in (1, 10, 60):
            for seed in (0, 3):
                got = evaluate(model, truth, case=case, k=k, seed=seed)
                assert got == oracle_evaluate(model, truth, case, k, seed=seed), (k, seed)
                assert got.n_empty_queries == 5


    @pytest.mark.parametrize("case", [1, 2, 3])
    def test_matches_brute_force_oracle_with_non_finite_rows(self, case):
        """NaN and infinite output rows give NaN, +inf and -inf scores;
        relations without context still exclude their docs and source."""
        rng = np.random.default_rng(80 + case)
        n_docs, dim, n_words = 150, 3, 12
        model = shuffled_id_model(rng, n_docs=n_docs, dim=dim, n_words=n_words)
        model.matrices.doc_out[:] = rng.integers(-1, 2, size=(n_docs, dim))
        special = rng.permutation(n_docs)
        model.matrices.doc_out[special[:8]] = np.nan
        model.matrices.doc_out[special[8:16]] = np.inf
        model.matrices.doc_out[special[16:24]] = -np.inf
        model.matrices.doc_out[special[24:32], 0] = np.inf  # +inf or -inf, NaN where 0 * inf
        model.matrices.word_in[:] = rng.integers(-2, 3, size=(n_words, dim))
        uncite(model, rng, 0.3)
        truth = random_relations(rng, n_docs, n_words, n_usable=EVAL_BATCH + 3, n_empty=2,
                                 n_docs_only=6)
        with np.errstate(invalid="ignore"):  # inf * 0 in the score product
            for k in (1, 10, 60):
                for seed in (0, 3):
                    got = evaluate(model, truth, case=case, k=k, seed=seed)
                    assert got == oracle_evaluate(model, truth, case, k, seed=seed), (k, seed)


class TestPooledQueries:
    @pytest.mark.parametrize("dim", [2, 3, 16])
    def test_same_bits_as_build_query_vector(self, dim):
        """Up to 20 context words and 12 structural docs, so many queries
        pool more than 8 participants; -0.0 entries and mixed magnitudes make
        any change in the order of the additions show."""
        rng = np.random.default_rng(dim)
        n_docs, n_words = 40, 30
        model = shuffled_id_model(rng, n_docs=n_docs, dim=dim, n_words=n_words)
        for matrix in (model.matrices.word_in, model.matrices.doc_in):
            matrix[:] = rng.normal(size=matrix.shape) * 10.0 ** rng.integers(-8, 9, size=(matrix.shape[0], 1))
            matrix[rng.random(matrix.shape) < 0.2] = -0.0
        truth = []
        for _ in range(60):
            docs = rng.choice(n_docs, size=int(rng.integers(2, 14)), replace=False).tolist()
            context = tuple(rng.integers(0, n_words, size=int(rng.integers(0, 21))).tolist())
            source = docs.pop() if rng.random() < 0.5 else None
            truth.append(CitationRelation(
                source=source, target=docs[0], structural=frozenset(docs[1:]), context=context))
        assert max(len(r.context) + len(r.structural) for r in truth) > 8
        for case in (1, 2, 3):
            usable, queries, targets, owners, excluded = _pool_queries(model, truth, case, 0.5, 7)
            expected = {}
            for i, r in enumerate(truth):
                try:
                    expected[i] = build_query_vector(model, reference_query(r, case, 0.5, 7))
                except QueryError:
                    pass
            assert np.flatnonzero(usable).tolist() == sorted(expected)
            for i, row in expected.items():
                assert queries[i].tobytes() == row.tobytes(), (case, i)
            assert targets.tolist() == [r.target for r in truth]
            for i, relation in enumerate(truth):
                source = [] if relation.source is None else [relation.source]
                assert sorted(excluded[owners == i].tolist()) == sorted([*relation.structural, *source])


class TestPlaces:
    """``_places`` of random blocks against a full sort of each row."""

    def check(self, ids, scores, targets, exclude):
        """``exclude`` holds each row's excluded columns."""
        candidate = np.ones(scores.shape, dtype=bool)
        for row, banned in enumerate(exclude):
            candidate[row, banned] = False
        order = sorted(range(len(ids)), key=ids.__getitem__)
        rank = np.empty(len(ids), dtype=np.intp)
        rank[order] = np.arange(len(ids))
        calls = []
        got = _places(scores, targets, candidate, lambda: calls.append(1) or rank)
        expected = [place_reference(ids, row, target, banned.tolist())
                    for row, target, banned in zip(scores, targets.tolist(), exclude, strict=True)]
        assert got.tolist() == expected
        return len(calls)

    def test_random_blocks(self):
        rng = np.random.default_rng(31)
        for _ in range(300):
            n_rows, n_docs = int(rng.integers(1, 9)), int(rng.integers(1, 40))
            ids = shuffled_ids(rng, n_docs)
            scores = special_scores(rng, n_rows, n_docs)
            targets = rng.integers(0, n_docs, size=n_rows)
            exclude = [np.setdiff1d(rng.choice(n_docs, size=int(rng.integers(0, n_docs + 1)),
                                               replace=False), [t]) for t in targets]
            self.check(ids, scores, targets, exclude)

    def test_every_other_candidate_excluded(self):
        rng = np.random.default_rng(32)
        ids = shuffled_ids(rng, 30)
        scores = special_scores(rng, 8, 30)
        targets = rng.integers(0, 30, size=8)
        exclude = [np.setdiff1d(np.arange(30), [t]) for t in targets]
        self.check(ids, scores, targets, exclude)
        alone = np.zeros(scores.shape, dtype=bool)
        alone[np.arange(8), targets] = True
        assert _places(scores, targets, alone, lambda: np.arange(30)).tolist() == [0] * 8

    def test_ids_ordered_only_for_a_block_with_a_tie(self):
        rng = np.random.default_rng(33)
        ids = shuffled_ids(rng, 50)
        distinct = rng.permutation(50)[None, :] + rng.permutation(4)[:, None] / 4.0
        targets = rng.integers(0, 50, size=4)
        exclude = [np.setdiff1d(rng.choice(50, size=10, replace=False), [t]) for t in targets]
        assert self.check(ids, distinct.astype(float), targets, exclude) == 0
        tied = np.zeros((4, 50))
        assert self.check(ids, tied, targets, exclude) == 1
        nan_target = distinct.astype(float)
        nan_target[2, targets[2]] = np.nan
        assert self.check(ids, nan_target, targets, exclude) == 1

    @pytest.mark.parametrize("case", [1, 2, 3])
    def test_excluded_and_never_cited_targets_are_misses(self, case):
        """Targets among their own structural docs or equal to their source,
        never cited, or alone among the candidates, against full sorts."""
        rng = np.random.default_rng(90 + case)
        n_docs, dim, n_words = 40, 2, 6
        model = shuffled_id_model(rng, n_docs=n_docs, dim=dim, n_words=n_words)
        model.matrices.doc_out[:] = rng.integers(-1, 2, size=(n_docs, dim))
        model.matrices.word_in[:] = rng.integers(-2, 3, size=(n_words, dim))
        uncite(model, rng, 0.3)
        cited = np.flatnonzero(model.vocab.doc_cited_counts).tolist()
        truth = random_relations(rng, n_docs, n_words, n_usable=EVAL_BATCH, n_empty=2)
        for r in truth[:12]:
            truth.append(dataclasses.replace(r, structural=r.structural | {r.target}))
            truth.append(dataclasses.replace(r, source=r.target, context=r.context or (0,)))
            everything = frozenset(cited) - {r.target}
            truth.append(dataclasses.replace(r, structural=everything, source=None,
                                             context=r.context or (1,)))
        for k in (1, 3, 50):
            assert evaluate(model, truth, case=case, k=k) == oracle_evaluate(model, truth, case, k)


def place_oracle(model, truth, case, k, keep_prob=0.5, seed=0):
    """evaluate() by ``place_reference``: each usable relation's place in
    its exact score row over every document (``score_block``), the ones
    never cited in training, its structural docs and its source left out.
    Returns the report and each scored relation's place."""
    doc_out = model.matrices.doc_out
    n_docs = doc_out.shape[0]
    never_cited = set(np.flatnonzero(model.vocab.doc_cited_counts == 0).tolist())
    ranks, places, n_empty = [], [], 0
    for r in truth:
        try:
            vector = build_query_vector(model, reference_query(r, case, keep_prob, seed))
        except QueryError:
            n_empty += 1
            continue
        exclude = never_cited | set(r.structural) | ({r.source} - {None})
        if r.target in exclude:
            continue
        block = np.zeros((EVAL_BATCH, doc_out.shape[1]))
        block[0] = vector
        row = score_block(doc_out, np.arange(n_docs), block, np.empty((EVAL_BATCH, n_docs)))[0]
        places.append(place_reference(model.vocab.doc_list, row, r.target, sorted(exclude)))
        if places[-1] < k:
            ranks.append(places[-1] + 1)
    n = len(truth)
    report = MetricReport(case=case, k=k, n_relations=n, recall=len(ranks) / n,
                          mean_average_precision=math.fsum(1 / r for r in ranks) / n,
                          ndcg=math.fsum(1 / math.log2(r + 1) for r in ranks) / n,
                          n_empty_queries=n_empty)
    return report, places


class TestFilteredEvaluate:
    """A model with a large cited panel places each target through the
    float32 filter of the panel's unit rows and scores exactly only the
    candidates near it (``_near_places``).  Each case sets the threshold to
    0, so that every panel is filtered, and checks every case's report of
    the loaded model and of its writable copy against a copy's evaluated
    with the threshold out of reach, which scores every cited row, and
    against ``place_oracle``'s."""

    def model(self, rng, doc_out, n_words=12, cited_share=0.8):
        n_docs, dim = doc_out.shape
        model = make_model(shuffled_ids(rng, n_docs), [f"w{j}" for j in range(n_words)], dim=dim)
        model.matrices.doc_out[:] = doc_out
        model.matrices.doc_in[:] = rng.integers(-2, 3, size=(n_docs, dim))
        model.matrices.word_in[:] = rng.integers(-2, 3, size=(n_words, dim))
        model.vocab.doc_cited_counts[:] = rng.random(n_docs) < cited_share
        return reloaded(model)

    def check(self, monkeypatch, loaded, truth, ks=(1, 3, 10, 60)):
        """Every report against the exact copy's and ``place_oracle``'s;
        returns the oracle's places and, for each block the loaded model
        placed, for each of its queries, whether its squared norm is in
        range, its count of candidates and the count of them scored
        exactly; its writable copy's are the same."""
        cases = list(itertools.product((1, 2, 3), ks))
        exact = writable(loaded)
        monkeypatch.setattr(recommend_module, "_FILTER_ENTRIES", math.inf)
        with np.errstate(all="ignore"):  # non-finite rows: inf - inf in a product
            reports = [evaluate(exact, truth, case=case, k=k) for case, k in cases]
        assert recommend_module._cited_panel(exact)[3] is None
        monkeypatch.setattr(recommend_module, "_FILTER_ENTRIES", 0)
        blocks, scored = [], []  # one list per model; scored holds the block in hand

        def near_places(doc_out, cited, unit_rows, block, target_columns, banned, *args):
            n = target_columns.size
            excluded = np.bincount(np.unique(banned) // cited.size, minlength=n)
            places = real_near_places(doc_out, cited, unit_rows, block, target_columns, banned,
                                      *args)
            covered = [2.0**-900 <= q * q <= 2.0**900 for q in np.linalg.norm(block[:n], axis=1)]
            blocks[-1].append(list(zip(covered, (cited.size - excluded).tolist(),
                                       scored.pop().tolist())))
            return places

        def places(scores, target_columns, candidate, id_rank):
            scored.append(np.count_nonzero(candidate, axis=1))
            return real_places(scores, target_columns, candidate, id_rank)

        real_near_places, real_places = evaluation_module._near_places, evaluation_module._places
        monkeypatch.setattr(evaluation_module, "_near_places", near_places)
        monkeypatch.setattr(evaluation_module, "_places", places)
        oracle_places = []
        with np.errstate(all="ignore"):
            for (case, k), report in zip(cases, reports):
                expected, case_places = place_oracle(loaded, truth, case, k)
                assert report == expected, (case, k)
                oracle_places += case_places
            for model in (writable(loaded), loaded):
                blocks.append([])
                for (case, k), report in zip(cases, reports):
                    assert evaluate(model, truth, case=case, k=k) == report, (case, k)
                    assert not scored
                assert recommend_module._cited_panel(model)[1] is None
        assert blocks[0] == blocks[1]
        return oracle_places, blocks[1]

    def near_ties(self, rng, n_docs, dim, spread):
        """Rows of a few integer patterns, each scaled by 1 + e with e up to
        ``spread`` slacks: exact duplicates and near-ties in and just out of
        the band, at many norms."""
        patterns = rng.integers(-2, 3, size=(7, dim)).astype(float)
        offsets = spread * recommend_module._slack32(dim) * rng.integers(-2, 3, size=(n_docs, 1))
        return patterns[rng.integers(0, 7, size=n_docs)] * (1.0 + offsets) * rng.choice(
            [1.0, 2.0**-40, 2.0**40], size=(n_docs, 1))

    def test_duplicates_and_near_ties(self, monkeypatch):
        """Rows that tie the target exactly, or differ from it by less or a
        little more than the slack; structural docs and sources among them
        are exclusions inside the band.  Each k checked but 1 has targets at
        places k - 1 and k."""
        rng = np.random.default_rng(101)
        n_docs, dim = 300, 6
        loaded = self.model(rng, self.near_ties(rng, n_docs, dim, 0.75))
        truth = random_relations(rng, n_docs, 12, n_usable=2 * EVAL_BATCH + 5, n_empty=3,
                                 n_docs_only=8)
        places = place_oracle(loaded, truth, 1, 1)[1]
        ks = [v for v in sorted(set(places)) if v - 1 in places][:3]
        assert len(ks) == 3
        queries = sum(self.check(monkeypatch, loaded, truth, ks=(1, *ks))[1], [])
        assert sum(exact for _, _, exact in queries) < sum(n for _, n, _ in queries) / 2

    def test_rows_the_bound_does_not_cover(self, monkeypatch):
        """Rows whose squared norm is outside ``_SAFE_SQUARES``, with a finite
        norm or not, zero rows, NaN and infinite rows, and rows of a NaN or
        an infinite entry, some of them targets: always scored exactly."""
        rng = np.random.default_rng(102)
        n_docs, dim = 200, 5
        doc_out = self.near_ties(rng, n_docs, dim, 2.0)
        special = rng.permutation(n_docs)[:60]
        doc_out[special[:5]] *= 1e170
        doc_out[special[5:10]] *= 1e-170
        # squares out of range, norms finite: rows of one direction, each
        # ahead of the ones before it
        direction = np.array([1.0, -2.0, 0.0, 2.0, 1.0])
        doc_out[special[40:50]] = np.outer(2.0**460 * np.linspace(1.0, 2.0, 10), direction)
        doc_out[special[50:60]] = np.outer(2.0**-460 * np.linspace(1.0, 2.0, 10), direction)
        doc_out[special[10:15]] = 0.0
        doc_out[special[15:20]] = np.nan
        doc_out[special[20:25]] = np.inf
        doc_out[special[25:30]] = -np.inf
        doc_out[special[30:35], 0] = np.inf
        doc_out[special[35:40], 1] = np.nan
        loaded = self.model(rng, doc_out, cited_share=0.9)
        truth = random_relations(rng, n_docs, 12, n_usable=EVAL_BATCH + 9, n_empty=2, n_docs_only=6)
        truth += [CitationRelation(source=None, target=int(d), structural=frozenset(), context=(w,))
                  for d in special[::3] for w in range(4)]
        truth += [CitationRelation(source=None, target=int(d), structural=frozenset(), context=(w,))
                  for d in special[40:] for w in range(12)]
        queries = sum(self.check(monkeypatch, loaded, truth)[1], [])
        assert any(exact < n for _, n, exact in queries)

    def test_queries_the_bound_does_not_cover(self, monkeypatch):
        """A zero, tiny, huge or NaN query has every candidate scored
        exactly; the other queries of its block are still filtered."""
        rng = np.random.default_rng(103)
        n_docs, dim = 120, 4
        memory = writable(self.model(rng, self.near_ties(rng, n_docs, dim, 1.0), n_words=16))
        memory.matrices.word_in[12:] = np.array([0.0, 1e-200, 1e200, np.nan])[:, None]
        truth = random_relations(rng, n_docs, 12, n_usable=3 * EVAL_BATCH, n_empty=0)
        cited = np.flatnonzero(memory.vocab.doc_cited_counts)
        truth[40:44] = [CitationRelation(source=None, target=j, structural=frozenset(), context=(w,))
                        for w, j in zip(range(12, 16), rng.choice(cited, size=4, replace=False).tolist())]
        queries = sum(self.check(monkeypatch, reloaded(memory), truth, ks=(1, 10))[1], [])
        uncovered = [(n, exact) for covered, n, exact in queries if not covered]
        assert len(uncovered) == 4 * 3 * 2  # three cases, two cutoffs
        assert all(exact == n for n, exact in uncovered)
        covered = [(n, exact) for covered, n, exact in queries if covered]
        assert sum(exact for _, exact in covered) < sum(n for n, _ in covered) / 2

    def test_a_block_mixing_covered_and_uncovered_queries(self, monkeypatch):
        """Queries pooled from words and docs of uncovered norms, scattered
        over every block, on near-ties: each full block mixes both kinds, and
        the reports are the exact copy's and ``place_oracle``'s.  Every
        candidate of an uncovered query is scored exactly, and most of those
        of the covered queries beside it are settled by the filter."""
        rng = np.random.default_rng(106)
        n_docs, dim = 200, 5
        memory = writable(self.model(rng, self.near_ties(rng, n_docs, dim, 1.0), n_words=14))
        memory.matrices.word_in[12:] = np.array([1e-200, np.inf])[:, None]
        memory.matrices.doc_in[rng.choice(n_docs, size=10, replace=False)] = 1e180
        truth = random_relations(rng, n_docs, 14, n_usable=4 * EVAL_BATCH, n_empty=2, n_docs_only=5)
        blocks = self.check(monkeypatch, reloaded(memory), truth, ks=(1, 5, 20))[1]
        for block in blocks:
            assert all(exact == n for covered, n, exact in block if not covered)
            assert sum(exact for covered, _, exact in block if covered) < sum(
                n for covered, n, _ in block if covered) / 10
        assert all(not all(covered for covered, _, _ in block)
                   for block in blocks if len(block) == EVAL_BATCH)

    def test_a_dimension_above_the_bound(self, monkeypatch):
        """The filter settles no candidate."""
        rng = np.random.default_rng(104)
        monkeypatch.setattr(recommend_module, "_MAX_DIM32", 2)
        loaded = self.model(rng, self.near_ties(rng, 80, 3, 1.0))
        truth = random_relations(rng, 80, 12, n_usable=EVAL_BATCH, n_empty=1)
        queries = sum(self.check(monkeypatch, loaded, truth, ks=(1, 10))[1], [])
        assert queries and all(exact == n for _, n, exact in queries)

    def test_a_model_above_the_real_threshold(self):
        """Filtered at the module's own threshold, on random rows: the
        reports of the model in memory and of its loaded copy are those of
        a copy evaluated with the threshold out of reach, and only the
        candidates near each target are scored exactly."""
        rng = np.random.default_rng(105)
        dim = 50
        n_docs = -(-recommend_module._FILTER_ENTRIES // dim) + 50
        model = make_model(shuffled_ids(rng, n_docs), [f"w{j}" for j in range(20)], dim=dim)
        model.matrices.doc_out[:] = rng.normal(size=(n_docs, dim))
        model.matrices.doc_in[:] = rng.normal(size=(n_docs, dim))
        model.matrices.word_in[:] = rng.normal(size=(20, dim))
        model.vocab.doc_cited_counts[rng.choice(n_docs, size=50, replace=False)] = 0
        loaded = reloaded(model)
        exact = writable(model)
        truth = random_relations(rng, n_docs, 20, n_usable=EVAL_BATCH + 3, n_empty=1)
        gathered = []

        def gather_panel(matrix, rows):
            gathered.append(rows.size)
            return recommend_module._gather_panel(matrix, rows)

        for case, k in itertools.product((1, 2, 3), (1, 10, 100)):
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(recommend_module, "_FILTER_ENTRIES", math.inf)
                expected = evaluate(exact, truth, case=case, k=k)
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(evaluation_module, "_gather_panel", gather_panel)
                for ranker in (model, loaded):
                    assert evaluate(ranker, truth, case=case, k=k) == expected, (case, k)
        assert recommend_module._cited_panel(exact)[3] is None
        assert gathered and max(gathered) < 2 * EVAL_BATCH + 20


class TestThinningDraws:
    """Case 2's draws against ``thinning_draws_reference``, Python ints."""

    def relations(self, rng, n):
        truth = []
        for _ in range(n):
            docs = rng.choice(2**31 - 1, size=int(rng.integers(2, 9)), replace=False).tolist()
            source = docs.pop() if rng.random() < 0.5 else None
            context = tuple(rng.integers(0, 2**31 - 1, size=int(rng.integers(0, 6))).tolist())
            truth.append(CitationRelation(
                source=source, target=docs[0], structural=frozenset(docs[1:]), context=context))
        return truth

    def draws(self, truth, seed):
        return _thinning_draws(*_relation_table(truth, 2**31, 2**31, sourced=False), seed)

    def test_bit_for_bit_against_python_ints(self):
        rng = np.random.default_rng(40)
        truth = self.relations(rng, 200)
        for seed in (0, 1, 7, -3, 2**64 + 5, 2**70):
            expected = [u for r in truth for u in thinning_draws_reference(r, seed)]
            assert self.draws(truth, seed).tolist() == expected, seed

    def test_a_relation_draws_the_same_alone_permuted_or_repeated(self):
        rng = np.random.default_rng(41)
        truth = self.relations(rng, 50)
        alone = [self.draws([r], 3).tolist() for r in truth]
        order = rng.permutation(len(truth)).tolist()
        mixed = [truth[i] for i in order] + [truth[i] for i in order[:10]]
        got = self.draws(mixed, 3).tolist()
        bounds = np.cumsum([0] + [len(r.structural) for r in mixed]).tolist()
        for j, i in enumerate(order + order[:10]):
            assert got[bounds[j] : bounds[j + 1]] == alone[i]

    @pytest.mark.parametrize("keep_prob", [0.1, 0.5, 0.9])
    def test_kept_fraction_is_keep_prob(self, keep_prob):
        rng = np.random.default_rng(42)
        truth = self.relations(rng, 4000)
        draws = self.draws(truth, 11)
        assert draws.size >= 10_000
        sigma = math.sqrt(keep_prob * (1 - keep_prob) / draws.size)
        assert abs(np.mean(draws < keep_prob) - keep_prob) <= 4 * sigma
        assert draws.min() >= 0.0 and draws.max() < 1.0


def perfect_model(n_docs):
    """Model whose doc_out rows are scaled one-hots and whose i-th word's
    input vector points straight at doc i, so the true target is always
    the argmax."""
    doc_ids = [f"p{i}" for i in range(n_docs)]
    words = [f"w{i}" for i in range(n_docs)]
    vocab = make_vocab(doc_ids, words)
    config = EmbeddingConfig(dim=n_docs, window=4, negative=2, seed=3)
    model = init_model(vocab, config)
    model.matrices.doc_out[:] = np.eye(n_docs) * 3.0
    model.matrices.word_in[:] = np.eye(n_docs)
    return model


def perfect_ground_truth(n_docs):
    return [
        CitationRelation(target=i, context=(i,), structural=frozenset(), source=None)
        for i in range(n_docs)
    ]


class TestEvaluate:
    def test_perfect_oracle_scores_exactly_one(self):
        model = perfect_model(6)
        truth = perfect_ground_truth(6)
        for case in (1, 2, 3):
            report = evaluate(model, truth, case=case, k=3)
            assert report.recall == 1.0
            assert report.mean_average_precision == 1.0
            assert report.ndcg == 1.0
            assert report.n_relations == 6

    def test_empty_ground_truth_rejected(self):
        with pytest.raises(ConfigError):
            evaluate(perfect_model(3), [], case=1)

    def test_unknown_case_rejected(self):
        with pytest.raises(ConfigError):
            evaluate(perfect_model(3), perfect_ground_truth(3), case=4)

    @pytest.mark.parametrize("case", [1, 2, 3])
    def test_bad_k_or_keep_prob_rejected_first(self, case):
        model = perfect_model(3)
        # the relation names an unknown doc: the option errors must come first
        truth = [CitationRelation(target=7, context=(0,), structural=frozenset(), source=None)]
        with pytest.raises(ConfigError, match="keep_prob"):
            evaluate(model, truth, case=case, keep_prob=1.5)
        with pytest.raises(ConfigError, match="k must be"):
            evaluate(model, truth, case=case, k=0)
        with pytest.raises(ConfigError, match="relation 0"):
            evaluate(model, truth, case=case)

    @pytest.mark.parametrize("field", ["target", "source", "structural", "context"])
    @pytest.mark.parametrize("bad", ["negative", "vocabulary size"])
    def test_id_outside_the_vocabulary_is_named(self, field, bad):
        model = perfect_model(4)  # 4 docs, 4 words
        value = -1 if bad == "negative" else 4
        good = CitationRelation(target=1, context=(1, 2), structural=frozenset({2}), source=3)
        wrong = dataclasses.replace(good, **{
            "target": {"target": value},
            "source": {"source": value},
            "structural": {"structural": frozenset({0, value})},
            "context": {"context": (0, value)},
        }[field])
        for case in (1, 2, 3):
            assert evaluate(model, [good, good], case=case, k=2).n_relations == 2
            with pytest.raises(ConfigError, match="relation 1 names an id outside"):
                evaluate(model, [good, wrong, wrong], case=case, k=2)

    def test_case_two_with_keep_prob_one_equals_case_one(self, split_avg_model, fixture_split):
        truth = fixture_split.ground_truth
        full = evaluate(split_avg_model, truth, case=1, k=10)
        degenerate = evaluate(split_avg_model, truth, case=2, k=10, keep_prob=1.0)
        assert degenerate.values() == full.values()

    def test_case_two_with_keep_prob_zero_equals_case_three(self):
        """On a model whose structure moves the places; the records differ
        only in ``case=``."""
        rng = np.random.default_rng(43)
        n_docs, dim, n_words = 60, 3, 12
        model = shuffled_id_model(rng, n_docs=n_docs, dim=dim, n_words=n_words)
        model.matrices.doc_out[:] = rng.normal(size=(n_docs, dim))
        model.matrices.doc_in[:] = rng.normal(size=(n_docs, dim))
        model.matrices.word_in[:] = rng.normal(size=(n_words, dim))
        truth = random_relations(rng, n_docs, n_words, n_usable=80, n_empty=3, n_docs_only=5)
        for keep_prob, case in ((1.0, 1), (0.0, 3)):
            for k in (1, 10):
                alike = evaluate(model, truth, case=case, k=k)
                thinned = evaluate(model, truth, case=2, k=k, keep_prob=keep_prob, seed=4)
                assert [line.replace("case=2", f"case={case}") for line in thinned.records()] == \
                    alike.records()
                assert thinned.n_empty_queries == alike.n_empty_queries
        assert evaluate(model, truth, case=1).values() != evaluate(model, truth, case=3).values()

    def test_deterministic_per_seed(self, split_avg_model, fixture_split):
        truth = fixture_split.ground_truth
        first = evaluate(split_avg_model, truth, case=2, k=10, seed=5)
        second = evaluate(split_avg_model, truth, case=2, k=10, seed=5)
        assert first == second

    def test_order_insensitive_accumulation(self, split_avg_model, fixture_split):
        held = fixture_split.ground_truth
        # one more usable relation than a block, so one query scores alone
        # in a padded last block; the empty ones are misses in any order
        variants = [dataclasses.replace(r, context=r.context[:j]) for j in (2, 3) for r in held]
        usable = (list(held) + variants)[: EVAL_BATCH + 1]
        empty = [dataclasses.replace(r, context=(), structural=frozenset()) for r in held[:3]]
        truth = usable + empty
        base = evaluate(split_avg_model, truth, case=2, k=10, seed=5)
        assert base.n_empty_queries == 3
        alone = set()
        for trial in range(8):
            shuffled = list(truth)
            random.Random(trial).shuffle(shuffled)
            alone.add([r for r in shuffled if r.context][-1])
            report = evaluate(split_avg_model, shuffled, case=2, k=10, seed=5)
            assert report == base
        assert len(alone) > 1  # the shuffles moved relations into and out of the lone row

    def test_unusable_query_counts_as_miss(self):
        model = perfect_model(4)
        truth = [
            CitationRelation(target=0, context=(0,), structural=frozenset(), source=None),
            CitationRelation(target=1, context=(), structural=frozenset(), source=None),
        ]
        report = evaluate(model, truth, case=1, k=4)
        assert report.n_relations == 2
        assert report.recall == 0.5

    def test_empty_queries_are_counted(self):
        model = perfect_model(3)
        held = parse_corpus(b"q0\tw1 [[p1]] w2\nq1\tzzz [[p2]] qqq\n").docs[:2]
        truth, dropped = resolve_ground_truth(held, model.vocab, window=4)
        assert dropped == 0
        assert [r.context for r in truth] == [(1, 2), ()]  # q1 knows no word
        report = evaluate(model, truth, case=3, k=3)
        assert report.n_empty_queries == 1
        assert report.recall == 0.5
        assert evaluate(model, truth[:1], case=3, k=3).n_empty_queries == 0
        assert report.records() == [
            "case=3 metric=recall value=0.5 n=2",
            "case=3 metric=map value=0.5 n=2",
            "case=3 metric=ndcg value=0.5 n=2",
        ]

    def test_a_target_never_cited_in_training_is_a_miss(self):
        """However well it would score: i4o ranks only the documents cited
        in training."""
        model = perfect_model(4)
        model.vocab.doc_cited_counts[2] = 0
        report = evaluate(model, perfect_ground_truth(4), case=1, k=4)
        assert report.values() == {"recall": 0.75, "map": 0.75, "ndcg": 0.75}

    @pytest.mark.parametrize("case", [1, 2, 3])
    def test_no_document_cited_in_training(self, case):
        model = perfect_model(4)
        model.vocab.doc_cited_counts[:] = 0
        report = evaluate(model, perfect_ground_truth(4), case=case, k=2)
        assert report.values() == {"recall": 0.0, "map": 0.0, "ndcg": 0.0}
        assert (report.n_relations, report.n_empty_queries) == (4, 0)

    def test_source_and_structural_are_excluded(self):
        model = perfect_model(4)
        # target 1 scores below docs 0 and 2 for this query, but doc 0 is
        # the known source and doc 2 sits in the structural context
        model.matrices.word_in[0] = np.array([2.0, 1.0, 1.5, 0.0])
        truth = [
            CitationRelation(target=1, context=(0,), structural=frozenset({2}), source=0),
        ]
        report = evaluate(model, truth, case=3, k=1)
        assert report.recall == 1.0

    def test_report_records_format(self):
        report = evaluate(perfect_model(3), perfect_ground_truth(3), case=1, k=5)
        lines = report.records()
        assert lines == [
            "case=1 metric=recall value=1.0 n=3",
            "case=1 metric=map value=1.0 n=3",
            "case=1 metric=ndcg value=1.0 n=3",
        ]


# The fixture corpus saturates: held-out docs cite whole cliques and the
# protocol excludes the structural context, so every model scores 1.0 on
# every metric.  These tests pin those values exactly, as regression
# baselines; they cannot show that structure or Case 1 helps.
# TestDeskScaleTrend in test_acceptance.py is the structure gate.
PERFECT = {"recall": 1.0, "map": 1.0, "ndcg": 1.0}


class TestFixtureTrends:
    def test_case_one_recall_at_least_case_three(self, split_avg_model, fixture_split):
        truth = fixture_split.ground_truth
        case1 = evaluate(split_avg_model, truth, case=1, k=10)
        case3 = evaluate(split_avg_model, truth, case=3, k=10)
        assert case1.values() == case3.values() == PERFECT

    def test_structure_helps_at_rank_one(self, split_avg_model, split_nostruct_model, fixture_split):
        truth = fixture_split.ground_truth
        with_structure = evaluate(split_avg_model, truth, case=1, k=1)
        without = evaluate(split_nostruct_model, truth, case=1, k=1)
        assert with_structure.values() == without.values() == PERFECT


class TestAblation:
    def test_matrix_shape_and_labels(self, split_avg_model, split_att_model, split_nostruct_model, fixture_split):
        rows = ablation_report(
            split_avg_model, split_att_model, split_nostruct_model,
            fixture_split.ground_truth, k=10,
        )
        assert len(rows) == 9
        assert [r.model_label for r in rows] == ["avg"] * 3 + ["att"] * 3 + ["nostruct"] * 3
        assert [r.report.case for r in rows] == [1, 2, 3] * 3

    def test_identical_models_identical_rows(self):
        model = perfect_model(5)
        truth = perfect_ground_truth(5)
        rows = ablation_report(model, model, model, truth, k=3)
        avg_rows = [r.report for r in rows[:3]]
        att_rows = [r.report for r in rows[3:6]]
        nostruct_rows = [r.report for r in rows[6:]]
        assert avg_rows == att_rows == nostruct_rows

    def test_vocabulary_mismatch_rejected(self):
        base = perfect_model(4)
        other = perfect_model(5)
        with pytest.raises(ConfigError):
            ablation_report(base, base, other, perfect_ground_truth(4))

    def test_structure_beats_no_structure_on_fixture(
        self, split_avg_model, split_att_model, split_nostruct_model, fixture_split
    ):
        rows = ablation_report(
            split_avg_model, split_att_model, split_nostruct_model,
            fixture_split.ground_truth, k=10,
        )
        by_key = {(r.model_label, r.report.case): r.report for r in rows}
        # saturated, like TestFixtureTrends: pinned, not a structure gate
        assert by_key[("avg", 1)].values() == by_key[("nostruct", 1)].values() == PERFECT

    def test_human_table_renders_every_row(self):
        model = perfect_model(3)
        rows = ablation_report(model, model, model, perfect_ground_truth(3), k=2)
        table = format_ablation(rows)
        lines = table.splitlines()
        assert len(lines) == 11
        assert lines[0].split() == ["model", "case", "n", "recall", "map", "ndcg"]
        assert sum(1 for line in lines if line.startswith("avg")) == 3
