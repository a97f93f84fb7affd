"""Metric correctness and the three-case evaluation protocol.

The metric oracle below re-derives each score from the plain definitions
using position lists rather than a single ranked walk.  Both sides reduce
with math.fsum, which returns the correctly rounded sum regardless of
order, so agreement is asserted bitwise.
"""

import math
import random

import numpy as np
import pytest

from citevec.corpus import HeldOutCitation, parse_corpus, resolve_ground_truth
from citevec.errors import ConfigError
from citevec.evaluation import (
    AblationRow,
    MetricReport,
    ablation_report,
    average_precision,
    evaluate,
    format_ablation,
    ndcg_at_k,
    recall_at_k,
)
from citevec.model import EmbeddingConfig, init_model
from citevec.recommend import rank_i4o

from test_recommend import make_vocab


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
        assert recall_at_k(["a", "b", "c"], {"a"}, 10) == 1.0

    def test_recall_half_found(self):
        assert recall_at_k(["a", "x", "y"], {"a", "b"}, 3) == 0.5

    def test_recall_absent(self):
        assert recall_at_k(["x", "y"], {"a"}, 10) == 0.0

    def test_average_precision_worked_example(self):
        got = average_precision(["a", "x", "b"], {"a", "b"}, 10)
        assert abs(got - (1.0 + 2.0 / 3.0) / 2.0) < 1e-15

    def test_average_precision_first_hit(self):
        assert average_precision(["a", "x", "y"], {"a"}, 10) == 1.0

    def test_average_precision_no_hits(self):
        assert average_precision(["x", "y"], {"a"}, 10) == 0.0

    def test_ndcg_top_rank(self):
        assert ndcg_at_k(["a", "x"], {"a"}, 10) == 1.0

    def test_ndcg_rank_two(self):
        got = ndcg_at_k(["x", "a", "y"], {"a"}, 10)
        assert abs(got - 1.0 / math.log2(3)) < 1e-15

    def test_ndcg_pair_in_order(self):
        assert ndcg_at_k(["a", "b", "x"], {"a", "b"}, 10) == 1.0

    def test_empty_relevant_rejected(self):
        for fn in (recall_at_k, average_precision, ndcg_at_k):
            with pytest.raises(ConfigError):
                fn(["a"], set(), 10)

    def test_bad_cutoff_rejected(self):
        for fn in (recall_at_k, average_precision, ndcg_at_k):
            with pytest.raises(ConfigError):
                fn(["a"], {"a"}, 0)


class TestSecondOracle:
    def test_thousand_random_lists(self):
        rng = random.Random(414)
        ids = [f"d{i:03d}" for i in range(40)]
        for _ in range(1000):
            n = rng.randint(1, 30)
            ranked = rng.sample(ids, n)
            relevant = set(rng.sample(ids, rng.randint(1, 6)))
            k = rng.randint(1, 15)
            assert recall_at_k(ranked, relevant, k) == oracle_recall(ranked, relevant, k)
            assert average_precision(ranked, relevant, k) == oracle_average_precision(
                ranked, relevant, k
            )
            assert ndcg_at_k(ranked, relevant, k) == oracle_ndcg(ranked, relevant, k)


class TestMetricProperties:
    def test_bounds_and_recall_monotonicity(self):
        rng = random.Random(99)
        ids = [f"d{i}" for i in range(25)]
        for _ in range(200):
            ranked = rng.sample(ids, rng.randint(1, 25))
            relevant = set(rng.sample(ids, rng.randint(1, 5)))
            prev_recall = 0.0
            for k in range(1, len(ranked) + 2):
                r = recall_at_k(ranked, relevant, k)
                a = average_precision(ranked, relevant, k)
                g = ndcg_at_k(ranked, relevant, k)
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
                g = ndcg_at_k(ranked, relevant, k)
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
            base = average_precision(head + sorted(tail), relevant, 10)
            assert average_precision(head + tail, relevant, 10) == base


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
        HeldOutCitation(target=i, context=(i,), structural=frozenset(), source=None)
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

    def test_case_two_with_keep_prob_one_equals_case_one(self, split_avg_model, fixture_split):
        truth = fixture_split.ground_truth
        full = evaluate(split_avg_model, truth, case=1, k=10)
        degenerate = evaluate(split_avg_model, truth, case=2, k=10, keep_prob=1.0)
        assert degenerate.values() == full.values()

    def test_deterministic_per_seed(self, split_avg_model, fixture_split):
        truth = fixture_split.ground_truth
        first = evaluate(split_avg_model, truth, case=2, k=10, seed=5)
        second = evaluate(split_avg_model, truth, case=2, k=10, seed=5)
        assert first == second

    def test_order_insensitive_accumulation(self, split_avg_model, fixture_split):
        truth = list(fixture_split.ground_truth)
        base = evaluate(split_avg_model, truth, case=2, k=10, seed=5)
        for trial in range(5):
            shuffled = list(truth)
            random.Random(trial).shuffle(shuffled)
            report = evaluate(split_avg_model, shuffled, case=2, k=10, seed=5)
            assert report == base

    def test_unusable_query_counts_as_miss(self):
        model = perfect_model(4)
        truth = [
            HeldOutCitation(target=0, context=(0,), structural=frozenset(), source=None),
            HeldOutCitation(target=1, context=(), structural=frozenset(), source=None),
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

    def test_source_and_structural_are_excluded(self):
        model = perfect_model(4)
        # target 1 scores below docs 0 and 2 for this query, but doc 0 is
        # the known source and doc 2 sits in the structural context
        model.matrices.word_in[0] = np.array([2.0, 1.0, 1.5, 0.0])
        truth = [
            HeldOutCitation(target=1, context=(0,), structural=frozenset({2}), source=0),
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


class TestFixtureTrends:
    def test_case_one_recall_at_least_case_three(self, split_avg_model, fixture_split):
        truth = fixture_split.ground_truth
        case1 = evaluate(split_avg_model, truth, case=1, k=10)
        case3 = evaluate(split_avg_model, truth, case=3, k=10)
        # regression baseline from the first verified run: both 1.0 at k=10
        assert case1.recall >= case3.recall

    def test_structure_helps_at_rank_one(self, split_avg_model, split_nostruct_model, fixture_split):
        truth = fixture_split.ground_truth
        with_structure = evaluate(split_avg_model, truth, case=1, k=1)
        without = evaluate(split_nostruct_model, truth, case=1, k=1)
        # regression baseline from the first verified run: 1.0 vs 1.0; the
        # protocol excludes the structural context from the candidates, and
        # held-out docs cite whole cliques, so no same-topic distractor
        # survives and both variants saturate at this scale
        assert with_structure.recall >= without.recall


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
        # regression baseline from the first verified run: 1.0 vs 1.0 at k=10
        assert by_key[("avg", 1)].recall >= by_key[("nostruct", 1)].recall

    def test_human_table_renders_every_row(self):
        model = perfect_model(3)
        rows = ablation_report(model, model, model, perfect_ground_truth(3), k=2)
        table = format_ablation(rows)
        lines = table.splitlines()
        assert len(lines) == 11
        assert lines[0].split() == ["model", "case", "n", "recall", "map", "ndcg"]
        assert sum(1 for line in lines if line.startswith("avg")) == 3
