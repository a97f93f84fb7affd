"""Sampler, hidden layer, gradient, and training loop tests.

Gradients are checked against central finite differences of the sampled
loss; the oracle knows nothing about the analytic formulas.
"""

import dataclasses
import importlib
import io
import math
import weakref

import numpy as np
import pytest

from citevec.corpus import (
    CitationRelation,
    extract_relations,
    generate_synthetic_corpus,
    parse_corpus,
    resolve_ground_truth,
    SyntheticSpec,
)
from citevec.errors import CitevecError, ConfigError
from citevec.model import EmbeddingConfig, ModelMatrices, init_matrices, init_model, save_model
from citevec.recommend import rank_i4i
from citevec.train import (
    _RNG_RETROFIT,
    BATCH,
    NegativeSampler,
    TrainProgress,
    _citation_examples,
    _content_examples,
    _epoch,
    _Examples,
    _ns_batch,
    _ns_output,
    retrofit_pvdm,
    train,
)
from reference import (
    _window_context,
    attention_ratios,
    backprop,
    batch_reference,
    citation_examples_reference,
    hidden_att,
    hidden_avg,
    lr_schedule,
    ns_loss_and_grads,
    ns_terms,
    participant_slots,
)


# the package exports the function `train` under the submodule's name
train_module = importlib.import_module("citevec.train")


def central_difference(f, x, h=1e-5):
    """Central finite-difference gradient of scalar f at x, elementwise."""
    x = np.asarray(x, dtype=np.float64)
    grad = np.empty(x.size)
    for i in range(x.size):
        plus = x.reshape(-1).copy()
        minus = plus.copy()
        plus[i] += h
        minus[i] -= h
        grad[i] = (f(plus.reshape(x.shape)) - f(minus.reshape(x.shape))) / (2 * h)
    return grad.reshape(x.shape)


def relative_error(analytic, numeric):
    analytic = np.asarray(analytic)
    numeric = np.asarray(numeric)
    scale = max(np.abs(analytic).max(), np.abs(numeric).max(), 1e-6)
    return float(np.abs(analytic - numeric).max() / scale)


def random_matrices(rng, n_docs=6, n_words=8, k=4):
    return ModelMatrices(
        doc_in=rng.normal(size=(n_docs, k)),
        doc_out=rng.normal(size=(n_docs, k)),
        word_in=rng.normal(size=(n_words, k)),
        word_out=rng.normal(size=(n_words, k)),
        attention=rng.normal(size=n_docs + n_words),
    )


class TestNegativeSampler:
    def test_probabilities_follow_counts_to_the_three_quarters(self):
        counts = np.array([0, 1, 16, 81])
        sampler = NegativeSampler(counts, seed=0)
        expected = counts.astype(float) ** 0.75
        expected /= expected.sum()
        probabilities = np.diff(sampler.cumulative, prepend=0.0)
        assert np.allclose(probabilities, expected)
        assert probabilities[0] == 0.0
        assert math.isclose(probabilities.sum(), 1.0, abs_tol=1e-12)

    def test_zero_count_items_are_never_drawn(self):
        sampler = NegativeSampler(np.array([0, 5, 0, 5, 0]), seed=1)
        draws = sampler.sample(20000)
        assert set(np.unique(draws).tolist()) <= {1, 3}

    def test_excluded_index_never_appears(self):
        sampler = NegativeSampler(np.array([10, 1, 1]), seed=2)
        for _ in range(200):
            draws = sampler.sample(10, exclude=0)
            assert (draws != 0).all()

    def test_impossible_exclusion_yields_empty_batch(self):
        sampler = NegativeSampler(np.array([0, 7, 0]), seed=3)
        assert sampler.sample(5, exclude=1).size == 0

    def test_seed_reproducibility(self):
        a = NegativeSampler(np.array([3, 2, 1]), seed=4).sample(100)
        b = NegativeSampler(np.array([3, 2, 1]), seed=4).sample(100)
        assert np.array_equal(a, b)

    def test_empirical_frequencies_track_target(self):
        rng = np.random.default_rng(42)
        counts = rng.integers(0, 50, size=30)
        counts[0] = 0
        sampler = NegativeSampler(counts, seed=5)
        draws = sampler.sample(200000)
        freq = np.bincount(draws, minlength=counts.size) / draws.size
        tv = 0.5 * np.abs(freq - np.diff(sampler.cumulative, prepend=0.0)).sum()
        assert tv < 0.02

    def test_one_row_is_the_single_sample_draw_sequence(self):
        counts = np.array([6, 1, 2, 0, 3])
        for seed in range(30):
            target = seed % 5
            draws, kept = NegativeSampler(counts, seed=seed).sample_rows(np.array([target]), 4)
            single = NegativeSampler(counts, seed=seed).sample(4, exclude=target)
            assert np.array_equal(draws[0][kept[0]], single)

    def test_rows_exclude_their_own_target(self):
        sampler = NegativeSampler(np.array([10, 1, 1, 0]), seed=6)
        targets = np.array([0, 1, 2, 3, 0] * 40)
        draws, kept = sampler.sample_rows(targets, 6)
        assert draws.shape == kept.shape == (200, 6)
        assert kept.all()  # redraws always find another index here
        assert (draws != targets[:, None]).all()
        assert (draws == 1).any() and (draws == 0).any()

    def test_impossible_row_exclusion_keeps_nothing(self):
        sampler = NegativeSampler(np.array([0, 7, 0]), seed=3)
        draws, kept = sampler.sample_rows(np.array([1, 0, 1]), 3)
        assert kept.tolist() == [[False] * 3, [True] * 3, [False] * 3]
        assert (draws == 1).all()

    def test_degenerate_inputs(self):
        with pytest.raises(CitevecError):
            NegativeSampler(np.zeros(4), seed=0)
        with pytest.raises(ConfigError):
            NegativeSampler(np.array([-1, 2]), seed=0)
        with pytest.raises(ConfigError):
            NegativeSampler(np.array([1, 2]), seed=0).sample(0)


class TestHiddenAvg:
    def test_arithmetic_example(self):
        x = hidden_avg(np.array([1.0, 1.0]), [np.array([3.0, 1.0])], [np.array([-1.0, 1.0])])
        assert np.allclose(x, [1.0, 1.0])

    def test_source_alone_is_identity(self):
        v = np.array([0.3, -0.7, 2.0])
        assert np.array_equal(hidden_avg(v), v)

    def test_mean_of_identical_vectors_is_that_vector(self):
        v = np.array([0.5, 0.25])
        x = hidden_avg(v, [v, v], [v])
        assert np.allclose(x, v)

    def test_zero_participants_is_an_error(self):
        with pytest.raises(ConfigError):
            hidden_avg(None, [], [])


class TestAttentionRatios:
    def test_log_two_scores(self):
        ratios = attention_ratios(np.array([math.log(2.0), 0.0]), [0, 1])
        assert np.allclose(ratios, [2 / 3, 1 / 3])

    def test_equal_scores_are_uniform(self):
        for m in (1, 2, 5, 9):
            ratios = attention_ratios(np.full(m, 3.7), np.arange(m))
            assert np.array_equal(ratios, np.full(m, 1.0 / m))

    def test_shift_invariance(self):
        rng = np.random.default_rng(42)
        for _ in range(50):
            scores = rng.normal(size=6) * 3
            shifted = scores + rng.normal() * 100
            a = attention_ratios(scores, np.arange(6))
            b = attention_ratios(shifted, np.arange(6))
            assert np.allclose(a, b, rtol=0, atol=1e-12)

    def test_sums_to_one_and_positive(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            m = int(rng.integers(1, 12))
            scores = rng.normal(size=20) * rng.integers(1, 50)
            slots = rng.integers(0, 20, size=m)
            ratios = attention_ratios(scores, slots)
            assert abs(ratios.sum() - 1.0) <= 1e-12
            assert (ratios > 0).all()


class TestHiddenAtt:
    def test_zero_scores_equal_average_bitwise(self):
        rng = np.random.default_rng(42)
        for _ in range(50):
            k = int(rng.integers(1, 8))
            n_struct = int(rng.integers(0, 4))
            n_ctx = int(rng.integers(0, 4))
            source = rng.normal(size=k)
            struct = rng.normal(size=(n_struct, k))
            ctx = rng.normal(size=(n_ctx, k))
            m = 1 + n_struct + n_ctx
            att = hidden_att(np.zeros(m), np.arange(m), source, struct, ctx)
            avg = hidden_avg(source, struct, ctx)
            assert np.array_equal(att, avg)

    def test_single_participant(self):
        v = np.array([1.5, -2.0])
        x = hidden_att(np.array([0.42]), [0], v)
        assert np.allclose(x, v)

    def test_two_thirds_one_third_mix(self):
        scores = np.array([math.log(2.0), 0.0])
        x = hidden_att(scores, [0, 1], np.array([3.0, 0.0]), [np.array([0.0, 3.0])])
        assert np.allclose(x, [2.0, 1.0])

    def test_slot_count_mismatch(self):
        with pytest.raises(ConfigError):
            hidden_att(np.zeros(3), [0, 1, 2], np.ones(2), [np.ones(2)])


class TestParticipantSlots:
    def test_order_and_word_offset(self):
        slots = participant_slots(4, {9, 2}, (1, 0, 1), n_docs=10)
        assert slots.tolist() == [4, 2, 9, 11, 10, 11]

    def test_no_context(self):
        assert participant_slots(0, set(), (), n_docs=3).tolist() == [0]


class TestNsLossAndGrads:
    def test_orthogonal_inputs(self):
        hidden = np.array([1.0, 0.0, 0.0, 0.0])
        target = np.array([0.0, 1.0, 0.0, 0.0])
        negatives = np.array([[0.0, 0.0, 1.0, 0.0], [0.0, 0.0, 0.0, 1.0]])
        loss, grad_hidden, grad_target, grad_negatives = ns_loss_and_grads(
            hidden, target, negatives
        )
        assert math.isclose(loss, 3 * math.log(2.0), rel_tol=1e-12)
        assert np.allclose(grad_target, -0.5 * hidden)
        assert np.allclose(grad_negatives, 0.5 * np.vstack([hidden, hidden]))

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(42)
        for _ in range(20):
            k, n = 4, int(rng.integers(1, 4))
            hidden = rng.normal(size=k)
            target = rng.normal(size=k)
            negatives = rng.normal(size=(n, k))
            _, grad_hidden, grad_target, grad_negatives = ns_loss_and_grads(
                hidden, target, negatives
            )
            fd_hidden = central_difference(
                lambda v: ns_loss_and_grads(v, target, negatives)[0], hidden
            )
            fd_target = central_difference(
                lambda v: ns_loss_and_grads(hidden, v, negatives)[0], target
            )
            fd_negatives = central_difference(
                lambda v: ns_loss_and_grads(hidden, target, v)[0], negatives
            )
            assert relative_error(grad_hidden, fd_hidden) < 1e-5
            assert relative_error(grad_target, fd_target) < 1e-5
            assert relative_error(grad_negatives, fd_negatives) < 1e-5


def example_lists(examples):
    """(target, slots) per example, read back from flat tables."""
    bounds = zip(examples.offsets[:-1].tolist(), examples.offsets[1:].tolist())
    return [
        (target, examples.slots[lo:hi].tolist())
        for target, (lo, hi) in zip(examples.targets.tolist(), bounds)
    ]


def occurrence_examples(docs, vocab, window):
    """(target, slots) per word occurrence, built one occurrence at a time."""
    return [
        (
            vocab.word_ids[token.value],
            [vocab.doc_ids[doc.id]]
            + [vocab.n_docs + vocab.word_ids[w] for w in _window_context(doc.tokens, i, window)],
        )
        for doc in docs
        for i, token in enumerate(doc.tokens)
        if not token.is_cite
    ]


# a citation marker inside windows and next to each other, a one-word doc,
# a doc with markers only, a self-citation, a relation with no context and no
# structural docs, and placeholders d8 and d9 that only citations name
EDGE_CORPUS = (
    b"d0\ta [[d1]] b [[d8]] [[d9]] c a d\n"
    b"d1\tx\n"
    b"d2\t[[d0]] [[d1]]\n"
    b"d3\tq [[d3]] r q\n"
    b"d4\t[[d1]]\n"
    b"d5\ta b c d a b c d a\n"
)


class TestNsOutput:
    """``_ns_output``'s entries and gathered output rows, example by
    example, against ``ns_terms``."""

    # with every noise mass on row 5 the examples that target it keep no
    # negative, and the others draw row 5 four times
    @pytest.mark.parametrize("counts", [[1, 2, 3, 4, 5, 6], [0, 0, 0, 0, 0, 7]])
    def test_entries_and_rows_match_the_reference(self, counts):
        rng = np.random.default_rng(5)
        out = rng.normal(size=(6, 4))
        before = out.tobytes()
        hidden = rng.normal(size=(7, 4))
        targets = np.array([0, 5, 2, 5, 3, 1, 0])
        negative = 4
        draws, kept = NegativeSampler(counts, seed=3).sample_rows(targets, negative)
        work = np.empty((2, targets.size * (1 + negative), 4))
        live, entries, rows = _ns_output(hidden, targets, out, NegativeSampler(counts, seed=3),
                                         negative, work)

        assert out.tobytes() == before
        assert np.array_equal(live, kept.any(axis=1))
        assert live.all() == (counts[0] > 0)
        assert entries.ptr[0] == 0 and entries.ptr[-1] == entries.ids.size
        # one row per entry, gathered into the first half of ``work``
        assert rows.shape == (entries.ids.size, 4) and np.shares_memory(rows, work[0])
        for i, target in enumerate(targets):
            at = slice(entries.ptr[i], entries.ptr[i + 1])
            if not live[i]:
                assert at.start == at.stop
                continue
            negatives = draws[i][kept[i]]
            assert np.array_equal(entries.example[at], np.full(1 + negatives.size, i))
            assert np.array_equal(entries.ids[at], [target, *negatives])
            assert np.array_equal(entries.is_target[at], [True] + [False] * negatives.size)
            want_rows, scores, coeffs = ns_terms(hidden[i], out[target], out[negatives])
            assert np.array_equal(rows[at], want_rows)
            assert np.array_equal(entries.scores[at], scores)
            assert np.array_equal(entries.coeffs[at], coeffs)


class TestNsBatchHiddenGradient:
    """Training's hidden gradient, which ``_ns_batch`` forms from
    ``_ns_output``'s entries and rows, against ``ns_loss_and_grads``.  Each
    example here has one participant, a doc row of its own with weight 1,
    so that row's hidden layer is the row itself and it moves by exactly
    lr times its example's hidden gradient."""

    @pytest.mark.parametrize("counts", [[1, 2, 3, 4, 5, 6], [0, 0, 0, 0, 0, 7]])
    def test_participant_steps_are_the_reference_gradients(self, counts):
        rng = np.random.default_rng(6)
        matrices = random_matrices(rng, n_docs=7)
        start = matrices.copy()
        out = rng.normal(size=(6, 4))
        out_start = out.copy()
        targets = np.array([0, 5, 2, 5, 3, 1, 0])
        examples = _Examples(targets, np.arange(8), np.arange(7))
        lr = np.linspace(0.1, 0.7, 7)
        negative = 4
        draws, kept = NegativeSampler(counts, seed=3).sample_rows(targets, negative)
        work = np.empty((3, targets.size * (1 + negative), 4))
        _, skipped = _ns_batch(examples, 0, 7, matrices, out, NegativeSampler(counts, seed=3),
                               lr, negative, attention=False, work=work)

        assert skipped == (~kept.any(axis=1)).sum()
        for i, target in enumerate(targets):
            negatives = draws[i][kept[i]]
            if negatives.size == 0:
                assert np.array_equal(matrices.doc_in[i], start.doc_in[i])
                continue
            _, grad, _, _ = ns_loss_and_grads(start.doc_in[i], out_start[target],
                                              out_start[negatives])
            assert np.array_equal(matrices.doc_in[i], start.doc_in[i] - lr[i] * grad)


class TestFlatTables:
    """The flat tables against the per-occurrence construction."""

    @pytest.fixture(params=["fixture", "edge"])
    def corpus(self, request, fixture_corpus):
        return fixture_corpus if request.param == "fixture" else parse_corpus(EDGE_CORPUS)

    @pytest.mark.parametrize("window", [1, 2, 8, 50])
    def test_content_examples_are_the_window_contexts(self, corpus, window):
        vocab = corpus.vocab
        expected = occurrence_examples(corpus.docs, vocab, window)
        assert example_lists(_content_examples(corpus.docs, vocab, window)) == expected

    @pytest.mark.parametrize("window", [1, 3, 50])
    @pytest.mark.parametrize("structural_context", [True, False])
    def test_citation_examples_are_the_relations(self, corpus, window, structural_context):
        relations = extract_relations(corpus.docs, corpus.vocab, window)
        n_docs = corpus.vocab.n_docs
        expected = [
            (r.target, participant_slots(
                r.source, r.structural if structural_context else (), r.context, n_docs
            ).tolist())
            for r in relations
        ]
        examples = _citation_examples(relations, n_docs, corpus.vocab.n_words,
                                      structural_context)
        assert example_lists(examples) == expected
        order = np.random.default_rng(window).permutation(len(relations))
        assert example_lists(examples.take(order)) == [expected[i] for i in order]

    @pytest.mark.parametrize("structural_context", [True, False])
    def test_citation_tables_match_the_reference_loop(self, corpus, structural_context):
        relations = extract_relations(corpus.docs, corpus.vocab, 3)
        n_docs, n_words = corpus.vocab.n_docs, corpus.vocab.n_words
        # small int sets iterate in sorted order unless their hashes collide;
        # built from a list, the set keeps this insertion order (a set
        # literal is a constant that a bytecode cache may store sorted)
        unsorted = [
            CitationRelation(source=0, target=3, structural=frozenset([33, 1, 17]),
                             context=(5, 2)),
            CitationRelation(source=2, target=33, structural=frozenset(), context=()),
        ]
        assert list(unsorted[0].structural) != sorted(unsorted[0].structural)
        for subset, n in ((relations, n_docs), (relations[:1], n_docs), ([], n_docs),
                          (unsorted, 40)):
            got = _citation_examples(subset, n, n_words, structural_context)
            expected = citation_examples_reference(subset, n, structural_context)
            for table, want in zip(got, expected):
                assert table.dtype == want.dtype
                assert np.array_equal(table, want)

    def test_a_relation_without_a_source_is_named(self, corpus):
        relations = list(extract_relations(corpus.docs, corpus.vocab, 3))  # a table is read-only
        relations[1] = dataclasses.replace(relations[1], source=None)
        with pytest.raises(ConfigError, match=r"^relation 1 names an id outside"):
            _citation_examples(relations, corpus.vocab.n_docs, corpus.vocab.n_words, True)

    def test_edge_corpus_has_its_edge_cases(self):
        corpus = parse_corpus(EDGE_CORPUS)
        assert {d.id for d in corpus.docs if d.placeholder} == {"d8", "d9"}
        relations = extract_relations(corpus.docs, corpus.vocab, 1)
        assert any(not r.context and not r.structural for r in relations)
        assert not _content_examples([corpus.docs[2]], corpus.vocab, 2).targets.size


def marker_citations(docs, window):
    """(citing id, cited id, other cited ids, window words) per citation
    marker, each window walked over the token stream on its own."""
    out = []
    for doc in docs:
        cited = set(doc.cite_targets())
        for i, token in enumerate(doc.tokens):
            if token.is_cite:
                words = _window_context(doc.tokens, i, window)
                out.append((doc.id, token.value, cited - {doc.id, token.value}, words))
    return out


class TestCitationWalk:
    """Both relation lists against the per-marker token walk."""

    @pytest.fixture(params=["fixture", "edge"])
    def corpus(self, request, fixture_corpus):
        return fixture_corpus if request.param == "fixture" else parse_corpus(EDGE_CORPUS)

    @staticmethod
    def held_out(vocab):
        """Held-out docs whose windows hold unknown words and unknown ids,
        one citing from a known doc id and one from an unknown one."""
        a, b, c = vocab.word_list[:3]
        d0, d1 = vocab.doc_list[:2]
        text = f"zz {a} [[{d1}]] yy [[nope]] {b} [[{d0}]] {c} qq [[{d1}]] [[gone]] zz"
        docs = parse_corpus(f"{d0}\t{text}\nfresh\tqq {b} [[nope]] {a} [[{d0}]]\n".encode()).docs
        return [doc for doc in docs if not doc.placeholder]

    @pytest.mark.parametrize("window", [1, 2, 3, 8, 50])
    def test_extract_relations(self, corpus, window):
        doc_ids, word_ids = corpus.vocab.doc_ids, corpus.vocab.word_ids
        expected = [
            CitationRelation(doc_ids[source], doc_ids[target],
                             frozenset(doc_ids[d] for d in others),
                             tuple(word_ids[w] for w in words))
            for source, target, others, words in marker_citations(corpus.docs, window)
        ]
        assert extract_relations(corpus.docs, corpus.vocab, window) == expected

    @pytest.mark.parametrize("window", [1, 2, 3, 8, 50])
    def test_resolve_ground_truth(self, corpus, window):
        docs = corpus.docs + self.held_out(corpus.vocab)
        doc_ids, word_ids = corpus.vocab.doc_ids, corpus.vocab.word_ids
        expected, dropped, unknown_words = [], 0, 0
        for source, target, others, words in marker_citations(docs, window):
            if target not in doc_ids:
                dropped += 1
                continue
            expected.append(CitationRelation(
                doc_ids.get(source), doc_ids[target],
                frozenset(doc_ids[d] for d in others if d in doc_ids),
                tuple(word_ids[w] for w in words if w in word_ids)))
            unknown_words += sum(w not in word_ids for w in words)
        assert resolve_ground_truth(docs, corpus.vocab, window) == (expected, dropped)
        assert dropped == 3 and unknown_words and any(r.source is None for r in expected)


def replay_negatives(counts, seed, n, exclude):
    """Same draw sequence a fresh sampler with this seed will produce."""
    return NegativeSampler(counts, seed=seed).sample(n, exclude=exclude)


class TestBackpropAvg:
    counts = np.array([1, 4, 2, 3, 5, 2])
    relation = CitationRelation(
        source=0, target=3, structural=frozenset({1, 2}), context=(0, 1, 1)
    )

    def test_zero_learning_rate_changes_nothing(self):
        rng = np.random.default_rng(42)
        matrices = random_matrices(rng)
        before = matrices.copy()
        loss = backprop(
            "avg", self.relation, matrices, NegativeSampler(self.counts, seed=1), 0.0, negative=3
        )
        assert loss > 0
        for a, b in zip(matrices.arrays(), before.arrays()):
            assert np.array_equal(a, b)

    def test_small_step_reduces_loss_on_same_negatives(self):
        rng = np.random.default_rng(7)
        for seed in range(5):
            matrices = random_matrices(rng)
            negatives = replay_negatives(self.counts, [seed], 3, self.relation.target)
            doc_rows = [0, 1, 2]
            ctx = [0, 1, 1]

            def loss_now():
                hidden = hidden_avg(
                    matrices.doc_in[0], matrices.doc_in[[1, 2]], matrices.word_in[ctx]
                )
                return ns_loss_and_grads(
                    hidden, matrices.doc_out[3], matrices.doc_out[negatives]
                )[0]

            before = loss_now()
            backprop(
                "avg", self.relation, matrices, NegativeSampler(self.counts, seed=[seed]), 1e-3, negative=3
            )
            assert loss_now() <= before

    def test_in_vector_updates_are_the_scaled_hidden_gradient(self):
        rng = np.random.default_rng(3)
        matrices = random_matrices(rng)
        before = matrices.copy()
        lr = 0.01
        negatives = replay_negatives(self.counts, [9], 3, self.relation.target)
        hidden = hidden_avg(
            before.doc_in[0], before.doc_in[[1, 2]], before.word_in[[0, 1, 1]]
        )
        _, grad_hidden, _, _ = ns_loss_and_grads(
            hidden, before.doc_out[3], before.doc_out[negatives]
        )
        backprop(
            "avg", self.relation, matrices, NegativeSampler(self.counts, seed=[9]), lr, negative=3
        )
        m = 6  # 1 source + 2 structural + 3 context words
        step = lr * grad_hidden / m
        assert np.allclose(matrices.doc_in[0] - before.doc_in[0], -step, atol=1e-13)
        assert np.allclose(matrices.doc_in[1] - before.doc_in[1], -step, atol=1e-13)
        assert np.allclose(matrices.word_in[0] - before.word_in[0], -step, atol=1e-13)
        # word 1 occurs twice in the context, so it accumulates two shares
        assert np.allclose(matrices.word_in[1] - before.word_in[1], -2 * step, atol=1e-13)
        assert np.array_equal(matrices.attention, before.attention)

    def test_structural_context_flag_strips_the_co_cited_docs(self):
        rng = np.random.default_rng(11)
        base = random_matrices(rng)
        with_flag = base.copy()
        stripped = base.copy()
        backprop(
            "avg",
            self.relation,
            with_flag,
            NegativeSampler(self.counts, seed=2),
            0.05,
            negative=3,
            structural_context=False,
        )
        bare = CitationRelation(
            source=0, target=3, structural=frozenset(), context=(0, 1, 1)
        )
        backprop(
            "avg", bare, stripped, NegativeSampler(self.counts, seed=2), 0.05, negative=3
        )
        for a, b in zip(with_flag.arrays(), stripped.arrays()):
            assert np.array_equal(a, b)


class TestBackpropAtt:
    counts = np.array([1, 4, 2, 3, 5, 2])
    relation = CitationRelation(
        source=0, target=3, structural=frozenset({1, 2}), context=(0, 1, 1)
    )

    def test_attention_updates_sum_to_zero(self):
        rng = np.random.default_rng(5)
        for seed in range(5):
            matrices = random_matrices(rng)
            before = matrices.attention.copy()
            backprop(
                "att", self.relation, matrices, NegativeSampler(self.counts, seed=seed), 0.1, negative=3
            )
            delta = matrices.attention - before
            assert delta.any()
            assert abs(delta.sum()) < 1e-14

    def test_attention_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(13)
        n_docs = 6
        for _ in range(20):
            matrices = random_matrices(rng, n_docs=n_docs)
            slots = participant_slots(
                self.relation.source, self.relation.structural, self.relation.context, n_docs
            )
            negatives = rng.integers(0, n_docs, size=3)
            target = matrices.doc_out[self.relation.target]
            neg_rows = matrices.doc_out[negatives]
            source = matrices.doc_in[0]
            struct = matrices.doc_in[[1, 2]]
            ctx = matrices.word_in[[0, 1, 1]]

            def loss_of_scores(scores):
                hidden = hidden_att(scores, slots, source, struct, ctx)
                return ns_loss_and_grads(hidden, target, neg_rows)[0]

            ratios = attention_ratios(matrices.attention, slots)
            parts = np.concatenate((source[None, :], struct, ctx), axis=0)
            hidden = ratios @ parts
            _, grad_hidden, _, _ = ns_loss_and_grads(hidden, target, neg_rows)
            projections = parts @ grad_hidden
            analytic_per_slot = ratios * (projections - ratios @ projections)
            # fold per-occurrence gradients into per-slot totals (word 1 repeats)
            analytic = np.zeros_like(matrices.attention)
            np.add.at(analytic, slots, analytic_per_slot)

            def full_loss(scores_vector):
                return loss_of_scores(scores_vector)

            fd = central_difference(full_loss, matrices.attention)
            assert relative_error(analytic, fd) < 1e-4

    def test_zero_scores_step_equals_average_step(self):
        rng = np.random.default_rng(21)
        for seed in range(5):
            shared = random_matrices(rng)
            shared.attention[:] = 0.0
            avg_side = shared.copy()
            att_side = shared.copy()
            backprop(
                "avg", self.relation, avg_side, NegativeSampler(self.counts, seed=seed), 0.05, negative=3
            )
            backprop(
                "att", self.relation, att_side, NegativeSampler(self.counts, seed=seed), 0.05, negative=3
            )
            assert np.array_equal(avg_side.doc_in, att_side.doc_in)
            assert np.array_equal(avg_side.word_in, att_side.word_in)
            assert np.array_equal(avg_side.doc_out, att_side.doc_out)
            # only the attention side trains its scores
            assert np.array_equal(avg_side.attention, np.zeros_like(avg_side.attention))
            assert att_side.attention.any()


class TestRepeatedRows:
    # only doc 4 carries noise mass, so all three negatives are doc 4
    counts = np.array([0, 0, 0, 0, 5, 0])
    relation = CitationRelation(
        source=0, target=3, structural=frozenset({1, 2}), context=(0, 1, 1)
    )

    def test_repeated_negatives_and_words_match_an_add_at_reference(self):
        negatives = replay_negatives(self.counts, [3], 3, self.relation.target)
        assert negatives.tolist() == [4, 4, 4]
        rng = np.random.default_rng(29)
        for variant in ("avg", "att"):
            matrices = random_matrices(rng)
            expected = matrices.copy()
            r = self.relation
            slots = participant_slots(r.source, r.structural, r.context, matrices.n_docs)
            example = (r.target, slots.tolist())
            batch_reference(
                [example], expected, "doc_out", NegativeSampler(self.counts, seed=[3]),
                [0.1], 3, attention=variant == "att", batch=1,
            )
            backprop(
                variant,
                self.relation,
                matrices,
                NegativeSampler(self.counts, seed=[3]),
                0.1,
                negative=3,
            )
            for got, want in zip(matrices.arrays(), expected.arrays()):
                assert np.array_equal(got, want), variant


class TestBatchKernel:
    # (target, slots): docs are slots 0-5, word w is slot 6 + w.  Word 1
    # (slot 7) repeats inside examples and, like doc 2, across them.
    examples = [
        (3, [0, 1, 2, 7, 7]),
        (4, [2, 6, 9]),
        (1, [0, 7]),
        (5, [2, 3, 6, 6, 7]),
        (0, [1]),
        (3, [4, 5, 13, 7]),
        (2, [0, 3, 8]),
        (4, [2, 7, 7, 7]),
        (1, [5, 12]),
        (0, [3, 4, 10, 11]),
        (3, [1, 6]),
    ]

    def flat(self):
        offsets = np.cumsum([0] + [len(s) for _, s in self.examples])
        return _Examples(
            np.array([t for t, _ in self.examples], dtype=np.intp),
            offsets.astype(np.intp),
            np.concatenate([s for _, s in self.examples]).astype(np.intp),
        )

    @pytest.mark.parametrize("variant", ["avg", "att"])
    @pytest.mark.parametrize("counts", [[3, 1, 4, 1, 5, 9], [0, 0, 0, 0, 5, 0]])
    def test_two_epochs_match_the_batch_reference(self, monkeypatch, variant, counts):
        """Batches of 4 over 11 examples (the last one partial), one
        learning rate per update; with all noise mass on doc 4 the two
        examples whose target is doc 4 are skipped."""
        monkeypatch.setattr(train_module, "BATCH", 4)
        config = EmbeddingConfig(negative=3, learning_rate=0.5, min_lr=0.01, variant=variant)
        attention = variant == "att"
        rng = np.random.default_rng(61)
        got = random_matrices(rng, n_docs=6, n_words=8, k=5)
        want = got.copy()
        initial = got.copy()
        n = len(self.examples)
        total = 2 * n
        got_sampler = NegativeSampler(counts, seed=[8])
        want_sampler = NegativeSampler(counts, seed=[8])
        skipped = 0
        for epoch in range(2):
            loss, got_skipped = _epoch(
                self.flat(), got, got.doc_out, got_sampler, epoch * n, total, config, attention
            )
            lrs = [
                lr_schedule(epoch * n + i, total, config.learning_rate, config.min_lr)
                for i in range(n)
            ]
            batch_losses, want_skipped = batch_reference(
                self.examples, want, "doc_out", want_sampler, lrs, 3, attention, batch=4
            )
            assert len(batch_losses) == 3
            want_loss = 0.0
            for value in batch_losses:
                want_loss += value
            assert loss == want_loss
            assert got_skipped == want_skipped
            skipped += got_skipped
            for a, b in zip(got.arrays(), want.arrays()):
                assert np.array_equal(a, b)
        assert skipped == (4 if counts == [0, 0, 0, 0, 5, 0] else 0)
        assert np.array_equal(got.attention, initial.attention) != attention


class TestRetrofit:
    def test_content_pass_matches_the_batch_reference(self):
        """The content pass against a plain per-occurrence loop with batch
        semantics, at the real batch size: more occurrences than one batch
        (the last batch partial), windows that repeat words and cross
        citation markers."""
        spec = SyntheticSpec(n_topics=2, docs_per_topic=5, clique_size=2, vocab_per_topic=6, seed=8)
        corpus = parse_corpus(generate_synthetic_corpus(spec))
        vocab = corpus.vocab
        config = EmbeddingConfig(
            dim=5, window=3, negative=4, retrofit_epochs=3, learning_rate=0.3, seed=7
        )
        records = []
        got = retrofit_pvdm(corpus.docs, vocab, config, on_epoch=records.append)

        examples = occurrence_examples(corpus.docs, vocab, config.window)
        n = len(examples)
        assert n > BATCH and n % BATCH
        assert any(len(set(slots)) < len(slots) for _, slots in examples)
        want = init_matrices(vocab, config)
        sampler = NegativeSampler(vocab.word_counts, seed=[config.seed, _RNG_RETROFIT])
        total = config.retrofit_epochs * n
        for epoch in range(config.retrofit_epochs):
            lrs = [
                lr_schedule(epoch * n + i, total, config.learning_rate, config.min_lr)
                for i in range(n)
            ]
            batch_losses, skipped = batch_reference(
                examples, want, "word_out", sampler, lrs, config.negative, False, BATCH
            )
            loss = 0.0
            for value in batch_losses:
                loss += value
            assert records[epoch] == TrainProgress(
                epoch + 1, (epoch + 1) * n, lrs[-1], loss / n, skipped
            )
        assert len(records) == config.retrofit_epochs
        for a, b in zip(got.arrays(), want.arrays()):
            assert np.array_equal(a, b)

    def test_skipped_occurrences_are_counted_and_change_nothing(self):
        # one word type: every negative draw collides with the target
        corpus = parse_corpus(b"d0\ta a a\nd1\ta [[d0]]\n")
        config = EmbeddingConfig(dim=3, window=2, negative=2, retrofit_epochs=2, seed=4)
        records = []
        got = retrofit_pvdm(corpus.docs, corpus.vocab, config, on_epoch=records.append)
        assert [(r.epoch, r.seen, r.running_loss, r.skipped) for r in records] == [
            (e, 4 * e, 0.0, 4) for e in (1, 2)
        ]
        assert records[0].record() == "epoch=1 seen=4 lr=0.0156625 loss=0 skipped=4"
        for a, b in zip(got.arrays(), init_matrices(corpus.vocab, config).arrays()):
            assert np.array_equal(a, b)

    def test_zero_epochs_returns_untouched_init(self):
        corpus = parse_corpus(b"d0\ta b a b\n")
        config = EmbeddingConfig(dim=2, window=1, negative=2, retrofit_epochs=0, seed=3)
        got = retrofit_pvdm(corpus.docs, corpus.vocab, config)
        fresh = init_matrices(corpus.vocab, config)
        for a, b in zip(got.arrays(), fresh.arrays()):
            assert np.array_equal(a, b)

    def test_content_gradients_match_finite_differences(self):
        rng = np.random.default_rng(17)
        for _ in range(10):
            k = 4
            doc_vec = rng.normal(size=k)
            ctx = rng.normal(size=(int(rng.integers(1, 4)), k))
            target = rng.normal(size=k)
            negatives = rng.normal(size=(2, k))
            m = 1 + ctx.shape[0]
            _, grad_hidden, _, _ = ns_loss_and_grads(
                hidden_avg(doc_vec, None, ctx), target, negatives
            )
            fd_doc = central_difference(
                lambda v: ns_loss_and_grads(hidden_avg(v, None, ctx), target, negatives)[0],
                doc_vec,
            )
            fd_ctx = central_difference(
                lambda rows: ns_loss_and_grads(
                    hidden_avg(doc_vec, None, rows), target, negatives
                )[0],
                ctx,
            )
            assert relative_error(grad_hidden / m, fd_doc) < 1e-4
            for j in range(ctx.shape[0]):
                assert relative_error(grad_hidden / m, fd_ctx[j]) < 1e-4

    def test_loss_decreases_on_repetitive_content(self):
        corpus = parse_corpus(b"d0\ta b a b\n")
        config = EmbeddingConfig(
            dim=2,
            window=1,
            negative=2,
            retrofit_epochs=50,
            learning_rate=0.05,
            min_lr=0.0001,
            seed=3,
        )
        records = []
        retrofit_pvdm(corpus.docs, corpus.vocab, config, on_epoch=records.append)
        losses = [r.running_loss for r in records]
        assert len(losses) == 50
        strided = losses[::5]
        assert losses[-1] < losses[0]
        assert all(b < a for a, b in zip(strided, strided[1:]))

    def test_trains_word_out_but_not_doc_out(self):
        corpus = parse_corpus(b"d0\ta b a b [[d1]]\nd1\tc a\n")
        config = EmbeddingConfig(dim=4, window=2, negative=2, retrofit_epochs=3, seed=1)
        got = retrofit_pvdm(corpus.docs, corpus.vocab, config)
        assert got.word_out.any()
        assert not got.doc_out.any()
        assert not got.attention.any()

    def test_deterministic(self):
        corpus = parse_corpus(b"d0\ta b c a\nd1\tb c d\n")
        config = EmbeddingConfig(dim=4, window=2, negative=2, retrofit_epochs=4, seed=5)
        first = retrofit_pvdm(corpus.docs, corpus.vocab, config)
        second = retrofit_pvdm(corpus.docs, corpus.vocab, config)
        for a, b in zip(first.arrays(), second.arrays()):
            assert np.array_equal(a, b)


def small_training_setup(variant="avg", structural_context=True, seed=9):
    spec = SyntheticSpec(n_topics=2, docs_per_topic=4, clique_size=2, vocab_per_topic=8, seed=3)
    corpus = parse_corpus(generate_synthetic_corpus(spec))
    config = EmbeddingConfig(
        dim=8,
        window=4,
        negative=3,
        iterations=6,
        retrofit_epochs=2,
        learning_rate=0.05,
        variant=variant,
        structural_context=structural_context,
        seed=seed,
    )
    relations = extract_relations(corpus.docs, corpus.vocab, config.window)
    model = init_model(corpus.vocab, config)
    return model, relations, corpus.docs


class TestTrain:
    def test_empty_relations_is_an_error(self):
        model, _, docs = small_training_setup()
        with pytest.raises(ConfigError):
            train(model, [], docs)

    def test_two_runs_save_identical_bytes(self):
        blobs = []
        for _ in range(2):
            model, relations, docs = small_training_setup(variant="att", seed=13)
            train(model, relations, docs)
            buf = io.BytesIO()
            save_model(model, buf)
            blobs.append(buf.getvalue())
        assert blobs[0] == blobs[1]

    def test_loss_trend_and_progress_invariants(self):
        model, relations, docs = small_training_setup()
        _, progress = train(model, relations, docs)
        assert len(progress) == model.config.iterations
        assert progress[-1].running_loss < progress[0].running_loss
        seen = [p.seen for p in progress]
        assert seen == sorted(seen)
        for p in progress:
            assert model.config.min_lr <= p.current_lr <= model.config.learning_rate
            fields = dict(part.split("=") for part in p.record().split())
            assert set(fields) == {"epoch", "seen", "lr", "loss", "skipped"}
            assert p.skipped == 0
        assert model.trained_epochs == model.config.iterations

    def test_citation_updates_whose_draws_all_collide_are_counted_skipped(self):
        # d1 is the only cited doc, so every noise draw is the target itself
        corpus = parse_corpus(b"d0\ta b [[d1]] c\nd1\tb c\nd2\tc [[d1]] a [[d1]]\n")
        config = EmbeddingConfig(dim=4, window=2, negative=2, iterations=3, retrofit_epochs=0, seed=2)
        relations = extract_relations(corpus.docs, corpus.vocab, config.window)
        model = init_model(corpus.vocab, config)
        before = model.matrices.copy()
        _, progress = train(model, relations, corpus.docs)
        assert [p.skipped for p in progress] == [len(relations)] * 3 == [3] * 3
        assert [p.running_loss for p in progress] == [0.0] * 3
        assert progress[0].record().endswith(" loss=0 skipped=3")
        for a, b in zip(model.matrices.arrays(), before.arrays()):
            assert np.array_equal(a, b)

    def test_structural_flag_is_inert_without_co_citations(self):
        # single-member cliques make every structural set empty
        spec = SyntheticSpec(n_topics=2, docs_per_topic=4, clique_size=1, vocab_per_topic=8, seed=4)
        corpus = parse_corpus(generate_synthetic_corpus(spec))
        results = []
        for flag in (True, False):
            config = EmbeddingConfig(
                dim=6, window=3, negative=2, iterations=4, retrofit_epochs=1,
                structural_context=flag, seed=5,
            )
            relations = extract_relations(corpus.docs, corpus.vocab, config.window)
            assert all(r.structural == frozenset() for r in relations)
            model = init_model(corpus.vocab, config)
            train(model, relations, corpus.docs)
            results.append(model.matrices)
        for a, b in zip(results[0].arrays(), results[1].arrays()):
            assert np.array_equal(a, b)


def three_doc_setup(**overrides):
    corpus = parse_corpus(b"d0\ta b [[d1]] [[d2]] c\nd1\tb c [[d2]] a\nd2\tc a b\n")
    config = dataclasses.replace(EmbeddingConfig(
        dim=4, window=2, negative=2, iterations=2, retrofit_epochs=1, seed=6), **overrides)
    relations = extract_relations(corpus.docs, corpus.vocab, config.window)
    assert len(relations) == 3 and relations[1].structural
    return init_model(corpus.vocab, config), relations, corpus.docs


class TestTrainRejectsWhatTheModelCannotHold:
    """Ids outside the vocabulary fail with ConfigError naming the culprit,
    before the model's matrices change."""

    @pytest.mark.parametrize("change", [
        {"source": -1},
        {"source": None},
        {"structural": frozenset({3})},  # n_docs: would alias word 0
        {"structural": frozenset({-50})},  # sorts before the previous relation's docs
        {"target": 3},
        {"context": (0, 3)},  # n_words
    ], ids=["source-1", "source-None", "structural-n_docs", "structural-far", "target-n_docs",
            "word-n_words"])
    def test_bad_relation_is_named(self, change):
        model, relations, docs = three_doc_setup()
        before = model.matrices.fingerprint()
        relations = list(relations)  # a table is read-only
        relations[1] = dataclasses.replace(relations[1], **change)
        with pytest.raises(ConfigError, match=r"^relation 1 names an id outside"):
            train(model, relations, docs)
        assert model.matrices.fingerprint() == before

    @pytest.mark.parametrize("text, name", [
        (b"d0\ta zz b\n", "word 'zz'"),
        (b"dx\ta b\n", "doc id 'dx'"),
    ], ids=["word", "doc-id"])
    def test_doc_the_vocabulary_lacks_is_named(self, text, name):
        model, relations, _ = three_doc_setup()
        before = model.matrices.fingerprint()
        with pytest.raises(ConfigError, match=f"^{name} is not in the vocabulary"):
            train(model, relations, parse_corpus(text).docs)
        assert model.matrices.fingerprint() == before


class TestTrainHoldsOneSetOfMatrices:
    """``train`` lets go of the model's matrices once every check has
    passed, before step one allocates the fresh set."""

    @pytest.mark.parametrize("queried", [False, True], ids=["fresh", "queried"])
    def test_old_matrices_are_gone_by_the_first_content_epoch(self, monkeypatch, queried):
        model, relations, docs = three_doc_setup(retrofit_epochs=2)
        want = three_doc_setup(retrofit_epochs=2)[0]
        if queried:
            rank_i4i(model, [0, 1])  # ranking keeps the arrays it made read-only
        old = [weakref.ref(a) for a in model.matrices.arrays()]
        alive = []

        def init_matrices_seen(*args):
            alive.append([ref() is not None for ref in old])
            return init_matrices(*args)

        monkeypatch.setattr(train_module, "init_matrices", init_matrices_seen)
        train(model, relations, docs,
              on_content=lambda p: alive.append([ref() is not None for ref in old]))
        # gone when the fresh set is allocated, and at both content epochs
        assert alive == [[False] * 5] * 3
        # a caller that keeps the old set trains the same bits
        kept = want.matrices
        train(want, relations, docs)
        assert model.matrices.fingerprint() == want.matrices.fingerprint()
        assert kept is not want.matrices


class TestDivergence:
    def test_content_pass_that_diverges_is_an_error(self):
        model, relations, docs = three_doc_setup(
            retrofit_epochs=2, iterations=0, learning_rate=1e200, min_lr=0.0
        )
        with np.errstate(all="ignore"):
            with pytest.raises(CitevecError, match=r"after content epoch \d+$"):
                train(model, relations, docs)
        # the model holds the matrices of the epoch that diverged
        assert not model.matrices.all_finite() and model.trained_epochs == 0
