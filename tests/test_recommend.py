"""Query building, ranking, and end-to-end recommendation tests.

The ranking oracles recompute scores from the matrices with the same
formula and then rank with an ordinary full sort, so any deviation in
selection, tie-breaking, or exclusion shows up as an exact mismatch.
"""

import copy
import importlib
import io
import itertools
import math
import os
import pickle
import subprocess
import sys
import textwrap
import tracemalloc

import numpy as np
import pytest

from citevec.corpus import CitationRelation, Vocabulary, extract_relations, parse_corpus, tokenize_text
from citevec.errors import ConfigError, CorpusFormatError, QueryError
from citevec.evaluation import evaluate
from citevec.model import EmbeddingConfig, Model, infer_doc_vector, init_model, load_model, save_model
from citevec.recommend import (
    BLOCK_ROWS,
    PAD_ROWS,
    Query,
    ResolvedText,
    _top_k,
    build_query_vector,
    rank_i4i,
    rank_i4o,
    recommend,
    resolve_text,
)

from conftest import FIXTURE_CONFIG, train_on
from reference import shortlist_reference, top_k_reference

recommend_module = importlib.import_module("citevec.recommend")
train_module = importlib.import_module("citevec.train")  # the package exports train()
evaluation_module = importlib.import_module("citevec.evaluation")


def ranked_ids(result):
    """The doc ids of a RecommendationList, best first."""
    return [doc_id for doc_id, _ in result.ranked]


def make_vocab(doc_ids, words):
    vocab = Vocabulary()
    for doc_id in doc_ids:
        vocab.doc_ids[doc_id] = len(vocab.doc_list)
        vocab.doc_list.append(doc_id)
    for word in words:
        vocab.word_ids[word] = len(vocab.word_list)
        vocab.word_list.append(word)
    vocab.word_counts = np.ones(len(words), dtype=np.int64)
    vocab.doc_cited_counts = np.ones(len(doc_ids), dtype=np.int64)
    return vocab


def make_model(doc_ids, words, dim=2, seed=1):
    vocab = make_vocab(doc_ids, words)
    config = EmbeddingConfig(dim=dim, window=4, negative=2, seed=seed)
    return init_model(vocab, config)


# neither ints nor numpy ints: k, case and seed must be one of those
NOT_INTS = (True, False, np.True_, 2.5, 2.0, "2", None)


def no_work(*args, **kwargs):
    raise AssertionError("work began before the arguments were checked")


class TestQuery:
    def test_case_validation(self):
        with pytest.raises(ConfigError):
            Query(case=4, context_words=(0,))
        with pytest.raises(ConfigError):
            Query(case=2, context_words=(0,), keep_prob=1.5)
        for name in ("case", "seed"):
            for value in NOT_INTS:
                with pytest.raises(ConfigError, match=f"^{name} must be an int, got "):
                    Query(**{"case": 1, "context_words": (0,), name: value})

    @pytest.mark.parametrize("value", ["0.5", None, True, np.False_], ids=repr)
    def test_keep_prob_must_be_a_number(self, value):
        with pytest.raises(ConfigError, match="^keep_prob must be a number, got "):
            Query(case=2, context_words=(0,), keep_prob=value)

    def test_keep_prob_takes_any_real_number(self):
        for value in (1, 0, np.float32(0.25), np.float64(0.5), np.int64(1)):
            assert Query(case=2, context_words=(0,), keep_prob=value).keep_prob == value


class TestIntArguments:
    """k, case and seed must be ints, not bools, and are checked before any
    work; numpy ints are ints."""

    def test_recommend(self, monkeypatch):
        model = make_model(["p1", "p2", "p3"], ["alpha", "beta"], dim=3)
        text = "alpha [[p1]] [[p2]]"
        assert recommend(model, text, case=np.int64(2), k=np.int64(2), seed=np.int64(3)) == (
            recommend(model, text, case=2, k=2, seed=3))
        monkeypatch.setattr(recommend_module, "build_query_vector", no_work)
        for name in ("k", "case", "seed"):
            for value in NOT_INTS:
                with pytest.raises(ConfigError, match=f"^{name} must be an int, got "):
                    recommend(model, "alpha [[p1]]", **{name: value})

    def test_recommend_checks_before_it_reads_the_text(self, monkeypatch):
        """A bad argument is reported first, even for a text that would
        fail to resolve."""
        model = make_model(["p1"], ["alpha"], dim=3)
        monkeypatch.setattr(recommend_module, "resolve_text", no_work)
        for bad in ({"case": True}, {"case": 4}, {"seed": 1.5}, {"keep_prob": 2.0}):
            with pytest.raises(ConfigError):
                recommend(model, "[[]] alpha", **bad)

    def test_rank_i4o(self, monkeypatch):
        model = make_model(["p1", "p2", "p3"], ["alpha"], dim=3)
        assert rank_i4o(model, np.ones(3), k=np.int64(2)) == rank_i4o(model, np.ones(3), k=2)
        monkeypatch.setattr(recommend_module, "_cited_panel", no_work)
        for value in NOT_INTS:
            with pytest.raises(ConfigError, match="^k must be an int, got "):
                rank_i4o(model, np.ones(3), k=value)

    def test_rank_i4i(self, monkeypatch):
        model = make_model(["p1", "p2", "p3"], ["alpha"], dim=3)
        assert rank_i4i(model, [0], k=np.int64(2)) == rank_i4i(model, [0], k=2)
        monkeypatch.setattr(recommend_module, "infer_doc_vector", no_work)
        for value in NOT_INTS:
            with pytest.raises(ConfigError, match="^k must be an int, got "):
                rank_i4i(model, [0], k=value)


class TestBuildQueryVector:
    def test_case3_is_the_word_mean(self):
        model = make_model(["d"], ["x", "y"])
        model.matrices.word_in[0] = [2.0, 0.0]
        model.matrices.word_in[1] = [0.0, 2.0]
        qvec = build_query_vector(model, Query(case=3, context_words=(0, 1)))
        assert np.allclose(qvec, [1.0, 1.0])

    def test_case2_keep_all_equals_case1(self):
        model = make_model(["a", "b", "c", "d"], ["x"], dim=5)
        structural = frozenset({0, 2, 3})
        full = build_query_vector(
            model, Query(case=1, context_words=(0,), structural_docs=structural)
        )
        for seed in range(10):
            kept = build_query_vector(
                model,
                Query(
                    case=2,
                    context_words=(0,),
                    structural_docs=structural,
                    keep_prob=1.0,
                    seed=seed,
                ),
            )
            assert np.array_equal(kept, full)

    def test_case2_keep_none_equals_case3(self):
        model = make_model(["a", "b"], ["x", "y"], dim=3)
        words_only = build_query_vector(model, Query(case=3, context_words=(0, 1)))
        thinned = build_query_vector(
            model,
            Query(
                case=2,
                context_words=(0, 1),
                structural_docs=frozenset({0, 1}),
                keep_prob=0.0,
                seed=3,
            ),
        )
        assert np.array_equal(thinned, words_only)

    def test_case3_requires_words(self):
        model = make_model(["a"], ["x"])
        with pytest.raises(QueryError):
            build_query_vector(
                model, Query(case=3, context_words=(), structural_docs=frozenset({0}))
            )

    def test_case1_with_docs_only_is_fine(self):
        model = make_model(["a", "b"], ["x"], dim=3)
        qvec = build_query_vector(
            model, Query(case=1, context_words=(), structural_docs=frozenset({0, 1}))
        )
        expected = model.matrices.doc_in[[0, 1]].mean(axis=0)
        assert np.array_equal(qvec, expected)

    def test_no_participants_at_all(self):
        model = make_model(["a"], ["x"])
        with pytest.raises(QueryError):
            build_query_vector(model, Query(case=1, context_words=()))

    def test_case2_is_deterministic_and_thins_about_half(self):
        n_docs = 6
        model = make_model([f"d{i}" for i in range(n_docs)], ["x"], dim=n_docs)
        model.matrices.doc_in[:] = np.eye(n_docs)
        model.matrices.word_in[0] = 0.0
        structural = frozenset(range(n_docs))
        base = Query(
            case=2, context_words=(0,), structural_docs=structural, keep_prob=0.5, seed=11
        )
        assert np.array_equal(
            build_query_vector(model, base), build_query_vector(model, base)
        )
        kept_counts = np.zeros(n_docs)
        n_seeds = 400
        for seed in range(n_seeds):
            query = Query(
                case=2,
                context_words=(0,),
                structural_docs=structural,
                keep_prob=0.5,
                seed=seed,
            )
            qvec = build_query_vector(model, query)
            kept_counts += qvec > 0  # basis construction reveals the kept set
        freq = kept_counts / n_seeds
        assert ((freq > 0.4) & (freq < 0.6)).all()


def oracle_rank(model, scores, exclude, k):
    """Full sort over all non-excluded candidates: score desc, id asc, NaN
    scores last by id."""
    pairs = [
        (doc_id, float(scores[i]))
        for i, doc_id in enumerate(model.vocab.doc_list)
        if doc_id not in exclude
    ]
    pairs.sort(key=lambda pair: (math.isnan(pair[1]), -pair[1] if pair[1] == pair[1] else 0.0, pair[0]))
    return pairs[:k]


def i4o_oracle(model, query, exclude, k):
    """``oracle_rank`` of every dot product with an output row, over the
    documents cited in training only."""
    never_cited = {model.vocab.doc_list[d] for d in np.flatnonzero(model.vocab.doc_cited_counts == 0)}
    return oracle_rank(model, model.matrices.doc_out @ query, set(exclude) | never_cited, k)


def shuffled_id_model(rng, n_docs, dim, n_words=1):
    """A model whose doc ids sort in an order unrelated to their rows."""
    ids = [f"m{j}" for j in range(n_docs)]
    rng.shuffle(ids)
    return make_model(ids, [f"w{j}" for j in range(n_words)], dim=dim)


def cosine_scores(model, inferred):
    """rank_i4i's scoring formula over every row, with the row norms taken
    in one call."""
    with np.errstate(all="ignore"):  # rows may overflow, be NaN or inf
        norms = np.linalg.norm(model.matrices.doc_in, axis=1)
        scores = (model.matrices.doc_in @ inferred) / (
            norms * float(np.linalg.norm(inferred))
        )
    return np.where(norms > 0.0, scores, 0.0)


class TestI4OCandidates:
    """rank_i4o ranks only the documents cited in training: the output rows
    of the others never got a gradient, whatever they hold."""

    def model(self, rng, n_docs, n_cited, dim=4):
        model = shuffled_id_model(rng, n_docs=n_docs, dim=dim)
        # the never-cited rows would win every ranking if they took part
        model.matrices.doc_out[:] = rng.normal(size=(n_docs, dim)) + 100.0
        cited = rng.choice(n_docs, size=n_cited, replace=False)
        model.matrices.doc_out[cited] -= 200.0
        model.vocab.doc_cited_counts[:] = 0
        model.vocab.doc_cited_counts[cited] = rng.integers(1, 5, size=n_cited)
        return model, {model.vocab.doc_list[d] for d in cited}

    def test_never_cited_documents_never_rank(self):
        rng = np.random.default_rng(90)
        model, cited = self.model(rng, n_docs=2 * BLOCK_ROWS + 37, n_cited=BLOCK_ROWS + 9)
        for k in (1, 10, BLOCK_ROWS + 9, 5000):
            got = rank_i4o(model, np.ones(4), k=k)
            assert set(ranked_ids(got)) <= cited and len(got.ranked) == min(k, len(cited))
            assert got.ranked == i4o_oracle(model, np.ones(4), (), k)
        text = " ".join(f"[[{doc_id}]]" for doc_id in sorted(cited)[:3])
        assert set(ranked_ids(recommend(model, text, k=50))) <= cited

    def test_fewer_than_k_cited_candidates(self):
        rng = np.random.default_rng(91)
        model, cited = self.model(rng, n_docs=40, n_cited=6)
        never_cited = sorted(set(model.vocab.doc_list) - cited)[0]
        # a never-cited and an unknown id are no candidates to exclude
        for banned in (sorted(cited)[:2], sorted(cited)[:2] + [never_cited, "unknown"]):
            got = rank_i4o(model, np.ones(4), exclude=banned, k=10)
            assert sorted(ranked_ids(got)) == sorted(cited - set(banned))
            assert got.ranked == i4o_oracle(model, np.ones(4), banned, 10)
        assert rank_i4o(model, np.ones(4), exclude=cited, k=10).ranked == []

    def test_no_document_cited(self):
        rng = np.random.default_rng(92)
        model, _ = self.model(rng, n_docs=30, n_cited=0)
        assert rank_i4o(model, np.ones(4), k=5).ranked == []
        assert recommend(model, "x [[m3]]", k=5).ranked == []

    def test_scores_are_the_bits_of_the_whole_product(self):
        """Real-valued rows and cited rows spread over several blocks, the
        last of them partial, at a document count that is a multiple of
        PAD_ROWS; then counts that are not multiples of 4, whose last rows
        the whole product takes in BLAS's tail, every document cited or
        some, in a small cited panel and, at 6,145 documents all cited,
        through the filter.  On one BLAS thread each score is the same bits
        as in ``doc_out @ query``, and as when every document is cited; on
        two, the same bits as on one.  Checked in processes with one and
        two BLAS threads."""
        script = textwrap.dedent("""
            import hashlib
            import os
            import numpy as np
            from citevec.recommend import BLOCK_ROWS, PAD_ROWS, _cited_panel, rank_i4o
            from test_recommend import make_model
            rng = np.random.default_rng(93)
            one_thread = os.environ["OPENBLAS_NUM_THREADS"] == "1"
            digest, tails = hashlib.sha256(), set()

            def check(rows, cited):
                # ranking makes a model's arrays read-only: a fresh model per trial
                n_docs = rows.shape[0]
                model = make_model([f"d{i}" for i in range(n_docs)], ["x"], dim=100)
                model.matrices.doc_out[:] = rows
                model.vocab.doc_cited_counts[:] = cited
                query = rng.normal(size=100)
                whole = model.matrices.doc_out @ query
                ranked = rank_i4o(model, query, k=n_docs).ranked
                for doc_id, score in ranked:
                    assert not one_thread or score.hex() == whole[model.vocab.doc_ids[doc_id]].hex()
                digest.update(repr([(doc_id, score.hex()) for doc_id, score in ranked]).encode())
                return _cited_panel(model)[1] is None

            n_docs = 5 * BLOCK_ROWS + 5 * PAD_ROWS
            rows = rng.normal(size=(n_docs, 100))
            for trial in range(20):
                cited = rng.random(n_docs) < rng.uniform(0.2, 0.9)
                tails.add(int(cited.sum()) % PAD_ROWS)
                assert not check(rows, cited)
            assert len(tails) > 10  # partial last blocks of many sizes
            for n_docs in (65, 130, 131, 133, 1389, 6145):
                for trial in range(6):
                    cited = rng.random(n_docs) < rng.uniform(0.5, 0.9) if trial else 1
                    filtered = check(rng.normal(size=(n_docs, 100)), cited)
                    assert filtered == (n_docs == 6145 and not trial)
            print(digest.hexdigest())
        """)
        outputs = []
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                       PYTHONPATH=os.pathsep.join(sys.path))
            done = subprocess.run([sys.executable, "-c", script], env=env,
                                  capture_output=True, text=True, check=False)
            assert done.returncode == 0, done.stderr
            outputs.append(done.stdout)
        assert outputs[0] == outputs[1]

    @pytest.mark.parametrize("filtered", [False, True])
    @pytest.mark.parametrize("n_docs", [65, 129, 321, 1025])
    def test_a_lone_cited_row_in_the_last_group_ranks_first(self, monkeypatch, n_docs, filtered):
        """The document count is one past a multiple of PAD_ROWS, and that
        one row, cited, is the top 1: the whole product takes it in its
        kernel's tail, and so must its score, in the small cited panel and
        through the filter."""
        if filtered:
            monkeypatch.setattr(recommend_module, "_FILTER_ENTRIES", 0)
        rng = np.random.default_rng(n_docs)
        dim = 100
        for trial in range(4):
            query = rng.normal(size=dim)
            model = make_model([f"d{i}" for i in range(n_docs)], ["x"], dim=dim)
            model.matrices.doc_out[:] = rng.normal(size=(n_docs, dim))
            model.matrices.doc_out[-1] = query + 0.01 * rng.normal(size=dim)
            model.vocab.doc_cited_counts[:] = rng.random(n_docs) < 0.7
            model.vocab.doc_cited_counts[-1] = 1
            for k in (1, 3, 10):
                got = bits(rank_i4o(model, query, exclude=["d1"], k=k).ranked)
                assert got == bits(i4o_oracle(model, query, ["d1"], k)), f"k={k}"
                assert got[0][0] == f"d{n_docs - 1}"
            assert (recommend_module._cited_panel(model)[1] is None) == filtered


class TestRankI4O:
    def test_tie_break_example(self):
        model = make_model(["doc1", "doc2", "doc3"], ["x"], dim=2)
        model.matrices.doc_out[:] = [[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]
        result = rank_i4o(model, np.array([1.0, 1.0]), k=3)
        assert result.ranked == [("doc3", 2.0), ("doc1", 1.0), ("doc2", 1.0)]

    def test_tie_break_compares_whole_ids(self):
        # a corpus may name a doc "a\x00"; NumPy's fixed-width strings
        # would drop the trailing NUL and call the two ids equal
        model = make_model(["a\x00", "a"], ["x"], dim=2)
        result = rank_i4o(model, np.ones(2), k=2)
        assert ranked_ids(result) == ["a", "a\x00"]

    def test_exclude_everything(self):
        model = make_model(["a", "b"], ["x"])
        result = rank_i4o(model, np.ones(2), exclude={"a", "b"}, k=5)
        assert result.ranked == []

    def test_k_must_be_positive(self):
        model = make_model(["a"], ["x"])
        with pytest.raises(ConfigError):
            rank_i4o(model, np.ones(2), k=0)
        # checked before the query's shape, which is wrong too
        with pytest.raises(ConfigError):
            rank_i4o(model, np.ones(7), k=0)

    def test_exclusion_is_total_for_any_k(self):
        rng = np.random.default_rng(42)
        model = make_model([f"d{i}" for i in range(12)], ["x"], dim=3)
        model.matrices.doc_out[:] = rng.integers(-2, 3, size=(12, 3))
        for k in (1, 3, 12, 50):
            for _ in range(10):
                banned = {f"d{i}" for i in rng.integers(0, 12, size=4)}
                got = rank_i4o(model, rng.normal(size=3), exclude=banned, k=k)
                assert not banned.intersection(ranked_ids(got))

    def test_matches_brute_force_oracle(self):
        rng = np.random.default_rng(42)
        for trial in range(100):
            n_docs = int(rng.integers(1, 25))
            dim = int(rng.integers(1, 6))
            ids = [f"m{j}" for j in range(n_docs)]
            rng.shuffle(ids)
            model = make_model(ids, ["x"], dim=dim)
            # integer-valued vectors force plenty of score ties
            model.matrices.doc_out[:] = rng.integers(-2, 3, size=(n_docs, dim))
            model.vocab.doc_cited_counts[rng.random(n_docs) < 0.2] = 0
            qvec = rng.integers(-2, 3, size=dim).astype(float)
            exclude = {doc_id for doc_id in ids if rng.random() < 0.2}
            expected = i4o_oracle(model, qvec, exclude, k=5)
            got = rank_i4o(model, qvec, exclude=exclude, k=5)
            assert got.ranked == expected, f"trial {trial}"

    def test_matches_brute_force_oracle_over_many_candidates(self):
        """Thousands of candidates, so k cuts through a large pool; small
        integer vectors make ties at the k-th score the rule, not the
        exception."""
        rng = np.random.default_rng(2024)
        model = shuffled_id_model(rng, n_docs=3000, dim=3)
        model.matrices.doc_out[:] = rng.integers(-2, 3, size=(3000, 3))
        model.vocab.doc_cited_counts[rng.random(3000) < 0.5] = 0
        for trial in range(12):
            qvec = rng.integers(-2, 3, size=3).astype(float)
            exclude = set(rng.choice(model.vocab.doc_list, size=200).tolist())
            for k in (1, 10, 50):
                expected = i4o_oracle(model, qvec, exclude, k)
                got = rank_i4o(model, qvec, exclude=exclude, k=k)
                assert got.ranked == expected, f"trial {trial}, k={k}"

    def test_all_candidates_tie(self):
        rng = np.random.default_rng(5)
        model = shuffled_id_model(rng, n_docs=3000, dim=3)  # doc_out is all zero
        exclude = set(rng.choice(model.vocab.doc_list, size=50).tolist())
        qvec = np.array([1.0, -2.0, 0.5])
        scores = model.matrices.doc_out @ qvec
        for k in (1, 10, 50):
            got = rank_i4o(model, qvec, exclude=exclude, k=k)
            assert got.ranked == oracle_rank(model, scores, exclude, k)
            assert {score for _, score in got.ranked} == {0.0}

    def test_non_finite_scores_keep_their_order(self):
        """+inf first, then finite scores, then -inf, then NaN by doc id."""
        model = make_model(["d3", "d1", "d4", "d0", "d2"], ["x"], dim=1)
        model.matrices.doc_out[:, 0] = [np.nan, 1.0, np.inf, np.nan, -np.inf]
        expected = [
            ("d4", np.inf), ("d1", 1.0), ("d2", -np.inf), ("d0", np.nan), ("d3", np.nan)
        ]
        for k in (2, 4, 5):
            got = rank_i4o(model, np.array([1.0]), k=k)
            assert ranked_ids(got) == [doc_id for doc_id, _ in expected[:k]]
            assert np.array_equal(
                [score for _, score in got.ranked],
                [score for _, score in expected[:k]],
                equal_nan=True,
            )


def shuffled_ids(rng, n_docs):
    """Doc ids in an order unrelated to their rows; "a" and "a\x00" among
    them once there are two."""
    ids = [f"m{j}" for j in range(n_docs)]
    ids[:2] = ["a", "a\x00"][:n_docs]
    rng.shuffle(ids)
    return ids


def special_scores(rng, n_rows, n_docs):
    """Small integers, so ties are common, with NaN, +inf, -inf and -0.0
    sprinkled in and some rows all zero."""
    scores = rng.integers(-2, 3, size=(n_rows, n_docs)).astype(float)
    draw = rng.random(scores.shape)
    scores[draw < 0.05] = np.nan
    scores[(draw >= 0.05) & (draw < 0.1)] = np.inf
    scores[(draw >= 0.1) & (draw < 0.15)] = -np.inf
    scores[(draw >= 0.15) & (draw < 0.2)] = -0.0
    scores[rng.random(n_rows) < 0.2] = 0.0
    return scores


class TestTopK:
    """``_top_k`` of one score row against the reference top-k; random
    rows with ties, non-finite scores and exclusions."""

    def top(self, ids, row, banned, k):
        return _top_k(row, k, ids, np.arange(len(ids)), banned).tolist()

    def check(self, ids, scores, exclude, k):
        for row, banned in zip(scores, exclude, strict=True):
            assert self.top(ids, row, banned, k) == top_k_reference(ids, row, banned.tolist(), k)

    def test_random_rows(self):
        rng = np.random.default_rng(17)
        for _ in range(300):
            n_rows, n_docs = int(rng.integers(1, 7)), int(rng.integers(1, 40))
            ids = shuffled_ids(rng, n_docs)
            scores = special_scores(rng, n_rows, n_docs)
            exclude = [rng.choice(n_docs, size=int(rng.integers(0, n_docs + 1)), replace=False)
                       for _ in range(n_rows)]
            self.check(ids, scores, exclude, int(rng.integers(1, n_docs + 3)))

    def test_many_candidates_with_ties_at_the_cutoff(self):
        rng = np.random.default_rng(18)
        ids = shuffled_ids(rng, 3000)
        scores = special_scores(rng, 32, 3000)
        exclude = [rng.choice(3000, size=int(rng.integers(0, 40)), replace=False)
                   for _ in range(32)]
        for k in (1, 10, 100):
            self.check(ids, scores, exclude, k)

    def test_exclusions_on_both_sides_of_the_kth_score(self):
        rng = np.random.default_rng(19)
        ids = shuffled_ids(rng, 50)
        scores = rng.integers(0, 6, size=(8, 50)).astype(float)
        for k in (1, 5, 20):
            exclude = []
            for row in scores:
                order = np.argsort(-row, kind="stable")
                # some of the best, some tied around the k-th, some of the worst
                exclude.append(np.concatenate((order[:3], order[k - 1 : k + 2], order[-2:])))
            self.check(ids, scores, exclude, k)

    def test_many_tied_at_zero(self):
        """380 of 400 docs score exactly 0, as zero output rows do, and the
        exclusions reach into the zeros."""
        rng = np.random.default_rng(21)
        ids = shuffled_ids(rng, 400)
        scored = rng.choice(400, size=20, replace=False)
        zeros = np.setdiff1d(np.arange(400), scored)
        scores = np.zeros((8, 400))
        scores[:, scored] = rng.normal(size=(8, 20))
        exclude = [np.concatenate((rng.choice(scored, size=3, replace=False),
                                   rng.choice(zeros, size=int(rng.integers(0, 40)), replace=False)))
                   for _ in range(8)]
        for k in (1, 10, 30):  # at 30, every row's place is among its zeros
            self.check(ids, scores, exclude, k)

    def test_columns_of_the_cited_documents(self):
        """Scores for the cited documents only, column j for document
        cited[j]: ranked by their ids, exclusions given by column."""
        rng = np.random.default_rng(21)
        for _ in range(200):
            n_docs = int(rng.integers(1, 60))
            ids = shuffled_ids(rng, n_docs)
            row = special_scores(rng, 1, n_docs)[0]
            is_cited = rng.random(n_docs) < rng.uniform(0.0, 1.0)
            cited = np.flatnonzero(is_cited)
            column = np.cumsum(is_cited) - 1
            banned = rng.choice(n_docs, size=int(rng.integers(0, n_docs + 1)), replace=False)
            k = int(rng.integers(1, n_docs + 3))
            top = cited[_top_k(row[cited], k, ids, cited, column[banned[is_cited[banned]]])]
            assert top.tolist() == top_k_reference(ids, row, banned.tolist(), k, cited=is_cited)

    def test_short_and_empty_rows(self):
        ids = ["b", "a\x00", "a", "c"]
        row = np.array([1.0, 2.0, 2.0, np.nan])
        assert self.top(ids, row, np.array([], dtype=np.intp), 3) == [2, 1, 0]
        assert self.top(ids, row, np.array([1]), 9) == [2, 0, 3]
        assert self.top(ids, row, np.arange(4), 2) == []
        assert self.top([], np.empty(0), np.array([], dtype=np.intp), 2) == []

    def test_k_must_be_positive(self):
        with pytest.raises(ConfigError):
            _top_k(np.zeros(3), 0, ["a", "b", "c"], np.arange(3), np.array([], dtype=np.intp))


class TestRankI4I:
    def test_identical_rows_rank_by_id(self):
        ids = ["z9", "a1", "m5"]
        model = make_model(ids, ["x", "y"], dim=3)
        model.matrices.doc_in[:] = [0.6, 0.8, 0.0]
        result = rank_i4i(model, [0, 1], k=3)
        assert ranked_ids(result) == ["a1", "m5", "z9"]
        assert len({score for _, score in result.ranked}) == 1

    def test_cosine_ignores_row_scale(self):
        model = make_model(["big", "small"], ["x"], dim=2)
        model.matrices.doc_in[:] = [[30.0, 0.0], [3.0, 0.0]]
        model.matrices.word_in[0] = [1.0, 0.0]
        result = rank_i4i(model, [0], k=2)
        # equal direction means equal cosine, so the tie rule decides
        assert ranked_ids(result) == ["big", "small"]
        assert result.ranked[0][1] == result.ranked[1][1]

    def test_zero_norm_query_is_an_error(self):
        model = make_model(["a"], ["x"], dim=2)
        model.matrices.word_in[0] = 0.0
        with pytest.raises(QueryError):
            rank_i4i(model, [0])

    @pytest.mark.parametrize("rows, word_out", [
        *(([[0.5, value, -0.5, 0.25]], 0.1) for value in (np.nan, np.inf, -np.inf)),
        ([[0.5, np.inf, -0.5, 0.25]], 0.0),
        ([[1e308, 0.0], [1e308, 0.0]], 0.0),  # their sum overflows
        ([[np.inf, 0.0], [-np.inf, 0.0]], 0.0),  # their sum is inf - inf
        ([[np.inf, 1.0], [1.0, 1.0]], 0.0),  # inf times a zero output row
    ])
    def test_a_non_finite_word_row_is_an_error(self, rows, word_out):
        """Word rows whose window sums, taken from prefix sums, or whose
        mean are non-finite, and so is the inferred vector: a QueryError,
        and no warning (warnings are errors in this suite).  A zero
        ``word_out`` is a model trained with no content epoch.  The rows
        set are the first words'; every text holds all of them."""
        model = make_model(["a", "b", "c"], ["x", "y", "z"], dim=len(rows[0]))
        model.matrices.word_out[:] = word_out
        model.matrices.word_in[: len(rows)] = rows
        for words in ([0, 1][: len(rows)], [1, 0, 2], [1, 2, 0] + [1, 2] * 10):
            with pytest.raises(QueryError):
                rank_i4i(model, words)

    @pytest.mark.parametrize("threshold", [math.inf, 0])
    def test_any_model_ranks_or_is_a_query_error(self, monkeypatch, threshold):
        """Small models whose every entry is drawn from inf, -inf, NaN,
        ±1e308, 1e300, ±1 and 0, every row scored and through the filter:
        each text gives a ranking or a QueryError, never a warning
        (warnings are errors in this suite).  Both outcomes occur."""
        monkeypatch.setattr(recommend_module, "_FILTER_ENTRIES", threshold)
        rng = np.random.default_rng(41)
        values = np.array([np.inf, -np.inf, np.nan, 1e308, -1e308, 1e300, 1.0, -1.0, 0.0])
        outcomes = set()
        for trial in range(60):
            n_docs, n_words, dim = (int(n) for n in rng.integers(1, 7, size=3))
            model = make_model([f"d{i}" for i in range(n_docs)], [f"w{j}" for j in range(n_words)],
                               dim=dim)
            # a few of the values per model, so that some fits stay finite
            drawn = rng.choice(values, size=int(rng.integers(1, 4)), replace=False)
            for matrix in model.matrices.arrays():
                matrix[:] = rng.choice(drawn, size=matrix.shape)
            for length in (1, 2, 5, 30):
                try:
                    ranked = rank_i4i(model, rng.integers(0, n_words, size=length).tolist(), k=3)
                    outcomes.add(len(ranked.ranked) == min(3, n_docs))
                except QueryError:
                    outcomes.add("QueryError")
        assert outcomes == {True, "QueryError"}

    def test_overflowing_query_norm_is_an_error(self):
        """A finite vector whose norm overflows: a QueryError, and no
        overflow warning (warnings are errors in this suite)."""
        model = make_model(["a", "b", "c"], ["x"], dim=2)
        model.matrices.word_in[0] = [1e200, -1e200]
        assert np.isfinite(infer_doc_vector(model, [0])).all()
        with pytest.raises(QueryError):
            rank_i4i(model, [0], k=3)

    def test_k_is_checked_before_inference(self, monkeypatch):
        def no_inference(*args, **kwargs):
            raise AssertionError("a vector was inferred for k=0")

        monkeypatch.setattr(recommend_module, "infer_doc_vector", no_inference)
        model = make_model(["a"], ["x"])
        with pytest.raises(ConfigError):
            rank_i4i(model, [0], k=0)

    def test_matches_brute_force_oracle(self):
        rng = np.random.default_rng(7)
        for trial in range(100):
            n_docs = int(rng.integers(1, 20))
            dim = int(rng.integers(1, 6))
            ids = [f"q{j}" for j in range(n_docs)]
            rng.shuffle(ids)
            n_words = int(rng.integers(1, 6))
            model = make_model(ids, [f"w{j}" for j in range(n_words)], dim=dim)
            model.matrices.doc_in[:] = rng.integers(-2, 3, size=(n_docs, dim))
            model.matrices.word_in[:] = rng.normal(size=(n_words, dim))
            model.matrices.word_out[:] = rng.normal(size=(n_words, dim))
            words = rng.integers(0, n_words, size=int(rng.integers(1, 4))).tolist()
            exclude = {doc_id for doc_id in ids if rng.random() < 0.2}

            inferred = infer_doc_vector(model, words)
            if float(np.linalg.norm(inferred)) == 0.0:
                continue
            expected = oracle_rank(model, cosine_scores(model, inferred), exclude, k=5)
            for ranker in (model, reloaded(model)):  # in memory and loaded
                got = rank_i4i(ranker, words, exclude=exclude, k=5)
                assert got.ranked == expected, f"trial {trial}"

    def test_matches_brute_force_oracle_over_many_candidates(self):
        """Integer rows in few dimensions repeat, and equal rows tie exactly
        in cosine; zero rows all score 0."""
        rng = np.random.default_rng(77)
        model = shuffled_id_model(rng, n_docs=3000, dim=3, n_words=4)
        model.matrices.doc_in[:] = rng.integers(-2, 3, size=(3000, 3))
        model.matrices.word_in[:] = rng.normal(size=(4, 3))
        model.matrices.word_out[:] = rng.normal(size=(4, 3))
        loaded = reloaded(model)
        for trial in range(6):
            words = rng.integers(0, 4, size=3).tolist()
            exclude = set(rng.choice(model.vocab.doc_list, size=200).tolist())
            inferred = infer_doc_vector(model, words)
            scores = cosine_scores(model, inferred)
            for k in (1, 10, 50):
                expected = oracle_rank(model, scores, exclude, k)
                for ranker in (model, loaded):
                    got = rank_i4i(ranker, words, exclude=exclude, k=k)
                    assert got.ranked == expected, f"trial {trial}, k={k}"

    def test_all_candidates_tie(self):
        rng = np.random.default_rng(6)
        model = shuffled_id_model(rng, n_docs=3000, dim=3)
        model.matrices.doc_in[:] = 0.0
        model.matrices.word_in[0] = [0.3, -0.1, 0.2]
        exclude = set(rng.choice(model.vocab.doc_list, size=50).tolist())
        scores = np.zeros(3000)
        for k in (1, 10, 50):
            got = rank_i4i(model, [0], exclude=exclude, k=k)
            assert got.ranked == oracle_rank(model, scores, exclude, k)


def bits(ranked):
    """(doc id, score) pairs with each score in its exact hex form, so that
    NaN equals NaN and -0.0 differs from 0.0."""
    return [(doc_id, score.hex()) for doc_id, score in ranked]


class TestI4IShortlist:
    """rank_i4i scores only a shortlist of rows of a model at or above
    ``_FILTER_ENTRIES``, here set to 0.  These cases are where approximate
    cosines are least reliable or do not exist; each compares the ranking
    with every row scored exactly, for a model in memory and for its
    loaded copy, both filtered by their float32 unit rows.  The output rows
    are zero, so every gradient is 0 and the query is the mean of the
    words' input vectors: it is set by hand."""

    @pytest.fixture(autouse=True)
    def filter_every_model(self, monkeypatch):
        monkeypatch.setattr(recommend_module, "_FILTER_ENTRIES", 0)

    def model(self, rng, rows, query):
        n_docs, dim = rows.shape
        model = make_model(shuffled_ids(rng, n_docs), ["w"], dim=dim)
        model.matrices.doc_in[:] = rows
        model.matrices.word_in[0] = query
        return model

    def check(self, model, exclude=(), ks=(1, 3, 10, 50)):
        exclude = set(exclude)
        scores = cosine_scores(model, infer_doc_vector(model, [0]))
        loaded = reloaded(model)
        for k in ks:
            expected = bits(oracle_rank(model, scores, exclude, k))
            for ranker in (model, loaded):
                got = rank_i4i(ranker, [0], exclude=exclude, k=k)
                assert bits(got.ranked) == expected, f"k={k}, loaded={ranker is loaded}"
        assert "unit rows" in model._derived() and "unit rows" in loaded._derived()
        return scores

    def test_scaled_copies_tie_in_truth_but_not_in_bits(self):
        rng = np.random.default_rng(31)
        dim = 100
        base = rng.normal(size=dim)
        eps = np.finfo(np.float64).eps
        copies = base * (1.0 + np.arange(40)[:, None] * eps)
        rescaled = base * np.array([1e-3, 1.0 / 3.0, 7.0, 1e3])[:, None]
        nudged = base + 1e-15 * rng.normal(size=(20, dim))
        rows = np.concatenate((copies, rescaled, nudged, rng.normal(size=(300, dim))))
        for query in (base, base + 0.3 * rng.normal(size=dim)):
            model = self.model(rng, rng.permutation(rows), query)
            scores = self.check(model, exclude=model.vocab.doc_list[::7])
            # the copies' cosines are equal in truth and not in bits
            assert len(set(np.sort(scores)[-64:].tolist())) > 1

    @pytest.mark.parametrize("dim", [2, 16, 100])
    def test_near_ties_closer_than_the_float32_margin(self, dim):
        """Cosines a few float32 steps apart, all within twice the float32
        slack of each other, among rows far from the query: the float32
        product cannot order them, and float64 scores must."""
        rng = np.random.default_rng(300 + dim)
        base = rng.normal(size=dim)
        spread = 2 * recommend_module._slack32(dim)
        # cosine 1 - t²/2 for a unit offset t orthogonal to the query
        offsets = rng.normal(size=(200, dim))
        offsets -= np.outer(offsets @ base, base) / (base @ base)
        offsets /= np.linalg.norm(offsets, axis=1)[:, None]
        t = np.sqrt(2 * spread * rng.random(200))[:, None]
        near = (base / np.linalg.norm(base) + t * offsets) * rng.uniform(0.5, 2.0, size=(200, 1))
        rows = np.concatenate((near, rng.normal(size=(100, dim))))
        cosines = rows @ base / (np.linalg.norm(rows, axis=1) * np.linalg.norm(base))
        assert np.ptp(cosines[:200]) < spread and len(set(cosines[:200].tolist())) > 150
        model = self.model(rng, rng.permutation(rows), base)
        self.check(model, exclude=model.vocab.doc_list[::9], ks=(1, 10, 50, 150))

    def test_at_least_k_zero_rows(self):
        rng = np.random.default_rng(32)
        dim = 8
        query = rng.normal(size=dim)
        positive = rng.normal(size=(300, dim))
        # every nonzero row scores below 0, so the zero rows are the top k
        negative = -query * rng.uniform(0.5, 2.0, size=(300, 1))
        negative += 0.01 * rng.normal(size=(300, dim))
        for rows in (positive, negative):
            rows = rows.copy()
            rows[rng.choice(300, size=60, replace=False)] = 0.0
            self.check(self.model(rng, rows, query), exclude=["m3", "m5"])

    def test_rows_at_the_edges_of_the_range(self):
        """Squares that underflow or overflow, and rows just inside and
        just outside the range the bound covers (2^±900 is about 10^±271)."""
        rng = np.random.default_rng(33)
        dim = 16
        query = rng.normal(size=dim)
        scales = np.array([1e-170, 1e-160, 1e-155, 1e-136, 1e-135, 1e135, 1e136, 1e155, 1e170])
        rows = np.concatenate((
            query * scales[:, None],
            rng.normal(size=(scales.size, dim)) * scales[:, None],
            rng.normal(size=(200, dim)),
        ))
        self.check(self.model(rng, rng.permutation(rows), query))

    @pytest.mark.parametrize("scale", [1e-160, 1e-140, 1e-130, 1e130, 1e140, 1e150])
    def test_queries_at_the_edges_of_the_range(self, scale):
        rng = np.random.default_rng(34)
        dim = 16
        rows = np.concatenate((rng.normal(size=(200, dim)), np.zeros((3, dim))))
        rows[:5] *= np.array([1e-150, 1e-100, 1e100, 1e150, 1e170])[:, None]
        self.check(self.model(rng, rows, scale * rng.normal(size=dim)))

    def test_a_nan_row_and_an_inf_row(self):
        rng = np.random.default_rng(35)
        dim = 6
        rows = rng.normal(size=(100, dim))
        rows[17] = np.nan
        rows[42, 3] = np.inf
        self.check(self.model(rng, rows, rng.normal(size=dim)), ks=(1, 10, 99, 100, 101))

    def test_exclusions_leave_fewer_than_k_candidates(self):
        rng = np.random.default_rng(36)
        model = self.model(rng, rng.normal(size=(40, 5)), rng.normal(size=5))
        ids = model.vocab.doc_list
        self.check(model, exclude=ids[3:], ks=(1, 3, 4, 10))
        self.check(model, exclude=ids, ks=(1, 10))

    def test_k_at_least_the_document_count(self):
        rng = np.random.default_rng(37)
        model = self.model(rng, rng.normal(size=(30, 5)), rng.normal(size=5))
        self.check(model, ks=(29, 30, 31, 90))
        self.check(model, exclude=["m1"], ks=(29, 30))

    @pytest.mark.parametrize("n_docs, dim", [(357, 16), (358, 17), (359, 16), (37, 17), (127, 17), (190, 16)])
    def test_top_rows_in_the_last_partial_pad_group(self, n_docs, dim):
        """The document count is not a multiple of PAD_ROWS, and the rows
        of its last partial group are the top k: the whole product takes
        the last of them in BLAS's tail, and so must their scores."""
        rng = np.random.default_rng(n_docs + dim)
        tail = n_docs - n_docs % PAD_ROWS
        for trial in range(4):
            query = rng.normal(size=dim)
            rows = rng.normal(size=(n_docs, dim))
            rows[tail:] = query + 0.3 * rng.normal(size=(n_docs - tail, dim))
            model = make_model([f"d{i}" for i in range(n_docs)], ["w"], dim=dim)
            model.matrices.doc_in[:] = rows
            model.matrices.word_in[0] = query
            self.check(model, exclude=["d1", f"d{tail}"], ks=(1, n_docs - tail, n_docs - tail + 5))

    @pytest.mark.parametrize("n_docs", [65, 129, 321, 1025])
    def test_a_lone_row_in_the_last_group_ranks_first(self, n_docs):
        """The document count is one past a multiple of PAD_ROWS, and that
        one row is the top 1: the whole product takes it in its kernel's
        tail, and a product over it alone rounds it another way."""
        rng = np.random.default_rng(n_docs)
        dim = 100
        for trial in range(4):
            query = rng.normal(size=dim)
            rows = rng.normal(size=(n_docs, dim))
            rows[-1] = query + 0.01 * rng.normal(size=dim)
            model = make_model([f"d{i}" for i in range(n_docs)], ["w"], dim=dim)
            model.matrices.doc_in[:] = rows
            model.matrices.word_in[0] = query
            self.check(model, exclude=["d1"], ks=(1, 3, 10))

    def test_the_shortlist_is_short(self):
        """Random rows are far apart next to the slack: the shortlist is the
        top k, give or take a few rows."""
        rng = np.random.default_rng(38)
        doc_in = rng.normal(size=(5000, 100))
        query = rng.normal(size=100)
        candidates = np.ones(5000, dtype=bool)
        candidates[:100] = False
        units, _ = recommend_module._unit_rows(doc_in)
        assert np.isfinite(units).all()
        approx = units @ recommend_module._unit_rows(query[None])[0][0]
        rows = recommend_module._shortlist(approx, recommend_module._slack32(100), candidates, 10)
        cosines = (doc_in @ query) / np.linalg.norm(doc_in, axis=1)
        top = 100 + np.argsort(-cosines[100:])[:10]
        assert set(top) <= set(rows.tolist()) and rows.size < 20 and rows.min() >= 100

    def test_the_rule_against_its_first_form(self):
        """``_shortlist`` keeps the rows ``shortlist_reference`` keeps, on
        random inputs with NaN approximations (the rows the bound does not
        cover), runs of equal approximations that tie at tau, and one slack
        or one per row, the approximations in float64 and rounded to
        float32, as rank_i4i's are."""
        rng = np.random.default_rng(39)
        slack = recommend_module._slack32(8)
        for trial in range(400):
            n = int(rng.integers(1, 200))
            approx = rng.normal(size=n)
            approx[rng.random(n) < 0.3] = approx[0]  # ties at tau
            approx[rng.random(n) < 0.05] = approx[0] + slack * rng.choice([-2.0, -1.0, 1.0, 2.0])
            approx[rng.random(n) < 0.1] = np.nan
            approx[rng.random(n) >= 0.8] = np.nan
            candidates = rng.random(n) < 0.85
            for h in (slack, 0.0, 0.5, slack * rng.uniform(0.0, 2.0, size=n), rng.random(n)):
                for a, k in itertools.product((approx, approx.astype(np.float32)),
                                              (1, 2, 5, n, n + 1)):
                    expected = shortlist_reference(a, h, candidates, k)
                    got = recommend_module._shortlist(a, h, candidates, k)
                    assert got.dtype == expected.dtype and np.array_equal(got, expected), (trial, k)

    @pytest.mark.parametrize("dim", [1, 2, 16, 100, 1000])
    def test_the_float32_margin_covers_any_error_within_its_bound(self, dim):
        """The float32 filter must keep the top k for any float32 kernel
        whose error is within its proven bound, B = 1.0041·(n + 2)·u
        (``_shortlist``), not only for this machine's.  The approximate
        cosines are set by hand, 0.99·(n + 2)·u from the exact ones: down
        for the true top k, up for every other row, among near-ties spread
        over (n + 2)·u.  The shortlist must hold the top k, and no row more
        than 6·(n + 2)·u below the k-th.  The same again with the
        approximations in float32, as rank_i4i's are: each is the float32
        next to it on the side of the exact cosine, within the bound."""
        rng = np.random.default_rng(dim)
        u, k = 2.0**-24, 10
        step = (dim + 2) * u
        exact = np.concatenate((0.9 + step * rng.uniform(-1, 1, size=400),
                                0.9 - step * rng.uniform(6, 50, size=200),
                                rng.uniform(-1, 0.5, size=200)))
        order = np.argsort(-exact, kind="stable")
        top, kth = order[:k], exact[order[k - 1]]
        approx = exact + 0.99 * step
        approx[top] = exact[top] - 0.99 * step
        rounded = approx.astype(np.float32)
        over = np.abs(rounded - exact) > np.abs(approx - exact)
        rounded[over] = np.nextafter(rounded[over], exact[over].astype(np.float32))
        assert (np.abs(rounded - exact) > 0.99 * step - u).all()
        candidates = np.ones(exact.size, dtype=bool)
        slack = recommend_module._slack32(dim)
        for a in (approx, rounded):
            rows = recommend_module._shortlist(a, slack, candidates, k)
            assert set(top.tolist()) <= set(rows.tolist())
            assert not (exact[rows] < kth - 6 * step).any() and rows.max() < 400

    def test_rows_the_bound_does_not_cover_are_always_kept(self):
        """However low their approximate cosine: rows whose squared norm is
        outside the range, zero rows, and NaN and infinite rows."""
        rng = np.random.default_rng(39)
        dim = 16
        query = rng.normal(size=dim)
        scales = np.array([1e-160, 1e-137, 1e136, 1e170, np.nan, np.inf, 0.0, 1.0, 1.0])
        doc_in = np.concatenate((rng.normal(size=(300, dim)), -query * scales[:, None]))
        candidates = np.ones(doc_in.shape[0], dtype=bool)
        uncovered = set(range(300, 307))
        with np.errstate(all="ignore"):
            top = np.argsort(-(doc_in[:300] @ query) / np.linalg.norm(doc_in[:300], axis=1))[:3]
            units, _ = recommend_module._unit_rows(doc_in)
            assert set(np.flatnonzero(np.isnan(units).any(axis=1)).tolist()) == uncovered
            assert np.isnan(units[list(uncovered)]).all()
            approx = units @ recommend_module._unit_rows(query[None])[0][0]
            rows = recommend_module._shortlist(approx, recommend_module._slack32(dim),
                                               candidates, 3)
            assert uncovered | set(top) <= set(rows.tolist()) and rows.size < 20

    @pytest.mark.parametrize("covered", ["huge query", "dimension"])
    def test_every_row_is_kept_outside_the_bound(self, monkeypatch, covered):
        """A query whose squared norm is outside the range, or a dimension
        above the bound's, makes the filter keep every candidate, in memory
        and loaded."""
        kept = []

        def shortlist(*args):
            rows = real_shortlist(*args)
            kept.append(rows.size)
            return rows

        real_shortlist = recommend_module._shortlist
        monkeypatch.setattr(recommend_module, "_shortlist", shortlist)
        if covered == "dimension":
            monkeypatch.setattr(recommend_module, "_MAX_DIM32", 4)
        rng = np.random.default_rng(42)
        scale = 1e150 if covered == "huge query" else 1.0
        model = self.model(rng, rng.normal(size=(200, 5)), scale * rng.normal(size=5))
        self.check(model, exclude=["m7"], ks=(1, 10))
        # check ranks the model, then its loaded copy, for each k
        assert kept == [199] * 4

    def test_unit_rows_are_made_a_block_at_a_time(self):
        """Within a factor 1 ± (1 + 2^-12)·2^-24 of each row over its norm,
        as ``_shortlist``'s bound assumes, NaN where the bound does not
        hold, with the norms the rows were divided by, and made with no
        float64 temporary above a block's size."""
        rng = np.random.default_rng(43)
        n_docs, dim = 12 * BLOCK_ROWS + 37, 24
        doc_in = rng.normal(size=(n_docs, dim)) * np.exp(rng.uniform(-330, 330, size=(n_docs, 1)))
        doc_in[rng.choice(n_docs, size=3, replace=False)] = [[0.0], [np.nan], [np.inf]]
        with np.errstate(all="ignore"):
            norms = np.linalg.norm(doc_in, axis=1)
            squares = np.einsum("ij,ij->i", doc_in, doc_in)
            tracemalloc.start()
            units, norms_kept = recommend_module._unit_rows(doc_in)
            peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.stop()
        assert units.dtype == np.float32 and units.shape == doc_in.shape
        covered = (2.0**-900 <= squares) & (squares <= 2.0**900)
        assert 0 < covered.sum() < n_docs - 100
        assert np.isnan(units[~covered]).all() and not np.isnan(units[covered]).any()
        exact = doc_in[covered] / norms[covered, None]
        assert (np.abs(units[covered] - exact) <= (1 + 2.0**-12) * 2.0**-24 * np.abs(exact)).all()
        assert np.array_equal(norms_kept, np.sqrt(squares), equal_nan=True)
        assert peak - units.nbytes - norms_kept.nbytes <= BLOCK_ROWS * dim * 8

    def test_many_blocks_match_every_row_scored(self):
        rng = np.random.default_rng(41)
        rows = rng.normal(size=(2 * BLOCK_ROWS + 37, 3))
        rows[rng.choice(rows.shape[0], size=40, replace=False)] = 0.0
        model = self.model(rng, rows, rng.normal(size=3))
        self.check(model, exclude=rng.choice(model.vocab.doc_list, size=100).tolist())


class TestI4IAtTheThreshold:
    """Below ``_FILTER_ENTRIES`` entries rank_i4i scores every input row,
    at or above it only the float32 filter's shortlist: with the threshold
    at 0 and at infinity, every list and every score is the same bits."""

    @pytest.mark.parametrize("n_docs, dim", [(37, 3), (130, 17), (BLOCK_ROWS + 101, 5)])
    def test_both_paths_rank_the_same_bits(self, monkeypatch, n_docs, dim):
        """Rows drawn from a few integer rows, so that equal rows tie at the
        k-th place; zero, NaN, inf and overflowing rows; exclusions that
        leave fewer than k candidates; k at and above the document count;
        and document counts that are not a multiple of ``PAD_ROWS``."""
        assert n_docs % PAD_ROWS
        rng = np.random.default_rng(n_docs + dim)
        model = make_model(shuffled_ids(rng, n_docs), [f"w{j}" for j in range(4)], dim=dim)
        m = model.matrices
        m.doc_in[:] = rng.integers(-1, 2, size=(20, dim))[rng.integers(0, 20, size=n_docs)]
        m.doc_in[rng.choice(n_docs, size=6, replace=False)] = [
            [0.0], [0.0], [np.nan], [np.inf], [-np.inf], [1e300]]
        m.word_in[:] = rng.normal(size=m.word_in.shape)
        m.word_out[:] = rng.normal(size=m.word_out.shape)
        ids = model.vocab.doc_list
        ties = 0
        for ranker in (model, reloaded(model)):
            for trial in range(3):
                words = rng.integers(0, 4, size=3).tolist()
                for exclude in (set(), set(rng.choice(ids, size=n_docs // 5).tolist()), set(ids[3:])):
                    lists = {}
                    for k in (n_docs, n_docs + 2, 1, 5, n_docs - 1):
                        for threshold in (0, math.inf):
                            monkeypatch.setattr(recommend_module, "_FILTER_ENTRIES", threshold)
                            lists[k, threshold] = bits(
                                rank_i4i(ranker, words, exclude=exclude, k=k).ranked)
                        assert lists[k, 0] == lists[k, math.inf], (trial, sorted(exclude)[:3], k)
                    every = lists[n_docs, 0]  # every candidate, best first
                    ties += sum(len(every) > k and every[k - 1][1] == every[k][1] for k in (1, 5))
        assert ties > 0
        assert {"unit rows", "row norms"} <= set(model._derived())


def resolve_tokens(model, text):
    """``resolve_text`` by way of ``tokenize_text``'s Token objects."""
    word_ids, doc_ids = model.vocab.word_ids, model.vocab.doc_ids
    tokens = tokenize_text(text)
    words = [t.value for t in tokens if not t.is_cite]
    markers = [t.value for t in tokens if t.is_cite]
    return ResolvedText(
        word_indices=tuple(word_ids[w] for w in words if w in word_ids),
        marker_ids=markers,
        structural_docs=frozenset(doc_ids[m] for m in markers if m in doc_ids),
        unknown_words=sum(w not in word_ids for w in words),
    )


class TestResolveText:
    def test_words_markers_and_unknown_counting(self):
        model = make_model(["p1", "p2"], ["alpha", "beta"])
        resolved = resolve_text(model, "Alpha [[p2]] mystery beta [[ghost]]")
        assert resolved.word_indices == (0, 1)
        assert resolved.marker_ids == ["p2", "ghost"]
        assert resolved.structural_docs == frozenset({1})
        assert resolved.unknown_words == 1

    def test_same_as_resolving_tokens(self):
        """Random texts of words in any case, markers known, unknown and
        malformed, brackets inside words and runs of Unicode whitespace;
        an empty marker is the same error either way."""
        model = make_model(["p1", "P1", "[x]", "é"], ["alpha", "beta", "ǆ", "[[", "]]", "[[p1"])
        pieces = ["alpha", "ALPHA", "Beta", "ǅ", "Ǆ", "gamma", "[[p1]]", "[[P1]]", "[[ghost]]",
                  "[[[x]]]", "[[é]]", "[[", "]]", "[[]", "[]]", "[[p1", "p1]]", "x[[p1]]",
                  "[[p1]]x", "[[[[]]]]", "[[ ]]"]
        spaces = [" ", "  ", "\t", "\n", "\r\n", "\u00a0", "\u2003", "\u3000"]
        rng = np.random.default_rng(95)
        for _ in range(500):
            n = int(rng.integers(0, 12))
            text = "".join(spaces[int(rng.integers(len(spaces)))] + pieces[int(rng.integers(len(pieces)))]
                           for _ in range(n))
            assert resolve_text(model, text) == resolve_tokens(model, text), repr(text)
        for text in ("[[]]", "alpha [[p1]] [[]] beta", "[[]]\u3000[[]]"):
            with pytest.raises(CorpusFormatError) as expected:
                resolve_tokens(model, text)
            with pytest.raises(CorpusFormatError) as got:
                resolve_text(model, text)
            assert (str(got.value), got.value.line_number) == (
                str(expected.value), expected.value.line_number)


class TestRecommend:
    def test_markers_are_never_recommended(self):
        model = make_model(["p1", "p2", "p3"], ["alpha", "beta"], dim=3)
        model.matrices.doc_out[:] = np.eye(3)
        for k in (1, 2, 3, 10):
            result = recommend(model, "alpha beta [[p2]]", case=1, k=k)
            assert "p2" not in ranked_ids(result)

    def test_all_unknown_words_is_an_error_with_count(self):
        model = make_model(["p1"], ["alpha"])
        with pytest.raises(QueryError) as err:
            recommend(model, "unseen tokens only", case=3, k=5)
        assert err.value.unknown_words == 3

    def test_case3_query_ignores_markers(self):
        """Case 3's query ignores the markers, which are still excluded: at a
        k that keeps every candidate, the marked text's list is the plain
        text's less the marked ids."""
        model = make_model(["p1", "p2", "p3"], ["alpha", "beta"], dim=3)
        model.matrices.doc_out[:] = np.eye(3) * 2
        with_markers = recommend(model, "alpha beta [[p2]] [[p9]]", case=3, k=3)
        without = recommend(model, "alpha beta", case=3, k=3)
        assert "p2" in ranked_ids(without)
        assert with_markers.ranked == [r for r in without.ranked if r[0] != "p2"]

    def test_case2_takes_any_int_seed_modulo_2_to_the_64(self):
        model = make_model([f"p{i}" for i in range(8)], ["alpha"], dim=3)
        model.matrices.doc_out[:] = np.random.default_rng(5).normal(size=(8, 3))
        text = "alpha " + " ".join(f"[[p{i}]]" for i in range(6))
        assert len({str(recommend(model, text, case=2, seed=s)) for s in range(4)}) > 1
        wrapped = recommend(model, text, case=2, k=2, seed=2**64 - 1)
        assert recommend(model, text, case=2, k=2, seed=-1) == wrapped
        assert recommend(model, text, case=2, k=2, seed=np.int64(-1)) == wrapped
        assert recommend(model, text, case=2, k=2, seed=2**64 + 5) == recommend(
            model, text, case=2, k=2, seed=5)

    def test_unknown_markers_are_harmless(self):
        model = make_model(["p1"], ["alpha"], dim=2)
        result = recommend(model, "alpha [[never-seen]]", case=1, k=2)
        assert ranked_ids(result) == ["p1"]


class TestCliqueRetrieval:
    def test_structural_queries_recover_the_missing_clique_members(self, avg_model):
        """Planted co-citation structure: citing two clique members plus
        on-topic words must surface the other two members immediately."""
        clique = [f"t0c{j}" for j in range(4)]
        successes = 0
        for trial in range(20):
            rng = np.random.default_rng([5150, trial])
            cited = rng.choice(4, size=2, replace=False)
            missing = {clique[j] for j in range(4) if j not in cited}
            words = " ".join(f"w0t{m}" for m in rng.integers(0, 30, size=8))
            text = f"{words} [[{clique[cited[0]]}]] [[{clique[cited[1]]}]]"
            result = recommend(avg_model, text, case=1, k=4)
            if missing <= set(ranked_ids(result)):
                successes += 1
        # regression baseline from the first verified run: 20 of 20 trials
        assert successes >= 18


def reloaded(model):
    """``model`` saved and loaded again: its arrays are read-only, and NumPy
    refuses to make them writable."""
    sink = io.BytesIO()
    save_model(model, sink)
    return load_model(sink.getvalue())


def writable(model):
    """A model on writable copies of ``model``'s matrices: ranking derives
    its own arrays from them."""
    return Model(model.config, model.vocab, model.matrices.copy(), model.trained_epochs)


class TestLoadedModelReuse:
    """Every model, loaded or in memory, builds its cited panel and its
    float32 unit rows once and ranks with them (the cited panel's own unit
    rows only when it is large, ``TestI4OFilter``).  The rankings are the
    same bits either way, and those of every row scored exactly."""

    def model(self, rng, n_docs, n_cited, dim=6, n_words=5):
        model = shuffled_id_model(rng, n_docs, dim, n_words=n_words)
        m = model.matrices
        for matrix in (m.doc_in, m.doc_out, m.word_in, m.word_out):
            matrix[:] = rng.normal(size=matrix.shape)
        m.doc_out[rng.choice(n_docs, size=3, replace=False)] = [[np.nan], [np.inf], [-np.inf]]
        m.doc_in[rng.choice(n_docs, size=4, replace=False)] = [[np.nan], [np.inf], [0.0], [1e300]]
        counts = model.vocab.doc_cited_counts
        counts[:] = 0
        counts[rng.choice(n_docs, size=n_cited, replace=False)] = 1
        return reloaded(model)

    def rankings(self, model, rng, exact=False):
        """Bits of i4o, i4i and evaluate rankings for seeded queries; with
        ``exact``, each i4i ranking is checked against every row scored."""
        with np.errstate(all="ignore"):  # non-finite rows: inf - inf in a product
            return self._rankings(model, rng, exact)

    def _rankings(self, model, rng, exact):
        n_docs, dim, n_words = model.vocab.n_docs, model.matrices.dim, model.vocab.n_words
        doc_list = model.vocab.doc_list
        out = []
        for k in (1, 5, n_docs + 3):
            exclude = {doc_list[d] for d in rng.choice(n_docs, size=3, replace=False)}
            out.append(bits(rank_i4o(model, rng.normal(size=dim), exclude=exclude, k=k).ranked))
            words = rng.integers(0, n_words, size=3).tolist()
            out.append(bits(rank_i4i(model, words, exclude=exclude, k=k).ranked))
            if exact:
                scores = cosine_scores(model, infer_doc_vector(model, words))
                assert out[-1] == bits(oracle_rank(model, scores, exclude, k))
        truth = [CitationRelation(source=int(d[0]), target=int(d[1]), structural=frozenset(d[2:].tolist()),
                                  context=tuple(rng.integers(0, n_words, size=2).tolist()))
                 for d in (rng.choice(n_docs, size=4, replace=False) for _ in range(40))]
        for case in (1, 2, 3):
            report = evaluate(model, truth, case=case, k=5)
            out.append((report.recall.hex(), report.mean_average_precision.hex(), report.ndcg.hex()))
        return out

    @pytest.mark.parametrize("n_docs, n_cited", [
        (40, 0), (40, 3), (300, 150), (BLOCK_ROWS + 200, BLOCK_ROWS + 30)])
    def test_a_loaded_model_ranks_like_its_writable_copy(self, monkeypatch, n_docs, n_cited):
        """No cited document, fewer than k, and panels of one and two
        slices, the last partial; non-finite rows among them.  The models
        are below ``_FILTER_ENTRIES``, so every row is scored, and then
        filtered, with the threshold set to 0; i4i is checked against every
        row scored."""
        for threshold, kept in ((recommend_module._FILTER_ENTRIES, "row norms"), (0, "unit rows")):
            monkeypatch.setattr(recommend_module, "_FILTER_ENTRIES", threshold)
            loaded = self.model(np.random.default_rng(n_docs + n_cited), n_docs, n_cited)
            memory = writable(loaded)
            expected = self.rankings(memory, np.random.default_rng(5), exact=True)
            assert self.rankings(loaded, np.random.default_rng(5)) == expected  # builds
            assert self.rankings(loaded, np.random.default_rng(5)) == expected  # reuses
            assert self.rankings(memory, np.random.default_rng(5)) == expected  # reuses
            assert loaded.vocab.n_docs == n_docs and kept in memory._derived()

    def test_a_loaded_model_reuses_what_it_derives(self, monkeypatch):
        """A model, its i4o filter threshold set to 0, makes its cited
        rows' float32 unit rows once, on its first i4o query, and its input
        rows' unit rows on its first i4i query; it gathers no panel of all
        its cited output rows, and each i4o query gathers only its
        shortlist's output rows, each i4i query only its shortlist's input
        rows.  A loaded model and its writable copy do the same work."""
        calls = []

        def unit_rows(matrix, *rows):
            # a model's rows; a query's own unit row is made on every query
            if matrix is model.matrices.doc_in or matrix is model.matrices.doc_out:
                calls.append("_unit_rows")
            return real_unit_rows(matrix, *rows)

        def noise_table(*args):
            calls.append("_noise_table")
            return real_noise_table(*args)

        def gather(matrix, rows):
            if evaluating:
                assert matrix is model.matrices.doc_out
                calls.append("evaluate's rows")
            else:
                calls.append("doc_out panel" if matrix is model.matrices.doc_out else "doc_in panel")
            return real_gather(matrix, rows)

        def cited_places(*args):
            evaluating.append(True)
            try:
                return real_cited_places(*args)
            finally:
                evaluating.clear()

        evaluating = []
        real_gather, real_cited_places = recommend_module._gather_panel, evaluation_module._cited_places
        monkeypatch.setattr(recommend_module, "_gather_panel", gather)
        monkeypatch.setattr(evaluation_module, "_cited_places", cited_places)
        monkeypatch.setattr(recommend_module, "_FILTER_ENTRIES", 0)
        real_unit_rows, real_noise_table = recommend_module._unit_rows, train_module._noise_table
        monkeypatch.setattr(recommend_module, "_unit_rows", unit_rows)
        monkeypatch.setattr(train_module, "_noise_table", noise_table)
        loaded = self.model(np.random.default_rng(3), 300, 150)
        for model in (loaded, writable(loaded)):
            rng = np.random.default_rng(4)
            calls.clear()
            self.rankings(model, rng)
            # 3 i4o shortlists, both unit rows, one table, 3 i4i shortlists, and
            # evaluate's targets and near rows in each of its 3 calls' one block
            assert sorted(calls) == sorted(["doc_out panel"] * 3 + ["_unit_rows"] * 2
                                           + ["_noise_table"] + ["doc_in panel"] * 3
                                           + ["evaluate's rows"] * 6)
            units = model._derived()["unit rows"]
            assert units.dtype == np.float32 and units.shape == (300, 6)
            cited_units = recommend_module._cited_panel(model)[3][0]
            assert cited_units.dtype == np.float32 and cited_units.shape == (150, 6)
            calls.clear()
            self.rankings(model, rng)
            assert sorted(calls) == sorted(["doc_out panel", "doc_in panel"] * 3
                                           + ["evaluate's rows"] * 6)
            assert model._derived()["unit rows"] is units
            assert recommend_module._cited_panel(model)[3][0] is cited_units

    def test_a_panel_takes_one_form(self, monkeypatch):
        """A large cited panel keeps its rows' float32 unit rows and norms,
        and no float64 panel; a small one keeps its float64 panel and
        no unit rows."""
        model = self.model(np.random.default_rng(13), 300, 150)
        rank_i4o(model, np.ones(6))
        rows, panel, column, unit_rows = recommend_module._cited_panel(model)
        assert unit_rows is None and panel.dtype == np.float64 and panel.shape == (192, 6)
        for threshold in (0, 150 * 6):
            monkeypatch.setattr(recommend_module, "_FILTER_ENTRIES", threshold)
            model = writable(model)
            rank_i4o(model, np.ones(6))
            rows, panel, column, unit_rows = recommend_module._cited_panel(model)
            assert panel is None and [a.dtype for a in unit_rows] == [np.float32, np.float64]
            kept = [rows, column, *unit_rows]
            assert all(a.ndim == 1 or a.dtype == np.float32 for a in kept)
            assert sum(a.nbytes for a in kept) == 150 * (8 + 6 * 4 + 8) + 300 * 8

    def test_a_small_model_makes_no_unit_rows_for_i4i(self, monkeypatch):
        """Below ``_FILTER_ENTRIES`` the first i4i query, in memory or
        loaded, makes no float32 copy, of the rows or of the query: it keeps
        the rows' norms, n_docs float64s with the bits of
        ``np.linalg.norm`` over every row, and the next query reuses them."""
        monkeypatch.setattr(recommend_module, "_unit_rows", no_work)
        loaded = self.model(np.random.default_rng(12), 300, 150)
        for model in (loaded, writable(loaded)):
            rank_i4i(model, [0, 1, 2], k=5)
            norms = model._derived()["row norms"]
            assert "unit rows" not in model._derived() and norms.nbytes == 300 * 8
            with np.errstate(all="ignore"):
                every = np.linalg.norm(model.matrices.doc_in, axis=1)
            assert np.array_equal(norms, every, equal_nan=True)
            rank_i4i(model, [3, 4], k=5)
            assert model._derived()["row norms"] is norms

    def test_a_small_panel_is_not_filtered(self):
        """Below ``_FILTER_ENTRIES`` a loaded model scores its whole
        cited panel, and keeps no unit rows for it."""
        loaded = self.model(np.random.default_rng(11), 300, 150)
        rank_i4o(loaded, np.ones(6))
        assert 150 * 6 < recommend_module._FILTER_ENTRIES
        assert recommend_module._cited_panel(loaded)[3] is None

    def test_a_loaded_model_infers_like_its_writable_copy(self):
        """The kept word-noise table draws with a fresh generator per call:
        every call infers the same bits as a model that builds its own."""
        loaded = self.model(np.random.default_rng(9), 60, 20, n_words=40)
        rng = np.random.default_rng(10)
        texts = [rng.integers(0, 40, size=n).tolist() for n in (1, 7, 300)]
        expected = [infer_doc_vector(writable(loaded), words).tobytes() for words in texts]
        for _ in range(2):
            assert [infer_doc_vector(loaded, words).tobytes() for words in texts] == expected
        assert "word noise" in loaded._derived()

    def test_pickles_and_deep_copies_leave_derived_arrays_out(self, monkeypatch):
        """A ranked model pickles to the bytes of an unranked one; a
        shallow or deep copy and an unpickled copy start with nothing
        derived, and rank the same bits."""
        monkeypatch.setattr(recommend_module, "_FILTER_ENTRIES", 0)
        loaded = self.model(np.random.default_rng(14), 300, 150)
        unranked = pickle.dumps(loaded)
        expected = self.rankings(loaded, np.random.default_rng(15))
        assert {"cited panel", "unit rows", "word noise"} <= set(loaded._derived())
        assert pickle.dumps(loaded) == unranked
        for other in (copy.copy(loaded), copy.deepcopy(loaded), pickle.loads(unranked)):
            assert other._frozen is None
            assert self.rankings(other, np.random.default_rng(15)) == expected
        assert loaded._frozen is not None

    def test_copies_of_a_loaded_model_derive_their_own(self):
        loaded = self.model(np.random.default_rng(6), 40, 10)
        rank_i4o(loaded, np.ones(6))
        assert loaded._derived()
        for other in (copy.deepcopy(loaded), writable(loaded)):
            assert other._derived() == {}

    def test_replaced_arrays_rank_as_the_new_arrays(self):
        rng = np.random.default_rng(7)
        loaded = self.model(rng, 300, 150)
        before = self.rankings(loaded, np.random.default_rng(8))
        original = loaded.matrices

        loaded.matrices = loaded.matrices.copy()
        loaded.matrices.doc_out[:] = rng.normal(size=loaded.matrices.doc_out.shape)
        loaded.matrices.doc_in[:] = rng.normal(size=loaded.matrices.doc_in.shape)
        changed = self.rankings(loaded, np.random.default_rng(8))
        assert changed != before
        assert changed == self.rankings(writable(loaded), np.random.default_rng(8))

        loaded.matrices = original
        assert self.rankings(loaded, np.random.default_rng(8)) == before

        loaded.vocab = copy.copy(loaded.vocab)
        loaded.vocab.doc_cited_counts = np.roll(loaded.vocab.doc_cited_counts, 1)
        moved = self.rankings(loaded, np.random.default_rng(8))
        assert moved != before
        assert moved == self.rankings(writable(loaded), np.random.default_rng(8))


class TestI4OFilter:
    """A model whose cited panel holds at least ``_FILTER_ENTRIES``
    entries filters its rows by float32 cosines scaled by the rows' norms,
    then scores the shortlist exactly.  These are the cases where the
    filter is least reliable: each ranks the loaded model and its writable
    copy, the threshold set to 0 so that every panel is filtered, against a
    copy ranked with the threshold out of reach, which scores every cited
    row, bit for bit, with both signs of each query, and records the
    shortlists' sizes."""

    def model(self, rng, rows, cited_share=0.8):
        n_docs, dim = rows.shape
        model = make_model(shuffled_ids(rng, n_docs), ["w"], dim=dim)
        model.matrices.doc_out[:] = rows
        model.vocab.doc_cited_counts[:] = rng.random(n_docs) < cited_share
        return reloaded(model)

    def check(self, monkeypatch, loaded, queries, ks=(1, 3, 10, 50), threshold=0):
        """The loaded model's shortlists' sizes, after every ranking
        matched; its writable copy's are the same."""
        doc_list = loaded.vocab.doc_list
        rng = np.random.default_rng(len(doc_list))
        cases = [(sign * query, k, set(rng.choice(doc_list, size=min(3, len(doc_list)), replace=False)))
                 for query in queries for sign, k in itertools.product((1.0, -1.0), ks)]
        exact = writable(loaded)
        monkeypatch.setattr(recommend_module, "_FILTER_ENTRIES", math.inf)
        with np.errstate(all="ignore"):  # non-finite rows: inf - inf in a product
            expected = [bits(rank_i4o(exact, q, exclude=e, k=k).ranked) for q, k, e in cases]
        assert recommend_module._cited_panel(exact)[3] is None
        sizes = []

        def shortlist(*args):
            rows = real_shortlist(*args)
            sizes.append(rows.size)
            return rows

        real_shortlist = recommend_module._shortlist
        monkeypatch.setattr(recommend_module, "_shortlist", shortlist)
        monkeypatch.setattr(recommend_module, "_FILTER_ENTRIES", threshold)
        memory = writable(loaded)
        with np.errstate(all="ignore"):
            for model in (memory, loaded):
                for (query, k, exclude), ranked in zip(cases, expected):
                    got = bits(rank_i4o(model, query, exclude=exclude, k=k).ranked)
                    assert got == ranked, f"k={k}"
                assert recommend_module._cited_panel(model)[3] is not None
        assert len(sizes) == 2 * len(cases) and sizes[: len(cases)] == sizes[len(cases) :]
        return sizes[len(cases) :]

    def test_norms_spanning_2_to_the_300(self, monkeypatch):
        """Row norms from 2^-300 to 2^300, and near-ties at each of three
        scales: rows of norm about 2^280, 1 and 2^-280 whose exact dot
        products differ by less than the slack, a few float32 steps of
        their norms.  A slack that does not scale with each row's norm
        drops rows of the top k."""
        rng = np.random.default_rng(70)
        dim = 24
        query = rng.normal(size=dim)
        unit = query / np.linalg.norm(query)
        offsets = rng.normal(size=(60, dim))
        offsets -= np.outer(offsets @ unit, unit)
        spread = recommend_module._slack32(dim) / 4
        near = (unit * (1.0 + spread * rng.uniform(-1, 1, size=(60, 1)))
                + offsets / np.linalg.norm(offsets, axis=1)[:, None])
        rows = np.concatenate((
            rng.normal(size=(400, dim)) * np.exp2(rng.uniform(-300, 300, size=(400, 1))),
            near * 2.0**280, near, near * 2.0**-280))
        loaded = self.model(rng, rng.permutation(rows), cited_share=0.9)
        sizes = self.check(monkeypatch, loaded, [query, rng.normal(size=dim)])
        assert min(sizes) < 100

    def test_rows_the_bound_does_not_cover(self, monkeypatch):
        """Rows whose squared norm is outside ``_SAFE_SQUARES``, zero rows,
        and NaN, +inf and -inf rows: always kept, never counted toward
        the k-th lower bound."""
        rng = np.random.default_rng(71)
        dim = 8
        query = rng.normal(size=dim)
        scales = np.array([1e-170, 1e-160, 1e-137, 1e136, 1e160, 1e170, 0.0, 0.0, np.nan,
                           np.inf, -np.inf])
        rows = np.concatenate((query * scales[:, None], -query * scales[:, None],
                               rng.normal(size=(200, dim))))
        rows[-1, 3] = np.inf
        loaded = self.model(rng, rng.permutation(rows), cited_share=0.95)
        sizes = self.check(monkeypatch, loaded, [query, rng.normal(size=dim)], ks=(1, 10, 40, 300))
        assert min(sizes) < 100

    @pytest.mark.parametrize("scale", [0.0, 1e-200, 1e-140, 1e140, 1e200, np.nan, np.inf])
    def test_queries_the_bound_does_not_cover(self, monkeypatch, scale):
        """A zero, tiny, huge or non-finite query: its squared norm is
        outside ``_SAFE_SQUARES``, and every candidate is kept."""
        rng = np.random.default_rng(72)
        dim = 6
        loaded = self.model(rng, rng.normal(size=(150, dim)))
        query = rng.normal(size=dim) * scale
        query[0] = 0.0 if scale == 0.0 else query[0]
        sizes = self.check(monkeypatch, loaded, [query], ks=(1, 10))
        candidates = int((loaded.vocab.doc_cited_counts > 0).sum())
        assert candidates - 3 <= min(sizes) and max(sizes) <= candidates

    def test_a_dimension_above_the_bound(self, monkeypatch):
        rng = np.random.default_rng(73)
        monkeypatch.setattr(recommend_module, "_MAX_DIM32", 4)
        loaded = self.model(rng, rng.normal(size=(150, 5)))
        sizes = self.check(monkeypatch, loaded, [rng.normal(size=5)], ks=(1, 10))
        candidates = int((loaded.vocab.doc_cited_counts > 0).sum())
        assert candidates - 3 <= min(sizes)

    def test_an_all_tied_panel(self, monkeypatch):
        """Every cited row the same: every score ties, every candidate is
        kept, and the ids break the ties."""
        rng = np.random.default_rng(74)
        row = rng.normal(size=7)
        loaded = self.model(rng, np.tile(row, (200, 1)))
        sizes = self.check(monkeypatch, loaded, [row, rng.normal(size=7)], ks=(1, 10, 200))
        candidates = int((loaded.vocab.doc_cited_counts > 0).sum())
        assert candidates - 3 <= min(sizes)

    def test_a_model_above_the_real_threshold(self, monkeypatch):
        """Filtered at the module's own threshold: a cited panel of just at
        least ``_FILTER_ENTRIES`` entries, with a short shortlist."""
        rng = np.random.default_rng(75)
        dim = 50
        n_cited = -(-recommend_module._FILTER_ENTRIES // dim)
        rows = rng.normal(size=(n_cited + 100, dim)) * rng.uniform(0.5, 2.0, size=(n_cited + 100, 1))
        model = make_model(shuffled_ids(rng, n_cited + 100), ["w"], dim=dim)
        model.matrices.doc_out[:] = rows
        model.vocab.doc_cited_counts[rng.choice(n_cited + 100, size=100, replace=False)] = 0
        loaded = reloaded(model)
        sizes = self.check(monkeypatch, loaded, [rng.normal(size=dim) for _ in range(3)],
                           ks=(1, 10), threshold=recommend_module._FILTER_ENTRIES)
        assert max(sizes) < 30

    def test_the_shortlist_is_short(self):
        """Random rows of norms within a factor e of each other, on a
        20,000-row panel: the shortlist is the top k, give or take a few
        rows."""
        rng = np.random.default_rng(76)
        dim = 100
        panel = rng.normal(size=(20_000, dim)) * np.exp(rng.uniform(-1, 1, size=(20_000, 1)))
        units, norms = recommend_module._unit_rows(panel)
        assert np.isfinite(units).all()
        candidates = np.ones(20_000, dtype=bool)
        candidates[:100] = False
        for _ in range(5):
            query = rng.normal(size=dim)
            query_unit, query_norm = recommend_module._unit_rows(query[None])
            scale = norms * query_norm
            rows = recommend_module._shortlist(scale * (units @ query_unit[0]),
                                               recommend_module._slack32(dim) * scale, candidates, 10)
            top = 100 + np.argsort(-(panel[100:] @ query))[:10]
            assert set(top) <= set(rows.tolist()) and rows.size < 20 and rows.min() >= 100


class TestNaNRowsInTheCopy:
    """The filters need no mask: ``_unit_rows`` writes NaN into the float32
    copy for every row and query the bound does not cover, and every
    float32 product with it is NaN.  That holds only if a NaN row leaves
    the products of every other row the same bits, finite, as a zero row
    there did, in both shapes the filters take: the matrix-vector product
    of rank_i4o and rank_i4i, and the block product of ``_near_places``."""

    def copies(self, rng, n, dim):
        """Random rows, one in five out of range, in their float32 copy
        (``_unit_rows``), and the same copy with those rows zero."""
        rows = rng.normal(size=(n, dim))
        out = rng.random(n) < 0.2
        rows[out] *= rng.choice([0.0, 1e-200, 1e200, np.nan, np.inf], size=(out.sum(), 1))
        units, _ = recommend_module._unit_rows(rows)
        assert np.array_equal(np.isnan(units).any(axis=1), out) and np.isnan(units[out]).all()
        return units, np.where(np.isnan(units), np.float32(0.0), units), out

    @pytest.mark.parametrize("n, dim", [(1, 1), (7, 3), (64, 16), (65, 16), (300, 100),
                                        (BLOCK_ROWS + 37, 24)])
    def test_a_nan_row_leaves_every_other_matrix_vector_product(self, n, dim):
        rng = np.random.default_rng(n + dim)
        units, zeroed, out = self.copies(rng, n, dim)
        for _ in range(3):
            query = recommend_module._unit_rows(rng.normal(size=(1, dim)))[0][0]
            got, expected = units @ query, zeroed @ query
            assert np.isnan(got[out]).all() and np.isfinite(got[~out]).all()
            assert got[~out].tobytes() == expected[~out].tobytes()

    @pytest.mark.parametrize("n, dim, n_queries",
                             [(7, 3, 5), (300, 16, 32), (BLOCK_ROWS + 37, 100, 29)])
    def test_a_nan_row_or_query_leaves_every_other_block_product(self, n, dim, n_queries):
        rng = np.random.default_rng(n + dim + n_queries)
        units, zeroed, out = self.copies(rng, n, dim)
        queries, zeroed_queries, uncovered = self.copies(rng, n_queries, dim)
        got = (units @ queries.T).T
        expected = (zeroed @ zeroed_queries.T).T
        either = uncovered[:, None] | out[None, :]
        assert np.isnan(got[either]).all() and np.isfinite(got[~either]).all()
        assert got[~either].tobytes() == expected[~either].tobytes()

    @pytest.mark.parametrize("scale", [0.0, 1e-200, 1e-140, 1e140, 1e200, np.nan, np.inf])
    def test_a_query_out_of_range_is_nan(self, scale):
        """A zero, tiny, huge, NaN or infinite query."""
        query = np.random.default_rng(3).normal(size=(1, 8)) * scale
        unit, norm = recommend_module._unit_rows(query)
        assert unit.dtype == np.float32 and np.isnan(unit).all()
        with np.errstate(all="ignore"):
            assert np.array_equal(norm, np.linalg.norm(query, axis=1), equal_nan=True)

    def test_a_dimension_above_the_bound_gives_a_nan_copy(self, monkeypatch):
        rows = np.random.default_rng(4).normal(size=(BLOCK_ROWS + 5, 5))
        monkeypatch.setattr(recommend_module, "_MAX_DIM32", 4)
        units, norms = recommend_module._unit_rows(rows)
        assert np.isnan(units).all() and np.isfinite(norms).all()
        monkeypatch.setattr(recommend_module, "_MAX_DIM32", 5)
        assert np.isfinite(recommend_module._unit_rows(rows)[0]).all()


class TestFrozenOnFirstQuery:
    """Ranking makes a model's arrays read-only on its first query, and
    keeps what it derives from them while the model holds them; to edit,
    assign ``model.matrices = model.matrices.copy()``."""

    def trained(self, corpus_bytes):
        """A model trained in memory on a vocabulary no other test holds."""
        corpus = parse_corpus(corpus_bytes)
        return train_on(corpus.docs, corpus.vocab, iterations=5), corpus

    def arrays(self, model):
        m, v = model.matrices, model.vocab
        return [m.doc_in, m.doc_out, m.word_in, m.word_out, m.attention,
                v.word_counts, v.doc_cited_counts]

    def rankings(self, model):
        """Bits of recommend, i4i and evaluate on the fixture corpus."""
        words = " ".join(f"w0t{j}" for j in range(6))
        out = [bits(recommend(model, f"{words} [[t0c{j}]]", case=case, k=5).ranked)
               for j in range(2) for case in (1, 3)]
        out += [bits(rank_i4i(model, list(range(j, j + 4)), exclude={"t0c1"}, k=5).ranked)
                for j in range(3)]
        truth = [CitationRelation(source=None, target=j, structural=frozenset({j + 1}),
                                  context=(j, j + 2)) for j in range(8)]
        out += [evaluate(model, truth, case=case, k=3) for case in (1, 2, 3)]
        return out

    @pytest.mark.parametrize("first", ["recommend", "rank_i4i", "evaluate", "infer_doc_vector"])
    def test_the_first_query_makes_every_array_read_only(self, fixture_corpus_bytes, first):
        model, _ = self.trained(fixture_corpus_bytes)
        assert all(a.flags.writeable for a in self.arrays(model))
        truth = [CitationRelation(source=None, target=0, structural=frozenset(), context=(0, 1))]
        query = {
            "recommend": lambda: recommend(model, "w0t1 w0t2 [[t0c0]]"),
            "rank_i4i": lambda: rank_i4i(model, [0, 1]),
            "evaluate": lambda: evaluate(model, truth, case=1),
            "infer_doc_vector": lambda: infer_doc_vector(model, [0, 1]),
        }[first]
        query()
        assert not any(a.flags.writeable for a in self.arrays(model))
        with pytest.raises(ValueError, match="read-only"):
            model.matrices.doc_out[0, 0] += 1.0

    def test_a_copy_of_the_matrices_ranks_with_new_arrays_and_the_same_bits(
            self, fixture_corpus_bytes, monkeypatch):
        """The copy derives its own arrays, and ranks the same bits below
        ``_FILTER_ENTRIES`` and filtered, with the threshold set to 0."""
        model, _ = self.trained(fixture_corpus_bytes)
        before = self.rankings(model)
        for threshold, kept in ((recommend_module._FILTER_ENTRIES, "row norms"), (0, "unit rows")):
            monkeypatch.setattr(recommend_module, "_FILTER_ENTRIES", threshold)
            derived = model._derived()
            assert {"cited panel", "word noise"} <= set(derived)
            model.matrices = model.matrices.copy()
            assert model.matrices.doc_in.flags.writeable
            assert self.rankings(model) == before
            assert model._derived() is not derived and kept in model._derived()
            assert model._derived()["cited panel"] is not derived["cited panel"]
            assert not model.matrices.doc_in.flags.writeable

    def test_an_array_made_writable_again_is_read_afresh(self, fixture_corpus_bytes):
        """An owned array made writable again and written: the next query
        derives from the new values, as every row scored says."""
        model, _ = self.trained(fixture_corpus_bytes)
        rng = np.random.default_rng(8)
        query, words = rng.normal(size=model.matrices.dim), [0, 3, 5]
        rank_i4o(model, query, k=5)
        rank_i4i(model, words, k=5)
        m, counts = model.matrices, model.vocab.doc_cited_counts
        for array, values in ((m.doc_out, -m.doc_out), (m.doc_in, rng.normal(size=m.doc_in.shape)),
                              (counts, np.roll(counts, 3))):
            array.flags.writeable = True
            array[...] = values
            assert rank_i4o(model, query, k=5).ranked == i4o_oracle(model, query, (), 5)
            scores = cosine_scores(model, infer_doc_vector(model, words))
            assert bits(rank_i4i(model, words, k=5).ranked) == bits(oracle_rank(model, scores, (), 5))
            assert not array.flags.writeable

    def test_a_second_train_after_ranking(self, fixture_corpus_bytes):
        """``train`` starts from fresh matrices and only reads the counts:
        on a model already ranked, it gives the lists of a fresh model."""
        model, corpus = self.trained(fixture_corpus_bytes)
        first = self.rankings(model)
        relations = extract_relations(corpus.docs, corpus.vocab, FIXTURE_CONFIG.window)
        train_module.train(model, relations, corpus.docs)
        fresh = init_model(corpus.vocab, model.config)
        train_module.train(fresh, relations, corpus.docs)
        assert self.rankings(model) == self.rankings(fresh) == first


class TestArgumentsBeforeWork:
    """A bad ``exclude``, word index or query shape is a ConfigError,
    raised before any work."""

    @pytest.mark.parametrize("exclude", ["t1c2", b"t1c2", ""], ids=repr)
    def test_a_string_exclude(self, monkeypatch, exclude):
        """A string would be read one character at a time, and exclude
        nothing."""
        model = make_model(["t1c2", "a", "b"], ["x", "y"], dim=3)
        model.matrices.doc_out[0] = 1.0
        assert ranked_ids(rank_i4o(model, np.ones(3), exclude=["t1c2"], k=1)) == ["a"]
        monkeypatch.setattr(recommend_module, "infer_doc_vector", no_work)
        monkeypatch.setattr(recommend_module, "_cited_panel", no_work)
        with pytest.raises(ConfigError, match="^exclude must be a collection of doc ids"):
            rank_i4i(model, [0, 1], exclude=exclude, k=1)
        with pytest.raises(ConfigError, match="^exclude must be a collection of doc ids"):
            rank_i4o(model, np.ones(3), exclude=exclude, k=1)

    @pytest.mark.parametrize("exclude", [None, 5, 1.5, [["t1c2"]], [{"t1c2"}]], ids=repr)
    def test_an_exclude_that_is_not_a_collection_of_ids(self, monkeypatch, exclude):
        """Not iterable, or holding an unhashable element: not a bare
        TypeError."""
        model = make_model(["t1c2", "a", "b"], ["x", "y"], dim=3)
        monkeypatch.setattr(recommend_module, "infer_doc_vector", no_work)
        monkeypatch.setattr(recommend_module, "_cited_panel", no_work)
        with pytest.raises(ConfigError, match="^exclude must be a collection of doc ids"):
            rank_i4i(model, [0, 1], exclude=exclude, k=1)
        with pytest.raises(ConfigError, match="^exclude must be a collection of doc ids"):
            rank_i4o(model, np.ones(3), exclude=exclude, k=1)

    @pytest.mark.parametrize("words", [
        [0.9], [True], [0, True], [np.True_, 1], np.array([1.0]), np.array([True]), ["0"],
        [2**70], [[0, 1]], np.array([[1]])], ids=repr)
    def test_word_indices_that_are_not_ints(self, monkeypatch, words):
        model = make_model(["a", "b"], ["x", "y"], dim=3)
        monkeypatch.setattr(train_module, "NegativeSampler", no_work)
        with pytest.raises(ConfigError, match="^word indices must be a flat sequence of ints"):
            infer_doc_vector(model, words)
        with pytest.raises(ConfigError, match="^word indices must be a flat sequence of ints"):
            rank_i4i(model, words)

    def test_word_indices_of_any_int_type(self):
        model = make_model(["a", "b"], ["x", "y", "z"], dim=3)
        expected = infer_doc_vector(model, [2, 0]).tobytes()
        for words in ((2, 0), np.array([2, 0], dtype=np.uint8), [np.int32(2), np.int64(0)]):
            assert infer_doc_vector(model, words).tobytes() == expected

    @pytest.mark.parametrize("shape", [(3,), (1, 8), (8, 1), (), (9,)], ids=repr)
    def test_a_query_of_the_wrong_shape(self, monkeypatch, shape):
        model = make_model(["a", "b"], ["x"], dim=8)
        monkeypatch.setattr(recommend_module, "_cited_panel", no_work)
        with pytest.raises(ConfigError, match=r"^query_vector must have shape \(8,\), got "):
            rank_i4o(model, np.ones(shape))
