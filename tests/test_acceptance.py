"""Acceptance gate: every headline guarantee, one test each, stated tolerance.

Each test prints a single `[ACCEPTANCE] <criterion>: PASS` line straight to
the terminal (bypassing capture) once its assertions have held, so a full
run ends with one visible verdict per criterion.  The gradient check pulls
the implementation's gradients out of a real update step (learning rate 1,
replayed negative draws) and compares them against central finite
differences of an independently written forward pass.
"""

import io
import math
import time
from dataclasses import replace

import numpy as np
import pytest

from citevec.corpus import (
    CitationRelation,
    SyntheticSpec,
    extract_relations,
    generate_synthetic_corpus,
    parse_corpus,
    split_train_test,
)
from citevec.evaluation import evaluate
from citevec.model import EmbeddingConfig, init_model, load_model, save_model
from citevec.recommend import rank_i4o, rank_i4i
from citevec.train import NegativeSampler, train
from citevec.model import infer_doc_vector

from conftest import FIXTURE_CONFIG, FIXTURE_SPEC
from reference import backprop, hidden_att, hidden_avg
from test_evaluation import (
    oracle_average_precision, oracle_evaluate, oracle_ndcg, oracle_recall, random_relations, uncite)
from test_recommend import (
    i4o_oracle, make_model, ranked_ids, make_vocab, oracle_rank, recommend_module, reloaded,
    shuffled_id_model)
from test_train import random_matrices, relative_error


def announce(capsys, name, detail):
    with capsys.disabled():
        print(f"\n[ACCEPTANCE] {name}: PASS — {detail}")


def random_relation(rng, n_docs, n_words, max_participants=5):
    source = int(rng.integers(0, n_docs))
    target = int(rng.integers(0, n_docs))
    others = [d for d in range(n_docs) if d not in (source, target)]
    n_struct = int(rng.integers(0, min(3, len(others), max_participants - 1) + 1))
    structural = frozenset(int(d) for d in rng.choice(others, size=n_struct, replace=False)) if n_struct else frozenset()
    n_ctx = int(rng.integers(0, max_participants - 1 - n_struct + 1))
    context = tuple(int(w) for w in rng.integers(0, n_words, size=n_ctx))
    return CitationRelation(source=source, target=target, structural=structural, context=context)


def forward_loss(doc_in, word_in, doc_out, attention, relation, negatives, variant):
    """Independent loss: plain numpy, no library calls."""
    doc_rows = [relation.source] + sorted(relation.structural)
    parts = doc_in[doc_rows]
    if relation.context:
        parts = np.concatenate([parts, word_in[list(relation.context)]])
    if variant == "att":
        slots = doc_rows + [doc_in.shape[0] + w for w in relation.context]
        scores = attention[slots]
        shifted = np.exp(scores - scores.max())
        weights = shifted / shifted.sum()
    else:
        weights = np.full(parts.shape[0], 1.0 / parts.shape[0])
    hidden = weights @ parts
    pos = float(hidden @ doc_out[relation.target])
    neg_dots = doc_out[negatives] @ hidden
    return float(np.logaddexp(0.0, -pos) + np.logaddexp(0.0, neg_dots).sum())


class TestGradientCorrectness:
    def test_finite_differences_on_real_update_steps(self, capsys):
        started = time.perf_counter()
        rng = np.random.default_rng(2024)
        n_docs, n_words = 6, 8
        counts = np.arange(1, n_docs + 1)
        worst = 0.0
        instances = 0
        for trial in range(120):
            variant = "att" if trial % 2 else "avg"
            k = int(rng.integers(2, 9))
            matrices = random_matrices(rng, n_docs=n_docs, n_words=n_words, k=k)
            matrices.attention *= 0.5  # keep softmax well-conditioned
            relation = random_relation(rng, n_docs, n_words)
            seed = 9000 + trial
            m = int(rng.integers(1, 6))
            negatives = NegativeSampler(counts, seed=seed).sample(m, exclude=relation.target)

            before = matrices.copy()
            loss = backprop(variant, relation, matrices, NegativeSampler(counts, seed=seed), 1.0, negative=m)

            base = (before.doc_in, before.word_in, before.doc_out, before.attention)
            assert abs(loss - forward_loss(*base, relation, negatives, variant)) < 1e-9

            # gradient = before - after at learning rate 1
            grads = {
                "doc_in": before.doc_in - matrices.doc_in,
                "word_in": before.word_in - matrices.word_in,
                "doc_out": before.doc_out - matrices.doc_out,
                "attention": before.attention - matrices.attention,
            }
            blocks = ["doc_in", "word_in", "doc_out"] + (["attention"] if variant == "att" else [])
            for block in blocks:
                target_array = getattr(before, block)
                flat = target_array.reshape(-1)  # view: writes reach the forward
                numeric = np.empty(flat.size)
                h = 1e-5
                for i in range(flat.size):
                    saved = flat[i]
                    flat[i] = saved + h
                    up = forward_loss(before.doc_in, before.word_in,
                                      before.doc_out, before.attention,
                                      relation, negatives, variant)
                    flat[i] = saved - h
                    down = forward_loss(before.doc_in, before.word_in,
                                        before.doc_out, before.attention,
                                        relation, negatives, variant)
                    flat[i] = saved
                    numeric[i] = (up - down) / (2 * h)
                err = relative_error(grads[block], numeric.reshape(target_array.shape))
                assert err < 1e-4, f"trial {trial} {variant} {block}: {err}"
                worst = max(worst, err)
            instances += 1
        elapsed = time.perf_counter() - started
        assert instances >= 100
        assert elapsed < 10.0
        announce(
            capsys, "gradient correctness",
            f"{instances} instances, worst relative error {worst:.2e}, {elapsed:.1f}s",
        )


class TestVariantEquivalence:
    def test_zero_attention_matches_avg_update(self, capsys):
        rng = np.random.default_rng(515)
        counts = np.arange(1, 7)
        worst = 0.0
        for trial in range(50):
            k = int(rng.integers(2, 7))
            uniform = 0.0 if trial % 2 == 0 else 0.7
            base = random_matrices(rng, k=k)
            base.attention[:] = uniform
            relation = random_relation(rng, 6, 8)

            a, b = base.copy(), base.copy()
            seed = 100 + trial
            loss_avg = backprop("avg", relation, a, NegativeSampler(counts, seed=seed), 0.025, negative=3)
            loss_att = backprop("att", relation, b, NegativeSampler(counts, seed=seed), 0.025, negative=3)
            assert loss_avg == loss_att
            for name in ("doc_in", "word_in", "doc_out"):
                diff = float(np.abs(getattr(a, name) - getattr(b, name)).max())
                assert diff <= 1e-12, f"trial {trial} {name}: {diff}"
                worst = max(worst, diff)

            docs = base.doc_in[[relation.source] + sorted(relation.structural)]
            words = base.word_in[list(relation.context)] if relation.context else None
            slots = [relation.source] + sorted(relation.structural) + [6 + w for w in relation.context]
            h_avg = hidden_avg(base.doc_in[relation.source], docs[1:], words)
            h_att = hidden_att(base.attention, slots, base.doc_in[relation.source], docs[1:], words)
            assert np.array_equal(h_avg, h_att)
        announce(
            capsys, "avg/att equivalence at zero attention",
            f"50 paired updates, max IN/OUT deviation {worst:.1e} (tolerance 1e-12)",
        )


class TestSoftmaxOracle:
    def test_full_softmax_agrees_with_dot_ranking(self, capsys):
        rng = np.random.default_rng(77)
        for trial in range(20):
            n_docs = int(rng.integers(2, 21))
            dim = int(rng.integers(1, 7))
            ids = [f"s{j}" for j in range(n_docs)]
            rng.shuffle(ids)
            model = make_model(ids, ["x"], dim=dim)
            model.matrices.doc_out[:] = rng.integers(-2, 3, size=(n_docs, dim))
            qvec = rng.integers(-2, 3, size=dim).astype(float)

            dots = model.matrices.doc_out @ qvec
            exp = np.exp(dots)
            probs = exp / exp.sum()
            assert abs(float(probs.sum()) - 1.0) <= 1e-12

            by_prob = sorted(
                ((ids[i], float(probs[i])) for i in range(n_docs)),
                key=lambda pair: (-pair[1], pair[0]),
            )
            got = rank_i4o(model, qvec, k=n_docs)
            assert ranked_ids(got) == [doc_id for doc_id, _ in by_prob], f"trial {trial}"
        announce(
            capsys, "softmax oracle",
            "20 toy models: probabilities sum to 1 ± 1e-12, dot ranking equals softmax ranking",
        )


class TestRankingOracles:
    def test_i4o_and_i4i_match_brute_force(self, capsys, monkeypatch):
        # every loaded copy filters its cited panel in float32 first, however small
        default = recommend_module._FILTER_ENTRIES
        monkeypatch.setattr(recommend_module, "_FILTER_ENTRIES", 0)
        rng = np.random.default_rng(4096)
        for trial in range(100):
            n_docs = int(rng.integers(1, 25))
            dim = int(rng.integers(1, 6))
            ids = [f"a{j}" for j in range(n_docs)]
            rng.shuffle(ids)
            model = make_model(ids, ["x"], dim=dim)
            model.matrices.doc_out[:] = rng.integers(-2, 3, size=(n_docs, dim))
            model.vocab.doc_cited_counts[rng.random(n_docs) < 0.2] = 0
            qvec = rng.integers(-2, 3, size=dim).astype(float)
            exclude = {doc_id for doc_id in ids if rng.random() < 0.2}
            expected = i4o_oracle(model, qvec, exclude, k=5)
            assert rank_i4o(model, qvec, exclude=exclude, k=5).ranked == expected
            loaded = reloaded(model)
            assert rank_i4o(loaded, qvec, exclude=exclude, k=5).ranked == expected
            assert recommend_module._cited_panel(loaded)[3] is not None

        rng = np.random.default_rng(8192)
        checked = 0
        trial = 0
        while checked < 100:
            trial += 1
            n_docs = int(rng.integers(1, 20))
            dim = int(rng.integers(1, 6))
            ids = [f"b{j}" for j in range(n_docs)]
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
            norms = np.linalg.norm(model.matrices.doc_in, axis=1)
            with np.errstate(divide="ignore", invalid="ignore"):
                scores = (model.matrices.doc_in @ inferred) / (norms * float(np.linalg.norm(inferred)))
            scores = np.where(norms > 0.0, scores, 0.0)
            expected = oracle_rank(model, scores, exclude, k=5)
            for threshold in (0, default):  # filtered in float32, then every row scored
                monkeypatch.setattr(recommend_module, "_FILTER_ENTRIES", threshold)
                assert rank_i4i(model, words, exclude=exclude, k=5).ranked == expected
            checked += 1
        announce(
            capsys, "ranking oracles",
            "100 i4o models (cited docs only; in memory and loaded, filtered in float32) "
            "and 100 i4i models (filtered, and every row scored) equal brute-force sorts "
            "exactly (scores, order, ties)",
        )


class TestMetricOracles:
    def test_naive_reimplementation_and_hand_examples(self, capsys):
        assert oracle_recall(["a", "b"], {"a"}, 10) == 1.0
        assert oracle_recall(["a", "x", "y"], {"a", "b"}, 3) == 0.5
        assert oracle_recall(["x"], {"a"}, 10) == 0.0
        assert oracle_average_precision(["a", "x", "b"], {"a", "b"}, 10) == (1.0 + 2.0 / 3.0) / 2.0
        assert oracle_average_precision(["a"], {"a"}, 10) == 1.0
        assert oracle_average_precision(["x", "y"], {"a"}, 10) == 0.0
        assert oracle_ndcg(["a", "x"], {"a"}, 10) == 1.0
        assert oracle_ndcg(["x", "a"], {"a"}, 10) == 1.0 / math.log2(3)
        assert oracle_ndcg(["a", "b"], {"a", "b"}, 10) == 1.0

        # evaluate against full sorts and those definitions, on output rows
        # with many ties and documents never cited; some targets rank first
        rng = np.random.default_rng(606)
        n_docs, dim, n_words = 24, 3, 12
        model = shuffled_id_model(rng, n_docs=n_docs, dim=dim, n_words=n_words)
        model.matrices.doc_out[:] = rng.integers(-1, 2, size=(n_docs, dim))
        model.matrices.word_in[:] = rng.integers(-2, 3, size=(n_words, dim))
        uncite(model, rng, 0.3)
        truth = random_relations(rng, n_docs, n_words, n_usable=40, n_empty=3)
        for case in (1, 2, 3):
            for k in (1, 3, 10):
                assert evaluate(model, truth, case=case, k=k) == oracle_evaluate(model, truth, case, k)
        announce(
            capsys, "metric oracles",
            "hand examples exact; evaluate equals full sorts and the plain definitions bitwise",
        )


# Item 1's corpus: six topics of four four-paper sub-cliques, each citing
# doc citing three papers of one sub-clique and, 15% of the time, one paper
# of another topic.  Words tell only the topic, so only the co-cited papers
# tell the target's sub-clique.
GATE_SPEC = SyntheticSpec(
    n_topics=6, docs_per_topic=60, clique_size=4, sub_cliques=4, cites_per_doc=3,
    vocab_per_topic=30, noise_rate=0.0, distractor_rate=0.15,
)
GATE_CONFIG = EmbeddingConfig(
    dim=16, window=8, negative=2, iterations=40, retrofit_epochs=5, learning_rate=0.5, seed=1,
)
GATE_SEEDS = (1, 2, 3)
# Half the smallest per-seed gap of an 8-seed sweep (seeds 1-8, recall@5,
# i4o over the documents cited in training): r1 - r2 0.166, r2 - r3 0.141,
# Case 1 with structure minus without 0.350.  The floor lies between the
# avg model's smallest Case 1 recall (0.702) and the largest one with
# train.BATCH at 512 (0.516).
GATE_MARGINS = {"case 1 - case 2": 0.08, "case 2 - case 3": 0.07, "structure - none": 0.17}
GATE_FLOOR = 0.6
# Case 2 is scored as its mean recall over these keep-prob draws: one draw
# moves a seed's Case 2 recall by up to about 0.05 (a standard deviation of
# 0.016-0.020 over 30 draws), the mean of 16 by about a quarter of that, so
# the margins test the model rather than the draw
CASE2_SEEDS = tuple(range(16))


class TestDeskScaleTrend:
    def test_case_and_structure_orderings_at_pinned_settings(self, capsys):
        started = time.perf_counter()
        rows = []
        for seed in GATE_SEEDS:
            corpus = parse_corpus(generate_synthetic_corpus(replace(GATE_SPEC, seed=seed)))
            split = split_train_test(
                corpus.docs, window=GATE_CONFIG.window, fraction=0.2, seed=seed)
            truth = split.ground_truth
            relations = extract_relations(split.train_docs, split.train_vocab, GATE_CONFIG.window)
            models = []
            # attention's order against avg is recorded, not asserted (ROADMAP item 2)
            for changes in ({}, {"structural_context": False}, {"variant": "att"}):
                model = init_model(split.train_vocab, replace(GATE_CONFIG, **changes))
                train(model, relations, split.train_docs)
                models.append(model)
            r1, r3 = (evaluate(models[0], truth, case=case, k=5).recall for case in (1, 3))
            r2 = math.fsum(evaluate(models[0], truth, case=2, k=5, seed=q).recall
                           for q in CASE2_SEEDS) / len(CASE2_SEEDS)
            rn, ra = (evaluate(m, truth, case=1, k=5).recall for m in models[1:])
            gaps = {"case 1 - case 2": r1 - r2, "case 2 - case 3": r2 - r3,
                    "structure - none": r1 - rn}
            for name, gap in gaps.items():
                assert gap >= GATE_MARGINS[name], (seed, name, gap)
            assert r1 >= GATE_FLOOR, (seed, r1)
            rows.append(f"{r1:.3f}/{r2:.3f}/{r3:.3f} vs {rn:.3f}, att {ra:.3f}")
        elapsed = time.perf_counter() - started
        assert elapsed < 60.0
        # regression baselines recorded on the first verified run, seeds 1-3:
        # 0.739/0.542/0.339 vs 0.339, 0.740/0.578/0.363 vs 0.390,
        # 0.702/0.517/0.333 vs 0.346; att case 1 0.665, 0.641, 0.675
        # (Case 2, the mean over CASE2_SEEDS, read 0.539, 0.632 and 0.535 from
        # the single draw of seed 0, and 0.539, 0.570 and 0.487 before the
        # counter-based draws)
        announce(
            capsys, "desk-scale trend",
            f"recall@5 case 1/2/3 vs no structure, att case 1, seeds {GATE_SEEDS}: "
            f"{'; '.join(rows)}, {elapsed:.1f}s",
        )


class TestDeterminism:
    def test_byte_identical_models_and_round_trip(self, capsys):
        corpus = parse_corpus(generate_synthetic_corpus(FIXTURE_SPEC))
        config = replace(FIXTURE_CONFIG, negative=5, iterations=20)

        blobs = []
        for _ in range(2):
            relations = extract_relations(corpus.docs, corpus.vocab, config.window)
            model = init_model(corpus.vocab, config)
            train(model, relations, corpus.docs)
            sink = io.BytesIO()
            save_model(model, sink)
            blobs.append(sink.getvalue())
        assert blobs[0] == blobs[1]

        loaded = load_model(io.BytesIO(blobs[0]))
        resaved = io.BytesIO()
        save_model(loaded, resaved)
        assert resaved.getvalue() == blobs[0]
        announce(
            capsys, "determinism",
            f"two runs produced identical {len(blobs[0])}-byte model files; round trip bit-exact",
        )


class TestSamplerDistribution:
    def test_total_variation_within_tolerance(self, capsys):
        rng = np.random.default_rng(5)
        counts = rng.integers(0, 51, size=40)
        counts[0] = 0  # keep a zero-mass doc in play
        sampler = NegativeSampler(counts, seed=11)
        draws = sampler.sample(1_000_000)
        freq = np.bincount(draws, minlength=counts.size) / draws.size
        target = counts.astype(np.float64) ** 0.75
        target /= target.sum()
        tv = 0.5 * float(np.abs(freq - target).sum())
        assert freq[0] == 0.0
        assert tv < 0.01
        announce(
            capsys, "sampler distribution",
            f"total variation {tv:.5f} over 10^6 draws (tolerance 0.01)",
        )


class TestThroughput:
    def test_update_rate_floor(self, capsys):
        rng = np.random.default_rng(33)
        n_docs, n_words = 500, 2000
        vocab = make_vocab([f"p{i}" for i in range(n_docs)], [f"w{i}" for i in range(n_words)])
        config = replace(
            FIXTURE_CONFIG,
            dim=100, negative=5, iterations=5, retrofit_epochs=0, window=50, seed=3
        )
        relations = []
        for _ in range(4000):
            source, target = (int(x) for x in rng.choice(n_docs, size=2, replace=False))
            others = rng.choice(n_docs, size=3, replace=False)
            structural = frozenset(int(d) for d in others if d not in (source, target))
            context = tuple(int(w) for w in rng.integers(0, n_words, size=20))
            relations.append(CitationRelation(source, target, structural, context))
        model = init_model(vocab, config)

        started = time.perf_counter()
        train(model, relations, [])
        elapsed = time.perf_counter() - started
        updates = len(relations) * config.iterations
        rate = updates / elapsed
        # performance floor, not a correctness property: a miss here means
        # the training loop regressed, not that the math is wrong
        assert rate >= 10_000, f"only {rate:.0f} updates/s"
        announce(
            capsys, "throughput",
            f"{rate:,.0f} relation updates/s at dim 100, 5 negatives (floor 10,000)",
        )
