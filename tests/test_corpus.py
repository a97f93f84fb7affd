"""Corpus parsing, relation extraction, and synthetic generation tests."""

import io

import numpy as np
import pytest

from citevec.corpus import (
    CITE,
    WORD,
    CitationRelation,
    HyperDocument,
    SyntheticSpec,
    Token,
    extract_relations,
    generate_synthetic_corpus,
    parse_corpus,
    resolve_ground_truth,
    split_train_test,
)
from citevec.errors import CitevecError, ConfigError, CorpusFormatError


def relation_strings(relations, vocab):
    """Map index-based relations to strings for vocab-independent comparison."""
    out = []
    for r in relations:
        out.append(
            (
                vocab.doc_list[r.source],
                vocab.doc_list[r.target],
                frozenset(vocab.doc_list[d] for d in r.structural),
                tuple(vocab.word_list[w] for w in r.context),
            )
        )
    return out


class TestParseCorpus:
    def test_single_line_with_citation(self):
        corpus = parse_corpus(b"p1\tDeep Learning [[p2]] methods\n")
        assert len(corpus.docs) == 2  # p1 from the line, p2 as placeholder
        doc = corpus.docs[0]
        assert doc.id == "p1"
        assert [(t.kind, t.value) for t in doc.tokens] == [
            (WORD, "deep"),
            (WORD, "learning"),
            (CITE, "p2"),
            (WORD, "methods"),
        ]
        assert set(corpus.vocab.doc_ids) == {"p1", "p2"}
        placeholder = corpus.docs[1]
        assert placeholder.id == "p2"
        assert placeholder.placeholder and placeholder.tokens == []

    def test_empty_stream(self):
        corpus = parse_corpus(b"")
        assert corpus.docs == []
        assert corpus.vocab.n_words == 0 and corpus.vocab.n_docs == 0
        assert corpus.stats.n_docs == 0
        assert corpus.stats.n_words == 0
        assert corpus.stats.n_citations == 0
        assert corpus.stats.mean_citations_per_doc == 0.0

    def test_two_line_cycle_stats(self):
        corpus = parse_corpus(b"a\tx [[b]]\nb\ty [[a]]\n")
        assert corpus.stats.n_docs == 2
        assert corpus.stats.n_citations == 2
        assert corpus.stats.n_relations == 2
        assert corpus.stats.mean_citations_per_doc == 1.0
        assert corpus.stats.n_empty_docs == 0

    def test_missing_tab_is_an_error_with_line_number(self):
        with pytest.raises(CorpusFormatError) as err:
            parse_corpus(b"a\tok [[b]]\nno tab here\n")
        assert err.value.line_number == 2

    def test_duplicate_doc_id_is_an_error(self):
        with pytest.raises(CorpusFormatError, match="duplicate"):
            parse_corpus(b"a\tx\na\ty\n")

    def test_empty_citation_marker_is_an_error(self):
        with pytest.raises(CorpusFormatError, match="empty doc id"):
            parse_corpus(b"a\tx [[]] y\n")

    def test_words_are_lowercased(self):
        corpus = parse_corpus(b"a\tDeep DEEP deep\n")
        assert corpus.vocab.word_list == ["deep"]
        assert corpus.vocab.word_counts[0] == 3

    def test_counts_sum_to_token_totals(self):
        rng = np.random.default_rng(42)
        words = [f"w{i}" for i in range(20)]
        lines = []
        for d in range(15):
            body = " ".join(words[rng.integers(20)] for _ in range(rng.integers(1, 30)))
            if d > 0 and rng.random() < 0.7:
                body += f" [[doc{rng.integers(d)}]]"
            lines.append(f"doc{d}\t{body}")
        corpus = parse_corpus("\n".join(lines).encode())
        assert int(corpus.vocab.word_counts.sum()) == corpus.stats.n_words
        assert int(corpus.vocab.doc_cited_counts.sum()) == corpus.stats.n_citations

    def test_accepts_path_and_file_object(self, tmp_path):
        payload = b"a\tx [[b]]\n"
        path = tmp_path / "c.txt"
        path.write_bytes(payload)
        for source in (payload, str(path), path, io.BytesIO(payload)):
            corpus = parse_corpus(source)
            assert corpus.stats.n_citations == 1

    def test_rejects_invalid_utf8(self):
        with pytest.raises(CorpusFormatError, match="UTF-8"):
            parse_corpus(b"a\t\xff\xfe\n")

    def test_fuzz_only_citevec_errors_escape(self):
        """Random bytes, and strings over the format's own characters,
        either parse or fail with a CitevecError."""
        rng = np.random.default_rng(99)
        # single characters of b"ab \t\n[]x1\xff\x00", plus a few longer
        # pieces so that some strings carry doc ids and well-formed markers
        pieces = [bytes([c]) for c in b"ab \t\n[]x1\xff\x00"]
        pieces += [b"[[", b"]]", b"[[a]]", b"[[x1]]", b"a\t"]
        inputs = [rng.bytes(int(rng.integers(0, 64))) for _ in range(2000)]
        for _ in range(2000):
            picks = rng.integers(0, len(pieces), size=int(rng.integers(0, 48)))
            inputs.append(b"".join(pieces[i] for i in picks))
        cited = 0
        for data in inputs:
            try:
                cited += parse_corpus(data).stats.n_citations > 0
            except CitevecError:
                pass
        assert cited > 0  # some inputs get through the whole parser


class TestExtractRelations:
    def test_structural_context_excludes_target_and_source(self):
        corpus = parse_corpus(b"p0\tw1 [[t1]] w2 [[t2]] w3 [[t3]]\n")
        relations = extract_relations(corpus.docs, corpus.vocab, window=50)
        assert len(relations) == 3
        named = relation_strings(relations, corpus.vocab)
        for_t2 = [r for r in named if r[1] == "t2"]
        assert len(for_t2) == 1
        source, target, structural, context = for_t2[0]
        assert source == "p0"
        assert structural == {"t1", "t3"}
        assert context == ("w1", "w2", "w3")

    def test_single_citation_has_empty_structural_context(self):
        corpus = parse_corpus(b"p0\ta [[t1]] b\n")
        (rel,) = extract_relations(corpus.docs, corpus.vocab, window=50)
        assert rel.structural == frozenset()

    def test_self_citation_only(self):
        corpus = parse_corpus(b"p0\t[[p0]]\n")
        (rel,) = extract_relations(corpus.docs, corpus.vocab, window=50)
        assert rel.source == rel.target == corpus.vocab.doc_ids["p0"]
        assert rel.structural == frozenset()
        assert rel.context == ()

    def test_window_truncates_and_skips_cites(self):
        # 5 words either side, window 2: cite markers between words must not
        # consume window slots.
        corpus = parse_corpus(b"p0\ta b c [[x]] d [[t]] e [[y]] f g\n")
        relations = extract_relations(corpus.docs, corpus.vocab, window=2)
        named = relation_strings(relations, corpus.vocab)
        (rel,) = [r for r in named if r[1] == "t"]
        assert rel[3] == ("c", "d", "e", "f")

    def test_window_capacity_bound(self):
        rng = np.random.default_rng(7)
        for _ in range(25):
            n = int(rng.integers(1, 12))
            toks = []
            for i in range(n):
                if rng.random() < 0.35:
                    toks.append(f"[[d{rng.integers(3)}]]")
                else:
                    toks.append(f"w{rng.integers(6)}")
            corpus = parse_corpus(("p\t" + " ".join(toks)).encode())
            window = int(rng.integers(1, 4))
            for rel in extract_relations(corpus.docs, corpus.vocab, window):
                assert len(rel.context) <= 2 * window

    def test_duplicate_targets_give_one_relation_per_occurrence(self):
        corpus = parse_corpus(b"p0\t[[t]] a [[t]]\n")
        relations = extract_relations(corpus.docs, corpus.vocab, window=5)
        assert len(relations) == 2
        assert all(r.structural == frozenset() for r in relations)

    def test_concatenation_yields_union_of_relation_multisets(self):
        part_a = b"a1\tx y [[a2]] z\na2\tq [[a1]]\n"
        part_b = b"b1\tu [[b2]] v [[b3]]\n"
        window = 3
        sub = []
        for part in (part_a, part_b):
            corpus = parse_corpus(part)
            sub += relation_strings(
                extract_relations(corpus.docs, corpus.vocab, window), corpus.vocab
            )
        combined = parse_corpus(part_a + part_b)
        whole = relation_strings(
            extract_relations(combined.docs, combined.vocab, window), combined.vocab
        )
        assert sorted(whole) == sorted(sub)

    def test_window_must_be_positive(self):
        corpus = parse_corpus(b"a\tx [[b]]\n")
        with pytest.raises(ConfigError):
            extract_relations(corpus.docs, corpus.vocab, window=0)

    @pytest.mark.parametrize("text, missing", [
        (b"c\tx [[b]]\n", "'c'"),  # the citing doc
        (b"a\tx [[zz]]\n", "'zz'"),  # the cited doc
        (b"a\tzz [[b]]\n", "'zz'"),  # a context word
        (b"a\tx [[b]] [[zz]]\n", "'zz'"),  # a co-cited doc
    ])
    def test_names_missing_from_the_vocabulary_are_citevec_errors(self, text, missing):
        vocab = parse_corpus(b"a\tx [[b]]\n").vocab
        with pytest.raises(CitevecError, match=missing):
            extract_relations(parse_corpus(text).docs, vocab, window=3)

    def test_a_missing_word_outside_every_window_is_not_an_error(self):
        vocab = parse_corpus(b"a\tx [[b]]\n").vocab
        docs = parse_corpus(b"a\tzz x x [[b]] x\n").docs
        (rel,) = extract_relations(docs, vocab, window=2)
        assert rel.context == (0, 0, 0)
        with pytest.raises(CitevecError, match="'zz'"):
            extract_relations(docs, vocab, window=3)


class TestSplitTrainTest:
    def _corpus(self, n_docs=10, seed=3):
        # every doc cites two earlier ones so all are split-eligible
        rng = np.random.default_rng(seed)
        lines = ["d0\talpha beta gamma", "d1\tdelta [[d0]] epsilon [[d0]]"]
        for i in range(2, n_docs):
            a, b = rng.integers(i), rng.integers(i)
            words = " ".join(f"w{rng.integers(12)}" for _ in range(8))
            lines.append(f"d{i}\t{words} [[d{a}]] more [[d{b}]]")
        return parse_corpus("\n".join(lines).encode())

    def test_fraction_split_is_deterministic(self):
        corpus = self._corpus()
        first = split_train_test(corpus.docs, window=5, fraction=0.2, seed=7)
        second = split_train_test(corpus.docs, window=5, fraction=0.2, seed=7)
        assert len(first.test_docs) == 2
        assert first.test_doc_ids == second.test_doc_ids
        assert first.ground_truth == second.ground_truth
        other = split_train_test(corpus.docs, window=5, fraction=0.2, seed=8)
        assert isinstance(other.test_doc_ids, list)

    def test_train_vocab_excludes_test_only_words(self):
        docs = parse_corpus(b"a\tcommon [[c]] shared [[d]]\nb\tunique [[c]] rare [[d]]\nc\tfiller\nd\tfiller\n").docs
        result = split_train_test(docs, window=5, test_ids=["b"])
        assert "unique" not in result.train_vocab.word_ids
        assert "common" in result.train_vocab.word_ids

    def test_unknown_target_relation_is_dropped_and_counted(self):
        # doc b cites x which no training doc mentions, so that relation drops
        docs = parse_corpus(
            b"a\tw [[c]] w [[d]]\nb\tq [[c]] q [[x]]\nc\tfiller\nd\tfiller\n"
        ).docs
        result = split_train_test(docs, window=5, test_ids=["b"])
        assert result.dropped_relations == 1
        assert len(result.ground_truth) == 1
        assert result.train_vocab.doc_list[result.ground_truth[0].target] == "c"

    def test_ground_truth_context_resolved_against_train_vocab(self):
        docs = parse_corpus(
            b"a\tcommon words [[c]] here [[d]]\nb\tcommon unseen [[c]] words [[d]]\nc\tf\nd\tf\n"
        ).docs
        result = split_train_test(docs, window=3, test_ids=["b"])
        vocab = result.train_vocab
        by_target = {vocab.doc_list[g.target]: g for g in result.ground_truth}
        # "unseen" only occurs in the held-out doc, so it is skipped
        assert tuple(vocab.word_list[w] for w in by_target["c"].context) == ("common", "words")
        assert by_target["c"].source is None  # held-out doc is not in train vocab
        assert {vocab.doc_list[d] for d in by_target["c"].structural} == {"d"}

    def test_fraction_bounds(self):
        corpus = self._corpus()
        for bad in (0.0, 1.0, -0.5, 1.5):
            with pytest.raises((ConfigError, CitevecError)):
                split_train_test(corpus.docs, window=5, fraction=bad, seed=1)

    def test_requires_exactly_one_selector(self):
        corpus = self._corpus()
        with pytest.raises(ConfigError):
            split_train_test(corpus.docs, window=5)
        with pytest.raises(ConfigError):
            split_train_test(corpus.docs, window=5, fraction=0.2, test_ids=["d1"])

    def test_unknown_test_id_is_an_error(self):
        corpus = self._corpus()
        with pytest.raises(ConfigError, match="nope"):
            split_train_test(corpus.docs, window=5, test_ids=["nope"])

    def test_min_citation_eligibility(self):
        # d1 has one citation: never selected by fraction mode at min 2
        docs = parse_corpus(
            b"d0\ta b\nd1\tc [[d0]]\nd2\tx [[d0]] y [[d1]]\nd3\tz [[d1]] q [[d2]]\n"
        ).docs
        for seed in range(10):
            result = split_train_test(docs, window=5, fraction=0.5, seed=seed)
            assert "d1" not in result.test_doc_ids


class TestSyntheticCorpus:
    def test_determinism(self):
        spec = SyntheticSpec(n_topics=2, docs_per_topic=5, clique_size=3, seed=11)
        assert generate_synthetic_corpus(spec) == generate_synthetic_corpus(spec)

    def test_different_seed_changes_output(self):
        base = SyntheticSpec(n_topics=2, docs_per_topic=5, clique_size=3, seed=11)
        other = SyntheticSpec(n_topics=2, docs_per_topic=5, clique_size=3, seed=12)
        assert generate_synthetic_corpus(base) != generate_synthetic_corpus(other)

    def test_topic_purity_without_noise(self):
        spec = SyntheticSpec(
            n_topics=2, docs_per_topic=6, clique_size=4, vocab_per_topic=10, noise_rate=0.0, seed=5
        )
        corpus = parse_corpus(generate_synthetic_corpus(spec))
        for doc in corpus.docs:
            if not doc.id.startswith("t1d"):
                continue
            targets = set(doc.cite_targets())
            assert targets == {f"t1c{j}" for j in range(4)}
            assert all(t.value.startswith("w1t") for t in doc.tokens if not t.is_cite)

    def test_clique_size_one_gives_empty_structural_contexts(self):
        spec = SyntheticSpec(n_topics=2, docs_per_topic=4, clique_size=1, seed=2)
        corpus = parse_corpus(generate_synthetic_corpus(spec))
        relations = extract_relations(corpus.docs, corpus.vocab, window=5)
        assert relations
        assert all(r.structural == frozenset() for r in relations)

    def test_doc_count(self):
        spec = SyntheticSpec(n_topics=2, docs_per_topic=16, clique_size=4, seed=0)
        corpus = parse_corpus(generate_synthetic_corpus(spec))
        assert corpus.stats.n_docs == 2 * (16 + 4)
        assert corpus.stats.n_empty_docs == 0

    def test_spec_validation(self):
        with pytest.raises(ConfigError):
            SyntheticSpec(n_topics=0)
        with pytest.raises(ConfigError):
            SyntheticSpec(noise_rate=1.0)


class TestResolveGroundTruth:
    def test_window_applies_before_vocab_filter(self):
        # unknown words still consume window slots: windowing happens on the
        # raw token stream, filtering afterwards
        train = parse_corpus(b"a\tknown words only [[c]]\nc\tf\n")
        test_doc = HyperDocument(
            id="t",
            tokens=[
                Token(WORD, "known"),
                Token(WORD, "mystery"),
                Token(CITE, "c"),
            ],
        )
        entries, dropped = resolve_ground_truth([test_doc], train.vocab, window=1)
        assert dropped == 0
        (entry,) = entries
        assert entry.context == ()  # "mystery" took the single window slot

    @pytest.mark.parametrize("window", [1, 3, 50])
    def test_equals_extract_relations_on_a_vocabulary_that_knows_everything(self, window):
        spec = SyntheticSpec(n_topics=2, docs_per_topic=8, clique_size=3, noise_rate=0.2, seed=9)
        corpus = parse_corpus(generate_synthetic_corpus(spec) + b"self\tq [[self]] r [[t0c0]]\n")
        entries, dropped = resolve_ground_truth(corpus.docs, corpus.vocab, window)
        relations = extract_relations(corpus.docs, corpus.vocab, window)
        assert dropped == 0
        assert entries == relations

    def test_relation_invariants_hold(self):
        rng = np.random.default_rng(42)
        spec = SyntheticSpec(n_topics=2, docs_per_topic=8, clique_size=3, seed=9)
        corpus = parse_corpus(generate_synthetic_corpus(spec))
        for _ in range(5):
            result = split_train_test(
                corpus.docs, window=4, fraction=0.25, seed=int(rng.integers(1000))
            )
            for g in result.ground_truth:
                assert g.target not in g.structural
                if g.source is not None:
                    assert g.source not in g.structural
                assert len(g.context) <= 8
