"""
Hyper-documents, citation relations, and the synthetic corpus
=============================================================

A corpus file is one document per line: an id, a tab, then text in which
``[[doc-id]]`` markers mark citations.  This script walks the whole data
path: tokenizing, parsing, extracting training relations, planting a
synthetic co-citation corpus, and holding out a test split.
"""

from citevec import (
    SyntheticSpec,
    extract_relations,
    generate_synthetic_corpus,
    parse_corpus,
    split_train_test,
    tokenize_text,
)

# 1. Tokenizing: words are lowercased, markers become citation tokens.
tokens = tokenize_text("Deep learning NLP [[survey2019]] milestone")
for token in tokens:
    print(f"  {token.kind:<5} {token.value}")

# 2. A tiny corpus.  p1 cites p2 and p3 next to each other, so when p2 is
# the prediction target, p3 is its structural context (and vice versa).
corpus_bytes = b"""p1\tneural ranking with [[p2]] and [[p3]] beats lexical baselines
p2\tterm weighting for ad hoc retrieval
p3\tlearning to rank with gradient methods
p4\tquery expansion via embeddings [[p2]]
"""
corpus = parse_corpus(corpus_bytes)
print(f"\nparsed {corpus.stats.n_docs} docs, {corpus.stats.n_words} word tokens, "
      f"{corpus.stats.n_relations} citations")

# 3. Each citation occurrence becomes one training relation: the citing
# doc, the cited doc, the other documents cited nearby, and the window
# words around the marker (markers do not use up window slots).
relations = extract_relations(corpus.docs, corpus.vocab, window=5)
doc_name = corpus.vocab.doc_list
word_name = corpus.vocab.word_list
for rel in relations:
    structural = sorted(doc_name[d] for d in rel.structural)
    words = [word_name[w] for w in rel.context]
    print(f"  {doc_name[rel.source]} cites {doc_name[rel.target]:<3} "
          f"alongside {structural or '[]'} amid {words}")

# 4. The synthetic generator plants per-topic cliques: every citing doc
# cites all clique members of its topic, so members are always co-cited.
spec = SyntheticSpec(n_topics=2, docs_per_topic=5, clique_size=3,
                     vocab_per_topic=12, noise_rate=0.1, seed=9)
synth = parse_corpus(generate_synthetic_corpus(spec))
print(f"\nsynthetic corpus: {synth.stats.n_docs} docs, "
      f"{synth.stats.n_relations} citations")
first = next(d for d in synth.docs if d.id == "t0d0")
print(f"  t0d0 cites: {sorted(first.cite_targets())}")

# 5. Holding out documents for evaluation.  Held-out citations are
# re-expressed against the training vocabulary; the held-out doc itself
# is unknown to the model, which is exactly the cold-start query setting.
split = split_train_test(synth.docs, window=5, fraction=0.3, seed=4)
print(f"\nheld out {split.test_doc_ids} "
      f"-> {len(split.ground_truth)} test citations "
      f"({split.dropped_relations} dropped)")
example = split.ground_truth[0]
print(f"  first: target={split.train_vocab.doc_list[example.target]} "
      f"structural={sorted(split.train_vocab.doc_list[d] for d in example.structural)} "
      f"context={len(example.context)} words")
