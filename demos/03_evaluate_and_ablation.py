"""
The three-case evaluation protocol and the variant ablation
===========================================================

Documents with at least two citations are held out; each of their
citations becomes a test query whose true answer is the cited paper.
The protocol re-asks every query three ways (full structural context,
thinned context, words only) and reports recall, MAP, and nDCG over the
top ranks.  The ablation crosses that with three model variants: mean
pooling, attention pooling, and a no-structure mode that trains from
words alone.
"""

from dataclasses import replace

from citevec import (
    EmbeddingConfig,
    SyntheticSpec,
    ablation_report,
    evaluate,
    extract_relations,
    format_ablation,
    generate_synthetic_corpus,
    init_model,
    parse_corpus,
    split_train_test,
    train,
)

# 1. Corpus and split.  The held-out docs are unseen during training.
spec = SyntheticSpec(n_topics=2, docs_per_topic=16, clique_size=4,
                     vocab_per_topic=30, noise_rate=0.1, seed=97)
corpus = parse_corpus(generate_synthetic_corpus(spec))
split = split_train_test(corpus.docs, window=8, fraction=0.25, seed=7)
print(f"training on {len(split.train_docs)} docs, "
      f"{len(split.ground_truth)} held-out citations from {split.test_doc_ids}")

base = EmbeddingConfig(dim=16, window=8, negative=2, iterations=40,
                       retrofit_epochs=5, learning_rate=0.05, seed=13)


def fit(config):
    relations = extract_relations(split.train_docs, split.train_vocab, config.window)
    model = init_model(split.train_vocab, config)
    train(model, relations, split.train_docs)
    return model


model_avg = fit(base)
model_att = fit(replace(base, variant="att"))
model_nostruct = fit(replace(base, structural_context=False))

# 2. One case at a time: machine-readable records, one metric per line.
print("\navg variant, case by case:")
for case in (1, 2, 3):
    report = evaluate(model_avg, split.ground_truth, case=case, k=10)
    for line in report.records():
        print("  " + line)

# 3. The full 3 x 3 ablation at a sharper cutoff.  At this corpus size
# the protocol is forgiving at rank 10, so rank 1 is where differences
# would show; the planted structure is clean enough that every variant
# still solves it.
rows = ablation_report(model_avg, model_att, model_nostruct,
                       split.ground_truth, k=1)
print("\nablation at k=1:")
print(format_ablation(rows))
