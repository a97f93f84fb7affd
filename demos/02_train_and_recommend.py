"""
Training citation-aware embeddings and recommending citations
==============================================================

Two learning steps: a content pass that pre-trains word and document
input vectors, then citation training that predicts each cited document
from its surrounding words plus the other documents cited nearby.  The
trained model answers three kinds of query: full structural context
(case 1), a thinned-out structural context (case 2), and words alone
(case 3).
"""

import io
import tempfile
from pathlib import Path

from citevec import (
    EmbeddingConfig,
    SyntheticSpec,
    export_word2vec_text,
    extract_relations,
    generate_synthetic_corpus,
    init_model,
    load_model,
    parse_corpus,
    rank_i4i,
    recommend,
    save_model,
    train,
)
from citevec.recommend import resolve_text

# 1. A corpus with two planted topics.  Only the 8 clique papers are ever
# cited; with a noise support that small the negative count has to stay
# low (2 here) or the noise pressure drives every trained output score
# negative and training stops being useful for ranking.
spec = SyntheticSpec(n_topics=2, docs_per_topic=16, clique_size=4,
                     vocab_per_topic=30, noise_rate=0.1, seed=97)
corpus = parse_corpus(generate_synthetic_corpus(spec))
print(f"corpus: {corpus.stats.n_docs} docs, {corpus.stats.n_relations} citations")

config = EmbeddingConfig(dim=16, window=8, negative=2, iterations=40,
                         retrofit_epochs=5, learning_rate=0.05, seed=13)
relations = extract_relations(corpus.docs, corpus.vocab, config.window)
model = init_model(corpus.vocab, config)

# 2. Train.  Both passes report each epoch with the same record; the
# callback that receives it tells the pass.  Content epochs are printed as
# they end, then a few of the citation epochs.
_, progress = train(model, relations, corpus.docs,
                    on_content=lambda entry: print("  phase=content", entry.record()))
for entry in progress[:2] + progress[-2:]:
    print(" ", entry.record())

# 3. Case 1: a manuscript fragment citing two clique members.  The other
# two members of that clique should surface, and the already-cited ones
# are excluded from the output by contract.  recommend ranks by i4o (dot
# product with output vectors); rank_i4i fits a vector to the words alone
# and ranks by cosine to the input vectors, here with the same exclusions.
text = "w0t3 w0t17 w0t8 w0t21 [[t0c0]] [[t0c3]]"
print(f"\nmanuscript: {text!r}")
for case in (1, 2, 3):
    result = recommend(model, text, case=case, k=4, seed=7)
    shown = ", ".join(f"{d} ({s:+.2f})" for d, s in result.ranked)
    print(f"  i4o, case {case}: {shown}")
resolved = resolve_text(model, text)
result = rank_i4i(model, resolved.word_indices, exclude=set(resolved.marker_ids), k=4)
print("  i4i:         " + ", ".join(f"{d} ({s:+.2f})" for d, s in result.ranked))

# 4. The model file round-trips bit-exactly.
with tempfile.TemporaryDirectory() as tmp:
    path = Path(tmp) / "demo.dcv"
    with open(path, "wb") as sink:
        save_model(model, sink)
    reloaded = load_model(path)
    print(f"\nsaved {path.stat().st_size} bytes; "
          f"reloaded fingerprint matches: "
          f"{reloaded.matrices.fingerprint() == model.matrices.fingerprint()}")

# 5. Exported vectors use the word2vec text format; document ids carry a
# doc: prefix so they can never collide with words.
sink = io.StringIO()
export_word2vec_text(model, "doc_out", sink)
head = sink.getvalue().splitlines()
print("\nexport head:")
for line in head[:3]:
    print("  " + line[:72] + (" ..." if len(line) > 72 else ""))
