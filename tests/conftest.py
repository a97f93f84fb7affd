"""Shared fixtures: the pinned synthetic corpus and models trained on it.

The corpus plants two topics with a four-paper co-citation clique each,
and every citing doc cites its whole clique.  Training is desk-scale
(16 dimensions, 2 negatives) and the models are session-scoped because the
trend and regression tests all look at the same three variants.

The negative count matters at this scale.  Only the 8 clique members ever
get cited, so the noise distribution has support 8; with n negatives per
relation a clique doc absorbs n*(clique-1)/(2*clique-1) noise updates per
positive update, and its output scores converge below zero once that ratio
passes 1 (n >= 3 here).  Never-cited docs keep their zero-initialized output
rows and would then outrank every true target, were they i4o candidates;
i4o ranks only the docs cited in training.  negative=2 keeps trained
targets on the positive side.
"""

from dataclasses import replace

import pytest

from citevec.corpus import (
    SyntheticSpec,
    extract_relations,
    generate_synthetic_corpus,
    parse_corpus,
    split_train_test,
)
from citevec.model import EmbeddingConfig, init_model
from citevec.train import train

FIXTURE_SPEC = SyntheticSpec(
    n_topics=2,
    docs_per_topic=16,
    clique_size=4,
    vocab_per_topic=30,
    noise_rate=0.1,
    seed=97,
)

FIXTURE_CONFIG = EmbeddingConfig(
    dim=16,
    window=8,
    negative=2,
    iterations=80,
    retrofit_epochs=5,
    learning_rate=0.05,
    min_lr=0.0001,
    variant="avg",
    structural_context=True,
    seed=13,
)

SPLIT_FRACTION = 0.25
SPLIT_SEED = 7


def train_on(docs, vocab, **overrides):
    config = replace(FIXTURE_CONFIG, **overrides)
    relations = extract_relations(docs, vocab, config.window)
    model = init_model(vocab, config)
    train(model, relations, docs)
    return model


@pytest.fixture(scope="session")
def fixture_corpus_bytes():
    return generate_synthetic_corpus(FIXTURE_SPEC)


@pytest.fixture(scope="session")
def fixture_corpus(fixture_corpus_bytes):
    return parse_corpus(fixture_corpus_bytes)


@pytest.fixture(scope="session")
def fixture_split(fixture_corpus):
    return split_train_test(
        fixture_corpus.docs,
        window=FIXTURE_CONFIG.window,
        fraction=SPLIT_FRACTION,
        seed=SPLIT_SEED,
    )


@pytest.fixture(scope="session")
def avg_model(fixture_corpus):
    """Avg variant trained on the full fixture corpus."""
    return train_on(fixture_corpus.docs, fixture_corpus.vocab)


@pytest.fixture(scope="session")
def split_avg_model(fixture_split):
    """Avg variant trained on the training side of the pinned split."""
    return train_on(fixture_split.train_docs, fixture_split.train_vocab)


@pytest.fixture(scope="session")
def split_att_model(fixture_split):
    return train_on(fixture_split.train_docs, fixture_split.train_vocab, variant="att")


@pytest.fixture(scope="session")
def split_nostruct_model(fixture_split):
    return train_on(
        fixture_split.train_docs, fixture_split.train_vocab, structural_context=False
    )
