"""The synthetic co-citation corpus generator: corpus text, in the format
``corpus.parse_corpus`` reads, with planted per-topic citation cliques."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, _check_float, _check_int


@dataclass(frozen=True)
class SyntheticSpec:
    """Parameters for the synthetic co-citation corpus generator.

    Each topic gets ``sub_cliques`` cliques of ``clique_size`` cited papers
    plus ``docs_per_topic`` citing documents.  A citing document picks one
    clique of its topic and cites ``cites_per_doc`` of its members, in
    random order (0, the default, cites them all); with probability
    ``distractor_rate`` it also cites one paper of another topic.  Words
    come from a per-topic vocabulary, except a ``noise_rate`` fraction
    drawn from a global shared vocabulary, so words tell the topic apart
    and only co-citation tells the cliques of a topic apart.  Paper ``j``
    of a topic's clique ``s`` is ``t<topic>c<s * clique_size + j>``.
    """

    n_topics: int = 2
    docs_per_topic: int = 16
    clique_size: int = 4
    vocab_per_topic: int = 30
    noise_rate: float = 0.1
    sub_cliques: int = 1
    cites_per_doc: int = 0
    distractor_rate: float = 0.0
    seed: int = 0

    def __post_init__(self):
        for name, low in (("n_topics", 1), ("docs_per_topic", 1), ("clique_size", 1),
                          ("vocab_per_topic", 1), ("sub_cliques", 1), ("cites_per_doc", 0),
                          ("seed", 0)):
            _check_int(name, getattr(self, name))
            if getattr(self, name) < low:
                raise ConfigError(f"{name} must be >= {low}, got {getattr(self, name)}")
        _check_float("noise_rate", self.noise_rate)
        _check_float("distractor_rate", self.distractor_rate)
        if not 0.0 <= self.noise_rate < 1.0:
            raise ConfigError(f"noise_rate must be in [0, 1), got {self.noise_rate}")
        if not 0 <= self.cites_per_doc <= self.clique_size:
            raise ConfigError(
                f"cites_per_doc must be in [0, clique_size], got {self.cites_per_doc}")
        if not 0.0 <= self.distractor_rate <= 1.0:
            raise ConfigError(f"distractor_rate must be in [0, 1], got {self.distractor_rate}")
        if self.distractor_rate > 0.0 and self.n_topics < 2:
            raise ConfigError("a distractor_rate above 0 needs at least 2 topics")


def generate_synthetic_corpus(spec: SyntheticSpec) -> bytes:
    """Emit a corpus with planted per-topic co-citation cliques.

    Deterministic: the output is a pure function of ``spec`` including its
    seed.  A draw that the spec makes pointless (the clique when a topic
    has one, the distractor at rate 0) is not taken, so the defaults give
    the corpus of a generator with one whole clique per topic.
    """
    rng = np.random.default_rng(spec.seed)
    global_vocab = [f"g{m}" for m in range(spec.vocab_per_topic)]
    per_topic = spec.sub_cliques * spec.clique_size
    cites = spec.cites_per_doc or spec.clique_size
    lines: list[str] = []

    def draw_words(topic_vocab: list[str], count: int) -> list[str]:
        words = []
        for _ in range(count):
            if spec.noise_rate > 0.0 and rng.random() < spec.noise_rate:
                words.append(global_vocab[rng.integers(len(global_vocab))])
            else:
                words.append(topic_vocab[rng.integers(len(topic_vocab))])
        return words

    for topic in range(spec.n_topics):
        topic_vocab = [f"w{topic}t{m}" for m in range(spec.vocab_per_topic)]
        papers = [f"t{topic}c{j}" for j in range(per_topic)]
        for doc_id in papers:
            lines.append(doc_id + "\t" + " ".join(draw_words(topic_vocab, 10)))
        for i in range(spec.docs_per_topic):
            first = int(rng.integers(spec.sub_cliques)) * spec.clique_size if spec.sub_cliques > 1 else 0
            order = rng.permutation(spec.clique_size)[:cites].tolist()
            cited = [papers[first + j] for j in order]
            if spec.distractor_rate > 0.0 and rng.random() < spec.distractor_rate:
                other = int(rng.choice([t for t in range(spec.n_topics) if t != topic]))
                cited.append(f"t{other}c{int(rng.integers(per_topic))}")
                rng.shuffle(cited)
            parts: list[str] = []
            for doc_id in cited:
                parts.extend(draw_words(topic_vocab, int(rng.integers(3, 7))))
                parts.append(f"[[{doc_id}]]")
            parts.extend(draw_words(topic_vocab, int(rng.integers(3, 7))))
            lines.append(f"t{topic}d{i}\t" + " ".join(parts))

    return ("\n".join(lines) + "\n").encode("utf-8")
