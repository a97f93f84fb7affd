"""The three workloads.  Each drives citevec through its public entry points
only, checks its own outputs, and leaves its numbers on a ``Run``.

Functions are called through their modules (``recommend_mod.recommend``),
never bound at import, so the traced run's hooks see the benchmark's own
calls as well as the calls between citevec's modules.

pipeline-content  the CLI path users run: ``synth`` -> ``train`` ->
                  ``evaluate --case 1/2/3`` in-process.  The content pass
                  does most of the work.
train-cite-att    library ``train()`` with ``variant=att`` on a clique-8
                  corpus and no content epoch: the citation step and the
                  attention slots do most of the work.
serve-50k         reads only: a generated 50k-doc model is loaded, queried
                  by one closed-loop client and evaluated.  Ranking over
                  the large candidate pool does most of the work.

CPU speed on a shared machine drifts by tens of percent within seconds, so
each workload runs a fixed number of identical rounds that each hold a share
of every measured activity (set-up, train or load, queries, evaluate).  Every
timed operation is repeated in several rounds and counts at its fastest
repeat, which keeps the machine's slow spells out of the figures; the amount
of work never depends on how fast it runs.
"""

from __future__ import annotations

import hashlib
import io
import resource
import statistics
import time
from contextlib import contextmanager, redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from importlib import import_module
from pathlib import Path

import numpy as np

from citevec.errors import CitevecError

cli = import_module("citevec.cli")
corpus = import_module("citevec.corpus")
model_mod = import_module("citevec.model")
train_mod = import_module("citevec.train")  # `citevec.train` is the function
recommend_mod = import_module("citevec.recommend")
evaluation = import_module("citevec.evaluation")

import oracle  # noqa: E402
import servegen  # noqa: E402
from tracing import Tracer, percentile  # noqa: E402

K = 10
CASES = (1, 2, 3)
WINDOW = 8
now = time.perf_counter


@dataclass
class Run:
    """Everything one workload run measures and checks."""

    seed: int
    trace: bool
    work: Path
    tracer: Tracer = field(default_factory=Tracer)
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    samples: dict[str, list[float]] = field(default_factory=dict)
    # per query index, the latency of each of its repeats
    query_s: dict[int, list[float]] = field(default_factory=dict)
    i4i_s: dict[int, list[float]] = field(default_factory=dict)
    recall: dict[int, float] = field(default_factory=dict)
    facts: dict[str, float] = field(default_factory=dict)

    def check(self, ok: bool, message: str) -> None:
        if not ok:
            self.problems.append(message)

    def note(self, problem: str | None) -> None:
        if problem is not None:
            self.problems.append(problem)

    def attempt(self, fn, *args, **kwargs):
        """One counted operation; a CitevecError counts as failed."""
        self.attempted += 1
        try:
            return fn(*args, **kwargs)
        except CitevecError:
            self.failed += 1
            return None

    def sample(self, name: str, value: float) -> None:
        self.samples.setdefault(name, []).append(value)

    def same(self, outputs: dict, key: str, value) -> None:
        """Record a repeated operation's output; every repeat must match."""
        self.check(outputs.setdefault(key, value) == value, f"repeated {key} output differs")

    def overhead_pct(self, what: str) -> float | None:
        """Traced over untraced time of ``what`` in a traced run, which
        alternates paused and active hooks: the median recommend() latency
        of the query blocks, or the fastest train of the rounds."""
        untraced, traced = self.samples.get(f"untraced_{what}_s"), self.samples.get(f"traced_{what}_s")
        if not untraced or not traced:
            return None
        pick = statistics.median if what == "query" else min
        return 100.0 * (pick(traced) / pick(untraced) - 1.0)

    @contextmanager
    def timed_train(self, index: int):
        """A round's train step, sampled as ``model_s``.  In a traced run
        every second round trains with the hooks paused, which gives the
        training path's tracing overhead."""
        paused = self.trace and index % 2 == 1
        with self.tracer.paused(paused), self.tracer.op("train"):
            t0 = now()
            yield
            elapsed = now() - t0
        self.sample("model_s", elapsed)
        if self.trace:
            self.sample(("untraced" if paused else "traced") + "_train_s", elapsed)


# -- shared phases ---------------------------------------------------------

@dataclass(frozen=True)
class Queries:
    per_round: int = 1000
    i4i_every: int = 10
    checks: int = 40


def _i4i(model, text: str):
    resolved = recommend_mod.resolve_text(model, text)
    return recommend_mod.rank_i4i(
        model, resolved.word_indices, exclude=set(resolved.marker_ids), k=K
    )


def query_loop(run: Run, model, fragments: list[str], *, count: int, i4i_every: int,
               start: int = 0, n_checks: int = 0) -> str:
    """Closed loop, one client: recommend() on fragments ``start`` to
    ``start + count`` with the case rotating 1/2/3, and rank_i4i() on every
    ``i4i_every``-th.  Latencies go to ``run.query_s`` and ``run.i4i_s``
    under the fragment's index.

    In a traced run, blocks of ``i4i_every`` fragments alternate between
    paused and active hooks, so the tracing overhead compares like with
    like.  A seeded sample of ``n_checks`` results is checked against the
    oracle after the loop.  Returns a digest of every ranked list.
    """
    tracer = run.tracer
    sample = np.random.default_rng([run.seed, 7, start]).choice(
        count, size=min(n_checks, count), replace=False)
    check_at = set((sample + start).tolist())
    pending = []
    digest = hashlib.sha256()
    for i in range(start, start + count):
        traced = (i // i4i_every) % 2 == 1
        text, case = fragments[i % len(fragments)], CASES[i % 3]
        ranked = None
        with tracer.paused(run.trace and not traced):
            with tracer.op("query"):
                t0 = now()
                result = run.attempt(recommend_mod.recommend, model, text, case=case, k=K, seed=i)
                t1 = now()
            if i % i4i_every == 0:
                with tracer.op("i4i"):
                    t2 = now()
                    ranked = run.attempt(_i4i, model, text)
                    t3 = now()
        if result is not None:
            run.query_s.setdefault(i, []).append(t1 - t0)
            if run.trace:
                run.sample(("traced" if traced else "untraced") + "_query_s", t1 - t0)
        if ranked is not None:
            run.i4i_s.setdefault(i, []).append(t3 - t2)
        digest.update(repr([None if r is None else r.ranked for r in (result, ranked)]).encode())
        if i in check_at:
            pending.append((text, case, i, result, ranked))

    with tracer.paused():
        for text, case, seed, result, ranked in pending:
            if result is not None:
                run.note(oracle.check_i4o(model, text, case, K, seed, result))
            if ranked is not None:
                words = recommend_mod.resolve_text(model, text).word_indices
                inferred = model_mod.infer_doc_vector(model, words)
                run.note(oracle.check_i4i(model, text, K, inferred, ranked))
    return digest.hexdigest()


def evaluate_case(run: Run, model, ground_truth, case: int):
    """Library evaluate(); every relation is one operation.  Returns the
    report, None if it failed."""
    with run.tracer.op("evaluate"):
        t0 = now()
        report = None
        run.attempted += len(ground_truth)
        try:
            report = evaluation.evaluate(model, ground_truth, case=case, k=K)
        except CitevecError:
            run.failed += len(ground_truth)
        run.sample(f"eval_s.case{case}", now() - t0)
    if report is not None:
        run.recall.setdefault(case, report.recall)
    return report


def _text(doc) -> str:
    """A parsed document written back in the corpus format."""
    return " ".join(f"[[{t.value}]]" if t.is_cite else t.value for t in doc.tokens)


def _queries_around(run: Run, model, fragments: list[str], q: Queries, index: int,
                    middle) -> str:
    """A training round's queries: two passes over the same fragments with
    ``middle()`` between them, so each query's repeats fall at different
    times.  Both passes must rank alike.  Returns the first pass's digest."""
    first = query_loop(run, model, fragments, count=q.per_round, i4i_every=q.i4i_every,
                       n_checks=q.checks if index == 0 else 0)
    middle()
    second = query_loop(run, model, fragments, count=q.per_round, i4i_every=q.i4i_every)
    run.check(first == second, f"round {index + 1}: second query pass ranks differently")
    return first


def _round_loop(run: Run, rounds: int, body) -> None:
    """``rounds`` identical rounds; ``body(index)`` returns the round's
    outputs, which must equal round 1's."""
    first = None
    for index in range(rounds):
        outputs = body(index)
        first = first or outputs
        for key, value in outputs.items():
            run.check(value == first[key], f"round {index + 1}: {key} differs from round 1")


# -- pipeline-content --------------------------------------------------------

PIPELINE_ROUNDS = 7


@dataclass(frozen=True)
class PipelineSize:
    n_topics: int = 4
    docs_per_topic: int = 100
    vocab_per_topic: int = 200
    dim: int = 100
    negative: int = 5
    retrofit_epochs: int = 3
    iterations: int = 2
    test_fraction: float = 0.2
    queries: Queries = Queries()


def _cli(argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    return code, out.getvalue()


def _recall_record(text: str) -> float:
    for line in text.splitlines():
        fields = dict(item.split("=", 1) for item in line.split())
        if fields["metric"] == "recall":
            return float(fields["value"])
    raise ValueError(f"no recall record in {text!r}")


def pipeline_content(run: Run, size: PipelineSize = PipelineSize()) -> None:
    seed = str(run.seed)
    corpus_path = run.work / "corpus.tsv"
    model_path = run.work / "model.dcv"
    split_flags = ["--test-fraction", str(size.test_fraction), "--split-seed", seed]
    tracer = run.tracer

    def setup():
        with tracer.op("setup"):
            t0 = now()
            with tracer.span("cli.synth"):
                code, _ = _cli([
                    "synth", str(corpus_path), "--n-topics", str(size.n_topics),
                    "--docs-per-topic", str(size.docs_per_topic),
                    "--vocab-per-topic", str(size.vocab_per_topic), "--seed", seed,
                ])
            run.check(code == 0, f"citevec synth exited {code}")
            parsed = corpus.parse_corpus(corpus_path)
            split = corpus.split_train_test(
                parsed.docs, window=WINDOW, fraction=size.test_fraction, seed=run.seed
            )
            run.sample("setup_s", now() - t0)
        return corpus_path.read_bytes(), parsed, split

    raw, parsed, split = setup()

    train_tokens = [t for d in split.train_docs for t in d.tokens]
    relations = sum(t.is_cite for t in train_tokens)  # one relation per marker
    run.facts.update(
        word_tokens=parsed.stats.n_words,
        relations=parsed.stats.n_relations,
        content_occurrences=(len(train_tokens) - relations) * size.retrofit_epochs,
        citation_updates=relations * size.iterations,
    )
    n_truth = run.facts["eval_relations"] = len(split.ground_truth)
    fragments = [_text(d) for d in split.test_docs]

    def round_(index: int):
        run.check(setup()[0] == raw, "citevec synth output differs between set-ups")
        with run.timed_train(index), tracer.span("cli.train"):
            code, progress = _cli([
                "train", str(corpus_path), str(model_path), "--dim", str(size.dim),
                "--window", str(WINDOW), "--negative", str(size.negative), "--variant", "avg",
                "--retrofit-epochs", str(size.retrofit_epochs),
                "--iterations", str(size.iterations), "--seed", seed, *split_flags,
            ])
        run.attempted += 1
        if code != 0:
            run.failed += 1
        model = model_mod.load_model(model_path)
        outputs = {"train": (code, progress), "fingerprint": model.matrices.fingerprint()}

        def evaluate_cases():
            for case in CASES:
                with tracer.op("evaluate"), tracer.span("cli.evaluate"):
                    t0 = now()
                    code, records = _cli(["evaluate", str(model_path), str(corpus_path),
                                          *split_flags, "--case", str(case), "--k", str(K)])
                    run.sample(f"eval_s.case{case}", now() - t0)
                run.attempted += n_truth
                if code != 0:
                    run.failed += n_truth
                else:
                    run.recall.setdefault(case, _recall_record(records))
                outputs[f"evaluate case {case}"] = (code, records)

        outputs["queries"] = _queries_around(run, model, fragments, size.queries, index,
                                             evaluate_cases)
        return outputs

    _round_loop(run, PIPELINE_ROUNDS, round_)


# -- train-cite-att ----------------------------------------------------------

CITE_ROUNDS = 6
CITE_TEST_FRACTION = 0.05


@dataclass(frozen=True)
class CiteAttSize:
    n_topics: int = 25
    docs_per_topic: int = 50
    clique_size: int = 8
    vocab_per_topic: int = 100
    dim: int = 100
    iterations: int = 1
    queries: Queries = Queries()


def train_cite_att(run: Run, size: CiteAttSize = CiteAttSize()) -> None:
    tracer = run.tracer
    spec = corpus.SyntheticSpec(
        n_topics=size.n_topics, docs_per_topic=size.docs_per_topic,
        clique_size=size.clique_size, vocab_per_topic=size.vocab_per_topic, seed=run.seed,
    )

    def setup():
        with tracer.op("setup"):
            t0 = now()
            raw = corpus.generate_synthetic_corpus(spec)
            parsed = corpus.parse_corpus(raw)
            split = corpus.split_train_test(
                parsed.docs, window=WINDOW, fraction=CITE_TEST_FRACTION, seed=run.seed
            )
            relations = corpus.extract_relations(split.train_docs, split.train_vocab, WINDOW)
            run.sample("setup_s", now() - t0)
        return raw, parsed, split, relations

    raw, parsed, split, relations = setup()

    # No content epoch: the citation pass is what this workload measures.
    config = model_mod.EmbeddingConfig(
        dim=size.dim, window=WINDOW, negative=5, iterations=size.iterations,
        retrofit_epochs=0, variant="att", seed=run.seed,
    )
    run.facts.update(
        word_tokens=parsed.stats.n_words,
        relations=parsed.stats.n_relations,
        content_occurrences=0,
        citation_updates=len(relations) * size.iterations,
    )
    fragments = [_text(d) for d in split.test_docs]
    ground_truth = split.ground_truth
    run.facts["eval_relations"] = len(ground_truth)
    model_path = run.work / "att.dcv"

    def round_(index: int):
        run.check(setup()[0] == raw, "synthetic corpus differs between set-ups")
        model = model_mod.init_model(split.train_vocab, config)
        with run.timed_train(index):
            trained = run.attempt(train_mod.train, model, relations, split.train_docs)
        fingerprint = model.matrices.fingerprint()
        model_mod.save_model(model, model_path)
        loaded = model_mod.load_model(model_path)
        run.check(loaded.matrices.fingerprint() == fingerprint, "save/load changed the model")
        outputs = {"trained": trained is not None, "fingerprint": fingerprint}

        def evaluate_cases():
            for case in CASES:
                outputs[f"evaluate case {case}"] = evaluate_case(run, model, ground_truth, case)

        outputs["queries"] = _queries_around(run, model, fragments, size.queries, index,
                                             evaluate_cases)
        return outputs

    _round_loop(run, CITE_ROUNDS, round_)


# -- serve-50k ---------------------------------------------------------------

SERVE_ROUNDS = 4  # each half of the fragments is sent in two rounds
LOADS_PER_ROUND = 2  # a load takes 0.4 s: more repeats, a steadier fastest one


@dataclass(frozen=True)
class ServeWorkload:
    # 1000 distinct queries for a p99 with 10 beyond it, 100 of them also i4i
    data: servegen.ServeSize = servegen.ServeSize()
    queries: Queries = Queries(per_round=500, checks=30)


def serve_50k(run: Run, size: ServeWorkload = ServeWorkload()) -> None:
    """Identical rounds of: set up (generate and save the model), load it
    (twice), send it one half of the fragments, evaluate every case."""
    tracer = run.tracer
    model_path = run.work / "serve.dcv"
    q = size.queries
    outputs: dict = {}
    ground_truth = None
    for index in range(SERVE_ROUNDS):
        model = inputs = None  # free the previous copies before making new ones
        with tracer.op("setup"):
            t0 = now()
            inputs = servegen.generate(run.seed, size.data, WINDOW)
            model_mod.save_model(inputs.model, model_path)
            run.sample("setup_s", now() - t0)
        fingerprint = inputs.model.matrices.fingerprint()
        vocab = inputs.model.vocab
        inputs.model = None
        run.same(outputs, "generated inputs", (inputs.fragments, inputs.heldout))
        if ground_truth is None:
            held = corpus.parse_corpus(inputs.heldout)
            ground_truth, _ = corpus.resolve_ground_truth(
                [d for d in held.docs if not d.placeholder], vocab, WINDOW
            )
            run.facts.update(word_tokens=held.stats.n_words, relations=held.stats.n_relations,
                             eval_relations=len(ground_truth))
        for _ in range(LOADS_PER_ROUND):
            model = None
            with tracer.op("load"):
                t0 = now()
                model = model_mod.load_model(model_path)
                run.sample("model_s", now() - t0)
        run.check(model.matrices.fingerprint() == fingerprint, "save/load changed the model")
        half = index % 2
        run.same(outputs, f"queries {half}", query_loop(
            run, model, inputs.fragments, start=half * q.per_round, count=q.per_round,
            i4i_every=q.i4i_every, n_checks=q.checks if index < 2 else 0))
        for case in CASES:
            run.same(outputs, f"evaluate case {case}", evaluate_case(run, model, ground_truth, case))


def end_to_end(run: Run) -> dict[str, float]:
    """The untraced run's metrics.  Set-up is the median of its repeats.
    Every other timed operation is repeated in several rounds and counts at
    its fastest repeat: the model time, each case's evaluate call, and each
    query, whose best latencies then give the percentiles."""
    s = run.samples
    best_eval = sum(min(s[f"eval_s.case{case}"]) for case in CASES)
    query_ms = [min(t) * 1e3 for t in run.query_s.values()]
    i4i_ms = [min(t) * 1e3 for t in run.i4i_s.values()]
    return {
        "setup_s": statistics.median(s["setup_s"]),
        "model_s": min(s["model_s"]),
        "eval_relations_per_s": len(CASES) * run.facts["eval_relations"] / best_eval,
        "query_p50_ms": statistics.median(query_ms),
        "query_p99_ms": percentile(query_ms, 99),
        "i4i_p50_ms": statistics.median(i4i_ms),
        "i4i_p90_ms": percentile(i4i_ms, 90),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


WORKLOADS = {
    "pipeline-content": pipeline_content,
    "train-cite-att": train_cite_att,
    "serve-50k": serve_50k,
}
