"""Seconds-long self-test of the benchmark harness.

    python3 bench/selftest.py

Runs every workload at toy size, untraced and traced, and checks that:
its outputs pass the harness's own checks; a CitevecError is counted as a
failed operation while any other exception aborts; the oracle rejects a
wrong ranking and the determinism check catches a model that changes
between rounds; the hooks are removed after a traced block; and run.py
exits nonzero without a result where the package is missing.
"""

import subprocess
import sys
import tempfile
from pathlib import Path

import run  # pins BLAS threads before NumPy is imported

if run.import_citevec() is None:
    sys.exit(f"selftest: no citevec package under {run.SRC}")

import oracle  # noqa: E402
import servegen  # noqa: E402
import tracing  # noqa: E402
import workloads as w  # noqa: E402

QUERIES = w.Queries(per_round=20, i4i_every=5, checks=10)
TOY = {
    "pipeline-content": w.PipelineSize(
        n_topics=2, docs_per_topic=16, vocab_per_topic=30, dim=16, negative=2,
        retrofit_epochs=1, iterations=2, test_fraction=0.25, queries=QUERIES,
    ),
    "train-cite-att": w.CiteAttSize(
        n_topics=2, docs_per_topic=12, clique_size=4, vocab_per_topic=20, dim=16,
        iterations=2, queries=QUERIES,
    ),
    "serve-50k": w.ServeWorkload(
        data=servegen.ServeSize(n_docs=400, n_words=200, dim=16, n_fragments=40, heldout_docs=6),
        queries=QUERIES,
    ),
}
TRAINING = ("pipeline-content", "train-cite-att")


def toy_run(work: Path, name: str, trace: bool) -> w.Run:
    r = w.Run(seed=3, trace=trace, work=work)
    with r.tracer.tracing(trace):
        w.WORKLOADS[name](r, TOY[name])
    assert not r.problems, (name, r.problems)
    assert r.attempted > 0 and r.failed == 0, (name, r.attempted, r.failed)
    return r


def check_workloads(work: Path) -> None:
    originals = {(m, a): getattr(w.import_module(f"citevec.{m}"), a)
                 for m, a, _ in tracing.HOOKS}
    for name in w.WORKLOADS:
        plain = toy_run(work, name, trace=False)
        e2e = w.end_to_end(plain)
        assert all(isinstance(v, float) and v > 0 for v in e2e.values()), (name, e2e)
        assert not plain.tracer.spans, "untraced run recorded spans"

        traced = toy_run(work, name, trace=True)
        layers = tracing.layer_metrics(traced.tracer, traced.facts, traced.recall,
                                       traced.overhead_pct("query"), traced.overhead_pct("train"))
        assert set(layers) == set(tracing.LAYER_UNITS)
        assert not traced.tracer.missing, traced.tracer.missing
        trained = layers["train.citation_s"] is not None
        assert trained == (name in TRAINING), (name, layers["train.citation_s"])
        assert (layers["cli.train_s"] is not None) == (name == "pipeline-content")
        assert (layers["trace.train_overhead_pct"] is not None) == (name in TRAINING)
        for key in ("recommend.rank_i4o_ms.p50", "model.load_s", "evaluation.rank_share",
                    "corpus.parse_s", "trace.overhead_pct"):
            assert layers[key] is not None, (name, key)
        print(f"selftest: {name}: {plain.attempted} ops untraced, "
              f"{len(traced.tracer.spans)} spans traced")
    for (m, a), fn in originals.items():
        assert getattr(w.import_module(f"citevec.{m}"), a) is fn, f"hook left on {m}.{a}"


def check_failure_accounting(work: Path) -> None:
    r = w.Run(seed=3, trace=False, work=work)
    model = servegen.generate(3, TOY["serve-50k"].data, w.WINDOW).model
    known = " ".join(model.vocab.word_list[:5])
    # Fragment i % 3 == 2 runs as Case 3 and has no known word, so it fails:
    # 12 fragments give 4 failed queries, and 4 i4i calls on fragment 0.
    w.query_loop(r, model, [known, known, "zz-unknown yy-unknown"],
                 count=12, i4i_every=3, n_checks=3)
    assert sorted(r.query_s) == [i for i in range(12) if i % 3 != 2], r.query_s
    assert (r.failed, r.attempted) == (4, 16), (r.failed, r.attempted)
    assert not r.problems, r.problems
    try:
        r.attempt(lambda: 1 / 0)
    except ZeroDivisionError:
        pass
    else:
        raise AssertionError("a non-citevec exception must abort the run")
    print("selftest: failure accounting ok")


def check_output_checks(work: Path) -> None:
    model = servegen.generate(4, TOY["serve-50k"].data, w.WINDOW).model
    text = " ".join(model.vocab.word_list[:6]) + f" [[{model.vocab.doc_list[1]}]]"
    got = w.recommend_mod.recommend(model, text, case=1, k=5)
    assert oracle.check_i4o(model, text, 1, 5, 0, got) is None
    got.ranked[0], got.ranked[1] = got.ranked[1], got.ranked[0]
    assert oracle.check_i4o(model, text, 1, 5, 0, got) is not None, "swap not caught"
    got.ranked[:] = [(d, s + 1e-12) for d, s in got.ranked]
    assert oracle.check_i4o(model, text, 1, 5, 0, got) is not None, "score drift not caught"

    # a model that changes between rounds must fail the determinism check
    train_mod = w.train_mod
    real_train = train_mod.train
    calls = []

    def drifting_train(model, *args, **kwargs):
        result = real_train(model, *args, **kwargs)
        calls.append(1)
        if len(calls) > 1:
            model.matrices.doc_out[0, 0] += 1e-9
        return result

    train_mod.train = drifting_train
    try:
        r = w.Run(seed=3, trace=False, work=work)
        w.train_cite_att(r, TOY["train-cite-att"])
    finally:
        train_mod.train = real_train
    assert any("fingerprint" in p for p in r.problems), r.problems
    print("selftest: output checks ok")


def check_missing_package() -> None:
    with tempfile.TemporaryDirectory(dir=run.ROOT / ".bench_work") as tmp:
        bench = Path(tmp) / "bench"
        bench.mkdir()
        for src in run.BENCH_DIR.glob("*.py"):
            (bench / src.name).write_bytes(src.read_bytes())
        (Path(tmp) / "BENCHMARK.json").write_bytes((run.ROOT / "BENCHMARK.json").read_bytes())
        proc = subprocess.run(
            [sys.executable, "bench/run.py", "--workload", "serve-50k", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=tmp, capture_output=True, text=True, timeout=60,
        )
    assert proc.returncode != 0 and '"correct"' not in proc.stdout, proc
    print("selftest: missing package exits", proc.returncode)


def main() -> int:
    (run.ROOT / ".bench_work").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.ROOT / ".bench_work") as tmp:
        work = Path(tmp)
        check_workloads(work)
        check_failure_accounting(work)
        check_output_checks(work)
    check_missing_package()
    print("selftest: PASS")
    return 0


if __name__ == "__main__":
    sys.exit(main())
