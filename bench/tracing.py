"""Spans around the calls into citevec's modules, kept in memory.

The traced run replaces module attributes with timing wrappers in the
namespace where the caller looks them up (``citevec.cli.train`` is what the
CLI calls, ``citevec.evaluation.rank_i4o`` is what ``evaluate`` calls), so
nothing under ``src/`` changes.  A hook whose target no longer exists is
recorded as missing and the metrics that depend on it are reported absent.

A span is ``[name, start, end, parent, op, info]``: ``parent`` indexes the
enclosing span, ``op`` identifies the benchmark operation it belongs to, and
``info`` carries sizes, the evaluation case, or the error type.
"""

from __future__ import annotations

import functools
import os
import statistics
import sys
import time
from collections import defaultdict
from contextlib import contextmanager, nullcontext

LAYERS = ("cli", "corpus", "train", "model", "recommend", "evaluation")

# (module under citevec, attribute, span name).  The same function appears
# once per namespace it is called through.
HOOKS = (
    ("cli", "generate_synthetic_corpus", "corpus.synth"),
    ("cli", "parse_corpus", "corpus.parse"),
    ("cli", "split_train_test", "corpus.split"),
    ("cli", "extract_relations", "corpus.extract_relations"),
    ("cli", "init_model", "model.init"),
    ("cli", "train", "train.train"),
    ("cli", "save_model", "model.save"),
    ("cli", "load_model", "model.load"),
    ("cli", "evaluate", "evaluation.evaluate"),
    ("corpus", "generate_synthetic_corpus", "corpus.synth"),
    ("corpus", "parse_corpus", "corpus.parse"),
    ("corpus", "split_train_test", "corpus.split"),
    ("corpus", "extract_relations", "corpus.extract_relations"),
    ("corpus", "resolve_ground_truth", "corpus.resolve_ground_truth"),
    ("model", "init_model", "model.init"),
    ("model", "save_model", "model.save"),
    ("model", "load_model", "model.load"),
    ("train", "train", "train.train"),
    ("train", "retrofit_pvdm", "train.content"),
    ("recommend", "recommend", "recommend.recommend"),
    ("recommend", "resolve_text", "recommend.resolve_text"),
    ("recommend", "build_query_vector", "recommend.build_query_vector"),
    ("recommend", "rank_i4o", "recommend.rank_i4o"),
    ("recommend", "rank_i4i", "recommend.rank_i4i"),
    ("recommend", "infer_doc_vector", "model.infer_doc_vector"),
    ("evaluation", "evaluate", "evaluation.evaluate"),
    ("evaluation", "build_query_vector", "evaluation.build_query_vector"),
    ("evaluation", "rank_i4o", "evaluation.rank_i4o"),
)
SAMPLER_HOOK = "train.NegativeSampler.sample"


def _source_bytes(source) -> int | None:
    if isinstance(source, (bytes, bytearray)):
        return len(source)
    if isinstance(source, (str, os.PathLike)):
        return os.path.getsize(source)
    return None


def _sink_bytes(sink) -> int | None:
    if hasattr(sink, "tell"):
        return sink.tell()
    return _source_bytes(sink)


class Tracer:
    """Records spans while active; costs one attribute test while not."""

    def __init__(self):
        self.spans: list[list] = []
        self.missing: set[str] = set()
        self.active = False
        self._stack: list[int] = []
        self._op = 0
        self._installed: list[tuple[object, str, object]] = []
        self._open: dict[str, int] = defaultdict(int)
        self._sampler_calls = 0
        self._sampler_empty = 0

    # -- spans ------------------------------------------------------------

    @contextmanager
    def _span(self, name: str, info: dict):
        record = [name, time.perf_counter(), None, self._stack[-1] if self._stack else None,
                  self._op, info]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        self._open[name] += 1
        try:
            yield info
        except BaseException as exc:
            info["error"] = type(exc).__name__
            raise
        finally:
            record[2] = time.perf_counter()
            self._stack.pop()
            self._open[name] -= 1

    def span(self, name: str, **info):
        return self._span(name, info) if self.active else nullcontext(info)

    def op(self, kind: str):
        """Root span of one benchmark operation; its spans share an op id."""
        if not self.active:
            return nullcontext({})
        self._op += 1
        return self._span(f"op.{kind}", {})

    # -- hooks ------------------------------------------------------------

    @contextmanager
    def tracing(self, on: bool = True):
        """Install the hooks for the duration of the block (no-op if off)."""
        if not on or self.active:
            yield
            return
        self._install()
        try:
            yield
        finally:
            self._uninstall()

    @contextmanager
    def paused(self, on: bool = True):
        """Remove the hooks for the duration of the block (no-op if off)."""
        if not on or not self.active:
            yield
            return
        self._uninstall()
        try:
            yield
        finally:
            self._install()

    def _uninstall(self):
        self.active = False
        for owner, attr, original in reversed(self._installed):
            setattr(owner, attr, original)
        self._installed.clear()

    def _install(self):
        self.active = True
        for module_name, attr, span_name in HOOKS:
            module = sys.modules.get(f"citevec.{module_name}")
            original = getattr(module, attr, None) if module is not None else None
            if not callable(original):
                self.missing.add(f"{module_name}.{attr}")
                continue
            self._patch(module, attr, self._wrap(original, span_name))
        sampler_cls = getattr(sys.modules.get("citevec.train"), "NegativeSampler", None)
        sample = getattr(sampler_cls, "sample", None)
        if callable(sample):
            self._patch(sampler_cls, "sample", self._wrap_sampler(sample))
        else:
            self.missing.add(SAMPLER_HOOK)

    def _patch(self, owner, attr, replacement):
        self._installed.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def _wrap(self, fn, name):
        tracer = self
        before = _BEFORE.get(name)
        after = _AFTER.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with tracer._span(name, {}) as info:
                if before is not None:
                    args, kwargs = before(tracer, info, args, kwargs)
                result = fn(*args, **kwargs)
                if after is not None:
                    after(tracer, info, args, kwargs, result)
                return result

        return traced

    def _wrap_sampler(self, sample):
        tracer = self

        @functools.wraps(sample)
        def traced_sample(sampler, *args, **kwargs):
            draws = sample(sampler, *args, **kwargs)
            if tracer._open["train.train"]:
                tracer._sampler_calls += 1
                if len(draws) == 0:
                    tracer._sampler_empty += 1
            return draws

        return traced_sample

    # -- reading spans back -------------------------------------------------

    def durations(self, name: str, **match) -> list[float]:
        return [end - start for n, start, end, _, _, info in self.spans
                if n == name and all(info.get(k) == v for k, v in match.items())]

    def infos(self, name: str) -> list[dict]:
        return [info for n, _, _, _, _, info in self.spans if n == name]

    def span_self_times(self) -> list[tuple[str, float]]:
        """(name, span time minus the part its child spans cover) per span."""
        child = [0.0] * len(self.spans)
        for _, start, end, parent, _, _ in self.spans:
            if parent is not None:
                child[parent] += end - start
        return [(name, end - start - child[i])
                for i, (name, start, end, _, _, _) in enumerate(self.spans)]

    def self_times(self) -> dict[str, float]:
        """Self time summed per layer (the span name's first component)."""
        totals: dict[str, float] = defaultdict(float)
        for name, seconds in self.span_self_times():
            totals[name.split(".", 1)[0]] += seconds
        return dict(totals)

    def dump(self) -> list[dict]:
        return [{"name": n, "start": s, "end": e, "parent": p, "op": op, **info}
                for n, s, e, p, op, info in self.spans]


# Per-hook extras.  `before` may replace the call's arguments; `after`
# reads the result.  Both only fill `info`.

def _before_size(tracer, info, args, kwargs):
    source = args[0] if args else kwargs.get("source")
    info["bytes"] = _source_bytes(source)
    return args, kwargs


def _before_eval(tracer, info, args, kwargs):
    info["case"] = kwargs.get("case", args[2] if len(args) > 2 else None)
    return args, kwargs


def _before_train(tracer, info, args, kwargs):
    stamps = info["epoch_ends"] = []
    user = kwargs.get("on_progress", args[3] if len(args) > 3 else None)

    def on_progress(progress):
        stamps.append(time.perf_counter())
        if user is not None:
            user(progress)

    if len(args) > 3:
        args = args[:3] + (on_progress,) + args[4:]
    else:
        kwargs = {**kwargs, "on_progress": on_progress}
    info["sampler_start"] = (tracer._sampler_calls, tracer._sampler_empty)
    return args, kwargs


def _after_train(tracer, info, args, kwargs, result):
    calls0, empty0 = info.pop("sampler_start")
    info["sampler_calls"] = tracer._sampler_calls - calls0
    info["skipped"] = tracer._sampler_empty - empty0
    progress = result[1] if isinstance(result, tuple) and len(result) > 1 else None
    if progress:
        info["final_loss"] = getattr(progress[-1], "running_loss", None)


def _after_save(tracer, info, args, kwargs, result):
    info["bytes"] = _sink_bytes(args[1] if len(args) > 1 else kwargs.get("sink"))


def _after_eval(tracer, info, args, kwargs, result):
    info["n"] = getattr(result, "n_relations", None)


def _after_resolve(tracer, info, args, kwargs, result):
    info["unknown"] = getattr(result, "unknown_words", 0)
    info["known"] = len(getattr(result, "word_indices", ()))


_BEFORE = {
    "corpus.parse": _before_size,
    "model.load": _before_size,
    "evaluation.evaluate": _before_eval,
    "train.train": _before_train,
}
_AFTER = {
    "train.train": _after_train,
    "model.save": _after_save,
    "evaluation.evaluate": _after_eval,
    "recommend.resolve_text": _after_resolve,
}


def _median(values):
    return statistics.median(values) if values else None


def percentile(values, q):
    """Nearest-rank percentile: the smallest value with q% of values at or below it."""
    if not values:
        return None
    ordered = sorted(values)
    return ordered[max(0, -(-len(ordered) * q // 100) - 1)]


def _scaled(value, factor):
    return None if value is None else value * factor


def _ratio(num, den):
    return None if num is None or not den else num / den


# Every per-layer metric the benchmark derives, with its unit.  A metric
# whose spans were never recorded (layer not exercised, or hook target gone)
# comes out as None and is reported absent.
LAYER_UNITS = {
    "corpus.synth_s": "s", "corpus.parse_s": "s", "corpus.parse_mb_per_s": "MB/s",
    "corpus.split_s": "s", "corpus.extract_relations_s": "s",
    "corpus.relations": "count", "corpus.word_tokens": "count",
    "train.content_s": "s", "train.content_occ_per_s": "1/s", "train.citation_s": "s",
    "train.citation_updates_per_s": "1/s", "train.citation_epoch_p50_s": "s",
    "train.sampler_calls": "count", "train.skipped_updates": "count",
    "train.useful_update_ratio": "ratio", "train.final_citation_loss": "nats",
    "model.save_s": "s", "model.load_s": "s", "model.file_mb": "MB",
    "model.load_mb_per_s": "MB/s", "model.infer_doc_vector_ms": "ms",
    "recommend.resolve_text_us": "us", "recommend.build_query_vector_us": "us",
    "recommend.rank_i4o_ms.p50": "ms", "recommend.rank_i4o_ms.p99": "ms",
    "recommend.rank_i4i_ms": "ms", "recommend.unknown_word_frac": "ratio",
    "evaluation.evaluate_s.case1": "s", "evaluation.evaluate_s.case2": "s",
    "evaluation.evaluate_s.case3": "s", "evaluation.empty_queries": "count",
    "evaluation.recall_at_10.case1": "ratio", "evaluation.recall_at_10.case3": "ratio",
    "evaluation.rank_share": "ratio",
    "cli.train_s": "s", "cli.evaluate_s": "s", "cli.self_s": "s",
    **{f"self_s.{layer}": "s" for layer in LAYERS},
    "trace.overhead_pct": "%", "trace.train_overhead_pct": "%",
}


def layer_metrics(tracer: Tracer, facts: dict, recall: dict, overhead_pct: float | None,
                  train_overhead_pct: float | None) -> dict[str, float | None]:
    """Per-layer numbers from the recorded spans plus the workload's counts.

    Times are medians per call; rates divide the summed work by the summed
    time.  ``facts`` gives the sizes spans cannot see: corpus word tokens and
    relations, and per ``train()`` call the content occurrences and citation
    updates.  ``recall`` maps a case to the recall@10 evaluate reported.
    The overheads compare traced with untraced recommend() calls and
    train steps.
    """
    spans = tracer.spans
    d = tracer.durations
    m: dict[str, float | None] = dict.fromkeys(LAYER_UNITS)

    m["corpus.synth_s"] = _median(d("corpus.synth"))
    parse = d("corpus.parse")
    parse_bytes = [i.get("bytes") for i in tracer.infos("corpus.parse")]
    m["corpus.parse_s"] = _median(parse)
    if parse and None not in parse_bytes:
        m["corpus.parse_mb_per_s"] = sum(parse_bytes) / sum(parse) / 1e6
    m["corpus.split_s"] = _median(d("corpus.split"))
    m["corpus.extract_relations_s"] = _median(d("corpus.extract_relations"))
    m["corpus.relations"] = facts.get("relations")
    m["corpus.word_tokens"] = facts.get("word_tokens")

    trains = [i for i, s in enumerate(spans) if s[0] == "train.train"]
    if trains:
        content_of = {s[3]: s for s in spans if s[0] == "train.content"}
        content = [content_of[i][2] - content_of[i][1] for i in trains if i in content_of]
        if len(content) == len(trains):
            citation = [spans[i][2] - spans[i][1] - c for i, c in zip(trains, content)]
            m["train.content_s"] = _median(content)
            # absent, not 0, when the workload runs no content epoch
            m["train.content_occ_per_s"] = _ratio(facts.get("content_occurrences") or None,
                                                  m["train.content_s"])
            m["train.citation_s"] = _median(citation)
            m["train.citation_updates_per_s"] = _ratio(facts.get("citation_updates"), m["train.citation_s"])
            epochs = []
            for i in trains:
                marks = [content_of[i][2], *spans[i][5].get("epoch_ends", ())]
                epochs += [b - a for a, b in zip(marks, marks[1:])]
            m["train.citation_epoch_p50_s"] = _median(epochs)
        info = spans[trains[0]][5]
        if SAMPLER_HOOK not in tracer.missing and "sampler_calls" in info:
            m["train.sampler_calls"] = info["sampler_calls"]
            m["train.skipped_updates"] = info["skipped"]
            m["train.useful_update_ratio"] = _ratio(info["sampler_calls"] - info["skipped"],
                                                    info["sampler_calls"])
        m["train.final_citation_loss"] = info.get("final_loss")

    m["model.save_s"] = _median(d("model.save"))
    m["model.load_s"] = _median(d("model.load"))
    load_bytes = [i.get("bytes") for i in tracer.infos("model.load")]
    if load_bytes and None not in load_bytes:
        m["model.file_mb"] = _median(load_bytes) / 1e6
        m["model.load_mb_per_s"] = sum(load_bytes) / sum(d("model.load")) / 1e6
    m["model.infer_doc_vector_ms"] = _scaled(_median(d("model.infer_doc_vector")), 1e3)

    m["recommend.resolve_text_us"] = _scaled(_median(d("recommend.resolve_text")), 1e6)
    m["recommend.build_query_vector_us"] = _scaled(_median(d("recommend.build_query_vector")), 1e6)
    i4o = d("recommend.rank_i4o")
    m["recommend.rank_i4o_ms.p50"] = _scaled(_median(i4o), 1e3)
    m["recommend.rank_i4o_ms.p99"] = _scaled(percentile(i4o, 99), 1e3)
    m["recommend.rank_i4i_ms"] = _scaled(_median(d("recommend.rank_i4i")), 1e3)
    resolved = tracer.infos("recommend.resolve_text")
    unknown = sum(i.get("unknown", 0) for i in resolved)
    m["recommend.unknown_word_frac"] = _ratio(unknown, unknown + sum(i.get("known", 0) for i in resolved)) \
        if resolved else None

    for case in (1, 2, 3):
        m[f"evaluation.evaluate_s.case{case}"] = _median(d("evaluation.evaluate", case=case))
    m["evaluation.recall_at_10.case1"] = recall.get(1)
    m["evaluation.recall_at_10.case3"] = recall.get(3)
    if d("evaluation.evaluate"):
        m["evaluation.empty_queries"] = sum(
            1 for i in tracer.infos("evaluation.build_query_vector") if "error" in i)
        if "evaluation.rank_i4o" not in tracer.missing:
            m["evaluation.rank_share"] = sum(d("evaluation.rank_i4o")) / sum(d("evaluation.evaluate"))

    m["cli.train_s"] = _median(d("cli.train"))
    m["cli.evaluate_s"] = _median(d("cli.evaluate"))
    cli_self = [t for name, t in tracer.span_self_times() if name.startswith("cli.")]
    m["cli.self_s"] = _median(cli_self)
    for layer, seconds in tracer.self_times().items():
        if layer in LAYERS:
            m[f"self_s.{layer}"] = seconds

    m["trace.overhead_pct"] = overhead_pct
    m["trace.train_overhead_pct"] = train_overhead_pct
    return m
