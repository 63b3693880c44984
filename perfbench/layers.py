"""Which ``repro`` functions the traced run wraps, and how the spans
and counters become per-layer metrics.

Layer names follow the modules: ``machine`` (:mod:`repro.machine`),
``tee`` (:mod:`repro.tee`), ``perfsim`` (:mod:`repro.perfsim`, through
the Figure 4 runner ``run_perf`` as ``benchmarks/bench_fig4_phoenix.py``
calls it), ``core.*`` (:mod:`repro.core`),
``explore`` (:mod:`repro.explore`) and ``fleet.*``
(:mod:`repro.fleet`).

Per-call metrics (``*_ms`` of one call) use the call's full duration;
``machine.run_s``, ``machine.run_s_per_trial``, ``explore.verify_s``
and ``unattributed_s`` use self time (see :mod:`spans`), the part
that adds up to the wall time.  A time metric of a layer no span was
recorded for is NaN, so a wrapper that never ran fails the run as a
metric not measured instead of reading 0.
"""

import math
import statistics
import time

from spans import attribute

#: PipelineStats fields summed after every ``Analyzer.analyze``.
PIPELINE_FIELDS = (
    "entries_ingested", "chunks_processed", "shards_analyzed",
    "shards_vectorised", "shards_fallback", "cache_hits", "cache_misses",
)

QUEUE_WAIT = "fleet.workers.queue_wait"


def install(tracer):
    """Wrap every layer boundary; ``tracer.restore()`` undoes it."""
    from repro.core import analyzer as core_analyzer
    from repro.core.analyzer import Analyzer
    from repro.core.flamegraph import FlameGraph
    from repro.core.profiler import TEEPerf
    from repro.core.recorder import _RecorderBase
    from repro.explore.detectors import ContentionTracker, \
        LocksetRaceDetector
    from repro.explore.workloads import RecordPathWorkload
    from repro.fleet import http as fleet_http
    from repro.fleet import workers as fleet_workers
    from repro.fleet.protocol import FleetClient
    from repro.fleet.windows import WindowStore, WindowSummary
    from repro.fleet.workers import AnalysisPool
    from repro.machine.machine import Machine, SimThread
    from repro.tee.env import EnclaveEnv, ExecutionEnv

    from flow_figures import fig4_bench

    count = tracer.count

    # repro.machine: Machine.run's schedule_steps is one per pick
    tracer.wrap(Machine, "run", "machine.run",
                after=lambda r, a, k: count("machine.picks",
                                            a[0].schedule_steps))
    tracer.count_calls(Machine, "spawn", "machine.spawns")
    tracer.count_calls(SimThread, "advance", "machine.advance_calls")

    # repro.tee: every public charge into the execution environment
    for attr in ("compute", "mem_read", "mem_write", "syscall", "getpid",
                 "timestamp"):
        tracer.count_calls(ExecutionEnv, attr, "tee.env_calls")
    for attr in ("ecall", "ocall", "aex"):
        tracer.count_calls(EnclaveEnv, attr, "tee.env_calls")

    # repro.perfsim, as Figure 4 drives it: the bench module imported
    # run_perf by name, so its own binding is the one to wrap
    tracer.wrap(fig4_bench(), "run_perf", "perfsim.run")

    # repro.core
    for attr in ("compile_module", "compile_instance", "compile_class"):
        tracer.wrap(TEEPerf, attr, "core.instrument.compile")
    tracer.wrap(TEEPerf, "record", "core.profiler.record")
    tracer.wrap(_RecorderBase, "stop", "core.recorder.stop",
                after=lambda r, a, k: count("core.instrument.events",
                                            a[0].hooks.events))
    tracer.wrap(_RecorderBase, "persist", "core.recorder.persist")

    def analyzed(analysis, args, kwargs):
        for field in PIPELINE_FIELDS:
            count(f"core.analyzer.{field}",
                  getattr(analysis.pipeline, field))

    tracer.wrap(Analyzer, "analyze", "core.analyzer.analyze",
                after=analyzed)
    tracer.wrap(core_analyzer, "run_shard", "core.reconstruct.run_shard")
    tracer.wrap(core_analyzer, "recover_log", "core.recovery.recover")
    tracer.wrap(FlameGraph, "from_analysis", "core.flamegraph.fold")
    tracer.wrap(FlameGraph, "to_folded", "core.flamegraph.fold")

    # repro.explore: the workload's verify and the detectors' hooks
    tracer.wrap(RecordPathWorkload, "verify", "explore.verify")
    for cls in (LocksetRaceDetector, ContentionTracker):
        for attr in ("acquired", "released", "contended", "atomic",
                     "access"):
            if attr in vars(cls):
                tracer.wrap(cls, attr, "explore.detect")

    # repro.fleet.  Queue wait: a segment's bytes object goes into
    # AnalysisPool.submit and comes out as payload[0] of
    # analyze_segment on a worker thread.
    submitted = {}
    waits = tracer.samples.setdefault(QUEUE_WAIT, [])

    def make_submit(func):
        def submit(self, log_bytes, *args, **kwargs):
            submitted[id(log_bytes)] = time.perf_counter()
            return func(self, log_bytes, *args, **kwargs)
        return submit

    def make_analyze(func):
        def analyze_segment(payload):
            queued = submitted.pop(id(payload[0]), None)
            if queued is not None:
                waits.append(time.perf_counter() - queued)
            return func(payload)
        return analyze_segment

    tracer.patch(AnalysisPool, "submit", make_submit)
    tracer.patch(fleet_workers, "analyze_segment", make_analyze)
    tracer.wrap(fleet_workers, "analyze_segment", "fleet.workers.analyze")
    tracer.wrap(FleetClient, "publish", "fleet.protocol.publish_ack")
    tracer.wrap(WindowStore, "add", "fleet.windows.add")
    tracer.wrap(WindowStore, "merged", "fleet.windows.merged")
    tracer.wrap(WindowSummary, "compact", "fleet.windows.compact",
                after=lambda r, a, k: count("fleet.windows.compactions",
                                            1 if r else 0))
    tracer.wrap(fleet_http._FleetHandler, "route", "fleet.http.request")


class Step:
    """One traced step: counter deltas, self time and total span time
    per layer name."""

    def __init__(self, label, counts, self_s, total_s):
        self.label = label
        self.counts = counts
        self.self_s = self_s
        self.total_s = total_s


class FlowTrace:
    """One flow's traced steps, and their sums."""

    def __init__(self):
        self.spans = []
        self.steps = []
        self.wall = self.layer_self = 0.0

    def add(self, tracer, root, since, counts_before, label):
        """Account one step: `root` is its op span, ``tracer.spans
        [since:]`` the spans it opened, `counts_before` the counters
        before it, `label` what kind of step it was."""
        spans = tracer.closed(since)
        self.spans += spans
        counts = {
            name: value - counts_before.get(name, 0)
            for name, value in tracer.counts.items()
        }
        self_s, total_s = {}, {}
        for span in spans:
            if span.layer:
                total_s[span.name] = (total_s.get(span.name, 0.0)
                                      + span.end - span.start)
        for span, seconds in attribute(spans, root.start, root.end).items():
            if span.layer:
                self.layer_self += seconds
                self_s[span.name] = self_s.get(span.name, 0.0) + seconds
        self.wall += root.end - root.start
        self.steps.append(Step(label, counts, self_s, total_s))

    @property
    def unattributed(self):
        """Benchmark code and idle time: inside the flow's steps but
        outside every layer span."""
        return self.wall - self.layer_self

    def count(self, name):
        return sum(step.counts.get(name, 0) for step in self.steps)

    def self_time(self, *names):
        values = [step.self_s[n] for step in self.steps for n in names
                  if n in step.self_s]
        return sum(values) if values else math.nan

    def per_pass(self, value):
        """Sum over step labels of the mean of ``value(step)`` over the
        steps with that label: one figure pass's worth, even when the
        run ended part-way through a pass."""
        by_label = {}
        for step in self.steps:
            by_label.setdefault(step.label, []).append(value(step))
        return sum(statistics.fmean(v) for v in by_label.values())

    def per_pass_time(self, name, self_time=True):
        """:meth:`per_pass` of the layer's self (or total) time; NaN
        when no step recorded a span of it."""
        times = "self_s" if self_time else "total_s"
        if not any(name in getattr(step, times) for step in self.steps):
            return math.nan
        return self.per_pass(lambda st: getattr(st, times).get(name, 0.0))

    def durations(self, name):
        return [s.end - s.start for s in self.spans if s.name == name]

    def total(self, name):
        values = self.durations(name)
        return sum(values) if values else math.nan

    def mean(self, name):
        values = self.durations(name)
        return statistics.fmean(values) if values else math.nan

    def median(self, name):
        values = self.durations(name)
        return statistics.median(values) if values else math.nan


def figures_metrics(trace, result, tracer):
    """Per figure pass."""
    return {
        "machine.run_s": trace.per_pass_time("machine.run"),
        "machine.advance_calls":
            trace.per_pass(lambda st: st.counts.get("machine.advance_calls", 0)),
        "tee.env_calls":
            trace.per_pass(lambda st: st.counts.get("tee.env_calls", 0)),
        "perfsim.run_s": trace.per_pass_time("perfsim.run", False),
        "core.instrument.events":
            trace.per_pass(lambda st: st.counts.get("core.instrument.events", 0)),
    }


def explore_metrics(trace, result, tracer):
    """Per trial, except the findings total."""
    trials = result["trials"]
    return {
        "machine.picks": trace.count("machine.picks") / trials,
        "machine.spawns": trace.count("machine.spawns") / trials,
        "machine.run_s_per_trial": trace.self_time("machine.run") / trials,
        "explore.verify_s":
            trace.self_time("explore.verify", "explore.detect") / trials,
        "explore.findings": result["failed"],
    }


def live_metrics(trace, result, tracer):
    """Per cycle (``*_ms`` and ``analyze_s``: per call)."""
    cycles = result["passes"]
    metrics = {
        "core.recorder.stop_ms": trace.mean("core.recorder.stop") * 1e3,
        "core.recorder.persist_ms":
            trace.mean("core.recorder.persist") * 1e3,
        "core.analyzer.analyze_s": trace.mean("core.analyzer.analyze"),
        "core.reconstruct.run_shard_s":
            trace.total("core.reconstruct.run_shard") / cycles,
        "core.flamegraph.fold_s":
            trace.total("core.flamegraph.fold") / cycles,
    }
    for field in PIPELINE_FIELDS:
        metrics[f"core.analyzer.{field}"] = \
            trace.count(f"core.analyzer.{field}") / cycles
    return metrics


def fleet_metrics(trace, result, tracer):
    waits = tracer.samples.get(QUEUE_WAIT)
    totals = result["totals"]
    return {
        "fleet.workers.analyze_ms":
            trace.mean("fleet.workers.analyze") * 1e3,
        "fleet.workers.queue_wait_ms":
            statistics.median(waits) * 1e3 if waits else math.nan,
        "core.recovery.recover_s": trace.mean("core.recovery.recover"),
        "fleet.protocol.publish_ack_ms":
            trace.median("fleet.protocol.publish_ack") * 1e3,
        "fleet.windows.add_ms": trace.mean("fleet.windows.add") * 1e3,
        "fleet.windows.merged_ms":
            trace.mean("fleet.windows.merged") * 1e3,
        "fleet.windows.compactions":
            trace.count("fleet.windows.compactions"),
        "fleet.windows.cache_hits": totals["merged_cache_hits"],
        "fleet.windows.cache_folds": totals["merged_cache_folds"],
        "fleet.windows.cache_rebuilds": totals["merged_cache_rebuilds"],
        "fleet.http.request_ms":
            trace.median("fleet.http.request") * 1e3,
        "fleet.load.lateness_ms_p90": result["lateness_ms_p90"],
        "fleet.visible_ms_p50": result["visible_ms_p50"],
        "fleet.visible_ms_p90": result["visible_ms_p90"],
        "fleet.query_ms_p50": result["query_ms_p50"],
    }
