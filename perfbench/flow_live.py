"""Flow 3: live profiling of real Python code.

One cycle profiles a generated call-dense program (two worker
threads) with ``TEEPerf.live``: compile, record, persist, analyze,
fold.  ``record_ns_per_event`` is the time from ``record()`` to the
end of the program divided by the events committed, both summed over
all cycles; ``to_flamegraph_s`` runs from there (recorder stop and
flush) through persist, analyze and fold to the folded text, median
over cycles.  Each cycle's times are scaled by its step's host factor
(:mod:`host`).

The recorded time is a sum, not a median over cycles, because one
cycle's cost depends on how often the counter thread wins the GIL from
the two workers on the one pinned CPU: per-cycle costs fall into a few
modes up to 2x apart, and a median jumps between them from run to run
while the total does not.

Checks per cycle: events committed equal twice the calls the generator
made, none dropped, and per-method call counts in the analysis equal
the generator's.

The traced run also measures the MooBench overhead ladder on the same
program: uninstrumented, with the counter thread running, compiled
but unarmed, armed with the recorder paused, and fully recording.
"""

import statistics
import sys
import time

from gen import live_program
from host import scale_of

ROOTS_PER_WORKER = 750  # 2 * 750 * 40 + 3 = 60003 calls per cycle
TINY_ROOTS = 40


def _roots(ctx):
    return TINY_ROOTS if ctx.tiny else ROOTS_PER_WORKER


def cycle(ctx, program, index):
    """One compile/record/persist/analyze/fold cycle; returns
    ``(record_s, events, to_flamegraph_s, errors)``."""
    from repro.api import FlameGraph, TEEPerf

    module = program.load(f"perfbench_live_{index}")
    perf = TEEPerf.live(capacity=2 * program.total_calls + 64)
    perf.compile_module(module)
    marks = {}

    def entry():
        module.main()
        marks["done"] = time.perf_counter()

    start = time.perf_counter()
    perf.record(entry)
    # A new file every cycle, removed once analysed: rewriting an old
    # one makes ext4 start writing it out at close (its replace-via-
    # truncate rule), and the next rewrite then waits for the disk.
    path = ctx.workdir / f"live-{index}.teeperf"
    try:
        perf.persist(str(path))
        analysis = perf.analyze(log=str(path))
        folded = FlameGraph.from_analysis(analysis).to_folded()
        end = time.perf_counter()
    finally:
        path.unlink(missing_ok=True)
    perf.uninstrument()

    events = perf.events_recorded()
    errors = []
    expected_events = 2 * program.total_calls
    if ctx.plant == "calls":
        expected_events += 2
    if events != expected_events:
        errors.append(f"live: {events} events committed, expected "
                      f"{expected_events}")
    dropped = perf.recorder.events_dropped()
    if dropped:
        errors.append(f"live: {dropped} events dropped")
    calls = {m.method: m.calls for m in analysis.methods()}
    if calls != program.expected_calls:
        wrong = sorted(
            name for name in set(calls) | set(program.expected_calls)
            if calls.get(name) != program.expected_calls.get(name)
        )
        errors.append(f"live: call counts differ for {wrong[:5]}")
    if not folded:
        errors.append("live: empty folded output")
    return marks["done"] - start, events, end - marks["done"], errors


class Live:
    """Each step profiles one freshly generated program."""

    name = label = "live"

    def __init__(self, ctx):
        self.ctx = ctx
        self.cycles = []  # (record s, events, to_flamegraph s, step)
        self.attempted = self.failed = 0
        self.errors = []

    def satisfied(self):
        return self.attempted >= self.ctx.min_passes

    def step(self):
        program = live_program(
            self.ctx.seed * 1_000 + self.attempted, self.ctx.shape,
            _roots(self.ctx),
        )
        self.attempted += 1
        try:
            record_s, events, to_graph, errors = cycle(self.ctx, program,
                                                       self.attempted)
        except Exception as exc:  # noqa: BLE001 - counted, reported
            self.failed += 1
            self.errors.append(f"live: {type(exc).__name__}: {exc}")
            return
        self.cycles.append((record_s, events, to_graph, self.attempted - 1))
        if errors:
            self.failed += 1
            self.errors += errors

    def result(self, scales=None):
        record_s = sum(r / scale_of(scales, k) for r, _, _, k in self.cycles)
        events = sum(e for _, e, _, _ in self.cycles)
        to_graph = [t / scale_of(scales, k) for _, _, t, k in self.cycles]
        record_ns = record_s / events * 1e9 if events else float("nan")
        return {
            "metrics": {
                "record_ns_per_event": record_ns,
                "to_flamegraph_s": (statistics.median(to_graph)
                                    if to_graph else float("nan")),
            },
            "attempted": self.attempted,
            "failed": self.failed,
            "errors": self.errors,
            "passes": self.attempted,
            "headline": record_ns,
        }

    def close(self):
        pass


# ----------------------------------------------------------------------
# MooBench ladder (traced run only)

def _time_main(module, calls):
    start = time.perf_counter()
    module.main()
    return (time.perf_counter() - start) / calls * 1e9


def _time_record(program, calls):
    """ns per call of ``TEEPerf.live().record(main)``, timed as a live
    cycle times it: from ``record()`` to the end of the program."""
    from repro.api import TEEPerf

    module = program.load("perfbench_ladder_record")
    perf = TEEPerf.live(capacity=2 * calls + 64)
    perf.compile_module(module)
    marks = {}

    def entry():
        module.main()
        marks["done"] = time.perf_counter()

    start = time.perf_counter()
    try:
        perf.record(entry)
    finally:
        perf.uninstrument()
    return (marks["done"] - start) / calls * 1e9


def ladder(ctx, repeats=5):
    """Per-call cost at each instrumentation level, and of a whole
    ``record()`` for comparison, means over `repeats` interleaved
    rounds (means for the reason ``record_ns_per_event`` is a total).
    Returns the level costs (ns/call)."""
    from repro.api import LiveRecorder
    from repro.core.counter import ThreadCounter
    from repro.core.instrument import Instrumenter

    program = live_program(ctx.seed * 1_000 + 999, ctx.shape, _roots(ctx))
    calls = program.total_calls
    plain = program.load("perfbench_ladder_plain")
    armed_module = program.load("perfbench_ladder_inst")
    instrumenter = Instrumenter("ladder")
    instrumenter.instrument_module(armed_module)
    compiled = instrumenter.finish()
    levels = {k: [] for k in ("base", "counter", "wrapper", "inactive",
                              "armed", "recorded")}
    try:
        for _ in range(repeats):
            levels["base"].append(_time_main(plain, calls))
            counter = ThreadCounter()
            saved = sys.getswitchinterval()
            sys.setswitchinterval(LiveRecorder.SWITCH_INTERVAL)
            counter.start()
            try:
                levels["counter"].append(_time_main(plain, calls))
                levels["wrapper"].append(_time_main(armed_module, calls))
            finally:
                counter.stop()
                sys.setswitchinterval(saved)
            for level in ("inactive", "armed"):
                # Arming (log allocation, counter start) is timed with
                # the run, as record() is in the cycle; it lands in the
                # inactive increment, leaving armed - inactive to the
                # events themselves.
                start = time.perf_counter()
                recorder = LiveRecorder(compiled, capacity=2 * calls + 64)
                recorder.start()
                if level == "inactive":
                    recorder.pause()
                try:
                    armed_module.main()
                    levels[level].append(
                        (time.perf_counter() - start) / calls * 1e9
                    )
                finally:
                    recorder.stop()
            levels["recorded"].append(_time_record(program, calls))
    finally:
        compiled.restore_all()
    return {k: statistics.fmean(v) for k, v in levels.items()}
