"""Flow 1: regenerate the paper's Figures 4, 5 and 6 on the simulated
machine.

One pass runs eight figure cases: the five Phoenix workloads of
Figure 4 (each under ``run_teeperf`` and ``run_perf``, seeded),
db_bench for Figure 5, and SPDK naive and optimised for Figure 6.
Each step runs one case.  ``figures_s`` is the sum over cases of each
case's median time, each time scaled by its step's host factor
(:mod:`host`): the time one pass takes, with noise taken out case by
case.  Figure 4's ratios do not depend on the dataset
seed, so one seed per pass regenerates the same figure as the
default three.

Checks: Figure 4's ratios come from ``ratio_for`` of
``benchmarks/bench_fig4_phoenix.py`` and go through that file's own
shape assertions at the end of every pass; Figures 5 and 6 must fold
to stacks byte-identical to the committed
``benchmarks/out/fig5_rocksdb.folded`` and ``fig6_spdk_*.folded``,
which fixes every share those figures show.
"""

import functools
import importlib.util
import pathlib
import statistics
import time
import types

from host import scale_of

FIG5_PARAMS = dict(
    num_keys=500, ops_per_thread=400, threads=4,
    generator_bytes=256 * 1024,
)
FIG6_OPS = 600
FIG4_BENCH = (pathlib.Path(__file__).resolve().parent.parent
              / "benchmarks" / "bench_fig4_phoenix.py")

EXPECTED_FOLDED = {
    "fig5": "fig5_rocksdb.folded",
    "fig6.naive": "fig6_spdk_unoptimized.folded",
    "fig6.optimized": "fig6_spdk_optimized.folded",
}


def _cases(tiny):
    from repro.phoenix import FIGURE4_WORKLOADS

    fig4 = [
        (f"fig4.{cls.NAME}", ("fig4", cls)) for cls in FIGURE4_WORKLOADS
    ]
    if tiny:
        fig4 = [c for c in fig4 if c[0] == "fig4.linear_regression"]
        return fig4 + [("fig6.naive", ("fig6", False)),
                       ("fig6.optimized", ("fig6", True))]
    return fig4 + [
        ("fig5", ("fig5", None)),
        ("fig6.naive", ("fig6", False)),
        ("fig6.optimized", ("fig6", True)),
    ]


@functools.cache
def fig4_bench():
    """``benchmarks/bench_fig4_phoenix.py``, loaded as a module."""
    spec = importlib.util.spec_from_file_location("bench_fig4_phoenix",
                                                  FIG4_BENCH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _fig4(cls, seed):
    return fig4_bench().ratio_for(cls, seed=seed), []


def _fig4_shape(ratios):
    """Run ``test_figure4_table``'s shape assertions on one pass's
    ratios, in place of the repeated runs it would collect."""
    figure4 = {name: types.SimpleNamespace(geomean=ratio)
               for name, ratio in ratios.items()}
    stand_in = types.SimpleNamespace(
        pedantic=lambda func, rounds, iterations: figure4)
    try:
        fig4_bench().test_figure4_table(lambda name, text: None, stand_in)
    except AssertionError as exc:
        shown = ", ".join(f"{k}={v:.3f}x" for k, v in ratios.items())
        return [f"fig4: shape assertion failed ({shown}): {exc}"]
    return []


def _fig5(expected):
    from repro.api import FlameGraph
    from repro.kvstore.profiled import profile_db_bench
    from repro.tee import SGX_V1

    perf, _, analysis = profile_db_bench(platform=SGX_V1, **FIG5_PARAMS)
    perf.uninstrument()
    folded = FlameGraph.from_analysis(analysis).to_folded()
    return None, _compare_folded("fig5", folded, expected)


def _fig6(optimized, expected):
    from repro.api import FlameGraph
    from repro.spdk import profile_spdk_perf

    perf, _, _, analysis = profile_spdk_perf(optimized=optimized,
                                             ops=FIG6_OPS)
    perf.uninstrument()
    folded = FlameGraph.from_analysis(analysis).to_folded()
    name = "fig6.optimized" if optimized else "fig6.naive"
    return None, _compare_folded(name, folded, expected)


def _compare_folded(name, folded, expected):
    want = expected[name]
    if folded == want:
        return []
    got_lines, want_lines = folded.splitlines(), want.splitlines()
    for i, (a, b) in enumerate(zip(got_lines, want_lines)):
        if a != b:
            return [f"{name}: folded line {i + 1} differs: {a!r} != {b!r}"]
    return [f"{name}: folded has {len(got_lines)} lines, "
            f"expected {len(want_lines)}"]


def load_expected(root, plant=False):
    """The committed folded stacks.  ``plant`` edits one line, which
    the byte-identity check must then catch."""
    expected = {
        name: (root / "benchmarks" / "out" / filename).read_text()
        for name, filename in EXPECTED_FOLDED.items()
    }
    if plant:
        lines = expected["fig6.naive"].splitlines(keepends=True)
        stack, ticks = lines[0].rsplit(" ", 1)
        lines[0] = f"{stack} {int(ticks) + 1}\n"
        expected["fig6.naive"] = "".join(lines)
    return expected


class Figures:
    """Steps through the figure cases in order, pass after pass."""

    name = label = "figures"

    def __init__(self, ctx):
        self.ctx = ctx
        fig4_bench()  # loaded before the first measured case
        self.expected = load_expected(ctx.root, plant=ctx.plant == "folded")
        self.cases = _cases(ctx.tiny)
        self.times = {name: [] for name, _ in self.cases}  # (s, step)
        self.steps = 0
        self.cursor = 0
        self.passes = 0
        self.ratios = {}
        self.attempted = self.failed = 0
        self.errors = []

    def satisfied(self):
        return self.passes >= self.ctx.min_passes

    def step(self):
        name, (kind, arg) = self.cases[self.cursor]
        self.label = name
        seed = self.ctx.seed * 1_000 + self.passes + 1
        self.attempted += 1
        start = time.perf_counter()
        try:
            result, errors = _run_case(kind, arg, seed, self.expected)
        except Exception as exc:  # noqa: BLE001 - counted, reported
            result, errors = None, [f"{name}: {type(exc).__name__}: {exc}"]
        self.times[name].append((time.perf_counter() - start, self.steps))
        self.steps += 1
        if kind == "fig4" and result is not None:
            self.ratios[arg.NAME] = result
        self._fail(errors)
        self.cursor += 1
        if self.cursor == len(self.cases):
            self._end_pass()

    def _end_pass(self):
        from repro.phoenix import FIGURE4_WORKLOADS

        if len(self.ratios) == len(FIGURE4_WORKLOADS):
            self.attempted += 1
            self._fail(_fig4_shape(self.ratios))
        self.ratios = {}
        self.cursor = 0
        self.passes += 1

    def _fail(self, errors):
        if errors:
            self.failed += 1
            self.errors += errors

    def result(self, scales=None):
        figures_s = sum(
            statistics.median(t / scale_of(scales, k) for t, k in samples)
            for samples in self.times.values() if samples
        )
        return {
            "metrics": {"figures_s": figures_s},
            "attempted": self.attempted,
            "failed": self.failed,
            "errors": self.errors,
            "passes": self.passes + self.cursor / len(self.cases),
            "headline": figures_s,  # lower is better
        }

    def close(self):
        pass


def _run_case(kind, arg, seed, expected):
    if kind == "fig4":
        return _fig4(arg, seed)
    if kind == "fig5":
        return _fig5(expected)
    return _fig6(arg, expected)
