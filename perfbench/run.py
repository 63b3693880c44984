"""The repository's benchmark: one command, four flows, every metric.

Run from the repository root::

    python3 perfbench/run.py --workload narrow --seed 1 --seconds 45 --trace 0

Every run drives the system's four flows, their steps interleaved,
each for its share of ``--seconds`` (see :func:`drive`):

* ``figures`` -- regenerate Figures 4, 5 and 6 on the simulated
  machine (:mod:`flow_figures`);
* ``explore`` -- schedule-space exploration of the record path
  (:mod:`flow_explore`);
* ``live``    -- profile a generated Python program live
  (:mod:`flow_live`);
* ``fleet``   -- publish segments to the fleet service and query it
  (:mod:`flow_fleet`).

The workload picks the shape of the generated inputs: ``narrow``
draws live call trees and fleet segments from few distinct call
paths, ``wide`` from many, so that fleet window compaction runs.

``--trace 0`` prints the end-to-end metrics, every time in them scaled
by the host's speed beside its step (:mod:`host`), and the unscaled
values for people.  ``--trace 1`` runs every
flow as an untraced and a traced copy (the layer wrappers of
:mod:`layers`), and prints the per-layer metrics, the tracing overhead
and the reconciliation of layer self times against wall time; the span
dump is written to ``perfbench/_work/``.

The process pins itself to one CPU before doing any work.  Every
output line before the last is for people; the last line is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``.  The
exit code is 0 only when every check passed.
"""

import argparse
import gc
import json
import math
import os
import pathlib
import platform
import resource
import statistics
import subprocess
import sys
import time

import host

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / "_work"

WORKLOADS = ("narrow", "wide")
FLOWS = ("figures", "explore", "live", "fleet")
#: Share of ``--seconds`` each flow measures for.
SHARES = {"figures": 0.44, "explore": 0.08, "live": 0.24, "fleet": 0.24}
SETUP_PROBES = 3


def declared_metrics():
    """``(end_to_end, per_layer)``: metric name -> unit, in the order
    ``BENCHMARK.json`` declares them."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return tuple(
        {m["name"]: m["unit"] for m in spec[key]}
        for key in ("end_to_end", "per_layer")
    )


class Context:
    """What every flow needs to know about this run."""

    def __init__(self, args):
        self.seed = args.seed
        self.shape = args.workload
        self.tiny = args.size == "tiny"
        self.plant = args.plant
        self.root = ROOT
        self.workdir = WORK
        # Medians need two samples; the traced run's per-layer numbers
        # and the tiny self-test runs need one.
        self.min_passes = 1 if self.tiny or args.trace else 2


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("default", "tiny"),
                        default="default",
                        help="tiny: small inputs, for the self-tests")
    parser.add_argument("--plant", choices=("folded", "calls", "ticks"),
                        help="plant a wrong expectation (self-tests): "
                             "an edited Figure 6 folded line, a live "
                             "event count or a fleet tick total")
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def pin():
    """Pin this process to the highest-numbered CPU it may use;
    returns (cpu, CPUs allowed before).  The simulated machine and the
    GIL-bound live and fleet paths run one thread at a time anyway,
    and a pinned run does not pay for cross-CPU migrations that vary
    from run to run."""
    allowed = sorted(os.sched_getaffinity(0))
    cpu = allowed[-1]
    os.sched_setaffinity(0, {cpu})
    return cpu, allowed


#: glibc ``mallopt`` parameters and the values :func:`steady_malloc`
#: fixes them at.
M_TRIM_THRESHOLD, M_MMAP_THRESHOLD = -1, -3
MMAP_THRESHOLD = 32 << 20
TRIM_THRESHOLD = 256 << 20


def steady_malloc():
    """Fix glibc's allocator thresholds; returns whether it could.

    By default glibc raises its mmap threshold as large blocks are
    freed and gives free heap memory back to the kernel, so whether a
    multi-megabyte numpy array reuses heap pages or takes ~3 000 fresh
    page faults depends on the allocation history of the whole run.
    Runs of the same code then fall into two modes: live analysis took
    25 or 33 ms per cycle, for ~40 or ~3 500 page faults.  With the
    thresholds fixed, blocks under 32 MiB come from the heap and freed
    heap memory stays with the process, in every run."""
    import ctypes
    import ctypes.util

    try:
        libc = ctypes.CDLL(ctypes.util.find_library("c") or "libc.so.6")
        mallopt = libc.mallopt
    except (OSError, AttributeError):
        return False
    return bool(mallopt(M_MMAP_THRESHOLD, MMAP_THRESHOLD)
                and mallopt(M_TRIM_THRESHOLD, TRIM_THRESHOLD))


def source_digest():
    """A digest of ``src/`` (the checkout the benchmark runs in need
    not be a git repository)."""
    import hashlib

    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def git_rev():
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    if out.returncode != 0:
        return None
    return out.stdout.strip() or None


def fingerprint(cpu, allowed):
    import numpy

    return {
        "reference_ms_before": host.reference_ms(),
        "pinned_cpus": sorted(os.sched_getaffinity(0)),
        "pinned_cpu": cpu,
        "allowed_cpus": allowed,
        "nproc": os.cpu_count(),
        "loadavg_before": os.getloadavg(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_rev": git_rev(),
        "src_digest": source_digest(),
    }


# ----------------------------------------------------------------------
# set-up time: fresh interpreters, so import-time work shows

def setup_probe(args):
    """Everything a flow needs before its first measured operation:
    imports, the live program compiled, the fleet service started and
    a producer session opened and closed.  Prints seconds taken."""
    start = time.perf_counter()
    import repro.api  # noqa: F401
    import repro.explore  # noqa: F401
    import repro.kvstore.profiled  # noqa: F401
    import repro.phoenix  # noqa: F401
    import repro.spdk  # noqa: F401
    from repro.api import FleetClient, TEEPerf

    import flow_figures
    import flow_fleet
    import gen

    flow_figures.fig4_bench()
    program = gen.live_program(args.seed, args.workload, 1)
    perf = TEEPerf.live(capacity=1024)
    perf.compile_module(program.load("perfbench_setup"))
    perf.uninstrument()
    service = flow_fleet.Service().start()
    try:
        client = FleetClient(service.listener.address)
        client.open("setup", "{}")
        client.bye()
    finally:
        service.stop()
    print(time.perf_counter() - start)


def measure_setup(args, probes):
    """Median of `probes` set-up times, unscaled: a fresh process
    spends its set-up on exec, file reads and page faults, which the
    host reference routine does not follow (scaled by it, set-up time
    spread more from run to run, not less).  Also returns the times."""
    times = []
    for _ in range(probes):
        out = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--setup-probe",
             "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", "1"],
            cwd=ROOT, capture_output=True, text=True, timeout=120,
        )
        if out.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {out.stderr[-2000:]}")
        times.append(float(out.stdout.strip().splitlines()[-1]))
    return statistics.median(times), times


# ----------------------------------------------------------------------

def make_flows(ctx):
    import flow_explore
    import flow_figures
    import flow_fleet
    import flow_live

    return [flow_figures.Figures(ctx), flow_explore.Explore(ctx),
            flow_live.Live(ctx), flow_fleet.Fleet(ctx)]


def drive(ctx, seconds, tracer=None):
    """Interleave the flows' steps until every flow has had its share
    of `seconds` and its minimum sample count.  The next step always
    goes to the flow furthest behind its share, so each flow's samples
    spread over the whole run.  Every untraced step is bracketed by
    :func:`host.reference_ms`, which gives the step's host factor.

    With a `tracer`, every flow runs as two copies on half its share
    each: one untraced, one with the wrappers of :mod:`layers`
    installed around its own steps only.  Their steps alternate, so the
    traced-minus-untraced overhead compares the same stretch of host
    time.  Returns ``{flow: (scaled result, unscaled result, host
    factors)}`` for the untraced copies and ``{flow: (result,
    FlowTrace)}`` for the traced ones, which are unscaled."""
    import layers

    copies = [(flow, False) for flow in make_flows(ctx)]
    if tracer is not None:
        copies += [(flow, True) for flow in make_flows(ctx)]
    scale = seconds * len(FLOWS) / len(copies)
    share = [SHARES[flow.name] * scale for flow, _ in copies]
    spent = [0.0] * len(copies)
    traces = [layers.FlowTrace() for _ in copies]
    scales = [[] for _ in copies]
    try:
        while True:
            behind = [
                i for i, (flow, _) in enumerate(copies)
                if not flow.satisfied() or spent[i] < share[i]
            ]
            if not behind:
                break
            i = min(behind, key=lambda i: spent[i] / share[i])
            flow, traced = copies[i]
            # Every step starts from a collected heap: garbage the last
            # step left (figure runs hold 48 MB logs) is neither paid
            # for by the next step nor stacked onto its peak memory.
            gc.collect()
            if not traced:
                before = host.reference_ms()
                start = time.perf_counter()
                flow.step()
                spent[i] += time.perf_counter() - start
                scales[i].append(host.factor(before, host.reference_ms()))
                continue
            since, counts = len(tracer.spans), dict(tracer.counts)
            layers.install(tracer)
            try:
                with tracer.op(f"flow.{flow.name}") as root:
                    flow.step()
            finally:
                tracer.restore()
            spent[i] += root.end - root.start
            traces[i].add(tracer, root, since, counts, flow.label)
    finally:
        for flow, _ in copies:
            flow.close()
    plain = {flow.name: (flow.result(scales[i]), flow.result(), scales[i])
             for i, (flow, traced) in enumerate(copies) if not traced}
    traced_runs = {flow.name: (flow.result(), traces[i])
                   for i, (flow, traced) in enumerate(copies) if traced}
    return plain, traced_runs


def run_flows(ctx, seconds, traced):
    """The untraced flows' results and, for a traced run, the tracer
    and the traced flows' results and traces."""
    if not traced:
        return drive(ctx, seconds)[0], None
    from spans import Tracer

    tracer = Tracer()
    plain, traced_runs = drive(ctx, seconds, tracer)
    return plain, (tracer, traced_runs)


def layer_metrics(ctx, results, traced):
    import flow_live
    import layers

    tracer, runs = traced
    per_flow = {
        "figures": layers.figures_metrics,
        "explore": layers.explore_metrics,
        "live": layers.live_metrics,
        "fleet": layers.fleet_metrics,
    }
    metrics = {}
    unattributed = 0.0
    # An identity: unattributed time is defined as wall minus layer
    # self time.  What the report shows is how much of each flow's
    # wall time the wrapped layers account for.
    lines = ["reconciliation (traced run): wall = layer self time + "
             "unattributed"]
    for name in FLOWS:
        result, trace = runs[name]
        metrics.update(per_flow[name](trace, result, tracer))
        unattributed += trace.unattributed
        lines.append(
            f"  {name:8s} wall {trace.wall:9.4f} s = layers "
            f"{trace.layer_self:9.4f} s "
            f"({trace.layer_self / trace.wall:6.1%}) + unattributed "
            f"{trace.unattributed:8.4f} s"
        )
        overhead = (result["headline"] / results[name]["headline"] - 1) * 100
        metrics[f"trace.{name}_overhead_pct"] = overhead
        lines.append(
            f"  tracing overhead {name:8s} {overhead:+6.1f}% (traced "
            f"{result['headline']:.6g} vs untraced "
            f"{results[name]['headline']:.6g}, lower is better)"
        )
    metrics["unattributed_s"] = unattributed

    levels = flow_live.ladder(ctx)
    previous = 0.0
    for level in ("base", "counter", "wrapper", "inactive", "armed"):
        metrics[f"live.{level}_ns_per_call"] = levels[level] - previous
        previous = levels[level]
    gap = (levels["armed"] / levels["recorded"] - 1) * 100
    metrics["live.ladder_gap_pct"] = gap
    lines.append(
        f"  live ladder: base + increments = {levels['armed']:.0f} ns/call"
        f" vs record() in the same rounds {levels['recorded']:.0f} "
        f"ns/call (2 x {levels['recorded'] / 2:.0f} ns/event; the run's "
        f"record_ns_per_event: "
        f"{results['live']['metrics']['record_ns_per_event']:.0f}): "
        f"gap {gap:+.1f}% "
        f"[{'within 10%' if abs(gap) <= 10 else 'GAP over 10%'}]"
    )
    return metrics, lines


def host_report(plain):
    """Lines on the host factors each flow's steps were scaled by, and
    the flow's metrics unscaled."""
    lines = ["host factors (reference routine time / "
             "nominal; end-to-end metrics are scaled by them):"]
    for name, (_, unscaled, scales) in plain.items():
        values = " ".join(f"{k}={v:.6g}"
                          for k, v in unscaled["metrics"].items())
        lines.append(
            f"  {name:8s} median {statistics.median(scales):.3f} over "
            f"{len(scales)} steps ({min(scales):.3f}-{max(scales):.3f});"
            f" unscaled {values}"
        )
    return lines


def dump_spans(args, tracer):
    path = WORK / f"spans-{args.workload}-{args.seed}.json"
    path.write_text(json.dumps({
        "spans": tracer.to_records(),
        "counts": tracer.counts,
    }))
    return path


def main(argv=None):
    args = parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no src/repro under {ROOT}: nothing to benchmark",
              file=sys.stderr)
        return 2
    cpu, allowed = pin()
    malloc_fixed = steady_malloc()
    sys.path.insert(0, str(ROOT / "src"))
    WORK.mkdir(exist_ok=True)
    os.environ["TMPDIR"] = str(WORK)
    if args.setup_probe:
        setup_probe(args)
        return 0

    env = fingerprint(cpu, allowed)
    env["malloc_thresholds_fixed"] = malloc_fixed
    if env["loadavg_before"][0] > env["nproc"]:
        print(f"warning: load average {env['loadavg_before'][0]:.2f} "
              f"exceeds nproc {env['nproc']}", file=sys.stderr)
    ctx = Context(args)
    started = time.perf_counter()
    metrics = {}
    lines = []
    errors = []
    if not args.trace:
        probes = 1 if ctx.tiny else SETUP_PROBES
        setup_s, setup_times = measure_setup(args, probes)
        metrics["setup_s"] = setup_s
        lines.append("setup probes (s): "
                     + " ".join(f"{t:.3f}" for t in setup_times))
    plain, traced = run_flows(ctx, args.seconds, bool(args.trace))
    results = {name: unscaled for name, (_, unscaled, _) in plain.items()}
    runs = dict(results)
    if args.trace:
        layer, recon = layer_metrics(ctx, results, traced)
        metrics.update(layer)
        lines += recon
        lines.append(f"span dump: {dump_spans(args, traced[0])}")
        runs.update({f"{k} (traced)": r for k, (r, _) in traced[1].items()})
        units = declared_metrics()[1]
    else:
        for scaled, _, _ in plain.values():
            metrics.update(scaled["metrics"])
        lines += host_report(plain)
        for name in ("visible_ms_p50", "visible_ms_p90", "query_ms_p50"):
            lines.append(f"fleet {name} (reported, not gated): "
                         f"{plain['fleet'][0][name]:.4g} ms")
        metrics["peak_rss_mb"] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        )
        units = declared_metrics()[0]
    attempted = sum(r["attempted"] for r in runs.values())
    failed = sum(r["failed"] for r in runs.values())
    errors += [e for r in runs.values() for e in r["errors"]]
    env["loadavg_after"] = os.getloadavg()
    env["reference_ms_after"] = host.reference_ms()
    env["run_s"] = time.perf_counter() - started
    if env["loadavg_after"][0] > env["nproc"]:
        print(f"warning: load average {env['loadavg_after'][0]:.2f} "
              f"exceeds nproc {env['nproc']}", file=sys.stderr)

    missing = sorted(
        name for name in units
        if not math.isfinite(metrics.get(name, math.nan))
    )
    if missing:
        errors.append(f"metrics not measured: {missing}")
    for name, result in runs.items():
        lines.append(f"{name}: {result['attempted']} operations, "
                     f"{result['failed']} failed, {result['passes']:g} "
                     f"steps or passes")
    for error in errors[:20]:
        lines.append(f"FAILED: {error}")
    for name in units:
        if name in metrics:
            lines.append(f"{name:32s} {metrics[name]:>16.6g} {units[name]}")
    correct = not errors and failed == 0
    print("\n".join(lines))
    print("env " + json.dumps(env))
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": metrics[name], "unit": units[name]}
            for name in units if name in metrics
        },
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
