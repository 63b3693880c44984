"""Flow 2: schedule-space exploration of the record path.

One sweep is an :class:`~repro.explore.Explorer` random pass over the
``record-path`` workload under ``policy="all"`` (every sweep policy in
turn), then a systematic (DPOR-lite) pass.  Every trial goes through
the deadlock, lockset-race and byte-identity/recovery oracles.
``schedules_per_s`` is verified trials over the time of all sweeps,
each sweep's time scaled by its host factor (:mod:`host`).  A trial
with a finding or an exception counts as failed.
"""

import time

from host import scale_of

RANDOM_TRIALS = 40
SYSTEMATIC_TRIALS = 10


def _explorer_class():
    from repro.explore import Explorer

    class CountingExplorer(Explorer):
        """Counts every schedule the explorer runs, including the
        systematic pass's duplicates, which cost as much as any."""

        trials_run = 0

        def run_trial(self, *args, **kwargs):
            self.trials_run += 1
            return super().run_trial(*args, **kwargs)

    return CountingExplorer


def sweep(seed, tiny=False):
    """One random + systematic sweep; returns ``(trials, failed,
    errors)``."""
    from repro.explore import ExploreOptions
    from repro.explore.workloads import workload_by_name

    explorer_cls = _explorer_class()
    factory = workload_by_name("record-path", quick=tiny)
    trials = failed = 0
    errors = []
    for mode, count in (("random", RANDOM_TRIALS),
                        ("systematic", SYSTEMATIC_TRIALS)):
        if tiny:
            count = max(2, count // 10)
        options = ExploreOptions(
            trials=count, seed=seed, policy="all", mode=mode,
            minimize=False,
        )
        explorer = explorer_cls(factory, options)
        report = explorer.run()
        trials += explorer.trials_run
        for run in report.failures:
            failed += 1
            errors += [f"explore {mode} trial {run.trial} seed {run.seed} "
                       f"{run.policy}: {f.detector}: {f.message}"
                       for f in run.findings]
    return trials, failed, errors


class Explore:
    """Each step runs one sweep."""

    name = label = "explore"

    def __init__(self, ctx):
        self.ctx = ctx
        self.sweep_runs = []  # (verified, seconds) per sweep
        self.sweeps = self.attempted = self.failed = 0
        self.errors = []

    def satisfied(self):
        return self.sweeps >= self.ctx.min_passes

    def step(self):
        start = time.perf_counter()
        trials, failed, errors = sweep(
            self.ctx.seed * 1_000 + self.sweeps, self.ctx.tiny
        )
        wall = time.perf_counter() - start
        self.sweeps += 1
        self.attempted += trials
        self.failed += failed
        self.errors += errors
        self.sweep_runs.append((trials - failed, wall))

    def result(self, scales=None):
        rate = sum(v for v, _ in self.sweep_runs) / sum(
            wall / scale_of(scales, k)
            for k, (_, wall) in enumerate(self.sweep_runs)
        )
        return {
            "metrics": {"schedules_per_s": rate},
            "attempted": self.attempted,
            "failed": self.failed,
            "errors": self.errors,
            "passes": self.sweeps,
            "trials": self.attempted,
            "headline": 1.0 / rate,
        }

    def close(self):
        pass
