"""Seeded input generators.  The program under test only ever sees
what these produce: a Python module to profile live, and packed log
images (plus their symbol table) to publish to the fleet.

Shapes are fixed per workload and only the choices inside them come
from the seed, so every seed gives the same amount of work: a call
tree always has the same number of calls per root call, a segment
always has the same number of entries.  That keeps run-to-run spread
a property of the program, not of the draw.
"""

import random
import types

import numpy as np

__all__ = ["LiveProgram", "SegmentFeed", "live_program", "segment_feed"]

#: Per-workload generator shapes.  ``narrow`` draws from few distinct
#: call paths, ``wide`` from many: its second fleet tenant's 300 stacks
#: of depth 5 make about 1500 distinct folded paths, more than a window
#: may hold, so window compaction runs.
SHAPES = {
    "narrow": {
        "live_levels": (1, 2, 2, 3),
        "fleet_functions": 24,
        "fleet_pool": (40, 40),
    },
    "wide": {
        "live_levels": (1, 3, 12, 48),
        "fleet_functions": 400,
        "fleet_pool": (40, 300),
    },
}

LIVE_FANOUT = 3
FLEET_DEPTH = 5


class LiveProgram:
    """A generated call-dense module and its exact call counts."""

    def __init__(self, source, expected_calls):
        self.source = source
        self.expected_calls = expected_calls  # called function -> calls

    @property
    def total_calls(self):
        return sum(self.expected_calls.values())

    def load(self, name):
        """A fresh module object holding the program's functions."""
        module = types.ModuleType(name)
        exec(compile(self.source, f"<{name}>", "exec"), module.__dict__)
        return module


def live_program(seed, shape, roots_per_worker, workers=2):
    """A program whose ``main()`` runs `workers` threads, each calling
    the root function `roots_per_worker` times.

    Functions are laid out in levels; every function of one level
    calls :data:`LIVE_FANOUT` functions of the next (chosen by the
    seed), and last-level functions do one addition.  So one root call
    is always ``1 + 3 + 9 + 27`` calls, whatever the seed.
    """
    rng = random.Random(seed)
    levels = SHAPES[shape]["live_levels"]
    names = [[f"f{depth}_{i}" for i in range(width)]
             for depth, width in enumerate(levels)]
    children = {}
    for depth, level in enumerate(names[:-1]):
        below = names[depth + 1]
        for fn in level:
            children[fn] = [rng.choice(below) for _ in range(LIVE_FANOUT)]
    lines = ["import threading", ""]
    for depth, level in enumerate(names):
        for fn in level:
            lines.append(f"def {fn}(a):")
            if fn in children:
                lines.extend(f"    {c}(a)" for c in children[fn])
                lines.append("    return a")
            else:
                lines.append("    return a + 1")
            lines.append("")
    root = names[0][0]
    lines += [
        "def worker(n):",
        "    for i in range(n):",
        f"        {root}(i)",
        "",
        "def main():",
        "    threads = [",
        f"        threading.Thread(target=worker, args=({roots_per_worker},))",
        f"        for _ in range({workers})",
        "    ]",
        "    for t in threads:",
        "        t.start()",
        "    for t in threads:",
        "        t.join()",
        "",
    ]
    expected = {fn: 0 for level in names for fn in level}
    expected[root] = roots_per_worker * workers
    for level in names[:-1]:
        for fn in level:
            for child in children[fn]:
                expected[child] += expected[fn]
    expected["worker"] = workers
    expected["main"] = 1
    called = {fn: n for fn, n in expected.items() if n}
    return LiveProgram("\n".join(lines), called)


class SegmentFeed:
    """Packed log images for one tenant, and what analysing them must
    give back."""

    def __init__(self, tenant, symtab_json, payloads, entries, ticks):
        self.tenant = tenant
        self.symtab_json = symtab_json
        self.payloads = payloads
        self.entries = entries  # per segment
        self.ticks = ticks  # per segment, all distinct


def segment_feed(seed, shape, tenant_index, segments, stacks_per_thread,
                 threads=2):
    """`segments` log images for tenant `tenant_index` of `shape`.

    Each segment holds, per thread, `stacks_per_thread` call stacks of
    depth :data:`FLEET_DEPTH` (CALL down, RET up, one counter tick per
    event), drawn from a seeded pool of the tenant's stacks.
    Segment ``i`` has one extra idle gap of ``i`` ticks inside its
    first leaf, so every segment's tick total is distinct and a
    segment can be recognised by it.
    """
    from repro.api import SharedLog
    from repro.core.log import KIND_CALL, KIND_RET
    from repro.symbols import BinaryImage

    params = SHAPES[shape]
    rng = np.random.default_rng([seed, tenant_index])
    image = BinaryImage(f"fleet-{shape}-{tenant_index}")
    for i in range(params["fleet_functions"]):
        image.add_function(f"svc::Handler{i:03d}()", size=64)
    addrs = np.array([sym.addr for sym in image.symtab], dtype=np.uint64)
    pool_size = params["fleet_pool"][tenant_index]
    pool = rng.integers(0, len(addrs), size=(pool_size, FLEET_DEPTH))
    depth = FLEET_DEPTH
    per_stack = 2 * depth
    down = np.arange(depth)
    order = np.concatenate([down, down[::-1]])
    kinds_one = np.array([KIND_CALL] * depth + [KIND_RET] * depth,
                         dtype=np.uint64)
    payloads, entries, ticks = [], [], []
    for seg in range(segments):
        kind_cols, counter_cols, addr_cols, tid_cols = [], [], [], []
        for tid in range(1, threads + 1):
            picks = pool[rng.integers(0, len(pool), size=stacks_per_thread)]
            stack_addrs = addrs[picks][:, order].reshape(-1)
            n = stack_addrs.size
            counters = np.arange(1, n + 1, dtype=np.uint64)
            # consecutive stacks are separated by one idle tick
            counters += np.repeat(
                np.arange(stacks_per_thread, dtype=np.uint64), per_stack
            )
            if tid == 1 and seg:
                counters[depth:] += np.uint64(seg)
            kind_cols.append(np.tile(kinds_one, stacks_per_thread))
            counter_cols.append(counters)
            addr_cols.append(stack_addrs)
            tid_cols.append(np.full(n, tid, dtype=np.uint64))
        total = sum(c.size for c in counter_cols)
        log = SharedLog.create(total, profiler_addr=image.profiler_addr)
        log.append_columns(
            np.concatenate(kind_cols), np.concatenate(counter_cols),
            np.concatenate(addr_cols), np.concatenate(tid_cols),
        )
        payloads.append(log.to_bytes())
        entries.append(total)
        # every stack covers 2*depth - 1 ticks; segment i adds i more
        ticks.append(threads * stacks_per_thread * (per_stack - 1) + seg)
    return SegmentFeed(
        ("web", "batch")[tenant_index], image.to_json(), payloads,
        entries, ticks,
    )
