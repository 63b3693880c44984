"""Flow 4: the fleet ingest-and-query service.

A :class:`~repro.fleet.FleetDaemon` (two thread workers) takes
segments over its socket (:class:`~repro.fleet.IngestListener`) and
serves merged profiles over HTTP (:class:`~repro.fleet.FleetServer`).
Two load threads, one per tenant, each hold one
:class:`~repro.fleet.FleetClient` connection for the whole run.

A step is either

* a burst (closed loop): both threads publish :data:`BURST_SEGMENTS`
  back to back; ``ingest_entries_per_s`` is the bursts' entries over
  their time until each burst's last segment is queryable; or
* an open-loop chunk at :data:`RATE` segments per second in all, the
  tenants half a period apart: every segment is timed from its due
  time until it is queryable (``visible_ms_p50``/``p90``: the mean
  over the two tenants of each tenant's quantile over the run), and
  after every :data:`QUERY_EVERY`-th segment the thread fetches
  ``/profiles/<tenant>/folded`` over HTTP, due a quarter period after
  that segment (``query_ms_p50``, timed from its due time), so reads
  run between writes of both tenants.  How late the generator sent is
  reported too.

Each burst's time and each chunk's latencies are scaled by that step's
host factor (:mod:`host`).

A segment is queryable once ``WindowStore.add`` has folded it in; the
flow wraps that one method on its own daemon's store to see when, and
recognises the segment by its tick total, which the generator makes
distinct.

Checks: ``salvaged + quarantined == entries``, no refusals or analysis
errors, every segment queryable, every query answered 200, and each
tenant's merged tick total equal to what the generator published.
"""

import http.client
import itertools
import statistics
import threading
import time

from gen import segment_feed
from host import scale_of

WINDOW_S = 1.0
SEGMENTS_PER_WINDOW = 40
RETENTION = 4
MAX_PATHS = 512
STACKS_PER_THREAD = 150  # 2 threads * 150 stacks * 10 events = 3000
BURSTS = 6
BURST_SEGMENTS = 12  # per tenant
OPEN_CHUNK = 8  # segments per tenant in one open-loop step
MIN_VISIBLE = 64  # open-loop samples in all: four chunks
RATE = 10.0  # segments per second, both tenants together
QUERY_EVERY = 2  # per tenant


def percentile(values, q):
    ordered = sorted(values)
    if not ordered:
        return float("nan")
    k = (len(ordered) - 1) * q
    lo = int(k)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (k - lo)


def _visible_over_chunks(chunks, q):
    """Mean over tenants of each tenant's `q` quantile of all its
    samples.  Taken per tenant because on ``wide`` the tenants'
    latencies are two populations a few ms apart, and a quantile of
    both pooled falls in the thin stretch between them, where a small
    shift of either moves it far."""
    if not chunks:
        return float("nan")
    tenants = len(chunks[0][0])
    return statistics.fmean(
        percentile([x for visible, _ in chunks for x in visible[t]], q)
        for t in range(tenants)
    )


def _query_over_chunks(chunks):
    """Median of all query latencies."""
    if not chunks:
        return float("nan")
    return percentile([x for _, queries in chunks for x in queries], 0.5)


class _SegmentClock:
    """Ingest timestamps that advance per segment, not per second: a
    window closes after every :data:`SEGMENTS_PER_WINDOW` segments,
    so which segments pay for a window rollover (archive merge and
    compaction) is the same in every run instead of depending on where
    the wall clock's second boundaries fall.  One segment in 40 pays
    it, well clear of the 90th percentile, so p90 does not flip
    between the two populations from run to run."""

    def __init__(self):
        self._ticks = itertools.count(1)

    def __call__(self):
        return next(self._ticks) * WINDOW_S / SEGMENTS_PER_WINDOW


class Service:
    """The daemon, its ingest socket and its HTTP front, started
    together and stopped together."""

    def __init__(self):
        from repro.api import FleetDaemon, FleetServer, IngestListener

        self.daemon = FleetDaemon(
            window_seconds=WINDOW_S, retention=RETENTION,
            max_paths=MAX_PATHS, jobs=2, prefer_processes=False,
            clock=_SegmentClock(),
        )
        self.listener = IngestListener(self.daemon)
        self.server = FleetServer(self.daemon)
        self.visible = {}
        store = self.daemon.store

        def add(tenant, folded, *args, **kwargs):
            # Looked up per call, so a wrapper the traced run puts on
            # the class still runs under this one.
            wid = type(store).add(store, tenant, folded, *args, **kwargs)
            self.visible[(tenant, sum(folded.values()))] = \
                time.perf_counter()
            return wid

        store.add = add

    def start(self):
        self.daemon.start()
        try:
            self.listener.start()
            self.server.start()
        except BaseException:
            self.stop()
            raise
        return self

    def stop(self):
        self.server.stop()
        self.listener.stop()
        self.daemon.stop()


def _query(port, tenant):
    """GET the tenant's merged folded profile; returns the status."""
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
    try:
        conn.request("GET", f"/profiles/{tenant}/folded")
        response = conn.getresponse()
        response.read()
        return response.status
    finally:
        conn.close()


class _Load(threading.Thread):
    """One tenant's producer on its one connection.

    `schedule` lists ``(due, index)`` to publish segment `index` and
    ``(due, None)`` to query; a due of ``None`` means as soon as the
    previous operation is done (closed loop)."""

    def __init__(self, client, feed, schedule, port):
        super().__init__(name=f"perfbench-load-{feed.tenant}")
        self.client = client
        self.feed = feed
        self.schedule = schedule
        self.port = port
        self.sent = []  # (index, due, sent)
        self.refused = []
        self.queries = []  # (status, seconds from due)
        self.error = None

    def run(self):
        try:
            self._run()
        except Exception as exc:  # noqa: BLE001 - reported by the flow
            self.error = f"{type(exc).__name__}: {exc}"

    def _run(self):
        from repro.fleet import ProtocolError

        for due, index in self.schedule:
            if due is not None:
                delay = due - time.perf_counter()
                if delay > 0:
                    time.sleep(delay)
            start = time.perf_counter()
            due = start if due is None else due
            if index is None:
                status = _query(self.port, self.feed.tenant)
                self.queries.append((status, time.perf_counter() - due))
                continue
            try:
                self.client.publish(self.feed.payloads[index])
            except ProtocolError as exc:
                self.refused.append(f"{self.feed.tenant}#{index}: {exc}")
                continue
            self.sent.append((index, due, start))


class Fleet:
    """One service for the whole run.  Steps alternate between a
    burst and open-loop chunks; every step drains the service before
    it returns, so no fleet work runs while another flow is measured.
    """

    name = label = "fleet"

    def __init__(self, ctx):
        from repro.api import FleetClient

        self.ctx = ctx
        tiny = ctx.tiny
        # the traced run (min_passes 1) takes half the samples
        self.bursts_wanted = 1 if tiny else BURSTS * ctx.min_passes // 2
        self.burst_n = 2 if tiny else BURST_SEGMENTS
        self.chunk_n = QUERY_EVERY if tiny else OPEN_CHUNK
        self.visible_wanted = (
            1 if tiny else MIN_VISIBLE * ctx.min_passes // 2
        )
        pool = max(self.burst_n, self.chunk_n)
        self.feeds = [
            segment_feed(ctx.seed, ctx.shape, t, pool,
                         STACKS_PER_THREAD // (10 if tiny else 1))
            for t in range(2)
        ]
        self.published_ticks = [0, 0]
        self.published_entries = 0
        self.burst_runs = []  # (entries, seconds, step) per burst
        self.lateness_ms = []
        # per open-loop chunk: ([visible ms per tenant], query ms, step)
        self.chunks = []
        self.steps = self.bursts = 0
        self.attempted = self.failed = 0
        self.errors = []
        self.totals = None
        self.service = Service().start()
        self.clients = []
        try:
            for feed in self.feeds:
                self.clients.append(
                    FleetClient(self.service.listener.address).open(
                        feed.tenant, feed.symtab_json
                    )
                )
        except BaseException:
            self.close()
            raise

    def satisfied(self):
        return (self.bursts >= self.bursts_wanted
                and self._visible_samples() >= self.visible_wanted)

    def _visible_samples(self):
        return sum(len(v) for visible, _, _ in self.chunks for v in visible)

    def step(self):
        burst = self.bursts < self.bursts_wanted and self.steps % 2 == 0
        self.steps += 1
        self.service.visible.clear()
        if burst:
            self._burst()
        else:
            self._open_chunk()

    def _burst(self):
        plan = [(None, i) for i in range(self.burst_n)]
        start = time.perf_counter()
        loads = self._drive([plan, plan])
        done = [self.service.visible.get((load.feed.tenant,
                                          load.feed.ticks[i]))
                for load in loads for i, _, _ in load.sent]
        entries = sum(load.feed.entries[i]
                      for load in loads for i, _, _ in load.sent)
        if done and all(d is not None for d in done):
            self.burst_runs.append((entries, max(done) - start,
                                    self.steps - 1))
        self.bursts += 1

    def _open_chunk(self):
        first = time.perf_counter() + 0.01
        period = 2.0 / RATE  # per tenant
        plans = []
        for tenant in range(2):
            plan = []
            for n in range(self.chunk_n):
                due = first + tenant * period / 2 + n * period
                plan.append((due, n))
                if (n + 1) % QUERY_EVERY == 0:
                    plan.append((due + period / 4, None))
            plans.append(plan)
        loads = self._drive(plans)
        visible, query_ms = [], []
        self.chunks.append((visible, query_ms, self.steps - 1))
        for load in loads:
            visible_ms = []
            visible.append(visible_ms)
            for i, due, sent in load.sent:
                self.lateness_ms.append((sent - due) * 1e3)
                seen = self.service.visible.get((load.feed.tenant,
                                                 load.feed.ticks[i]))
                if seen is None:
                    self.failed += 1
                    self.errors.append(f"fleet: {load.feed.tenant} segment "
                                       f"{i} never became queryable")
                else:
                    visible_ms.append((seen - due) * 1e3)
            for status, seconds in load.queries:
                self.attempted += 1
                query_ms.append(seconds * 1e3)
                if status != 200:
                    self.failed += 1
                    self.errors.append(f"fleet: query returned {status}")

    def _drive(self, plans):
        """One load thread per tenant; waits until every published
        segment is folded in."""
        loads = [
            _Load(self.clients[t], self.feeds[t], plans[t],
                  self.service.server.port)
            for t in range(2)
        ]
        for load in loads:
            load.start()
        for load in loads:
            load.join()
        self.service.daemon.drain()
        for t, load in enumerate(loads):
            self.attempted += len(load.sent) + len(load.refused)
            self.failed += len(load.refused) + (load.error is not None)
            self.errors += load.refused
            if load.error is not None:
                self.errors.append(f"fleet load {load.feed.tenant}: "
                                   f"{load.error}")
            for i, _, _ in load.sent:
                self.published_ticks[t] += load.feed.ticks[i]
                self.published_entries += load.feed.entries[i]
        return loads

    def close(self):
        """Final checks, then stop the service (idempotent)."""
        if self.service is None:
            return
        try:
            for client in self.clients:
                client.bye()
            self.clients = []
            self.errors += self._final_checks()
            self.totals = self.service.daemon.store.totals()
        finally:
            for client in self.clients:
                client.close()
            self.service.stop()
            self.service = None

    def _final_checks(self):
        daemon = self.service.daemon
        errors = []
        status = daemon.status()
        counters = status["counters"]
        if not status["accounted"]:
            errors.append(f"fleet: salvaged + quarantined != entries "
                          f"({counters})")
        if status["recent_errors"]:
            errors.append(f"fleet: analysis errors "
                          f"{status['recent_errors']}")
        if counters.get("entries", 0) != self.published_entries:
            errors.append(f"fleet: {counters.get('entries')} entries "
                          f"ingested, {self.published_entries} published")
        for feed, want in zip(self.feeds, self.published_ticks):
            if self.ctx.plant == "ticks":
                want += 1
            got = daemon.profile(feed.tenant).total_exclusive()
            if got != want:
                errors.append(f"fleet: {feed.tenant} merged ticks {got}, "
                              f"generator published {want}")
        return errors

    def result(self, scales=None):
        if self.errors and not self.failed:
            self.failed = 1
        burst_s = sum(t / scale_of(scales, k) for _, t, k in self.burst_runs)
        ingest = (sum(e for e, _, _ in self.burst_runs) / burst_s
                  if burst_s else float("nan"))
        # Every latency is scaled by its chunk's host factor, then the
        # run's samples are pooled: a few chunks' medians would jump
        # between runs more than one median of all the samples does.
        chunks = []
        for visible, queries, k in self.chunks:
            if all(visible) and queries:
                f = scale_of(scales, k)
                chunks.append(([[x / f for x in v] for v in visible],
                               [x / f for x in queries]))
        return {
            "metrics": {
                "ingest_entries_per_s": ingest,
            },
            # Reported, not gated: too unsteady from run to run to
            # bound (see perfbench/README.md, "Noise").
            "visible_ms_p50": _visible_over_chunks(chunks, 0.5),
            "visible_ms_p90": _visible_over_chunks(chunks, 0.9),
            "query_ms_p50": _query_over_chunks(chunks),
            "attempted": self.attempted,
            "failed": self.failed,
            "errors": self.errors,
            "passes": self.steps,
            "headline": 1.0 / ingest,
            "lateness_ms_p90": percentile(self.lateness_ms, 0.9),
            "visible_samples": self._visible_samples(),
            "query_samples": sum(len(q) for _, q, _ in self.chunks),
            "totals": self.totals,
        }
