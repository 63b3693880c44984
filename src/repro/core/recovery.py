"""Crash recovery: salvage analysis for damaged TEE-Perf logs.

The recorder lives outside the TEE precisely so the log survives an
application crash (paper §Recorder); this module is the reader-side
half of that promise.  Given a snapshot that may be truncated, torn
mid-entry, or corrupted after the fact, :func:`recover_log` classifies
every byte of the entry array and rebuilds a clean log from the parts
that are provably (or plausibly) committed:

* **sealed logs** (``FLAG_SEALED``): a segment is *recovered* when its
  seal record's CRC32 still matches the bytes on disk; a segment whose
  CRC mismatches is quarantined (``crc-mismatch``); committed regions
  covered by no seal are quarantined (``unsealed``) unless they sit
  below the header's monotonic seal watermark, which vouches for the
  contiguous prefix even when a truncation ate the journal trailer;
* **unsealed logs**: every complete committed entry is salvaged
  structurally — exactly the prefix an undamaged reader would decode;
* in both cases a trailing partial entry is quarantined as
  ``torn-entry`` and entries the tail claims beyond the bytes present
  as ``truncated``.

Nothing is silently dropped: the :class:`RecoveryReport` lists every
quarantined range with its byte offsets, entry counts and reason code,
plus per-thread salvage counts and the four counters that flow into
:class:`repro.core.stats.PipelineStats` (``segments_sealed``,
``entries_salvaged``, ``entries_quarantined``, ``crc_failures``).

:func:`repair_tails` is a separate, explicitly requested pass
(``tee-perf recover --repair-tails``) that balances each thread's
CALL/RET tail with synthetic returns so the strict vector engine
accepts every shard; the analyzer's ``recover="auto"`` path does *not*
repair — the python oracle already closes open frames as truncated,
which keeps salvaged-prefix analysis byte-identical to analysing the
undamaged prefix.
"""

import zlib
from dataclasses import dataclass, field

try:
    import numpy as _np
except ImportError:  # pragma: no cover - numpy is a hard dep in-tree
    _np = None

from repro.core.columnar import decode_block
from repro.core.errors import LogFormatError, RecoveryError
from repro.core.log import (
    HEADER_SIZE,
    KIND_CALL,
    KIND_RET,
    LogImage,
    SharedLog,
    _merge_intervals,
)

#: Valid ``recover=`` modes for :meth:`repro.core.analyzer.Analyzer.analyze`:
#: ``"off"`` trusts the log, ``"auto"`` salvages damage and analyses
#: what survives, ``"strict"`` raises :class:`RecoveryError` on any
#: quarantine or CRC failure.
RECOVER_MODES = ("off", "auto", "strict")

# Reason codes for quarantined ranges.
REASON_TORN = "torn-entry"
REASON_TRUNCATED = "truncated"
REASON_CRC = "crc-mismatch"
REASON_UNSEALED = "unsealed"


@dataclass(frozen=True)
class QuarantinedRange:
    """A contiguous region of the original image recovery refused.

    ``start``/``count`` are entry indices (``count`` can be 0 for
    stray in-flight bytes past the tail); ``byte_start``/``byte_end``
    locate the region in the original image.
    """

    start: int
    count: int
    byte_start: int
    byte_end: int
    reason: str


@dataclass
class RecoveryReport:
    """What salvage found, kept and quarantined."""

    sealed: bool = False
    capacity: int = 0
    tail: int = 0
    present: int = 0
    watermark: int = 0
    segments_sealed: int = 0  # seal records observed in the journal
    segments_recovered: int = 0  # of those, CRC-verified and salvaged
    entries_salvaged: int = 0
    entries_quarantined: int = 0
    crc_failures: int = 0
    tails_repaired: int = 0  # synthetic RETs added by repair_tails
    rets_dropped: int = 0  # unmatched RETs dropped by repair_tails
    salvaged_per_thread: dict = field(default_factory=dict)
    quarantined_per_thread: dict = field(default_factory=dict)
    quarantined: list = field(default_factory=list)

    @property
    def ok(self):
        """True when nothing was quarantined or CRC-failed."""
        return not self.entries_quarantined and not self.crc_failures \
            and not self.quarantined

    def counters(self):
        """The four counters PipelineStats carries."""
        return {
            "segments_sealed": self.segments_sealed,
            "entries_salvaged": self.entries_salvaged,
            "entries_quarantined": self.entries_quarantined,
            "crc_failures": self.crc_failures,
        }

    def to_dict(self):
        return {
            "sealed": self.sealed,
            "capacity": self.capacity,
            "tail": self.tail,
            "present": self.present,
            "watermark": self.watermark,
            "segments_sealed": self.segments_sealed,
            "segments_recovered": self.segments_recovered,
            "entries_salvaged": self.entries_salvaged,
            "entries_quarantined": self.entries_quarantined,
            "crc_failures": self.crc_failures,
            "tails_repaired": self.tails_repaired,
            "rets_dropped": self.rets_dropped,
            "salvaged_per_thread": dict(self.salvaged_per_thread),
            "quarantined_per_thread": dict(self.quarantined_per_thread),
            "quarantined": [
                {
                    "start": q.start,
                    "count": q.count,
                    "byte_start": q.byte_start,
                    "byte_end": q.byte_end,
                    "reason": q.reason,
                }
                for q in self.quarantined
            ],
        }

    def report(self):
        """A human-readable salvage summary."""
        lines = [
            "TEE-Perf recovery report",
            f"  log: {'sealed' if self.sealed else 'unsealed'}, "
            f"tail={self.tail}, present={self.present}, "
            f"capacity={self.capacity}, watermark={self.watermark}",
            f"  salvaged: {self.entries_salvaged} entries "
            f"({self.segments_recovered}/{self.segments_sealed} "
            f"sealed segments CRC-verified)",
            f"  quarantined: {self.entries_quarantined} entries in "
            f"{len(self.quarantined)} ranges, "
            f"crc failures: {self.crc_failures}",
        ]
        if self.tails_repaired or self.rets_dropped:
            lines.append(
                f"  repaired: {self.tails_repaired} synthetic RETs "
                f"added, {self.rets_dropped} unmatched RETs dropped"
            )
        for q in self.quarantined:
            lines.append(
                f"    [{q.start}, {q.start + q.count}) "
                f"bytes {q.byte_start}..{q.byte_end}: {q.reason}"
            )
        tids = set(self.salvaged_per_thread) | set(self.quarantined_per_thread)
        for tid in sorted(tids):
            lines.append(
                f"  thread {tid}: "
                f"{self.salvaged_per_thread.get(tid, 0)} salvaged, "
                f"{self.quarantined_per_thread.get(tid, 0)} quarantined"
            )
        return "\n".join(lines)


def _subtract(intervals, holes):
    """`intervals` minus `holes`, both sorted merged (start, end) lists."""
    out = []
    for start, end in intervals:
        cursor = start
        for hs, he in holes:
            if he <= cursor or hs >= end:
                continue
            if hs > cursor:
                out.append((cursor, hs))
            cursor = max(cursor, he)
            if cursor >= end:
                break
        if cursor < end:
            out.append((cursor, end))
    return out


def _salvage_plan(image):
    """Classify a fixed-width image's entry array into salvage
    intervals and quarantined ranges; returns ``(salvage, report)``
    with `salvage` a sorted list of half-open entry-index intervals."""
    header = image.header
    es = header.entry_size
    present = image._present
    extent = min(header.tail, header.capacity)
    readable = min(extent, present)
    report = RecoveryReport(
        sealed=header.sealed,
        capacity=header.capacity,
        tail=extent,
        present=present,
        watermark=header.seal_watermark,
        segments_sealed=len(image.seals),
    )

    if header.sealed:
        valid, bad = [], []
        for r in image.seals:
            if r.end <= present:
                raw = image._raw(HEADER_SIZE + r.start * es,
                                 HEADER_SIZE + r.end * es)
                if zlib.crc32(raw) == r.crc:
                    if r.start < readable:
                        valid.append((r.start, min(r.end, readable)))
                        report.segments_recovered += 1
                    continue
                report.crc_failures += 1
                if r.start < readable:
                    bad.append((r.start, min(r.end, readable)))
            # A seal past the bytes present cannot be CRC-verified;
            # its surviving prefix may still ride the watermark rule.
        bad = _merge_intervals(bad)
        watermark = min(header.seal_watermark, readable)
        salvage = _merge_intervals(
            valid + _subtract([(0, watermark)] if watermark else [], bad)
        )
    else:
        salvage = [(0, readable)] if readable else []

    for start, end in _subtract([(0, readable)] if readable else [], salvage):
        overlaps_bad = header.sealed and any(
            hs < end and he > start for hs, he in bad
        )
        report.quarantined.append(
            QuarantinedRange(
                start,
                end - start,
                HEADER_SIZE + start * es,
                HEADER_SIZE + end * es,
                REASON_CRC if overlaps_bad else REASON_UNSEALED,
            )
        )

    # Beyond the bytes present: a torn partial entry, then pure
    # truncation up to what the tail claims.
    leftover = (image._array_end - HEADER_SIZE) - present * es
    if leftover:
        torn_count = 1 if extent > present else 0
        report.quarantined.append(
            QuarantinedRange(
                present,
                torn_count,
                HEADER_SIZE + present * es,
                image._array_end,
                REASON_TORN,
            )
        )
    missing_from = present + (1 if leftover and extent > present else 0)
    if extent > missing_from:
        report.quarantined.append(
            QuarantinedRange(
                missing_from,
                extent - missing_from,
                HEADER_SIZE + missing_from * es,
                HEADER_SIZE + extent * es,
                REASON_TRUNCATED,
            )
        )

    report.entries_salvaged = sum(e - s for s, e in salvage)
    report.entries_quarantined = sum(q.count for q in report.quarantined)
    return salvage, report


def _tally(tids, counts):
    """Add per-thread entry counts of one `tid` column into `counts`."""
    if _np is not None:
        uniq, n = _np.unique(_np.asarray(tids, dtype=_np.uint64),
                             return_counts=True)
        pairs = zip(uniq.tolist(), n.tolist())
    else:
        pairs = ((int(t), 1) for t in tids)
    for tid, n in pairs:
        counts[tid] = counts.get(tid, 0) + n


def _fresh_log(header, capacity):
    """An empty, clean SharedLog carrying `header`'s identity."""
    return SharedLog.create(
        capacity,
        pid=header.pid,
        profiler_addr=header.profiler_addr,
        shm_base=header.shm_base,
        multithread=header.multithread,
        version=header.version,
    )


def _recover_fixed(image):
    """Salvage a fixed-width image: a fresh SharedLog holding the
    salvaged entries in order, plus the report."""
    salvage, report = _salvage_plan(image)
    # Evidence-based sizing: the header's capacity word may itself be
    # corrupt (a single bit flip can claim 2**55 entries), so never
    # allocate beyond what the image demonstrably holds.
    total = report.entries_salvaged
    out = _fresh_log(
        image.header,
        max(1, total, min(image.header.capacity, image._present)),
    )
    es = image.header.entry_size
    cursor = 0
    for start, end in salvage:
        out.write_block(
            cursor, end - start,
            image._raw(HEADER_SIZE + start * es, HEADER_SIZE + end * es),
        )
        cursor += end - start
    out._next_free = cursor
    out._store_tail()
    with out.image() as salvaged:
        for cols in salvaged.column_chunks():
            _tally(cols.tid, report.salvaged_per_thread)
    # Quarantined-but-decodable regions (unsealed bytes are intact,
    # just not vouched for) get per-thread counts too.
    for q in report.quarantined:
        if q.reason == REASON_UNSEALED:
            _tally(image._span(q.start, q.count).tid,
                   report.quarantined_per_thread)
    return out, report


def _recover_columnar(image):
    """Salvage a rev 1.2 compressed columnar image, block by block.

    Every codec block carries its own CRC32 and a ``payload_len`` that
    lets the scan skip over it, so damage quarantines *exactly* the
    damaged block: a CRC mismatch (or a section that will not decode)
    drops that block with ``crc-mismatch`` and keeps every healthy
    block after it.  Where the block directory stops short of the
    image (the strict reader's damage), everything behind it is gone,
    and the remainder of what the header's tail claims is quarantined
    as ``truncated``.  The accounting identity holds exactly as for
    fixed-width salvage: ``salvaged + quarantined == tail``.
    """
    header = image.header
    version = header.version
    report = RecoveryReport(
        sealed=False, capacity=header.capacity, watermark=0,
        segments_sealed=len(image._blocks),
    )
    decoded = []  # column tuples of the healthy blocks
    cursor = 0
    for block in image._blocks:
        payload = image._payload(block)
        try:
            decoded.append(decode_block(payload, block, version))
        except LogFormatError:
            if zlib.crc32(payload) != block.crc:
                report.crc_failures += 1
            report.quarantined.append(
                QuarantinedRange(
                    cursor, block.count, block.payload_at,
                    block.payload_at + block.payload_len, REASON_CRC,
                )
            )
        else:
            report.entries_salvaged += block.count
            report.segments_recovered += 1
        cursor += block.count
    report.present = cursor
    if header.tail > cursor:
        report.quarantined.append(
            QuarantinedRange(
                cursor, header.tail - cursor,
                min(image.nbytes, HEADER_SIZE + 8), image.nbytes,
                REASON_TRUNCATED,
            )
        )
    report.tail = max(header.tail, cursor)
    report.entries_quarantined = sum(q.count for q in report.quarantined)

    out = _fresh_log(header, max(1, report.entries_salvaged))
    for kind, counter, addr, tid, call_site in decoded:
        out.append_columns(kind, counter, addr, tid, call_site)
        _tally(tid, report.salvaged_per_thread)
    out._store_tail()
    return out, report


def recover_log(source, repair=False):
    """Salvage every committed region of a possibly damaged log.

    `source` is any log source :meth:`~repro.core.log.LogImage.of`
    accepts — a path, raw bytes/memoryview (zero-copy), a
    :class:`SharedLog` or a :class:`~repro.core.log.LogImage` — in
    either format: fixed-width images are salvaged per seal record,
    rev 1.2 compressed images per codec block.  Returns ``(salvaged,
    report)`` — a fresh, clean :class:`SharedLog` holding the
    recovered entries in log order, and the :class:`RecoveryReport`
    describing everything that was kept, repaired, or quarantined
    (with byte ranges and reason codes — nothing is dropped silently).

    With ``repair=True`` the salvaged log additionally gets its
    CALL/RET tails balanced by :func:`repair_tails`.

    Raises :class:`repro.core.errors.LogFormatError` when the header
    itself is too damaged to describe a log (no magic, no layout —
    there is nothing principled to salvage without it).
    """
    with LogImage.of(source) as image:
        if image.header.compressed:
            salvaged, report = _recover_columnar(image)
        else:
            salvaged, report = _recover_fixed(image)
    if repair:
        salvaged = repair_tails(salvaged, report)
    return salvaged, report


def recovery_stats(report, stats):
    """Fold a report's counters into a PipelineStats instance."""
    stats.segments_sealed += report.segments_sealed
    stats.entries_salvaged += report.entries_salvaged
    stats.entries_quarantined += report.entries_quarantined
    stats.crc_failures += report.crc_failures
    return stats


def repair_tails(log, report=None):
    """Balance every thread's CALL/RET tail so strict engines accept it.

    Three repairs, per thread, preserving per-thread order:

    * a RET that matches no open frame is dropped (counted);
    * a RET that matches a *deeper* frame gets synthetic RETs for the
      intermediate frames spliced in front of it (same counter), so
      nesting stays perfectly matched;
    * frames still open at the end of the log are closed with
      synthetic RETs at the thread's last observed counter.

    `log` is any log source :meth:`~repro.core.log.LogImage.of`
    accepts.  Returns a fresh balanced :class:`SharedLog`; counts go on
    `report` (``tails_repaired`` / ``rets_dropped``) when given.
    """
    stacks = {}  # tid -> list of open call addrs
    last_counter = {}  # tid -> last counter observed
    kept = []  # (kind, counter, addr, tid, call_site)
    added = dropped = 0
    with LogImage.of(log) as image:
        header = image.header
        entries = list(image)
    for e in entries:
        last_counter[e.tid] = e.counter
        stack = stacks.setdefault(e.tid, [])
        if e.kind == KIND_CALL:
            stack.append(e.addr)
            kept.append((KIND_CALL, e.counter, e.addr, e.tid, e.call_site))
            continue
        if e.addr in stack:
            while stack and stack[-1] != e.addr:
                kept.append(
                    (KIND_RET, e.counter, stack.pop(), e.tid, 0)
                )
                added += 1
            stack.pop()
            kept.append((KIND_RET, e.counter, e.addr, e.tid, e.call_site))
        else:
            dropped += 1
    for tid, stack in stacks.items():
        while stack:
            kept.append((KIND_RET, last_counter[tid], stack.pop(), tid, 0))
            added += 1
    out = _fresh_log(header, max(1, header.capacity, len(kept)))
    for kind, counter, addr, tid, call_site in kept:
        out.append(kind, counter, addr, tid, call_site)
    out._store_tail()
    if report is not None:
        report.tails_repaired += added
        report.rets_dropped += dropped
    return out


def require_clean(report):
    """Raise :class:`RecoveryError` unless the report is spotless —
    the ``recover="strict"`` contract."""
    if not report.ok:
        raise RecoveryError(
            f"strict recovery: {report.entries_quarantined} entries "
            f"quarantined in {len(report.quarantined)} ranges, "
            f"{report.crc_failures} CRC failures",
            report=report,
        )
    return report
