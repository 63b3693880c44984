"""The one log reader: LogImage over every storage and both formats.

Whatever holds the bytes — a bytearray, bytes, a memoryview, an mmap
of a file, a live SharedLog's own buffer, or a rev 1.2 compressed
image — :class:`LogImage` must expose the same header identity, the
same length, the same seal journal (rev 1.2 carries none) and the same
``column_chunks`` output at every chunk size.  And salvage over damaged
images keeps its books exactly, per thread.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import LogImage, SharedLog, recover_log
from repro.core.columnar import encode_log
from repro.core.errors import LogFormatError
from repro.core.log import HEADER_SIZE, VERSION, VERSION_2
from repro.core.recovery import REASON_UNSEALED
from repro.faults import FaultInjector


def sample_log(version, sealed=True, n=25):
    log = SharedLog.create(
        40, version=version, sealed=sealed, pid=31,
        profiler_addr=0x401000,
    )
    for i in range(n):
        log.append(i % 2, i * 3, 0x1000 + (i % 5) * 64, 1 + i % 3,
                   call_site=0x9000 + i)
    if sealed:
        log.seal(0, 10)
        log.seal(10, n - 10)
    return log


def _mapped(log, tmp_path):
    path = tmp_path / "run.teeperf"
    log.dump(str(path))
    return LogImage.open(str(path))


STORAGES = {
    "bytearray": lambda log, tmp: LogImage(bytearray(log.to_bytes())),
    "bytes": lambda log, tmp: LogImage(log.to_bytes()),
    "memoryview": lambda log, tmp: LogImage(memoryview(log.to_bytes())),
    "mmap": _mapped,
    "shared-log": lambda log, tmp: log.image(),
    "rev-1.2": lambda log, tmp: LogImage(
        encode_log(log, sort_by_thread=False)
    ),
}

IDENTITY = ("version", "entry_size", "shm_base", "pid", "capacity",
            "profiler_addr", "multithread", "active")


def _chunks(image, chunk_size):
    spans = (
        image.column_chunks() if chunk_size is None
        else image.column_chunks(chunk_size)
    )
    return [(span.start, span.as_lists()) for span in spans]


@pytest.mark.parametrize("storage", sorted(STORAGES))
@pytest.mark.parametrize("version", [VERSION, VERSION_2])
@pytest.mark.parametrize("chunk_size", [1, 3, None])
def test_every_storage_reads_identically(tmp_path, storage, version,
                                         chunk_size):
    log = sample_log(version)
    reference = log.image()
    with STORAGES[storage](log, tmp_path) as image:
        for name in IDENTITY:
            assert getattr(image.header, name) == getattr(
                reference.header, name
            ), name
        assert len(image) == len(reference) == 25
        compressed = storage == "rev-1.2"
        assert image.header.compressed is compressed
        assert image.seals == ([] if compressed else reference.seals)
        assert len(reference.seals) == 2
        if not compressed:
            assert image.header == reference.header
        assert _chunks(image, chunk_size) == _chunks(reference, chunk_size)
        assert list(image) == list(reference)
        assert image.columns().as_lists() == reference.columns().as_lists()


def test_image_of_a_mapped_image_does_not_close_it(tmp_path):
    log = sample_log(VERSION)
    with _mapped(log, tmp_path) as mapped:
        with LogImage.of(mapped) as view:
            assert len(view) == len(mapped)
        assert len(list(mapped)) == 25  # still mapped


# ---------------------------------------------------------------------------
# Damage: salvage keeps exact books, per thread


def _base_images():
    out = {}
    for sealed in (True, False):
        log = SharedLog.create(64, sealed=sealed)
        for i in range(48):
            log.append(i % 2, i, 0x1000 + (i % 3) * 64, 1 + i % 4)
            if sealed and i % 8 == 7:
                log.seal(i - 7, 8)
        # Eight more committed but never sealed: unsealed quarantine.
        for i in range(48, 56):
            log.append(i % 2, i, 0x1000, 1 + i % 4)
        out["sealed" if sealed else "unsealed"] = log.to_bytes()
    out["rev-1.2"] = encode_log(
        LogImage(out["unsealed"]), block_entries=8
    )
    return out


_BASES = _base_images()


@settings(max_examples=80, deadline=None)
@given(
    base=st.sampled_from(sorted(_BASES)),
    seed=st.integers(0, 2**32 - 1),
    damage=st.sampled_from(["truncate", "flip", "both"]),
    nflips=st.integers(1, 8),
)
def test_salvage_books_balance_per_thread(base, seed, damage, nflips):
    image = _BASES[base]
    faults = FaultInjector(seed)
    if damage in ("truncate", "both"):
        image, _ = faults.truncate(image)
    if damage in ("flip", "both"):
        image, _ = faults.flip(image, n=nflips, lo=0)
    try:
        salvaged, report = recover_log(image)
    except LogFormatError:  # only a typed refusal of a damaged header
        assert len(image) < HEADER_SIZE or image[:HEADER_SIZE] != (
            _BASES[base][:HEADER_SIZE]
        )
        return
    assert report.entries_salvaged + report.entries_quarantined \
        == report.tail
    assert report.entries_salvaged == len(salvaged)
    assert sum(report.salvaged_per_thread.values()) \
        == report.entries_salvaged
    unsealed = sum(
        q.count for q in report.quarantined if q.reason == REASON_UNSEALED
    )
    assert sum(report.quarantined_per_thread.values()) == unsealed
