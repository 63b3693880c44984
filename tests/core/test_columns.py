"""The columnar decode path: LogColumns / decode_columns / LogImage.

The bulk reader must agree entry-for-entry with the struct-level
decode on every log shape, keep working without numpy (the list
fallback), and — when reading an mmap-mapped file — never pin the
mapping (columns are copies there, so ``close`` always succeeds).
"""

import struct

import pytest

from repro.api import LogImage, SharedLog
from repro.core import KIND_CALL, KIND_RET
from repro.core.log import HEADER_SIZE, VERSION_2, LogEntry, decode_columns


def sample_log(version=None, n=10):
    kwargs = {"version": version} if version is not None else {}
    log = SharedLog.create(64, **kwargs)
    for i in range(n):
        kind = KIND_CALL if i % 2 == 0 else KIND_RET
        log.append(kind, i * 3, 0x1000 + i * 16, 1 + i % 3, call_site=i)
    log._store_tail()
    return log


def struct_entries(log):
    """The log's entries unpacked one struct at a time — the decode
    the column path is checked against."""
    data = log.to_bytes()
    es = log.entry_size
    out = []
    for i in range(len(log)):
        words = struct.unpack_from(f"<{es // 8}Q", data, HEADER_SIZE + i * es)
        out.append(LogEntry(words[0] >> 63, words[0] & ((1 << 63) - 1),
                            words[1], words[2],
                            words[3] if es == 32 else 0))
    return out


@pytest.mark.parametrize("version", [None, VERSION_2])
def test_columns_match_entry_decode(version):
    log = sample_log(version)
    cols = log.image().columns()
    assert len(cols) == len(log)
    expected = struct_entries(log)
    assert cols.entries() == expected
    direct = decode_columns(log.to_bytes(), version or 1, 0, len(log))
    assert direct.as_lists() == cols.as_lists()
    kinds, counters, addrs, tids, call_sites = cols.as_lists()
    assert kinds == [e.kind for e in expected]
    assert counters == [e.counter for e in expected]
    assert addrs == [e.addr for e in expected]
    assert tids == [e.tid for e in expected]
    if version == VERSION_2:
        assert call_sites == [e.call_site for e in expected]
    else:
        assert call_sites is None


def test_columns_are_plain_ints():
    """as_lists yields Python ints — consumers hash/compare them
    against LogEntry fields without numpy scalar surprises."""
    cols = sample_log().image().columns()
    kinds, counters, addrs, tids, _ = cols.as_lists()
    for lst in (kinds, counters, addrs, tids):
        assert all(type(x) is int for x in lst)


def test_counter_bounds_and_empty_span():
    log = sample_log(n=5)
    assert log.image().columns().counter_bounds() == (0, 12)
    empty = SharedLog.create(4).image().columns()
    assert empty.counter_bounds() is None
    assert len(empty) == 0
    assert empty.entries() == []


def test_column_chunks_cover_log_in_order():
    log = sample_log(n=10)
    spans = list(log.image().column_chunks(4))
    assert [len(s) for s in spans] == [4, 4, 2]
    assert [s.start for s in spans] == [0, 4, 8]
    flattened = [e for s in spans for e in s.entries()]
    assert flattened == struct_entries(log)
    with pytest.raises(ValueError):
        list(log.image().column_chunks(0))


def test_kind_bit_survives_large_counters():
    """The kind bit (bit 63) must split cleanly from 63-bit counters."""
    log = SharedLog.create(8)
    big = (1 << 63) - 1
    log.append(KIND_RET, big, 0xAAAA, 9)
    log.append(KIND_CALL, big - 1, 0xBBBB, 9)
    cols = log.image().columns()
    kinds, counters, _, _, _ = cols.as_lists()
    assert kinds == [KIND_RET, KIND_CALL]
    assert counters == [big, big - 1]


def test_list_fallback_matches_numpy(monkeypatch):
    """With numpy gone the decode degrades to lists, not to wrong."""
    import repro.core.log as logmod

    log = sample_log(VERSION_2)
    with_np = log.image().columns().as_lists()
    monkeypatch.setattr(logmod, "_np", None)
    without_np = log.image().columns()
    assert isinstance(without_np.kind, list)
    assert without_np.as_lists() == with_np
    assert without_np.entries() == struct_entries(log)


# ----------------------------------------------------------------------
# Columns read from a mapped file


def test_stream_columns_do_not_pin_the_mmap(tmp_path):
    log = sample_log(VERSION_2)
    path = tmp_path / "run.teeperf"
    log.dump(str(path))
    stream = LogImage.open(str(path))
    held = list(stream.column_chunks(3))  # survive close on purpose
    whole = stream.columns()
    stream.close()  # must not raise "exported pointers exist"
    flattened = [e for s in held for e in s.entries()]
    assert flattened == struct_entries(log)
    assert whole.entries() == struct_entries(log)
