"""Tests for log version 2 (call sites) and the event mask."""

import sys
import types

import pytest

from repro.api import Analyzer, LogImage, SharedLog, TEEPerf, open_log
from repro.core import KIND_CALL, KIND_RET
from repro.core.errors import LogFormatError
from repro.core.log import ENTRY_SIZE_V2, HEADER_SIZE, VERSION_2
from repro.symbols import BinaryImage


def test_v2_entries_are_32_bytes():
    log = SharedLog.create(10, version=VERSION_2)
    assert log.header.version == VERSION_2
    assert log.entry_size == ENTRY_SIZE_V2
    assert len(log.to_bytes()) == HEADER_SIZE + 10 * ENTRY_SIZE_V2


def test_v2_roundtrips_call_site():
    log = SharedLog.create(4, version=VERSION_2)
    log.append(KIND_CALL, 100, 0x401000, 7, call_site=0x400500)
    [entry] = log.image()
    assert entry.call_site == 0x400500
    assert entry.addr == 0x401000


def test_v1_ignores_call_site_silently():
    log = SharedLog.create(4)
    log.append(KIND_CALL, 100, 0x401000, 7, call_site=0x400500)
    [entry] = log.image()
    assert entry.call_site == 0


def test_v2_survives_dump_and_load(tmp_path):
    log = SharedLog.create(4, version=VERSION_2)
    log.append(KIND_CALL, 1, 0x400100, 1, call_site=0x400050)
    path = tmp_path / "v2.teeperf"
    log.dump(str(path))
    with open_log(str(path)) as loaded:
        assert loaded.header.version == VERSION_2
        [entry] = loaded
    assert entry.call_site == 0x400050


def test_unknown_version_rejected():
    with pytest.raises(ValueError):
        SharedLog.create(4, version=9)
    buf = bytearray(SharedLog.create(4).to_bytes())
    # Corrupt the version field to 9.
    import struct

    word1 = struct.unpack_from("<Q", buf, 8)[0]
    struct.pack_into("<Q", buf, 8, (word1 & 0xFFFF) | (9 << 16))
    with pytest.raises(LogFormatError):
        LogImage(bytes(buf))


def test_event_mask_filters_kinds():
    log = SharedLog.create(16)
    log.set_event_mask(calls=True, rets=False)
    assert log.append(KIND_CALL, 1, 0x400000, 1)
    assert not log.append(KIND_RET, 2, 0x400000, 1)
    assert len(log) == 1
    assert log.dropped == 0  # filtered, not dropped
    log.set_event_mask(calls=True, rets=True)
    assert log.append(KIND_RET, 3, 0x400000, 1)


def test_calls_only_profile_still_counts_calls():
    image = BinaryImage("app")
    addr = image.add_function("hot", size=64)
    log = SharedLog.create(64, profiler_addr=image.profiler_addr)
    log.set_event_mask(calls=True, rets=False)
    for i in range(5):
        log.append(KIND_CALL, i * 10, addr, 1)
        log.append(KIND_RET, i * 10 + 5, addr, 1)  # filtered out
    analysis = Analyzer(image).analyze(log)
    assert analysis.method("hot").calls == 5
    assert analysis.truncated_calls() == 5  # no returns: all truncated


def test_analyzer_crosschecks_v2_call_sites():
    image = BinaryImage("app")
    main = image.add_function("main", size=64)
    leaf = image.add_function("leaf", size=64)
    rogue = image.add_function("rogue", size=64)
    log = SharedLog.create(
        16, profiler_addr=image.profiler_addr, version=VERSION_2
    )
    log.append(KIND_CALL, 0, main, 1)
    # leaf claims it was called from rogue, but the stack says main.
    log.append(KIND_CALL, 10, leaf, 1, call_site=rogue + 4)
    log.append(KIND_RET, 20, leaf, 1)
    log.append(KIND_RET, 30, main, 1)
    analysis = Analyzer(image).analyze(log)
    assert analysis.meta["callsite_mismatches"] == 1


def test_analyzer_accepts_consistent_v2_call_sites():
    image = BinaryImage("app")
    main = image.add_function("main", size=64)
    leaf = image.add_function("leaf", size=64)
    log = SharedLog.create(
        16, profiler_addr=image.profiler_addr, version=VERSION_2
    )
    log.append(KIND_CALL, 0, main, 1)
    log.append(KIND_CALL, 10, leaf, 1, call_site=main + 8)
    log.append(KIND_RET, 20, leaf, 1)
    log.append(KIND_RET, 30, main, 1)
    analysis = Analyzer(image).analyze(log)
    assert analysis.meta["callsite_mismatches"] == 0


def test_auto_tracer_fills_v2_call_sites():
    module = types.ModuleType("v2_app")
    exec(
        "def inner():\n    return 1\n"
        "def outer():\n    return inner() + 1\n",
        module.__dict__,
    )
    sys.modules["v2_app"] = module
    try:
        perf = TEEPerf.auto(scope="v2_app", version=VERSION_2)
        perf.record(module.outer)
        analysis = perf.analyze()
        assert analysis.meta["version"] == VERSION_2
        assert analysis.meta["callsite_mismatches"] == 0
        # The inner call entry carries outer's address as call site.
        entries = list(perf.recorder.log.image())
        inner_calls = [
            e for e in entries if e.is_call and e.call_site != 0
        ]
        assert inner_calls
    finally:
        sys.modules.pop("v2_app", None)
