"""The socket ingest path: sessions, violations, dirty hangups."""

import socket
import time
import uuid

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fleet import (
    FleetClient,
    FleetDaemon,
    IngestListener,
    ProtocolError,
)
from repro.fleet import protocol


@pytest.fixture
def served():
    daemon = FleetDaemon(jobs=2, prefer_processes=False).start()
    listener = IngestListener(daemon, port=0)
    listener.start()
    yield daemon, listener
    listener.stop()
    daemon.stop()


def test_session_round_trip_with_accounting(served, baseline_session):
    daemon, listener = served
    client = FleetClient(listener.address).open(
        "web", baseline_session["symtab"], session="sock-1"
    )
    ack = client.publish(baseline_session["log_bytes"])
    assert ack["accepted"] == len(baseline_session["log_bytes"])
    assert ack["seq"] == 1
    assert client.ping()["ok"]
    accounting = client.bye()["accounting"]
    assert accounting["session"] == "sock-1"
    assert accounting["entries"] == baseline_session["entries"]
    assert accounting["salvaged"] == baseline_session["entries"]
    assert accounting["ticks"] == baseline_session["ticks"]
    assert not accounting["open"]
    assert daemon.profile("web").total_exclusive() == (
        baseline_session["ticks"]
    )


def test_shm_fast_path_lands_identically(served, baseline_session):
    daemon, listener = served
    with FleetClient(listener.address).open(
        "web", baseline_session["symtab"], session="shm-1"
    ) as client:
        ack = client.publish(baseline_session["log_bytes"], via_shm=True)
        assert ack["ok"]
    daemon.drain()
    assert daemon.profile("web").total_exclusive() == (
        baseline_session["ticks"]
    )


def test_segment_before_hello_is_refused(served, baseline_session):
    _, listener = served
    client = FleetClient(listener.address)
    client._sock = socket.create_connection(listener.address, timeout=5)
    with pytest.raises(ProtocolError, match="segment before hello"):
        client._request(
            {"type": "segment"}, baseline_session["log_bytes"]
        )
    client._sock.close()


def test_unknown_frame_type_is_refused(served):
    _, listener = served
    sock = socket.create_connection(listener.address, timeout=5)
    try:
        protocol.write_frame(sock, {"type": "dance"})
        ack, _ = protocol.read_frame(sock)
        assert not ack["ok"]
        assert "unknown frame type" in ack["error"]
    finally:
        sock.close()


def test_empty_segment_is_refused(served, baseline_session):
    _, listener = served
    with FleetClient(listener.address).open(
        "web", baseline_session["symtab"]
    ) as client:
        with pytest.raises(ProtocolError, match="empty segment"):
            client._request({"type": "segment"}, b"")


def test_hello_missing_fields_is_refused(served):
    _, listener = served
    sock = socket.create_connection(listener.address, timeout=5)
    try:
        protocol.write_frame(sock, {"type": "hello", "tenant": "web"})
        ack, _ = protocol.read_frame(sock)
        assert not ack["ok"]
        assert "hello missing" in ack["error"]
    finally:
        sock.close()


def test_dirty_hangup_still_closes_the_session(
    served, baseline_session
):
    daemon, listener = served
    client = FleetClient(listener.address).open(
        "web", baseline_session["symtab"], session="vanisher"
    )
    client.publish(baseline_session["log_bytes"])
    client._sock.close()  # the producer dies without bye
    client._sock = None
    deadline = time.monotonic() + 10
    while True:
        accounting = daemon.accounting("web")
        if accounting and not accounting[0]["open"]:
            break
        if time.monotonic() > deadline:
            pytest.fail(f"session never closed: {accounting}")
        time.sleep(0.02)
    daemon.drain()
    # The published segment still landed with full accounting.
    assert daemon.accounting("web")[0]["salvaged"] == (
        baseline_session["entries"]
    )
    assert daemon.status()["counters"]["sessions_closed"] == 1


def test_duplicate_hello_is_refused(served, baseline_session):
    _, listener = served
    client = FleetClient(listener.address).open(
        "web", baseline_session["symtab"]
    )
    with pytest.raises(ProtocolError, match="duplicate hello"):
        client._request({
            "type": "hello", "tenant": "web", "session": "again",
            "symtab": baseline_session["symtab"],
        })


def test_listener_lifecycle_and_validation(served):
    daemon, listener = served
    assert listener.running
    assert listener.start() == listener.port  # idempotent
    with pytest.raises(ValueError, match="max_sessions"):
        IngestListener(daemon, max_sessions=0)


def test_listener_context_manager(baseline_session):
    with FleetDaemon(jobs=1, prefer_processes=False) as daemon:
        with IngestListener(daemon, port=0) as listener:
            with FleetClient(listener.address).open(
                "web", baseline_session["symtab"]
            ) as client:
                client.publish(baseline_session["log_bytes"])
        assert not listener.running
    assert daemon.status()["accounted"]


# ---------------------------------------------------------------------------
# Property: malformed session sequences get typed refusals, and the
# daemon's books still balance


@pytest.fixture(scope="module")
def fuzz_served():
    daemon = FleetDaemon(jobs=1, prefer_processes=False).start()
    listener = IngestListener(daemon, port=0)
    listener.start()
    yield daemon, listener
    listener.stop()
    daemon.stop()


_STEPS = [
    "hello", "hello-list-tenant", "hello-int-session", "segment",
    "segment-garbage", "ping", "bye", "dance", "size-string",
    "size-float",
]


def _frame(step, session, symtab, log_bytes):
    hello = {"type": "hello", "tenant": "fuzz", "session": session,
             "symtab": symtab}
    return {
        "hello": (hello, b""),
        "hello-list-tenant": ({**hello, "tenant": ["fuzz"]}, b""),
        "hello-int-session": ({**hello, "session": 7}, b""),
        "segment": ({"type": "segment"}, log_bytes),
        "segment-garbage": ({"type": "segment"}, b"not a log" * 8),
        "ping": ({"type": "ping"}, b""),
        "bye": ({"type": "bye"}, b""),
        "dance": ({"type": "dance"}, b""),
        "size-string": ({"type": "ping", "size": "x"}, b""),
        "size-float": ({"type": "ping", "size": 1.0}, b""),
    }[step]


def _expect_ok(step, opened):
    if step == "hello":
        return not opened
    if step in ("segment", "segment-garbage", "bye"):
        return opened
    return step == "ping"


@settings(max_examples=30, deadline=None)
@given(script=st.lists(st.sampled_from(_STEPS), min_size=1, max_size=6))
def test_session_sequences_get_typed_refusals(
    fuzz_served, baseline_session, script
):
    daemon, listener = fuzz_served
    session = f"s-{uuid.uuid4().hex[:8]}"
    sock = socket.create_connection(listener.address, timeout=10)
    opened = False
    try:
        for step in script:
            header, payload = _frame(
                step, session, baseline_session["symtab"],
                baseline_session["log_bytes"],
            )
            protocol.write_frame(sock, header, payload)
            frame = protocol.read_frame(sock)
            assert frame is not None, f"{step}: closed without a refusal"
            ack, _ = frame
            assert ack["ok"] is _expect_ok(step, opened), (step, ack)
            if not ack["ok"]:
                assert ack["error"]
                break
            opened = opened or step == "hello"
            if step == "bye":
                break
    finally:
        sock.close()
    deadline = time.monotonic() + 10
    while daemon.status()["sessions_open"]:
        assert time.monotonic() < deadline, "a session never closed"
        time.sleep(0.01)
    assert daemon.drain(timeout=10)
    status = daemon.status()
    counters = status["counters"]
    assert counters.get("sessions_opened", 0) == counters.get(
        "sessions_closed", 0
    )
    assert status["accounted"]
    assert counters.get("segments_ingested", 0) == counters.get(
        "segments_analyzed", 0
    ) + counters.get("analysis_errors", 0)
