"""The wire protocol: framing, malformed input, the shm fast path."""

import json
import socket
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fleet import ProtocolError
from repro.fleet.protocol import (
    MAX_HEADER,
    MAX_PAYLOAD,
    _shm_create,
    read_frame,
    shm_read,
    write_frame,
)


@pytest.fixture
def pair():
    left, right = socket.socketpair()
    yield left, right
    left.close()
    right.close()


def test_frame_round_trip_with_payload(pair):
    left, right = pair
    write_frame(left, {"type": "segment", "seq": 1}, b"\x00" * 512)
    header, payload = read_frame(right)
    assert header["type"] == "segment"
    assert header["size"] == 512
    assert payload == b"\x00" * 512


def test_ack_frames_need_no_type(pair):
    left, right = pair
    write_frame(left, {"ok": True, "accepted": 4})
    header, payload = read_frame(right)
    assert header == {"ok": True, "accepted": 4}
    assert payload == b""


def test_clean_eof_is_none(pair):
    left, right = pair
    left.close()
    assert read_frame(right) is None


def test_eof_mid_length_is_a_protocol_error(pair):
    left, right = pair
    left.sendall(b"\x00")  # one byte of a four-byte length
    left.close()
    with pytest.raises(ProtocolError, match="mid-length"):
        read_frame(right)


def test_eof_mid_header_is_a_protocol_error(pair):
    left, right = pair
    left.sendall(struct.pack("!I", 100) + b"{")
    left.close()
    with pytest.raises(ProtocolError, match="bytes short"):
        read_frame(right)


def test_implausible_header_length_is_refused(pair):
    left, right = pair
    left.sendall(struct.pack("!I", MAX_HEADER + 1))
    with pytest.raises(ProtocolError, match="implausible header"):
        read_frame(right)


def test_non_json_header_is_refused(pair):
    left, right = pair
    raw = b"not json at all"
    left.sendall(struct.pack("!I", len(raw)) + raw)
    with pytest.raises(ProtocolError, match="not JSON"):
        read_frame(right)


def test_non_object_header_is_refused(pair):
    left, right = pair
    raw = json.dumps([1, 2, 3]).encode()
    left.sendall(struct.pack("!I", len(raw)) + raw)
    with pytest.raises(ProtocolError, match="not an object"):
        read_frame(right)


def test_negative_payload_size_is_refused(pair):
    left, right = pair
    raw = json.dumps({"type": "segment", "size": -1}).encode()
    left.sendall(struct.pack("!I", len(raw)) + raw)
    with pytest.raises(ProtocolError, match="implausible payload"):
        read_frame(right)


def test_shm_round_trip():
    data = bytes(range(256)) * 8
    try:
        shm = _shm_create(data)
    except Exception:
        pytest.skip("host has no usable multiprocessing.shared_memory")
    try:
        assert shm_read(shm.name, len(data)) == data
    finally:
        shm.close()
        shm.unlink()


# ---------------------------------------------------------------------------
# Property: every frame header either reads or is refused, typed


_json = st.recursive(
    st.none() | st.booleans() | st.integers()
    | st.floats(allow_nan=False, allow_infinity=False) | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6,
)


@settings(max_examples=200, deadline=None)
@given(
    header=st.dictionaries(
        st.sampled_from(["type", "tenant", "shm"]) | st.text(max_size=4),
        _json, max_size=3,
    ),
    size=st.none() | st.integers(-3, 40) | _json,
    trailing=st.binary(max_size=32),
)
def test_any_frame_header_reads_or_is_refused(header, size, trailing):
    if size is not None:
        header["size"] = size
    left, right = socket.socketpair()
    try:
        raw = json.dumps(header).encode()
        left.sendall(struct.pack("!I", len(raw)) + raw + trailing)
        left.shutdown(socket.SHUT_WR)
        declared = header.get("size", 0)
        valid = type(declared) is int and 0 <= declared <= MAX_PAYLOAD
        try:
            got, payload = read_frame(right)
        except ProtocolError:
            # Refused: an untyped or implausible size, or a payload the
            # peer never sent.
            assert not valid or declared > len(trailing)
            return
        assert valid
        assert got == header
        assert payload == trailing[:declared]
    finally:
        left.close()
        right.close()
