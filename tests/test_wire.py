"""Wire frames: framing, codec round-trips, malformed input."""

import math
import socket
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pdevsim.wire import (COMMANDS, ProtocolError, WireFrame, decode_frame,
                          encode_frame, read_frame, write_frame)

finite_floats = st.floats(allow_nan=False, allow_infinity=False, width=64)
event_values = st.recursive(
    st.integers(min_value=-2**53, max_value=2**53) | finite_floats |
    st.text(max_size=16),
    lambda children: st.lists(children, max_size=4),
    max_leaves=12)
identifiers = st.text(
    alphabet=st.characters(blacklist_categories=("Cs",)), max_size=16)

frames = st.builds(
    WireFrame,
    command=st.sampled_from(sorted(COMMANDS)),
    sender=identifiers,
    port=identifiers,
    values=st.lists(event_values, max_size=6).map(tuple),
    time=st.none() | finite_floats | st.just(math.inf),
)


@given(frames)
@settings(max_examples=300)
def test_encode_decode_roundtrip(frame):
    assert decode_frame(encode_frame(frame)[4:]) == frame


def test_infinite_time_is_portable_json():
    blob = encode_frame(WireFrame("ACK", time=math.inf))[4:]
    assert b"inf" in blob and b"Infinity" not in blob
    assert math.isinf(decode_frame(blob).time)
    with pytest.raises(ProtocolError):  # no frame carries minus infinity
        encode_frame(WireFrame("ACK", time=-math.inf))


def test_length_prefix_is_big_endian():
    frame = WireFrame("ACK")
    encoded = encode_frame(frame)
    (length,) = struct.unpack(">I", encoded[:4])
    assert length == len(encoded) - 4


def test_frames_cross_a_real_socket():
    left, right = socket.socketpair()
    try:
        sent = [WireFrame("DELTFCN", time=0.5),
                WireFrame("PROPAGATE", sender="a", port="in", values=(1, "x", [2.5])),
                WireFrame("ACK", sender="b")]
        for frame in sent:
            write_frame(left, frame)
        received = [read_frame(right) for _ in sent]
        assert received == sent
        left.close()
        assert read_frame(right) is None  # clean EOF
    finally:
        right.close()


def test_unknown_command_rejected():
    with pytest.raises(ProtocolError):
        WireFrame("NOPE")
    with pytest.raises(ProtocolError, match="unknown command"):
        decode_frame(b'{"command":"NOPE"}')


def test_malformed_body_reports_offending_bytes():
    with pytest.raises(ProtocolError, match="not a json"):
        decode_frame(b"not a json body")
    with pytest.raises(ProtocolError, match="command object"):
        decode_frame(b"[1,2,3]")


def test_truncated_frame_detected():
    left, right = socket.socketpair()
    try:
        payload = encode_frame(WireFrame("ACK"))
        left.sendall(payload[:-2])
        left.close()
        with pytest.raises(ProtocolError, match="mid-frame"):
            read_frame(right)
    finally:
        right.close()


def test_oversized_length_rejected():
    left, right = socket.socketpair()
    try:
        left.sendall(struct.pack(">I", 2**31))
        with pytest.raises(ProtocolError, match="exceeds limit"):
            read_frame(right)
    finally:
        left.close()
        right.close()


def test_unencodable_payload_rejected():
    with pytest.raises(ProtocolError):
        encode_frame(WireFrame("ACK", values=(float("nan"),)))
    with pytest.raises(ProtocolError):
        encode_frame(WireFrame("ACK", values=({1, 2},)))


def test_bad_time_field_rejected():
    with pytest.raises(ProtocolError, match="bad time"):
        decode_frame(b'{"command":"DELTFCN","time":"soon"}')


@pytest.mark.parametrize("body", [
    b'{"command":"PROPAGATE","values":[1,true,null,{"a":1}]}',
    b'{"command":"PROPAGATE","sender":5,"port":[1]}',
    b'{"command":"PROPAGATE","values":[1e999]}',
    b'{"command":"DELTFCN","time":1e999}',
    b'{"command":"DELTFCN","time":"-inf"}',
], ids=["non-event-values", "non-string-sender-port", "inf-value", "inf-time",
        "minus-inf-time"])
def test_frames_outside_the_contract_rejected(body):
    with pytest.raises(ProtocolError, match="bad (values|sender|time) field"):
        decode_frame(body)


def test_only_propagate_values_are_checked(monkeypatch):
    """Only PROPAGATE frames carry event values, so only they pass the
    event-value check: an INIT ACK naming 360 hosted atomics, as one group
    hosting HO(20,20) sends, decodes without a single check."""
    from pdevsim import wire
    calls = []
    check = wire.check_event_value

    def counting_check(value):
        calls.append(value)
        return check(value)

    monkeypatch.setattr(wire, "check_event_value", counting_check)
    ack = WireFrame("ACK", sender="A0", values=([f"A{i}" for i in range(360)], 0.0, "A0"))
    assert decode_frame(encode_frame(ack)[4:]) == ack
    assert calls == []
    decode_frame(encode_frame(WireFrame("PROPAGATE", values=(["a", "out", "b", "in", [1]],)))[4:])
    assert len(calls) == 1


# Edits to a valid frame body: (position, bytes deleted there, bytes inserted).
_BODY_BYTES = st.sampled_from([b"", b"{", b"}", b"[", b"]", b'"', b",", b":", b"\\", b"null",
                               b"true", b"-", b"1e999", b"NaN", b"Infinity", b"9" * 400,
                               b"9" * 5000, b'"inf"', b'"command":', b'"time":', b'"sender":',
                               b'"port":', b'"values":', b"\\u0000", b"\\ud800", b"\xff",
                               b"\xc3"]) | st.binary(max_size=3)
_BODY_EDITS = st.lists(st.tuples(st.integers(0, 200), st.integers(0, 8), _BODY_BYTES),
                       min_size=1, max_size=4)
_BODIES = {frame.command: encode_frame(frame)[4:] for frame in (
    WireFrame("PROPAGATE", values=(["A1_1", "out", "A1_2", "in", [1, 2.5, "x"]],)),
    WireFrame("DELTFCN", time=1.5, values=("A1_1", "generator")),
    WireFrame("ACK", values=(["A1_1", "A1_2"], 1.5, "A1_1")))}


@pytest.mark.parametrize("command", sorted(_BODIES))
@given(edits=_BODY_EDITS)
@settings(max_examples=300)
def test_a_mutated_frame_body_decodes_or_is_refused_in_one_line(command, edits):
    body = _BODIES[command]
    for position, deleted, inserted in edits:
        position %= len(body) + 1
        body = body[:position] + inserted + body[position + deleted:]
    try:
        decode_frame(body)
    except ProtocolError as exc:
        message = str(exc)
        assert message and "\n" not in message and "\r" not in message, message


def test_numbers_beyond_a_float_are_refused_in_one_line():
    """A time too large for a float, or a number of more digits than the
    JSON reader converts, is a one-line ProtocolError."""
    for body in (b'{"command":"DELTFCN","time":' + b"9" * 400 + b"}",
                 b'{"command":"ACK","values":[' + b"9" * 5000 + b"]}"):
        with pytest.raises(ProtocolError, match="^(bad time field|malformed frame body)[^\n]*$"):
            decode_frame(body)
