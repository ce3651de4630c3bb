"""Length-prefixed JSON frames for the distributed protocol.

Every frame is a 4-byte big-endian length followed by a UTF-8 JSON object
with the fixed field names ``command``, ``sender``, ``port``, ``values``
and ``time``. Absent fields are omitted from the body. Virtual-time
infinity is carried as the string ``"inf"`` so that the body stays strict
JSON; event payloads themselves must be finite (see the event-value
contract in the modeling layer), and only PROPAGATE frames carry them.
"""

from __future__ import annotations

import json
import math
import socket
import struct
from dataclasses import dataclass

from .model import ModelError, check_event_value

INIT = "INIT"
PROPAGATE = "PROPAGATE"
DELTFCN = "DELTFCN"
EXIT = "EXIT"
ACK = "ACK"

COMMANDS = frozenset({INIT, PROPAGATE, DELTFCN, EXIT, ACK})

_MAX_FRAME = 64 * 1024 * 1024
_LENGTH = struct.Struct(">I")


class ProtocolError(Exception):
    """Malformed frame or protocol sequence violation."""


@dataclass(frozen=True)
class WireFrame:
    """One protocol message.

    ``values`` carries the payload: the sender names for a DELTFCN,
    ``[sender, port, target, target port, values]`` items for a PROPAGATE
    (or one ``["__error__", message]`` item from a group whose output
    phase failed), and the replies, such as a group's tN and senders (after
    its atomics, for INIT). ``time`` is the virtual time of DELTFCN frames.
    ``sender`` and ``port`` are part of the frame format, but no command
    sets them.
    """

    command: str
    sender: str = ""
    port: str = ""
    values: tuple = ()
    time: float | None = None

    def __post_init__(self) -> None:
        if self.command not in COMMANDS:
            raise ProtocolError(f"unknown command {self.command!r}")


def encode_time(value: float) -> float | str:
    """A virtual time as strict JSON: ``"inf"`` for infinity; frames refuse -inf."""
    return "inf" if value == math.inf else value


def decode_time(raw) -> float:
    """Inverse of :func:`encode_time`; anything else is a ProtocolError."""
    if raw == "inf":
        return math.inf
    if isinstance(raw, (int, float)) and not isinstance(raw, bool):
        try:
            if math.isfinite(raw):
                return float(raw)
        except OverflowError:  # an int beyond any float
            pass
    raise ProtocolError(f"bad time field: {raw!r:.80}")


def encode_frame(frame: WireFrame) -> bytes:
    body: dict = {"command": frame.command}
    if frame.sender:
        body["sender"] = frame.sender
    if frame.port:
        body["port"] = frame.port
    if frame.values:
        body["values"] = list(frame.values)
    if frame.time is not None:
        body["time"] = encode_time(frame.time)
    try:
        payload = json.dumps(body, separators=(",", ":"), allow_nan=False).encode("utf-8")
    except (TypeError, ValueError) as exc:
        raise ProtocolError(f"unencodable frame payload: {exc}") from exc
    if len(payload) > _MAX_FRAME:
        raise ProtocolError(f"frame too large: {len(payload)} bytes")
    return _LENGTH.pack(len(payload)) + payload


def decode_frame(payload: bytes) -> WireFrame:
    try:
        body = json.loads(payload.decode("utf-8"))
    except ValueError as exc:  # not UTF-8, not JSON, or an int of too many digits
        raise ProtocolError(f"malformed frame body {payload[:80]!r}: {exc}") from exc
    if not isinstance(body, dict) or "command" not in body:
        raise ProtocolError(f"frame body is not a command object: {payload[:80]!r}")
    command = body["command"]
    if command not in COMMANDS:
        raise ProtocolError(f"unknown command in frame: {command!r}")
    values = body.get("values", [])
    if not isinstance(values, list):
        raise ProtocolError(f"bad values field: {values!r}")
    if command == PROPAGATE:
        try:
            check_event_value(values)
        except ModelError as exc:
            raise ProtocolError(f"bad values field: {exc}") from exc
    for name in ("sender", "port"):
        if not isinstance(body.get(name, ""), str):
            raise ProtocolError(f"bad {name} field: {body[name]!r}")
    time_raw = body.get("time")
    return WireFrame(
        command=command,
        sender=body.get("sender", ""),
        port=body.get("port", ""),
        values=tuple(values),
        time=None if time_raw is None else decode_time(time_raw),
    )


def write_frame(sock: socket.socket, frame: WireFrame) -> None:
    sock.sendall(encode_frame(frame))


def _missing(buffer: bytearray) -> int:
    """How many bytes the first frame in ``buffer`` still lacks."""
    if len(buffer) < _LENGTH.size:
        return _LENGTH.size - len(buffer)
    (length,) = _LENGTH.unpack_from(buffer)
    if length > _MAX_FRAME:
        raise ProtocolError(f"frame length {length} exceeds limit")
    return _LENGTH.size + length - len(buffer)


def take_frame(buffer: bytearray) -> WireFrame | None:
    """Remove the first frame from ``buffer`` and decode it; None while
    the frame is not whole."""
    if _missing(buffer) > 0:
        return None
    end = _LENGTH.size + _LENGTH.unpack_from(buffer)[0]
    payload = bytes(buffer[_LENGTH.size:end])
    del buffer[:end]
    return decode_frame(payload)


def read_frame(sock: socket.socket) -> WireFrame | None:
    """Read one frame, and nothing after it; None on clean end-of-stream."""
    buffer = bytearray()
    while (missing := _missing(buffer)) > 0:
        chunk = sock.recv(missing)
        if not chunk:
            if buffer:
                raise ProtocolError("connection closed mid-frame")
            return None
        buffer += chunk
    return take_frame(buffer)
