"""Binary frame codec for the provider protocol.

A frame is a 4-byte big-endian payload length, one message-type byte, and
the payload.  Payload fields appear in a fixed order per message type:
integers as unsigned 64-bit big-endian, reals as IEEE-754 binary64
big-endian (bit-exact, NaN payloads and signed zeros included), strings as
a 4-byte length plus UTF-8 bytes, and lists as a 4-byte count followed by
the elements.  encode/decode is an identity on every well-formed frame.
A connection is one session: SPAWNED carries the new slave's index, a u64,
ahead of its descriptor, and every slave request begins with that index.
Value lists follow the order of that descriptor's inputs or outputs.
Every request is answered by ERROR or by one frame that carries data.
"""
from __future__ import annotations

import enum
import socket
import struct

from ..errors import (
    ConnectionLost,
    CosimError,
    InvalidState,
    ProtocolError,
    SpawnLimitExceeded,
    StepRejected,
    UnknownModel,
    UnknownParameter,
)
from ..system import Causality, SlaveDescriptor, VariableDescriptor, VarKind
from ..units import parse_unit

PROTOCOL_VERSION = 8  # unsigned 16-bit semantics, carried as a u64 field

CONTROL_TIMEOUT = 5.0  # a reply outside a step, and a new connection's HELLO

MAX_FRAME = 1 << 24  # 16 MiB; nothing legitimate comes close

_U64 = struct.Struct(">Q")
_U32 = struct.Struct(">I")
_F64 = struct.Struct(">d")
_HEAD = struct.Struct(">IB")


class MessageType(enum.IntEnum):
    HELLO = 1
    HELLO_OK = 2
    LIST_MODELS = 3
    MODEL_LIST = 4
    DESCRIBE = 5
    DESCRIPTION = 6
    SPAWN = 7
    SPAWNED = 8
    SETUP = 9  # reserved: INITIALIZE carries the span
    INITIALIZE = 10
    SET_INPUTS = 11  # reserved: inputs ride on STEP and GET_OUTPUTS
    STEP = 12
    STEP_OK = 13
    STEP_FAIL = 14  # reserved: a failed step answers ERROR
    GET_OUTPUTS = 15
    OUTPUTS = 16
    TERMINATE = 17
    TERMINATED = 18
    ERROR = 19
    OK = 20  # reserved: every request is answered with data
    BIND = 21  # reserved: a port's place in the descriptor is its address


class Writer:
    """Appends fields to a payload buffer."""

    def __init__(self):
        self._buf = bytearray()

    def u64(self, value: int) -> "Writer":
        if not 0 <= value < 1 << 64:
            raise ProtocolError(f"u64 out of range: {value}")
        self._buf += _U64.pack(value)
        return self

    def f64(self, value: float) -> "Writer":
        self._buf += _F64.pack(value)
        return self

    def string(self, value: str) -> "Writer":
        raw = value.encode("utf-8")
        self._buf += _U32.pack(len(raw))
        self._buf += raw
        return self

    def count(self, n: int) -> "Writer":
        if not 0 <= n < 1 << 32:
            raise ProtocolError(f"list count out of range: {n}")
        self._buf += _U32.pack(n)
        return self

    def f64s(self, values) -> "Writer":
        self.count(len(values))
        for value in values:
            self._buf += _F64.pack(value)
        return self

    def payload(self) -> bytes:
        return bytes(self._buf)


class Reader:
    """Consumes fields from a payload; over- and under-runs are errors."""

    def __init__(self, payload: bytes):
        self._buf = payload
        self._pos = 0

    def _take(self, n: int) -> bytes:
        end = self._pos + n
        if end > len(self._buf):
            raise ProtocolError("truncated payload")
        chunk = self._buf[self._pos:end]
        self._pos = end
        return chunk

    def u64(self) -> int:
        return _U64.unpack(self._take(8))[0]

    def f64(self) -> float:
        return _F64.unpack(self._take(8))[0]

    def string(self) -> str:
        n = _U32.unpack(self._take(4))[0]
        try:
            return self._take(n).decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ProtocolError(f"invalid UTF-8 in string field: {exc}") from exc

    def count(self) -> int:
        return _U32.unpack(self._take(4))[0]

    def f64s(self) -> list[float]:
        return [self.f64() for _ in range(self.count())]

    def done(self) -> None:
        if self._pos != len(self._buf):
            raise ProtocolError(
                f"{len(self._buf) - self._pos} trailing bytes in payload"
            )


def encode_frame(msg_type: int, payload: bytes = b"") -> bytes:
    if len(payload) > MAX_FRAME:
        raise ProtocolError(f"frame too large: {len(payload)} bytes")
    return _HEAD.pack(len(payload), msg_type) + payload


def decode_frame(data: bytes) -> tuple[int, bytes]:
    """Split one complete frame into (message type, payload)."""
    if len(data) < _HEAD.size:
        raise ProtocolError("truncated frame header")
    length, msg_type = _HEAD.unpack_from(data)
    if length > MAX_FRAME:
        raise ProtocolError(f"frame too large: {length} bytes")
    if len(data) != _HEAD.size + length:
        raise ProtocolError("frame length mismatch")
    return msg_type, data[_HEAD.size:]


def recv_exact(sock: socket.socket, n: int) -> bytes:
    buf = bytearray()
    while len(buf) < n:
        try:
            chunk = sock.recv(n - len(buf))
        except OSError as exc:  # timeouts and resets included
            raise ConnectionLost(str(exc) or type(exc).__name__) from exc
        if not chunk:
            raise ConnectionLost("peer closed the connection")
        buf += chunk
    return bytes(buf)


def recv_frame(sock: socket.socket) -> tuple[int, bytes]:
    head = recv_exact(sock, _HEAD.size)
    length, msg_type = _HEAD.unpack(head)
    if length > MAX_FRAME:
        raise ProtocolError(f"frame too large: {length} bytes")
    return msg_type, recv_exact(sock, length)


def send_frame(sock: socket.socket, msg_type: int, payload: bytes = b"") -> None:
    try:
        sock.sendall(encode_frame(msg_type, payload))
    except OSError as exc:
        raise ConnectionLost(str(exc) or type(exc).__name__) from exc


# -- typed errors over the wire ---------------------------------------------

# Codes 3-5 are retired: a peer that sends one gets a plain CosimError.
_ERROR_CLASSES: dict[int, type[CosimError]] = {
    1: StepRejected,
    2: InvalidState,
    6: UnknownModel,
    7: UnknownParameter,
    8: SpawnLimitExceeded,
    9: ProtocolError,
}


def error_code(exc: BaseException) -> int:
    """Code 0 is the generic bucket for anything without its own code."""
    for code, cls in _ERROR_CLASSES.items():
        if isinstance(exc, cls):
            return code
    return 0


def make_error(code: int, text: str) -> CosimError:
    return _ERROR_CLASSES.get(code, CosimError)(text)


# -- descriptor payloads ---------------------------------------------------


def write_descriptor(w: Writer, desc: SlaveDescriptor) -> None:
    w.string(desc.model_id)
    w.u64(1 if desc.supports_variable_step else 0)
    w.count(len(desc.variables))
    for v in desc.variables:
        w.string(v.name)
        w.string(v.causality.value)
        w.string(v.kind.value)
        w.string(v.unit.name if v.unit is not None else "")
        w.u64(1 if v.direct_feedthrough else 0)
    w.count(len(desc.parameters))
    for name, value in desc.parameters.items():
        w.string(name)
        w.f64(value)


def read_descriptor(r: Reader) -> SlaveDescriptor:
    """The descriptor ``r`` holds; one that does not make a valid
    descriptor, such as one with an unknown unit, is a ProtocolError."""
    model_id = r.string()
    variable_step = bool(r.u64())
    try:
        variables = []
        for _ in range(r.count()):
            name = r.string()
            causality = Causality(r.string())
            kind = VarKind(r.string())
            unit_name = r.string()
            feedthrough = bool(r.u64())
            unit = parse_unit(unit_name) if unit_name else None
            variables.append(VariableDescriptor(name, causality, kind, unit, feedthrough))
        parameters = {}
        for _ in range(r.count()):
            pname = r.string()
            parameters[pname] = r.f64()
        return SlaveDescriptor(
            model_id=model_id,
            variables=tuple(variables),
            parameters=parameters,
            supports_variable_step=variable_step,
        )
    except (KeyError, ValueError) as exc:
        raise ProtocolError(f"malformed descriptor: {exc.args[0]}") from exc
