"""Client side of the provider protocol: catalogue access and remote slaves.

A ``ProviderClient`` is one session with one provider: the connection that
its catalogue requests and every slave it spawns share, and the queue of
the replies owed on it.  A RemoteSlave names its slave by the index that
SPAWNED gave, and lives no longer than its client.  It keeps the contract
of an in-process slave, and reals cross the wire as exact binary64, so a
distributed run reproduces an in-process run bit for bit.  Frames carry the
index and values only, in the order of the descriptor SPAWNED gave.
INITIALIZE carries the span ``setup`` kept and answers the outputs.  A
step is one round trip: STEP carries the inputs ``set_inputs`` stored, and
STEP_OK the outputs.  Only reads before any step send GET_OUTPUTS.  No
request but STEP is sent while a reply is owed, and an ERROR raises noted
``in reply to`` the request it answers.  ``NetworkResolver`` keeps one
client per provider.
"""
from __future__ import annotations

import socket
from dataclasses import dataclass

from ..errors import ConnectionLost, CosimError, InvalidState, ProtocolError
from ..slave import ModelRegistry, SlaveInstance
from ..system import SlaveDescriptor, SlaveSpec
from . import wire
from .wire import CONTROL_TIMEOUT, MessageType as MT, Reader, Writer


def _split_address(address: str) -> tuple[str, int]:
    host, sep, port = address.rpartition(":")
    if not sep or not host:
        raise ProtocolError(f"expected host:port, got {address!r}")
    try:
        number = int(port)
    except ValueError as exc:
        raise ProtocolError(f"bad port in {address!r}") from exc
    if not 1 <= number <= 65535:
        raise ProtocolError(f"port out of range 1-65535 in {address!r}")
    return host, number


def _reply(got: int, body: bytes, expect: int) -> Reader:
    """A reply of the expected type; ERROR frames raise as typed exceptions."""
    if got == MT.ERROR:
        r = Reader(body)
        code, text = r.u64(), r.string()
        r.done()
        raise wire.make_error(code, text)
    if got != expect:
        raise ProtocolError(f"expected {MT(expect).name}, got message type {got}")
    return Reader(body)


def _connect(address: str, timeout: float) -> socket.socket:
    """A connection to the provider at ``address`` that has passed HELLO."""
    sock = socket.create_connection(_split_address(address), timeout=timeout)
    try:
        # Frames go out at once: Nagle would hold one sent behind another.
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        wire.send_frame(sock, MT.HELLO, Writer().u64(wire.PROTOCOL_VERSION).payload())
        r = _reply(*wire.recv_frame(sock), MT.HELLO_OK)
        version = r.u64()
        r.done()
        if version != wire.PROTOCOL_VERSION:
            raise ProtocolError(
                f"provider answered HELLO_OK with version {version}, "
                f"expected {wire.PROTOCOL_VERSION}")
    except BaseException:
        sock.close()
        raise
    return sock


class ProviderClient:
    """One session with one provider; its ``timeout`` bounds every reply
    but a STEP reply that the master reads.  A reply not read whole, cut
    off or late, closes the session, which would otherwise take it for
    the answer to the next request: every later request raises that
    error without I/O."""

    def __init__(self, address: str, timeout: float = CONTROL_TIMEOUT):
        self.address = address
        self.timeout = timeout
        self._sock = _connect(address, timeout)
        self._owed: list[tuple[int, int | None]] = []  # (request, slave index), oldest first
        self._lost: Exception | None = None  # why a reply could not be read

    def list_models(self) -> tuple[str, ...]:
        r = self._call(MT.LIST_MODELS, None, b"", MT.MODEL_LIST)
        models = tuple(r.string() for _ in range(r.count()))
        r.done()
        return models

    def describe(self, model_id: str) -> SlaveDescriptor:
        r = self._call(MT.DESCRIBE, None, Writer().string(model_id).payload(), MT.DESCRIPTION)
        desc = wire.read_descriptor(r)
        r.done()
        return desc

    def spawn(self, model_id: str,
              parameters: dict[str, float] | None = None) -> "RemoteSlave":
        """A new slave on this session."""
        w = Writer().string(model_id)
        parameters = parameters or {}
        w.count(len(parameters))
        for name, value in parameters.items():
            if not isinstance(value, (int, float)):
                raise ProtocolError(
                    f"parameter {name!r} is {type(value).__name__}; "
                    f"remote slaves take numeric parameters only")
            w.string(name)
            w.f64(value)
        r = self._call(MT.SPAWN, None, w.payload(), MT.SPAWNED)
        index = r.u64()
        desc = wire.read_descriptor(r)
        r.done()
        return RemoteSlave(self, index, desc)

    def _post(self, msg_type: int, index: int | None, payload: bytes = b"") -> None:
        """Send a request, a slave's begun with its index.  Only reads are
        timed: the few frames sent ahead of their replies fit in the
        socket buffers."""
        if self._lost is not None:
            raise self._lost
        if index is not None:
            payload = Writer().u64(index).payload() + payload
        self._owed.append((msg_type, index))
        wire.send_frame(self._sock, msg_type, payload)

    def _read(self, index: int | None, expect: int, timeout: float) -> Reader:
        """The reply owed next, to slave ``index``'s request, waited for up
        to ``timeout`` seconds; an ERROR raises noted with that request."""
        if self._lost is not None:
            raise self._lost
        if not self._owed:
            raise InvalidState("no reply is owed")
        request, owner = self._owed[0]
        if owner != index:
            raise InvalidState(f"the reply owed next is to slave {owner}'s "
                               f"{MT(request).name}")
        self._sock.settimeout(timeout)
        try:
            got, body = wire.recv_frame(self._sock)
        except (ConnectionLost, ProtocolError) as exc:
            self._lost = exc
            self.close()
            raise
        del self._owed[0]
        try:
            return _reply(got, body, expect)
        except CosimError as exc:
            if hasattr(exc, "add_note"):  # Python 3.11 and later
                exc.add_note(f"in reply to {MT(request).name}")
            raise

    def _call(self, msg_type: int, index: int | None, payload: bytes,
              expect: int) -> Reader:
        """The reply to a request sent now; refused without I/O while a
        STEP's reply is owed, since the read would take it for its own."""
        if self._owed and self._lost is None:
            raise InvalidState(f"slave {self._owed[0][1]}'s STEP reply is owed")
        self._post(msg_type, index, payload)
        return self._read(index, expect, self.timeout)

    def close(self) -> None:
        try:
            self._sock.close()
        except OSError:
            pass

    def __enter__(self) -> "ProviderClient":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class RemoteSlave(SlaveInstance):
    """Proxy for the slave at ``index`` on a provider session."""

    def __init__(self, session: ProviderClient, index: int,
                 descriptor: SlaveDescriptor):
        self._session = session
        self._index = index
        self._desc = descriptor
        self._n_inputs = len(descriptor.inputs())
        self._n_outputs = len(descriptor.outputs())
        self._inputs: list[float] = []  # stored since the last request
        self._outputs: list[float] | None = None  # as last read, while current
        self._span: bytes | None = None  # t_start and t_end as INITIALIZE carries them
        self._terminated = False

    def descriptor(self) -> SlaveDescriptor:
        return self._desc

    def _with_inputs(self, w: Writer) -> bytes:
        """``w``'s payload, ending with the inputs stored since the last request."""
        w.f64s(self._inputs)
        self._inputs = []
        return w.payload()

    def _keep_outputs(self, r: Reader) -> None:
        values = r.f64s()
        r.done()
        if len(values) != self._n_outputs:
            raise ProtocolError(f"expected {self._n_outputs} outputs, got {len(values)}")
        self._outputs = values

    def setup(self, t_start: float, t_end: float) -> None:
        if self._span is not None:
            raise InvalidState("setup not allowed: the slave is already set up")
        self._span = Writer().f64(t_start).f64(t_end).payload()

    def initialize(self) -> None:
        if self._span is None:
            raise InvalidState("initialize not allowed before setup")
        self._keep_outputs(self._session._call(MT.INITIALIZE, self._index, self._span, MT.OUTPUTS))

    def set_inputs(self, values: list[float]) -> None:
        if len(values) != self._n_inputs:
            raise InvalidState(f"{len(values)} values for {self._n_inputs} inputs")
        self._inputs = list(values)
        self._outputs = None

    def do_step(self, t: float, dt: float) -> float:
        self.start_step(t, dt)
        return self.finish_step(t, dt, self._session.timeout)

    def start_step(self, t: float, dt: float) -> None:
        self._outputs = None
        self._session._post(MT.STEP, self._index, self._with_inputs(Writer().f64(t).f64(dt)))

    def finish_step(self, t: float, dt: float, timeout: float) -> float:
        r = self._session._read(self._index, MT.STEP_OK, timeout)
        end = r.f64()
        self._keep_outputs(r)
        return end

    def get_outputs(self) -> list[float]:
        if self._outputs is None:
            self._keep_outputs(self._session._call(
                MT.GET_OUTPUTS, self._index, self._with_inputs(Writer()), MT.OUTPUTS))
        return list(self._outputs)

    def terminate(self) -> None:
        if self._terminated:
            raise InvalidState("slave is already terminated")
        self._terminated = True
        session = self._session
        if session._owed:
            # An owed reply desyncs the stream, so only close; the provider
            # ends every slave on the session once the call it serves returns.
            session.close()
        elif session._sock.fileno() != -1:  # a closed session does no I/O
            session._call(MT.TERMINATE, self._index, b"", MT.TERMINATED).done()


@dataclass(frozen=True)
class CatalogueEntry:
    provider: str
    model_id: str


def discover(addresses: list[str]) -> tuple[list[CatalogueEntry], list[str]]:
    """Collect (provider, model) from each reachable provider.

    Unreachable or misbehaving providers produce warnings, not failures;
    two providers sharing a model id both stay in the catalogue.
    """
    entries: list[CatalogueEntry] = []
    warnings: list[str] = []
    for address in addresses:
        try:
            with ProviderClient(address) as client:
                for model_id in client.list_models():
                    entries.append(CatalogueEntry(address, model_id))
        except (OSError, ConnectionLost, ProtocolError) as exc:
            warnings.append(f"provider {address}: {exc}")
    return entries, warnings


class NetworkResolver:
    """Builds slaves locally or on providers, per each spec's provider field.

    One session per provider address, opened lazily, carries the catalogue
    requests and every slave placed there, so a run opens one connection
    per provider.  It keeps nothing else: ``Resolution`` asks it once per
    provider and model, and nothing more of a provider that failed.
    ``close`` ends the sessions, and the provider ends every slave still
    on them.
    """

    def __init__(self, registry: ModelRegistry):
        self.registry = registry
        self._clients: dict[str, ProviderClient] = {}

    def _client(self, address: str) -> ProviderClient:
        if address not in self._clients:
            self._clients[address] = ProviderClient(address)
        return self._clients[address]

    def describe(self, spec: SlaveSpec) -> SlaveDescriptor:
        if spec.provider:
            return self._client(spec.provider).describe(spec.model_id)
        return self.registry.describe(spec.model_id)

    def create(self, spec: SlaveSpec) -> SlaveInstance:
        if spec.provider:
            return self._client(spec.provider).spawn(spec.model_id, spec.parameters)
        return self.registry.create(spec.model_id, spec.parameters)

    def close(self) -> None:
        for client in self._clients.values():
            client.close()
        self._clients.clear()

    def __enter__(self) -> "NetworkResolver":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
