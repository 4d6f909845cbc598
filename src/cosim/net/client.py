"""Client side of the provider protocol: catalogue access and remote slaves.

``ProviderClient.spawn`` sends SPAWN on a connection of its own, which the
provider then serves as the slave's session; the RemoteSlave it returns
owns that socket.  A RemoteSlave satisfies the same contract as an
in-process slave; every call maps to one request/response exchange, and
reals cross the wire as exact binary64, so a distributed run reproduces an
in-process run bit for bit.  ``bind`` sends the input and output names
once, in a BIND frame; SET_INPUTS and OUTPUTS then carry values only, in
the bound order.
"""
from __future__ import annotations

import socket
from dataclasses import dataclass

from ..errors import ConnectionLost, CosimError, InvalidState, ProtocolError
from ..slave import ModelRegistry, SlaveInstance, StepOutcome, StepStatus
from ..system import SlaveDescriptor, SlaveSpec
from . import wire
from .wire import MessageType as MT, Reader, Writer

CONTROL_TIMEOUT = 5.0
STEP_TIMEOUT = 60.0


def _split_address(address: str) -> tuple[str, int]:
    host, sep, port = address.rpartition(":")
    if not sep or not host:
        raise ProtocolError(f"expected host:port, got {address!r}")
    try:
        return host, int(port)
    except ValueError as exc:
        raise ProtocolError(f"bad port in {address!r}") from exc


def _error(body: bytes) -> CosimError:
    """The typed exception an ERROR frame's body carries."""
    r = Reader(body)
    code = r.u64()
    text = r.string()
    r.done()
    return wire.make_error(code, text)


def _request(sock: socket.socket, msg_type: int, payload: bytes,
             expect: int) -> Reader:
    """One round trip; ERROR frames come back as typed exceptions."""
    wire.send_frame(sock, msg_type, payload)
    got, body = wire.recv_frame(sock)
    if got == MT.ERROR:
        raise _error(body)
    if got != expect:
        raise ProtocolError(f"expected {MT(expect).name}, got message type {got}")
    return Reader(body)


def _connect(address: str, timeout: float) -> socket.socket:
    """A connection to the provider at ``address`` that has passed HELLO."""
    sock = socket.create_connection(_split_address(address), timeout=timeout)
    try:
        r = _request(sock, MT.HELLO,
                     Writer().u64(wire.PROTOCOL_VERSION).payload(), MT.HELLO_OK)
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
    """Control connection to one provider."""

    def __init__(self, address: str, timeout: float = CONTROL_TIMEOUT):
        self.address = address
        self._timeout = timeout
        self._sock = _connect(address, timeout)

    def list_models(self) -> tuple[str, ...]:
        r = _request(self._sock, MT.LIST_MODELS, b"", MT.MODEL_LIST)
        models = tuple(r.string() for _ in range(r.count()))
        r.done()
        return models

    def describe(self, model_id: str) -> SlaveDescriptor:
        r = _request(self._sock, MT.DESCRIBE,
                     Writer().string(model_id).payload(), MT.DESCRIPTION)
        desc = wire.read_descriptor(r)
        r.done()
        return desc

    def spawn(self, model_id: str,
              parameters: dict[str, float] | None = None) -> "RemoteSlave":
        """A new slave, whose session is a connection of its own."""
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
        sock = _connect(self.address, self._timeout)
        try:
            r = _request(sock, MT.SPAWN, w.payload(), MT.SPAWNED)
            desc = wire.read_descriptor(r)
            r.done()
        except BaseException:
            sock.close()
            raise
        return RemoteSlave(sock, desc)

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
    """Proxy for a spawned slave; owns its session socket, whose timeout
    bounds every request but STEP."""

    def __init__(self, sock: socket.socket, descriptor: SlaveDescriptor):
        self._sock = sock
        self._desc = descriptor
        self._n_outputs = 0  # outputs the provider answers with once bound
        self._control_timeout = sock.gettimeout()
        self._closed = False
        self._reply_owed = False  # a STEP went out and its reply is unread

    def descriptor(self) -> SlaveDescriptor:
        return self._desc

    def setup(self, t_start: float, t_end: float) -> None:
        payload = Writer().f64(t_start).f64(t_end).payload()
        _request(self._sock, MT.SETUP, payload, MT.OK).done()

    def initialize(self) -> None:
        _request(self._sock, MT.INITIALIZE, b"", MT.OK).done()

    def bind(self, inputs: list[str], outputs: list[str]) -> None:
        w = Writer()
        for names in (inputs, outputs):
            w.count(len(names))
            for name in names:
                w.string(name)
        _request(self._sock, MT.BIND, w.payload(), MT.OK).done()
        self._n_outputs = len(outputs)

    def set_inputs(self, values: list[float]) -> None:
        w = Writer().count(len(values))
        for value in values:
            w.f64(value)
        _request(self._sock, MT.SET_INPUTS, w.payload(), MT.OK).done()

    def do_step(self, t: float, dt: float) -> StepOutcome:
        self.start_step(t, dt)
        return self.finish_step(t, dt, STEP_TIMEOUT)

    def start_step(self, t: float, dt: float) -> None:
        self._reply_owed = True
        wire.send_frame(self._sock, MT.STEP, Writer().f64(t).f64(dt).payload())

    def finish_step(self, t: float, dt: float, timeout: float) -> StepOutcome:
        self._sock.settimeout(timeout)
        try:
            got, body = wire.recv_frame(self._sock)
        finally:
            self._sock.settimeout(self._control_timeout)
        self._reply_owed = False
        r = Reader(body)
        if got == MT.STEP_OK:
            end_time = r.f64()
            r.done()
            return StepOutcome(StepStatus.OK, end_time)
        if got == MT.STEP_FAIL:
            end_time = r.f64()
            diagnostic = r.string()
            r.done()
            return StepOutcome(StepStatus.FAILED, end_time, diagnostic)
        if got == MT.ERROR:
            raise _error(body)
        raise ProtocolError(f"unexpected STEP response type {got}")

    def get_outputs(self) -> list[float]:
        r = _request(self._sock, MT.GET_OUTPUTS, b"", MT.OUTPUTS)
        count = r.count()
        if count != self._n_outputs:
            raise ProtocolError(f"bound {self._n_outputs} outputs, got {count}")
        values = [r.f64() for _ in range(count)]
        r.done()
        return values

    def terminate(self) -> None:
        if self._closed:
            raise InvalidState("slave is already terminated")
        try:
            # An owed STEP reply desyncs the stream, so only close; the
            # provider frees the slave once its abandoned step returns.
            if not self._reply_owed:
                _request(self._sock, MT.TERMINATE, b"", MT.TERMINATED).done()
        finally:
            self._closed = True
            try:
                self._sock.close()
            except OSError:
                pass


@dataclass(frozen=True)
class CatalogueEntry:
    provider: str
    model_id: str
    descriptor: SlaveDescriptor


def discover(addresses: list[str],
             timeout: float = CONTROL_TIMEOUT,
             ) -> tuple[list[CatalogueEntry], list[str]]:
    """Collect (provider, model, descriptor) from each reachable provider.

    Unreachable or misbehaving providers produce warnings, not failures;
    two providers sharing a model id both stay in the catalogue.
    """
    entries: list[CatalogueEntry] = []
    warnings: list[str] = []
    for address in addresses:
        try:
            with ProviderClient(address, timeout=timeout) as client:
                for model_id in client.list_models():
                    entries.append(CatalogueEntry(
                        address, model_id, client.describe(model_id)))
        except (OSError, ConnectionLost, ProtocolError) as exc:
            warnings.append(f"provider {address}: {exc}")
    return entries, warnings


class NetworkResolver:
    """Builds slaves locally or on providers, per each spec's provider field.

    Control connections are opened lazily and shared across specs that name
    the same provider address; each remote slave has a connection of its own.
    """

    def __init__(self, registry: ModelRegistry):
        self.registry = registry
        self._clients: dict[str, ProviderClient] = {}

    def _client(self, address: str) -> ProviderClient:
        client = self._clients.get(address)
        if client is None:
            client = ProviderClient(address)
            self._clients[address] = client
        return client

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
