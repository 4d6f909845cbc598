"""Client side of the provider protocol: catalogue access and remote slaves.

``ProviderClient.spawn`` sends SPAWN on a connection of its own, which the
provider then serves as the slave's session; the RemoteSlave it returns
owns that socket.  A RemoteSlave satisfies the same contract as an
in-process slave, and reals cross the wire as exact binary64, so a
distributed run reproduces an in-process run bit for bit.  ``bind`` sends
the input and output names once, in a BIND frame; later frames carry
values only, in the bound order.  A step is one round trip: STEP carries
the inputs ``set_inputs`` stored, and its reply the outputs
``get_outputs`` returns.  Only reads before any step send GET_OUTPUTS.
SETUP, INITIALIZE and BIND answer only OK: they go out without waiting,
and the owed OKs are read, in order, before the next request that returns
data; an ERROR there raises noted ``in reply to`` the request it answers.
SPAWN goes out behind HELLO, unwaited.  ``NetworkResolver`` sends one
DESCRIBE per provider and model id.
"""
from __future__ import annotations

import socket
from dataclasses import dataclass

from ..errors import ConnectionLost, CosimError, InvalidState, ProtocolError
from ..slave import ModelRegistry, SlaveInstance
from ..system import SlaveDescriptor, SlaveSpec
from . import wire
from .wire import MessageType as MT, Reader, Writer

CONTROL_TIMEOUT = 5.0


def _split_address(address: str) -> tuple[str, int]:
    host, sep, port = address.rpartition(":")
    if not sep or not host:
        raise ProtocolError(f"expected host:port, got {address!r}")
    try:
        return host, int(port)
    except ValueError as exc:
        raise ProtocolError(f"bad port in {address!r}") from exc


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


def _request(sock: socket.socket, msg_type: int, payload: bytes,
             expect: int) -> Reader:
    """One round trip; ERROR frames come back as typed exceptions."""
    wire.send_frame(sock, msg_type, payload)
    return _reply(*wire.recv_frame(sock), expect)


def _connect(address: str, timeout: float, *then: tuple[int, bytes]) -> socket.socket:
    """A connection to the provider at ``address`` that has passed HELLO.
    The requests ``then`` go out behind HELLO before its reply is read;
    their replies are the caller's to read."""
    sock = socket.create_connection(_split_address(address), timeout=timeout)
    try:
        # Frames go out at once: Nagle would hold one sent behind another.
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        hello = (MT.HELLO, Writer().u64(wire.PROTOCOL_VERSION).payload())
        for msg_type, payload in (hello, *then):
            wire.send_frame(sock, msg_type, payload)
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
        sock = _connect(self.address, self._timeout, (MT.SPAWN, w.payload()))
        try:
            r = _reply(*wire.recv_frame(sock), MT.SPAWNED)
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
    bounds every reply but a STEP reply that the master reads."""

    def __init__(self, sock: socket.socket, descriptor: SlaveDescriptor):
        self._sock = sock
        self._desc = descriptor
        self._n_inputs: int | None = None  # bound counts; None until bound
        self._n_outputs = 0
        self._inputs: list[float] = []  # stored since the last request
        self._outputs: list[float] | None = None  # as last read, while current
        self._timeout = sock.gettimeout()
        self._closed = False
        self._owed: list[int] = []  # requests whose replies are unread, oldest first

    def descriptor(self) -> SlaveDescriptor:
        return self._desc

    def _post(self, msg_type: int, payload: bytes = b"") -> None:
        # Only reads are timed: the few frames sent ahead of their replies
        # fit in the socket buffers.
        self._owed.append(msg_type)
        wire.send_frame(self._sock, msg_type, payload)

    def _send(self, msg_type: int, payload: bytes = b"") -> None:
        """Send a request that returns data, once every owed reply is read."""
        while self._owed:
            self._read(self._timeout, MT.OK).done()
        self._post(msg_type, payload)

    def _read(self, timeout: float, expect: int) -> Reader:
        """The oldest reply owed, waited for up to ``timeout`` seconds; an
        ERROR raises with a note that names the request it answers."""
        self._sock.settimeout(timeout)
        got, body = wire.recv_frame(self._sock)
        request = self._owed.pop(0)
        try:
            return _reply(got, body, expect)
        except CosimError as exc:
            if hasattr(exc, "add_note"):  # Python 3.11 and later
                exc.add_note(f"in reply to {MT(request).name}")
            raise

    def _with_inputs(self, w: Writer) -> bytes:
        """``w``'s payload, ending with the inputs stored since the last request."""
        w.f64s(self._inputs)
        self._inputs = []
        return w.payload()

    def _keep_outputs(self, r: Reader) -> None:
        values = r.f64s()
        r.done()
        if len(values) != self._n_outputs:
            raise ProtocolError(f"bound {self._n_outputs} outputs, got {len(values)}")
        self._outputs = values

    def setup(self, t_start: float, t_end: float) -> None:
        self._post(MT.SETUP, Writer().f64(t_start).f64(t_end).payload())

    def initialize(self) -> None:
        self._post(MT.INITIALIZE)

    def bind(self, inputs: list[str], outputs: list[str]) -> None:
        w = Writer()
        for names in (inputs, outputs):
            w.count(len(names))
            for name in names:
                w.string(name)
        self._post(MT.BIND, w.payload())
        self._n_inputs, self._n_outputs = len(inputs), len(outputs)
        self._inputs, self._outputs = [], None

    def set_inputs(self, values: list[float]) -> None:
        if self._n_inputs is None:
            raise InvalidState("set_inputs before bind")
        if len(values) != self._n_inputs:
            raise InvalidState(f"{len(values)} values for {self._n_inputs} bound inputs")
        self._inputs = list(values)
        self._outputs = None

    def do_step(self, t: float, dt: float) -> float:
        self.start_step(t, dt)
        return self.finish_step(t, dt, self._timeout)

    def start_step(self, t: float, dt: float) -> None:
        self._outputs = None
        self._send(MT.STEP, self._with_inputs(Writer().f64(t).f64(dt)))

    def finish_step(self, t: float, dt: float, timeout: float) -> float:
        r = self._read(timeout, MT.STEP_OK)
        end = r.f64()
        self._keep_outputs(r)
        return end

    def get_outputs(self) -> list[float]:
        # Unbound, the provider says why there are no outputs to read.
        if self._outputs is None or self._n_inputs is None:
            self._send(MT.GET_OUTPUTS, self._with_inputs(Writer()))
            self._keep_outputs(self._read(self._timeout, MT.OUTPUTS))
        return list(self._outputs)

    def terminate(self) -> None:
        if self._closed:
            raise InvalidState("slave is already terminated")
        try:
            # An owed reply desyncs the stream, so only close; the provider
            # frees the slave once the call it is serving returns.
            if not self._owed:
                self._send(MT.TERMINATE)
                self._read(self._timeout, MT.TERMINATED).done()
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
        self._described: dict[tuple[str, str], SlaveDescriptor] = {}

    def _client(self, address: str) -> ProviderClient:
        client = self._clients.get(address)
        if client is None:
            client = ProviderClient(address)
            self._clients[address] = client
        return client

    def describe(self, spec: SlaveSpec) -> SlaveDescriptor:
        if not spec.provider:
            return self.registry.describe(spec.model_id)
        key = (spec.provider, spec.model_id)
        if key not in self._described:
            self._described[key] = self._client(spec.provider).describe(spec.model_id)
        return self._described[key]

    def create(self, spec: SlaveSpec) -> SlaveInstance:
        if spec.provider:
            return self._client(spec.provider).spawn(spec.model_id, spec.parameters)
        return self.registry.create(spec.model_id, spec.parameters)

    def close(self) -> None:
        for client in self._clients.values():
            client.close()
        self._clients.clear()
        self._described.clear()

    def __enter__(self) -> "NetworkResolver":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
