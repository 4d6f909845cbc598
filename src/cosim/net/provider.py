"""Slave-provider daemon: publishes models over TCP and spawns live slaves.

One listening socket is the provider's only port.  Each connection it
accepts gets TCP keepalive, so a vanished master's slots are freed
(``KEEPALIVE``), and a thread of its own, which closes the connection
unless HELLO completes within ``wire.CONTROL_TIMEOUT`` and then hands it
to ``serve_session``.  That function serves one session and needs no
``Provider``: it answers requests in the order they come and waits for
them without limit.  LIST_MODELS and DESCRIBE are answered at any time.
Each SPAWN takes a slot from the provider's pool, one bounded semaphore,
and answers SPAWNED with the slave's index, unique within the session,
and its descriptor; every slave request begins with that index.
INITIALIZE carries the start and end times: the slave is set up and
initialized, and OUTPUTS answers with its initial outputs.  A step is one
request: STEP carries the inputs, and STEP_OK the outputs, each in
descriptor order.  TERMINATE gives its slave's slot back at once.  When
the session ends, every slave still on it is terminated and its slot
given back, once.  A request that fails, an unknown index included, is
answered by ERROR, and the session goes on.
"""
from __future__ import annotations

import logging
import socket
import threading
from dataclasses import dataclass

from ..errors import (
    ConnectionLost,
    CosimError,
    ProtocolError,
    SpawnLimitExceeded,
    UnknownModel,
)
from ..slave import ModelRegistry, SlaveInstance
from . import wire
from .wire import MessageType as MT, Reader, Writer

log = logging.getLogger(__name__)

# TCP keepalive on every accepted connection, with these tunings where
# the platform names them: a master whose host vanished without closing
# is found dead, and its slots are freed, 30 + 6 * 5 = 60 s after its
# last packet.  A live master's host answers the probes however long it
# idles.
KEEPALIVE = tuple((getattr(socket, name), value)
                  for name, value in (("TCP_KEEPIDLE", 30), ("TCP_KEEPINTVL", 5),
                                      ("TCP_KEEPCNT", 6))
                  if hasattr(socket, name))


@dataclass
class ProviderConfig:
    host: str = "127.0.0.1"
    port: int = 0  # 0 picks an ephemeral port
    model_ids: tuple[str, ...] = ()  # empty means every registered model
    max_slaves: int = 64

    def __post_init__(self):
        if not 0 <= self.port <= 65535:
            raise ValueError(f"port must be in 0-65535, got {self.port}")
        if self.max_slaves < 1:
            raise ValueError("max_slaves must be at least 1")


class Provider:
    """Serves one model registry to the network."""

    def __init__(self, registry: ModelRegistry, config: ProviderConfig | None = None):
        self.registry = registry
        self.config = config or ProviderConfig()
        known = registry.model_ids()
        wanted = self.config.model_ids or known
        missing = sorted(set(wanted) - set(known))
        if missing:
            raise CosimError(f"models not in the registry: {', '.join(missing)}")
        self.model_ids = tuple(sorted(wanted))
        self._sock: socket.socket | None = None
        self._slots = threading.BoundedSemaphore(self.config.max_slaves)
        self._lock = threading.Lock()  # guards _conns
        self._conns: set[socket.socket] = set()
        self._closing = False
        self._thread: threading.Thread | None = None

    # -- lifecycle -----------------------------------------------------

    def start(self) -> "Provider":
        """Bind and serve in a background thread; returns immediately."""
        self._bind()
        self._thread = threading.Thread(
            target=self._accept_loop, name=f"provider:{self.port}", daemon=True
        )
        self._thread.start()
        return self

    def serve_forever(self) -> None:
        """Bind and serve on the calling thread until shutdown()."""
        self._bind()
        self._accept_loop()

    def shutdown(self) -> None:
        self._closing = True
        if self._sock is not None:
            try:
                # Wakes the accept loop, which closing alone leaves blocked.
                self._sock.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            self._sock.close()
        with self._lock:
            conns = list(self._conns)
        for conn in conns:
            try:
                # Wakes the serving thread, which ends the session.
                conn.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass

    @property
    def port(self) -> int:
        if self._sock is None:
            raise CosimError("provider is not bound yet")
        return self._sock.getsockname()[1]

    @property
    def address(self) -> str:
        return f"{self.config.host}:{self.port}"

    # -- internals -----------------------------------------------------

    def _bind(self) -> None:
        self._sock = socket.create_server((self.config.host, self.config.port))
        log.info("provider listening on %s (models: %s)",
                 self.address, ", ".join(self.model_ids))

    def _accept_loop(self) -> None:
        assert self._sock is not None
        while not self._closing:
            try:
                conn, peer = self._sock.accept()
            except OSError:
                break
            threading.Thread(
                target=self._serve,
                args=(conn, peer),
                name=f"conn:{peer}",
                daemon=True,
            ).start()

    def _serve(self, conn: socket.socket, peer) -> None:
        """Serve one connection: HELLO within the deadline, then the session."""
        with self._lock:
            if self._closing:
                conn.close()
                return
            self._conns.add(conn)
        try:
            with conn:
                conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
                conn.setsockopt(socket.SOL_SOCKET, socket.SO_KEEPALIVE, 1)
                for option, value in KEEPALIVE:
                    conn.setsockopt(socket.IPPROTO_TCP, option, value)
                conn.settimeout(wire.CONTROL_TIMEOUT)  # for HELLO alone
                if _handshake(conn):
                    conn.settimeout(None)
                    serve_session(conn, self.registry, self.model_ids, self._slots)
        except ConnectionLost:
            pass
        except ProtocolError as exc:
            log.warning("connection from %s dropped: %s", peer, exc)
        except Exception:
            log.exception("connection from %s crashed", peer)
        finally:
            with self._lock:
                self._conns.discard(conn)


def _handshake(conn: socket.socket) -> bool:
    msg_type, payload = wire.recv_frame(conn)
    if msg_type != MT.HELLO:
        _send_error(conn, ProtocolError("expected HELLO first"))
        return False
    r = Reader(payload)
    version = r.u64()
    r.done()
    if version != wire.PROTOCOL_VERSION:
        _send_error(conn, ProtocolError(
            f"unsupported protocol version {version}, "
            f"this provider speaks {wire.PROTOCOL_VERSION}"))
        return False
    wire.send_frame(conn, MT.HELLO_OK,
                    Writer().u64(wire.PROTOCOL_VERSION).payload())
    return True


def serve_session(conn: socket.socket, registry: ModelRegistry,
                  model_ids: tuple[str, ...], slots: threading.BoundedSemaphore,
                  ) -> None:
    """Serve ``conn``, a connection past HELLO, until the peer goes.

    Each SPAWN takes one of ``slots`` without waiting; TERMINATE and the
    end of the session give it back.  The caller owns ``conn``."""
    slaves: dict[int, SlaveInstance] = {}
    spawned = 0  # indexes handed out on this session
    try:
        while True:
            msg_type, payload = wire.recv_frame(conn)
            r = Reader(payload)
            try:
                if msg_type in _SLAVE_REQUESTS:
                    index = r.u64()
                    if index not in slaves:
                        raise ProtocolError(
                            f"no live slave with index {index} on this session")
                    instance = slaves[index]
                if msg_type == MT.LIST_MODELS:
                    r.done()
                    w = Writer().count(len(model_ids))
                    for model_id in model_ids:
                        w.string(model_id)
                    wire.send_frame(conn, MT.MODEL_LIST, w.payload())
                elif msg_type == MT.DESCRIBE:
                    model_id = r.string()
                    r.done()
                    w = Writer()
                    wire.write_descriptor(w, _describe(registry, model_ids, model_id))
                    wire.send_frame(conn, MT.DESCRIPTION, w.payload())
                elif msg_type == MT.SPAWN:
                    model_id = r.string()
                    parameters = {}
                    for _ in range(r.count()):
                        name = r.string()
                        parameters[name] = r.f64()
                    r.done()
                    desc = _describe(registry, model_ids, model_id)  # refuses unpublished models
                    if not slots.acquire(blocking=False):
                        # CPython keeps the semaphore's size here.
                        raise SpawnLimitExceeded(
                            f"provider is at its limit of {slots._initial_value} slaves")
                    try:
                        instance = registry.create(model_id, parameters)
                    except BaseException:
                        slots.release()
                        raise
                    spawned += 1
                    slaves[spawned] = instance
                    w = Writer().u64(spawned)
                    wire.write_descriptor(w, desc)
                    wire.send_frame(conn, MT.SPAWNED, w.payload())
                elif msg_type == MT.INITIALIZE:
                    t_start, t_end = r.f64(), r.f64()
                    r.done()
                    instance.setup(t_start, t_end)
                    instance.initialize()
                    w = Writer().f64s(instance.get_outputs())
                    wire.send_frame(conn, MT.OUTPUTS, w.payload())
                elif msg_type == MT.STEP:
                    t, dt = r.f64(), r.f64()
                    _set_inputs(instance, r)
                    w = Writer().f64(instance.do_step(t, dt))
                    w.f64s(instance.get_outputs())
                    wire.send_frame(conn, MT.STEP_OK, w.payload())
                elif msg_type == MT.GET_OUTPUTS:
                    _set_inputs(instance, r)
                    w = Writer().f64s(instance.get_outputs())
                    wire.send_frame(conn, MT.OUTPUTS, w.payload())
                elif msg_type == MT.TERMINATE:  # frees the slot even if it fails
                    r.done()
                    del slaves[index]
                    _end(instance, slots)
                    wire.send_frame(conn, MT.TERMINATED)
                else:
                    raise ProtocolError(f"unexpected message type {msg_type}")
            except CosimError as exc:
                _send_error(conn, exc)
            except Exception as exc:  # keep serving; report the failure
                log.exception("slave operation failed")
                _send_error(conn, CosimError(f"{type(exc).__name__}: {exc}"))
    except ConnectionLost:
        pass
    finally:
        for instance in slaves.values():
            try:
                _end(instance, slots)
            except Exception:
                log.exception("terminate failed as a session ended")


def _describe(registry: ModelRegistry, model_ids: tuple[str, ...], model_id: str):
    # Hide registry entries this provider was told not to publish.
    if model_id not in model_ids:
        raise UnknownModel(f"unknown model {model_id!r}")
    return registry.describe(model_id)


def _end(instance: SlaveInstance, slots: threading.BoundedSemaphore) -> None:
    """Free the slave's slot, then terminate it."""
    slots.release()
    instance.terminate()


_SLAVE_REQUESTS = frozenset((MT.INITIALIZE, MT.STEP, MT.GET_OUTPUTS, MT.TERMINATE))


def _set_inputs(instance: SlaveInstance, r: Reader) -> None:
    """Set the values that end a request; none leaves the inputs as they are."""
    values = r.f64s()
    r.done()
    if values:
        instance.set_inputs(values)


def _send_error(conn: socket.socket, exc: BaseException) -> None:
    payload = Writer().u64(wire.error_code(exc)).string(str(exc)).payload()
    wire.send_frame(conn, MT.ERROR, payload)
