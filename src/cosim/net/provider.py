"""Slave-provider daemon: publishes models over TCP and spawns live slaves.

One listening socket is the provider's only port.  Each connection it
accepts is served on its own thread and answers control requests (HELLO,
LIST_MODELS, DESCRIBE, SPAWN).  A successful SPAWN replies SPAWNED with the
slave's descriptor and turns that connection into the slave's session,
served on the same thread, so per-slave request ordering is trivially
strict.  A step is one request: STEP carries the inputs, and STEP_OK the
bound outputs.  When the session ends, by TERMINATE or a dropped
connection, the slave is terminated and its slot freed, once.
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


@dataclass
class ProviderConfig:
    host: str = "127.0.0.1"
    port: int = 0  # 0 picks an ephemeral port
    model_ids: tuple[str, ...] = ()  # empty means every registered model
    max_slaves: int = 64

    def __post_init__(self):
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
        self._lock = threading.Lock()
        self._live_slaves = 0
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
                target=self._serve_control,
                args=(conn, peer),
                name=f"conn:{peer}",
                daemon=True,
            ).start()

    def _serve_control(self, conn: socket.socket, peer) -> None:
        with self._lock:
            if self._closing:
                conn.close()
                return
            self._conns.add(conn)
        try:
            with conn:
                conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
                if not self._handshake(conn):
                    return
                spawned = None
                while spawned is None:
                    msg_type, payload = wire.recv_frame(conn)
                    spawned = self._dispatch_control(conn, msg_type, payload)
                self._serve_slave(conn, *spawned)
        except ConnectionLost:
            pass
        except ProtocolError as exc:
            log.warning("connection from %s dropped: %s", peer, exc)
        except Exception:
            log.exception("connection from %s crashed", peer)
        finally:
            with self._lock:
                self._conns.discard(conn)

    def _handshake(self, conn: socket.socket) -> bool:
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

    def _dispatch_control(self, conn: socket.socket, msg_type: int, payload: bytes):
        """Handle one control request; a spawn returns (instance, descriptor)."""
        try:
            if msg_type == MT.LIST_MODELS:
                Reader(payload).done()
                w = Writer().count(len(self.model_ids))
                for model_id in self.model_ids:
                    w.string(model_id)
                wire.send_frame(conn, MT.MODEL_LIST, w.payload())
            elif msg_type == MT.DESCRIBE:
                r = Reader(payload)
                model_id = r.string()
                r.done()
                desc = self._describe(model_id)
                w = Writer()
                wire.write_descriptor(w, desc)
                wire.send_frame(conn, MT.DESCRIPTION, w.payload())
            elif msg_type == MT.SPAWN:
                r = Reader(payload)
                model_id = r.string()
                parameters = {}
                for _ in range(r.count()):
                    name = r.string()
                    parameters[name] = r.f64()
                r.done()
                desc = self._describe(model_id)  # refuses unpublished models
                return self._spawn(model_id, parameters), desc
            else:
                _send_error(conn, ProtocolError(
                    f"unexpected control message type {msg_type}"))
        except CosimError as exc:
            _send_error(conn, exc)
        return None

    def _describe(self, model_id: str):
        # Hide registry entries this provider was told not to publish.
        if model_id not in self.model_ids:
            raise UnknownModel(f"unknown model {model_id!r}")
        return self.registry.describe(model_id)

    def _spawn(self, model_id: str, parameters: dict) -> SlaveInstance:
        with self._lock:
            if self._live_slaves >= self.config.max_slaves:
                raise SpawnLimitExceeded(
                    f"provider is at its limit of {self.config.max_slaves} slaves")
            self._live_slaves += 1
        try:
            return self.registry.create(model_id, parameters)
        except BaseException:
            with self._lock:
                self._live_slaves -= 1
            raise

    def _serve_slave(self, conn: socket.socket, instance: SlaveInstance,
                     desc) -> None:
        """Reply SPAWNED, then serve the slave until TERMINATE or a drop;
        however the session ends, the slave is released here, once."""
        try:
            w = Writer()
            wire.write_descriptor(w, desc)
            wire.send_frame(conn, MT.SPAWNED, w.payload())
            bound = False
            while bound is not None:
                msg_type, payload = wire.recv_frame(conn)
                bound = self._dispatch_slave(conn, instance, bound, msg_type, payload)
        finally:
            with self._lock:
                self._live_slaves -= 1
            try:
                instance.terminate()
            except CosimError:
                pass  # already terminated through the protocol

    def _dispatch_slave(self, conn, instance: SlaveInstance, bound: bool,
                        msg_type: int, payload: bytes) -> bool | None:
        """Handle one request; returns whether the slave is bound (only a
        bound slave's STEP_OK has outputs), or None to end the session."""
        try:
            if msg_type == MT.SETUP:
                r = Reader(payload)
                t_start, t_end = r.f64(), r.f64()
                r.done()
                instance.setup(t_start, t_end)
                wire.send_frame(conn, MT.OK)
            elif msg_type == MT.INITIALIZE:
                Reader(payload).done()
                instance.initialize()
                wire.send_frame(conn, MT.OK)
            elif msg_type == MT.BIND:
                r = Reader(payload)
                inputs = [r.string() for _ in range(r.count())]
                outputs = [r.string() for _ in range(r.count())]
                r.done()
                instance.bind(inputs, outputs)
                bound = True
                wire.send_frame(conn, MT.OK)
            elif msg_type == MT.STEP:
                r = Reader(payload)
                t, dt = r.f64(), r.f64()
                _set_inputs(instance, r)
                w = Writer().f64(instance.do_step(t, dt))
                w.f64s(instance.get_outputs() if bound else ())
                wire.send_frame(conn, MT.STEP_OK, w.payload())
            elif msg_type == MT.GET_OUTPUTS:
                _set_inputs(instance, Reader(payload))
                w = Writer().f64s(instance.get_outputs())
                wire.send_frame(conn, MT.OUTPUTS, w.payload())
            elif msg_type == MT.TERMINATE:
                Reader(payload).done()
                instance.terminate()
                wire.send_frame(conn, MT.TERMINATED)
                return None
            else:
                _send_error(conn, ProtocolError(
                    f"unexpected slave message type {msg_type}"))
        except CosimError as exc:
            _send_error(conn, exc)
        except Exception as exc:  # keep serving; report the failure
            log.exception("slave operation failed")
            _send_error(conn, CosimError(f"{type(exc).__name__}: {exc}"))
        return bound


def _set_inputs(instance: SlaveInstance, r: Reader) -> None:
    """Set the values that end a request; none leaves the inputs as they are."""
    values = r.f64s()
    r.done()
    if values:
        instance.set_inputs(values)


def _send_error(conn: socket.socket, exc: BaseException) -> None:
    payload = Writer().u64(wire.error_code(exc)).string(str(exc)).payload()
    wire.send_frame(conn, MT.ERROR, payload)
