"""Networked slaves: provider daemon, client proxies, distributed runs."""
import dataclasses
import math
import socket
import sys
import threading
import time
from contextlib import contextmanager

import pytest
from hypothesis import given, settings, strategies as st

from cosim import cli
from cosim.errors import (
    BarrierTimeout,
    ConnectionLost,
    CosimError,
    InvalidState,
    InvalidSystem,
    ProtocolError,
    RunAborted,
    SpawnLimitExceeded,
    UnknownModel,
    UnknownParameter,
)
from cosim.master import LocalResolver, initialize_run, run_to_end
from cosim.models import MsdIntegral, registry as standard_registry
from cosim.net import (
    MessageType as MT,
    PROTOCOL_VERSION,
    NetworkResolver,
    Provider,
    ProviderClient,
    ProviderConfig,
    RemoteSlave,
    discover,
    wire,
)
from cosim.net.provider import serve_session
from cosim.net.wire import Reader, Writer, encode_frame, recv_frame, send_frame
from cosim.observers import MemoryObserver
from cosim.slave import ModelRegistry
from cosim.system import (
    Causality,
    FixedStepPolicy,
    FunctionUnitSpec,
    PortRef,
    Resolution,
    SignalConnection,
    SlaveSpec,
    SystemDescription,
    VariableDescriptor,
    VarKind,
    validate_system,
)
from cosim.units import KILONEWTON, METER, NEWTON, Unit

from conftest import (
    FaultyModel,
    extended_registry,
    msd_pair_system,
    run_system,
    spawn_within,
)


def remote_pair_system(address, t_end=2.0, remote=("left", "right")):
    system = msd_pair_system(FixedStepPolicy(1e-2), t_end=t_end)
    placed = tuple(
        dataclasses.replace(s, provider=address) if s.name in remote else s
        for s in system.slaves
    )
    return dataclasses.replace(system, slaves=placed)


def client_frames(monkeypatch, log=None) -> tuple[list[int], list[int]]:
    """The message types this thread sends and reads from now on, in
    order: the client's frames, not the in-process provider's.  ``log``,
    if given, gets both interleaved, as ("sent" or "read", type)."""
    sent, read = [], []
    log = [] if log is None else log
    send, recv, me = wire.send_frame, wire.recv_frame, threading.get_ident()

    def sending(sock, msg_type, payload=b""):
        if threading.get_ident() == me:
            sent.append(msg_type)
            log.append(("sent", msg_type))
        send(sock, msg_type, payload)

    def reading(sock):
        frame = recv(sock)
        if threading.get_ident() == me:
            read.append(frame[0])
            log.append(("read", frame[0]))
        return frame

    monkeypatch.setattr(wire, "send_frame", sending)
    monkeypatch.setattr(wire, "recv_frame", reading)
    return sent, read


def spawn_until(client, limit, give_up):
    """``limit`` slaves spawned on ``client``, retrying while the provider
    is at its limit; fail once ``time.monotonic()`` passes ``give_up``."""
    slaves = []
    while len(slaves) < limit:
        try:
            slaves.append(client.spawn("sine_source", {}))
        except SpawnLimitExceeded:
            if time.monotonic() > give_up:
                pytest.fail(f"{len(slaves)} of {limit} slots freed in time")
            time.sleep(0.01)
    return slaves


def pairs_on(providers, per_provider):
    """``per_provider`` msd pairs on each provider, each pair bonded."""
    pair = msd_pair_system(FixedStepPolicy(1e-2), t_end=0.1)
    slaves, bonds = [], []
    for i in range(len(providers) * per_provider):
        names = {s.name: f"{s.name}{i}" for s in pair.slaves}
        address = providers[i // per_provider].address
        slaves += [dataclasses.replace(s, name=names[s.name], provider=address)
                   for s in pair.slaves]
        for bond in pair.bonds:
            sides = [dataclasses.replace(side, slave=names[side.slave])
                     for side in bond.sides()]
            bonds.append(dataclasses.replace(bond, name=f"{bond.name}{i}",
                                             side_a=sides[0], side_b=sides[1]))
    return dataclasses.replace(pair, slaves=tuple(slaves), bonds=tuple(bonds))


@contextmanager
def stand_in(answer):
    """A provider stand-in on a thread that answers HELLO and passes each
    later frame to ``answer(conn, msg_type, reader)``, which may answer
    or not; with ``answer`` None it answers nothing, HELLO included.  It
    serves one connection at a time until the block ends.  Yields its
    address and the (connection number, message type) of every frame it
    read."""
    listener = socket.create_server(("127.0.0.1", 0))
    listener.settimeout(0.05)
    host, port = listener.getsockname()
    read, done = [], threading.Event()

    def serve():
        n = 0
        while not done.is_set():
            try:
                conn, _ = listener.accept()
            except TimeoutError:
                continue
            n += 1
            with conn:
                conn.settimeout(2.0)
                try:
                    while True:
                        msg, body = recv_frame(conn)
                        read.append((n, msg))
                        if answer is None:
                            continue
                        if msg == MT.HELLO:
                            send_frame(conn, MT.HELLO_OK,
                                       Writer().u64(PROTOCOL_VERSION).payload())
                        else:
                            answer(conn, msg, Reader(body))
                except ConnectionLost:
                    pass  # the client closed its end

    server = threading.Thread(target=serve)
    server.start()
    try:
        yield f"{host}:{port}", read
    finally:
        done.set()
        server.join(5.0)
        listener.close()
    assert not server.is_alive()


def faulty_left_system(address, stage, call, mode):
    """msd_pair whose left slave is a remote ``faulty`` model."""
    system = msd_pair_system(FixedStepPolicy(1e-2), t_end=1.0)
    params = {"stage": FaultyModel.STAGES.index(stage), "call": call,
              "mode": FaultyModel.MODES.index(mode)}
    left = dataclasses.replace(system.slaves[0], model_id="faulty",
                               parameters=params, provider=address)
    return dataclasses.replace(system, slaves=(left, system.slaves[1]))


class TestControlChannel:
    def test_list_models(self, provider):
        with ProviderClient(provider.address) as client:
            models = client.list_models()
        assert "msd_integral" in models
        assert list(models) == sorted(models)

    def test_describe_matches_local(self, provider):
        local = standard_registry.describe("msd_integral")
        with ProviderClient(provider.address) as client:
            remote = client.describe("msd_integral")
        assert remote.model_id == local.model_id
        assert [v.name for v in remote.variables] == \
               [v.name for v in local.variables]
        assert remote.parameters == local.parameters

    def test_describe_unknown_model(self, provider):
        with ProviderClient(provider.address) as client:
            with pytest.raises(UnknownModel):
                client.describe("warp_drive")

    def test_unpublished_model_is_hidden(self):
        prov = Provider(
            standard_registry,
            ProviderConfig(host="127.0.0.1", port=0,
                           model_ids=("msd_integral",)),
        ).start()
        try:
            with ProviderClient(prov.address) as client:
                assert client.list_models() == ("msd_integral",)
                with pytest.raises(UnknownModel):
                    client.describe("msd_differential")
        finally:
            prov.shutdown()

    @pytest.mark.parametrize("version", [1, 2, 3, 6, 7, 999])
    def test_version_mismatch_rejected(self, provider, version):
        host, port = provider.address.rsplit(":", 1)
        with socket.create_connection((host, int(port)), timeout=5) as sock:
            send_frame(sock, MT.HELLO, Writer().u64(version).payload())
            msg_type, payload = recv_frame(sock)
        assert msg_type == MT.ERROR
        r = Reader(payload)
        assert r.u64() == 9  # protocol error
        assert "version" in r.string()

    def test_non_hello_first_message_rejected(self, provider):
        host, port = provider.address.rsplit(":", 1)
        with socket.create_connection((host, int(port)), timeout=5) as sock:
            send_frame(sock, MT.LIST_MODELS, b"")
            msg_type, payload = recv_frame(sock)
        assert msg_type == MT.ERROR
        r = Reader(payload)
        r.u64()
        assert "HELLO" in r.string()

    def test_spawn_rejects_non_numeric_parameters(self, provider):
        with ProviderClient(provider.address) as client:
            with pytest.raises(ProtocolError):
                client.spawn("msd_integral", {"m": "heavy"})

    def test_a_refused_hello_still_names_the_version(self):
        # The peer refuses the session's HELLO and closes; the client
        # raises the ERROR it sent, typed, with its text.
        listener = socket.create_server(("127.0.0.1", 0))
        address = "127.0.0.1:%d" % listener.getsockname()[1]
        text = f"unsupported protocol version {PROTOCOL_VERSION}, this provider speaks 5"

        def serve():
            conn, _ = listener.accept()
            with conn:
                assert recv_frame(conn)[0] == MT.HELLO
                send_frame(conn, MT.ERROR, Writer().u64(9).string(text).payload())

        server = threading.Thread(target=serve)
        server.start()
        try:
            with pytest.raises(ProtocolError, match=text):
                ProviderClient(address)
        finally:
            server.join(5.0)
            listener.close()
        assert not server.is_alive()

    def test_describe_after_spawn_is_answered(self, provider):
        # Catalogue requests are answered at any time on a session.
        with ProviderClient(provider.address) as client:
            slave = client.spawn("msd_integral", {})
            assert client.describe("msd_integral") == slave.descriptor()
            assert "msd_integral" in client.list_models()
            slave.terminate()

    def test_spawned_descriptor_matches_describe(self, provider):
        with ProviderClient(provider.address) as client:
            models = client.list_models()
            assert models
            for model_id in models:
                slave = client.spawn(model_id, {})
                try:
                    assert slave.descriptor() == client.describe(model_id), model_id
                finally:
                    slave.terminate()

    def test_abandoned_spawn_frees_its_slot(self):
        # A client that spawns and then goes away must not keep the slot.
        prov = Provider(
            standard_registry,
            ProviderConfig(host="127.0.0.1", port=0, max_slaves=1),
        ).start()
        try:
            host, port = prov.address.rsplit(":", 1)
            with socket.create_connection((host, int(port)), timeout=5) as sock:
                send_frame(sock, MT.HELLO,
                           Writer().u64(PROTOCOL_VERSION).payload())
                assert recv_frame(sock)[0] == MT.HELLO_OK
                send_frame(sock, MT.SPAWN,
                           Writer().string("sine_source").count(0).payload())
                assert recv_frame(sock)[0] == MT.SPAWNED
            closed = time.monotonic()
            with ProviderClient(prov.address) as client:
                while True:
                    try:
                        slave = client.spawn("sine_source", {})
                        break
                    except SpawnLimitExceeded:
                        if time.monotonic() - closed > 1.0:
                            pytest.fail("slot not freed within 1 s")
                        time.sleep(0.01)
                slave.terminate()
        finally:
            prov.shutdown()


class TestRemoteSlave:
    def test_full_lifecycle_matches_local(self, provider):
        params = {"m": 2.0, "d": 0.3, "k": 1.5, "x0": 0.4, "h": 1e-3}

        def history(slave):
            slave.setup(0.0, 10.0)
            slave.initialize()
            out = []
            t = 0.0
            for _ in range(20):
                slave.set_inputs([0.25])
                t = slave.do_step(t, 0.05)
                out.extend(slave.get_outputs())
            slave.terminate()
            return out

        with ProviderClient(provider.address) as client:
            remote = history(client.spawn("msd_integral", params))
        local = history(standard_registry.create("msd_integral", params))
        assert remote == local  # bit-identical, not merely close

    def test_typed_errors_cross_the_wire(self, provider):
        client = ProviderClient(provider.address)
        slave = client.spawn("msd_integral", {})
        try:
            slave.setup(0.0, 1.0)
            slave.initialize()
            # The provider refuses a second INITIALIZE; its ERROR raises
            # typed, and names the request it answers.
            with pytest.raises(InvalidState) as err:
                slave.initialize()
            assert type(err.value) is InvalidState
            assert err.value.__notes__ == ["in reply to INITIALIZE"]
            for values in ([], [0.5, 0.5]):
                with pytest.raises(InvalidState):
                    slave.set_inputs(values)
            # the session still answers the next request
            assert client.describe("msd_integral") == slave.descriptor()
            assert slave.get_outputs() == [0.0, 0.0]
            # a wrong count that reaches the provider fails there, typed
            send_frame(client._sock, MT.STEP, Writer().u64(slave._index).f64(0.0)
                       .f64(0.1).count(2).f64(0.5).f64(0.5).payload())
            msg_type, body = recv_frame(client._sock)
            assert msg_type == MT.ERROR and Reader(body).u64() == 2
            slave.set_inputs([0.5])
            assert slave.do_step(0.0, 0.1) == 0.1
        finally:
            slave.terminate()
            client.close()

    def test_a_frame_without_values_keeps_the_inputs(self, provider,
                                                     monkeypatch):
        # Inputs set once ride on the first request after them; later
        # frames carry none, and the slave keeps integrating the same force.
        def history(slave):
            slave.setup(0.0, 10.0)
            slave.initialize()
            slave.set_inputs([0.25])
            out = list(slave.get_outputs())
            t = 0.0
            for _ in range(5):
                t = slave.do_step(t, 0.05)
                out += slave.get_outputs()
            slave.terminate()
            return out

        params = {"m": 2.0, "x0": 0.4}
        with ProviderClient(provider.address) as client:
            slave = client.spawn("msd_integral", params)
            sent, _ = client_frames(monkeypatch)
            remote = history(slave)
        local = history(standard_registry.create("msd_integral", params))
        assert remote == local
        assert sent == [MT.INITIALIZE, MT.GET_OUTPUTS, *[MT.STEP] * 5, MT.TERMINATE]

    def test_wrong_input_count_fails_before_sending(self, provider,
                                                    monkeypatch):
        client = ProviderClient(provider.address)
        slave = client.spawn("msd_integral", {})
        try:
            slave.setup(0.0, 1.0)
            slave.initialize()
            sent, _ = client_frames(monkeypatch)
            for values in ([], [0.5, 0.5]):
                with pytest.raises(InvalidState, match="values for 1 inputs"):
                    slave.set_inputs(values)
            assert sent == []
        finally:
            slave.terminate()
            client.close()

    def test_setup_out_of_order_fails_before_sending(self, provider, monkeypatch):
        # setup keeps the span locally, so its order is checked there, as
        # an in-process slave checks it.
        with ProviderClient(provider.address) as client:
            slave = client.spawn("sine_source", {})
            sent, read = client_frames(monkeypatch)
            with pytest.raises(InvalidState, match="before setup"):
                slave.initialize()
            slave.setup(0.0, 1.0)
            with pytest.raises(InvalidState, match="already set up"):
                slave.setup(0.0, 2.0)
            assert sent == [] and read == []
            slave.initialize()
            assert sent == [MT.INITIALIZE] and read == [MT.OUTPUTS]
            slave.terminate()

    def test_hung_setup_request_closes_without_terminate(self, release_hangs,
                                                          monkeypatch):
        # A request cut off by its timeout leaves its reply owed on the
        # stream, so terminate only closes the socket; the provider frees
        # the slot once the hung call returns.
        prov = Provider(extended_registry(),
                        ProviderConfig(host="127.0.0.1", port=0,
                                       max_slaves=1)).start()
        try:
            with ProviderClient(prov.address, timeout=0.3) as client:
                slave = client.spawn("faulty", {
                    "stage": FaultyModel.STAGES.index("get_outputs"),
                    "call": 1, "mode": FaultyModel.MODES.index("hang")})
                slave.setup(0.0, 1.0)
                with pytest.raises(ConnectionLost):
                    slave.initialize()  # its reply reads the outputs
                sent, _ = client_frames(monkeypatch)
                started = time.monotonic()
                slave.terminate()
                assert time.monotonic() - started < 0.1
                assert sent == []
            release_hangs.set()
            spawn_within(prov.address, 1.0)
        finally:
            prov.shutdown()

    def test_terminate_twice_rejected_locally(self, provider):
        with ProviderClient(provider.address) as client:
            slave = client.spawn("sine_source", {})
        slave.terminate()
        with pytest.raises(InvalidState):
            slave.terminate()

    def test_step_failure_reports_diagnostic(self, provider):
        client = ProviderClient(provider.address)
        slave = client.spawn("fail_after", {"t_fail": 0.1})
        try:
            slave.setup(0.0, 1.0)
            slave.initialize()
            with pytest.raises(CosimError, match="diverged") as err:
                slave.do_step(0.0, 0.5)
            assert "in reply to STEP" in err.value.__notes__
        finally:
            slave.terminate()
            client.close()

    def test_spawn_limit_and_slot_release(self):
        prov = Provider(
            standard_registry,
            ProviderConfig(host="127.0.0.1", port=0, max_slaves=1),
        ).start()
        try:
            with ProviderClient(prov.address) as client:
                first = client.spawn("sine_source", {})
                with pytest.raises(SpawnLimitExceeded):
                    client.spawn("sine_source", {})
                first.terminate()
                # termination frees the slot; give the release a moment
                import time
                for _ in range(50):
                    try:
                        second = client.spawn("sine_source", {})
                        break
                    except SpawnLimitExceeded:
                        time.sleep(0.02)
                else:
                    pytest.fail("slot never released")
                second.terminate()
        finally:
            prov.shutdown()

    def test_a_refused_parameter_gives_the_slot_back(self):
        prov = Provider(
            standard_registry,
            ProviderConfig(host="127.0.0.1", port=0, max_slaves=1),
        ).start()
        try:
            with ProviderClient(prov.address) as client:
                with pytest.raises(UnknownParameter, match="no_such"):
                    client.spawn("sine_source", {"no_such": 1.0})
                # released before the ERROR went out: no wait needed
                client.spawn("sine_source", {}).terminate()
        finally:
            prov.shutdown()

    def test_concurrent_sessions_free_each_slot_once(self):
        # Slaves that end by TERMINATE or by closing their session, from
        # more threads than cores, each free their slot exactly once: at
        # the end the provider takes ``limit`` spawns again, and no more.
        limit = 3
        prov = Provider(
            standard_registry,
            ProviderConfig(host="127.0.0.1", port=0, max_slaves=limit),
        ).start()
        spawned, errors = [], []

        def worker(k):
            try:
                for i in range(15):
                    with ProviderClient(prov.address) as client:
                        try:
                            slave = client.spawn("sine_source", {})
                        except SpawnLimitExceeded:
                            continue
                        spawned.append(k)
                        if (k + i) % 2:
                            slave.terminate()
                        # otherwise the session closes without TERMINATE
            except Exception as exc:
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            workers = [threading.Thread(target=worker, args=(k,))
                       for k in range(8)]
            for w in workers:
                w.start()
            for w in workers:
                w.join(30.0)
                assert not w.is_alive()
        finally:
            sys.setswitchinterval(interval)
        try:
            assert errors == [] and spawned
            give_up = time.monotonic() + 5.0
            with ProviderClient(prov.address) as client:
                slaves = spawn_until(client, limit, give_up)
                with pytest.raises(SpawnLimitExceeded):
                    client.spawn("sine_source", {})
                for slave in slaves:
                    slave.terminate()
        finally:
            prov.shutdown()


class TestSessions:
    """One connection is one session, which carries every slave spawned on
    it; every slave request begins with the slave's index."""

    def test_terminate_frees_its_slot_at_once(self):
        # The provider frees the slot before it answers TERMINATED, so the
        # next SPAWN needs no retry; the other slave on the session steps on.
        prov = Provider(standard_registry,
                        ProviderConfig(host="127.0.0.1", port=0, max_slaves=2)).start()
        try:
            with ProviderClient(prov.address) as client:
                first = client.spawn("sine_source", {})
                second = client.spawn("msd_integral", {})
                with pytest.raises(SpawnLimitExceeded):
                    client.spawn("sine_source", {})
                first.terminate()
                third = client.spawn("sine_source", {})
                second.setup(0.0, 1.0)
                second.initialize()
                second.set_inputs([0.5])
                assert second.do_step(0.0, 0.1) == 0.1
                assert len(second.get_outputs()) == 2
                for slave in (second, third):
                    slave.terminate()
        finally:
            prov.shutdown()

    def test_an_accepted_connection_keeps_alive(self, provider):
        # A master whose host vanishes sends no FIN; keepalive probes find
        # the connection dead, which ends the session and frees its slots.
        with ProviderClient(provider.address):
            (conn,) = provider._conns
            assert conn.getsockopt(socket.SOL_SOCKET, socket.SO_KEEPALIVE) != 0
            assert conn.getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY) != 0
            for name, value in (("TCP_KEEPIDLE", 30), ("TCP_KEEPINTVL", 5), ("TCP_KEEPCNT", 6)):
                if hasattr(socket, name):
                    assert conn.getsockopt(socket.IPPROTO_TCP, getattr(socket, name)) == value

    def test_an_unknown_index_is_answered_by_error(self, provider):
        with ProviderClient(provider.address) as client:
            gone = client.spawn("sine_source", {})
            gone.terminate()
            for index in (gone._index, gone._index + 1000):
                send_frame(client._sock, MT.GET_OUTPUTS,
                           Writer().u64(index).count(0).payload())
                msg_type, body = recv_frame(client._sock)
                assert msg_type == MT.ERROR
                r = Reader(body)
                assert r.u64() == 9  # protocol error
                assert f"index {index}" in r.string()
            # the session goes on
            assert "sine_source" in client.list_models()
            slave = client.spawn("sine_source", {})
            slave.setup(0.0, 1.0)
            slave.terminate()

    def test_a_reply_read_out_of_turn_is_refused(self, provider):
        # Replies come back in request order, so a read for one slave while
        # another's reply is owed first would take the other's values.
        with ProviderClient(provider.address) as client:
            first, second = (client.spawn("sine_source", {}) for _ in range(2))
            for slave in (first, second):
                slave.setup(0.0, 1.0)
                slave.initialize()
            for slave in (first, second):
                slave.start_step(0.0, 0.1)
            with pytest.raises(InvalidState, match="owed next"):
                second.finish_step(0.0, 0.1, 1.0)
            assert first.finish_step(0.0, 0.1, 1.0) == 0.1
            assert second.finish_step(0.0, 0.1, 1.0) == 0.1
            for slave in (first, second):
                slave.terminate()

    def test_a_request_refused_during_a_step_sends_nothing(self, provider,
                                                          monkeypatch):
        # A request that waits for its reply would take a step's owed
        # reply for its own, so it is refused before it is sent; the step
        # and every later request are answered.
        with ProviderClient(provider.address) as client:
            slave = client.spawn("sine_source", {})
            slave.setup(0.0, 1.0)
            slave.initialize()
            slave.get_outputs()
            slave.start_step(0.0, 0.1)
            sent, _ = client_frames(monkeypatch)
            with pytest.raises(InvalidState, match="owed"):
                client.describe("msd_integral")
            assert sent == []
            assert slave.finish_step(0.0, 0.1, 1.0) == 0.1
            assert "msd_integral" in client.list_models()
            assert client.describe("msd_integral") == standard_registry.describe("msd_integral")
            slave.terminate()

    def test_a_read_with_no_reply_owed_is_refused(self, provider):
        with ProviderClient(provider.address) as client:
            slave = client.spawn("sine_source", {})
            slave.setup(0.0, 1.0)
            slave.initialize()
            with pytest.raises(InvalidState, match="no reply is owed"):
                slave.finish_step(0.0, 0.1, 1.0)
            # nothing was read, so the session goes on
            slave.terminate()

    def test_a_late_reply_is_not_taken_for_the_next(self, monkeypatch):
        # The stand-in answers DESCRIBE msd_integral 0.5 s late, after the
        # 0.3 s read gave up; a read on the same session would take it.
        def answer(conn, msg, r):
            model_id = r.string()
            if msg == MT.DESCRIBE and model_id == "msd_integral":
                time.sleep(0.5)
            w = Writer().u64(0) if msg == MT.SPAWN else Writer()
            wire.write_descriptor(w, standard_registry.describe(model_id))
            send_frame(conn, MT.SPAWNED if msg == MT.SPAWN else MT.DESCRIPTION, w.payload())

        with stand_in(answer) as (address, read):
            with ProviderClient(address, timeout=0.3) as client:
                slave = client.spawn("sine_source", {})
                with pytest.raises(ConnectionLost) as lost:
                    client.describe("msd_integral")
                sent, got = client_frames(monkeypatch)
                slave.setup(0.0, 1.0)
                for request in (lambda: client.describe("sine_source"), client.list_models,
                                slave.initialize):
                    with pytest.raises(ConnectionLost) as again:
                        request()
                    assert again.value is lost.value
                slave.terminate()
                assert sent == [] and got == []
        assert read == [(1, MT.HELLO), (1, MT.SPAWN), (1, MT.DESCRIBE)]

    def test_closing_a_client_frees_every_slot(self):
        limit = 3
        prov = Provider(standard_registry,
                        ProviderConfig(host="127.0.0.1", port=0, max_slaves=limit)).start()
        try:
            client = ProviderClient(prov.address)
            slaves = [client.spawn("msd_integral", {}) for _ in range(limit)]
            slaves[0].setup(0.0, 1.0)
            slaves[0].initialize()
            slaves[0].start_step(0.0, 0.1)  # one still owes its STEP_OK
            client.close()
            closed = time.monotonic()
            with ProviderClient(prov.address) as again:
                fresh = spawn_until(again, limit, closed + 1.0)
                for slave in fresh:
                    slave.terminate()
            # the slaves of the closed session do no I/O as they end
            for slave in slaves:
                slave.terminate()
        finally:
            prov.shutdown()

    def test_a_silent_connection_is_closed_at_the_hello_deadline(self, monkeypatch):
        # Patched even where the constant is missing, so that a provider
        # without the deadline fails on the read below, not here.
        monkeypatch.setattr(wire, "CONTROL_TIMEOUT", 0.2, raising=False)
        prov = Provider(standard_registry,
                        ProviderConfig(host="127.0.0.1", port=0)).start()
        host, port = prov.address.rsplit(":", 1)
        before = threading.active_count()
        silent = [socket.create_connection((host, int(port)), timeout=2.0)
                  for _ in range(3)]
        try:
            opened = time.monotonic()
            for sock in silent:
                assert sock.recv(1) == b""  # the provider closed it
                assert time.monotonic() - opened < 0.7
            while threading.active_count() > before:
                assert time.monotonic() - opened < 0.7, "a provider thread outlived its connection"
                time.sleep(0.01)
        finally:
            for sock in silent:
                sock.close()
            prov.shutdown()

    def test_a_session_that_idles_after_hello_is_not_cut_off(self, monkeypatch):
        monkeypatch.setattr(wire, "CONTROL_TIMEOUT", 0.2)
        prov = Provider(standard_registry,
                        ProviderConfig(host="127.0.0.1", port=0)).start()
        try:
            with ProviderClient(prov.address) as client:
                slave = client.spawn("sine_source", {})
                time.sleep(0.5)
                slave.setup(0.0, 1.0)
                slave.initialize()
                assert client.describe("sine_source") == slave.descriptor()
                slave.terminate()
        finally:
            prov.shutdown()


class TestServeSession:
    """``serve_session`` serves any connection, with no Provider: here one
    end of a socket pair, driven by raw frames."""

    def test_a_socketpair_session_matches_in_process(self):
        ours, theirs = socket.socketpair()
        slots = threading.BoundedSemaphore(2)
        returned = []
        server = threading.Thread(target=lambda: returned.append(serve_session(
            theirs, standard_registry, tuple(standard_registry.model_ids()), slots)))
        server.start()

        def call(msg_type, w, expect):
            send_frame(ours, msg_type, w.payload())
            got, body = recv_frame(ours)
            assert got == expect, Reader(body).string() if got == MT.ERROR else got
            return Reader(body)

        params = {"m": 2.0, "k": 3.0, "x0": 0.25}
        try:
            indexes = []
            for model_id, p in (("msd_integral", params), ("sine_source", {})):
                w = Writer().string(model_id).count(len(p))
                for name, value in p.items():
                    w.string(name).f64(value)
                r = call(MT.SPAWN, w, MT.SPAWNED)
                indexes.append(r.u64())
                assert wire.read_descriptor(r) == standard_registry.describe(model_id)
                r.done()
            r = call(MT.SPAWN, Writer().string("sine_source").count(0), MT.ERROR)
            assert r.u64() == 8  # SpawnLimitExceeded
            assert r.string() == "provider is at its limit of 2 slaves"

            local = standard_registry.create("msd_integral", params)
            local.setup(0.0, 1.0)
            local.initialize()
            initial = local.get_outputs()
            local.set_inputs([0.75])
            t_end, outputs = local.do_step(0.0, 0.1), local.get_outputs()
            index = indexes[0]
            r = call(MT.INITIALIZE, Writer().u64(index).f64(0.0).f64(1.0), MT.OUTPUTS)
            assert [v.hex() for v in r.f64s()] == [v.hex() for v in initial]
            r.done()
            r = call(MT.STEP, Writer().u64(index).f64(0.0).f64(0.1).f64s([0.75]),
                     MT.STEP_OK)
            assert r.f64().hex() == t_end.hex()
            assert [v.hex() for v in r.f64s()] == [v.hex() for v in outputs]
            r.done()
        finally:
            ours.close()
            server.join(5.0)
        assert not server.is_alive() and returned == [None]
        # every slave still on the session gave its slot back
        assert slots.acquire(blocking=False) and slots.acquire(blocking=False)
        theirs.close()


# The reply each request carries data in; any other frame gets ERROR.
REPLY = {MT.LIST_MODELS: MT.MODEL_LIST, MT.DESCRIBE: MT.DESCRIPTION, MT.SPAWN: MT.SPAWNED,
         MT.INITIALIZE: MT.OUTPUTS, MT.STEP: MT.STEP_OK, MT.GET_OUTPUTS: MT.OUTPUTS,
         MT.TERMINATE: MT.TERMINATED}
MODEL_IDS = tuple(standard_registry.model_ids())
# Indexes 1-3 name the first slaves a session spawns; 0 and 9 never do.
INDEX = st.sampled_from([1, 1, 1, 2, 2, 3, 0, 9])
# Mostly the times a slave spawned at 0.0 steps at with 0.1, now and then not.
TIME = st.sampled_from([0.0, 0.0, 0.1, 0.1, -1.0, math.nan, math.inf])
VALUES = st.lists(st.sampled_from([0.0, 0.5, -2.0, math.nan]), max_size=2)


def _frame(msg_type, build):
    return st.tuples(st.just(msg_type), build.map(lambda w: w.payload()))


RAW_REQUESTS = st.one_of(
    # Spawns of real models at their defaults, or with a parameter they lack.
    _frame(MT.SPAWN, st.builds(lambda m, bad: (
        Writer().string(m).count(1).string("no_such").f64(1.0) if bad
        else Writer().string(m).count(0)), st.sampled_from(MODEL_IDS), st.booleans())),
    _frame(MT.INITIALIZE, st.builds(lambda i, t: Writer().u64(i).f64(t).f64(1.0), INDEX, TIME)),
    _frame(MT.STEP, st.builds(lambda i, t, dt, u: Writer().u64(i).f64(t).f64(dt).f64s(u),
                              INDEX, TIME, TIME, VALUES)),
    _frame(MT.GET_OUTPUTS, st.builds(lambda i, u: Writer().u64(i).f64s(u), INDEX, VALUES)),
    _frame(MT.TERMINATE, st.builds(lambda i: Writer().u64(i), INDEX)),
    _frame(MT.DESCRIBE, st.builds(lambda m: Writer().string(m),
                                  st.sampled_from((*MODEL_IDS, "", "nope")))),
    # Any message-type byte with a garbage payload.
    st.tuples(st.integers(0, 255), st.binary(max_size=40)),
)
# A real model spawned, initialized at 0.0 and stepped, if ``i`` is its index.
LIFECYCLE = st.builds(lambda m, i, u: [
    (MT.SPAWN, Writer().string(m).count(0).payload()),
    (MT.INITIALIZE, Writer().u64(i).f64(0.0).f64(1.0).payload()),
    (MT.STEP, Writer().u64(i).f64(0.0).f64(0.1).f64s(u).payload())],
    st.sampled_from(MODEL_IDS), INDEX, VALUES)


class TestRawFrames:
    """Complete frames of every type, well formed or not, straight into
    ``serve_session`` over a socket pair."""

    @settings(max_examples=100, derandomize=True, deadline=None)
    @given(bundles=st.lists(st.one_of(RAW_REQUESTS.map(lambda frame: [frame]), LIFECYCLE),
                            min_size=4, max_size=20))
    def test_each_request_gets_one_reply_and_every_slot_comes_back(self, bundles):
        ours, theirs = socket.socketpair()
        ours.settimeout(5.0)  # a missing reply fails the test, not hangs it
        slots = threading.BoundedSemaphore(3)
        server = threading.Thread(target=serve_session,
                                  args=(theirs, standard_registry, MODEL_IDS, slots))
        server.start()
        try:
            for msg_type, payload in (frame for bundle in bundles for frame in bundle):
                send_frame(ours, msg_type, payload)
                got, _ = recv_frame(ours)
                assert got in (REPLY.get(msg_type), MT.ERROR), (msg_type, got)
            # A stray second reply to any request would be read here.
            send_frame(ours, MT.LIST_MODELS)
            got, body = recv_frame(ours)
            assert got == MT.MODEL_LIST
            r = Reader(body)
            assert [r.string() for _ in range(r.count())] == list(MODEL_IDS)
        finally:
            ours.close()
            server.join(5.0)
            theirs.close()
        assert not server.is_alive()
        assert [slots.acquire(blocking=False) for _ in range(4)] == [True, True, True, False]


def with_ghost(desc):
    """``desc`` with an output its model lacks."""
    ghost = VariableDescriptor("ghost", Causality.OUTPUT, VarKind.SIGNAL, None)
    return dataclasses.replace(desc, variables=(*desc.variables, ghost))


def in_kilonewton(desc):
    """``desc`` with its newton ports in kilonewton: the same names and
    directions, so the plan would scale them by 1e-3."""
    return dataclasses.replace(desc, variables=tuple(
        dataclasses.replace(v, unit=KILONEWTON) if v.unit == NEWTON else v
        for v in desc.variables))


def flip_variable_step(desc):
    """``desc`` with its step capability the other way round."""
    return dataclasses.replace(desc, supports_variable_step=not desc.supports_variable_step)


def misdescribing(change):
    """A resolver that describes each remote model changed by ``change``, as
    a provider whose DESCRIBE answer contradicts its SPAWNED one would."""

    class Misdescribing(NetworkResolver):
        def describe(self, spec):
            desc = super().describe(spec)
            return change(desc) if spec.provider else desc

    return Misdescribing


class TestSetupFaults:
    """A remote INITIALIZE that fails ends the set-up with the error its
    provider sent, typed as the provider raised it; a slave created
    unlike its description ends it before any INITIALIZE.  Every
    slave created is terminated once, the provider frees the slot and no
    thread is left."""

    def failed_setup(self, stage, call=1, resolver_cls=NetworkResolver,
                     created=("left", "right")):
        before = set(threading.enumerate())
        prov = Provider(extended_registry(),
                        ProviderConfig(host="127.0.0.1", port=0, max_slaves=1)).start()
        terminated = []

        class Counting(resolver_cls):
            def create(self, spec):
                slave = super().create(spec)
                terminate = slave.terminate

                def counted():
                    terminated.append(spec.name)
                    terminate()

                slave.terminate = counted
                return slave

        try:
            system = faulty_left_system(prov.address, stage, call, "raise")
            with Counting(registry=standard_registry) as resolver:
                with pytest.raises(CosimError) as err:
                    initialize_run(system, resolver)
            spawn_within(prov.address, 1.0)
        finally:
            prov.shutdown()
        assert sorted(terminated) == sorted(created)
        give_up = time.monotonic() + 1.0
        while not set(threading.enumerate()) <= before:
            assert time.monotonic() < give_up, "a thread outlived the set-up"
            time.sleep(0.01)
        return err.value

    @pytest.mark.parametrize("stage", ["setup", "initialize"])
    def test_a_failing_request(self, stage):
        error = self.failed_setup(stage)
        assert type(error) is CosimError
        assert str(error) == f"InjectedFault: {stage} call 1"
        assert error.__notes__ == ["in reply to INITIALIZE"]

    @pytest.mark.parametrize("change", [with_ghost, in_kilonewton, flip_variable_step],
                             ids=["ghost_output", "kilonewton", "variable_step"])
    def test_a_slave_created_unlike_its_description(self, change, monkeypatch):
        sent, _ = client_frames(monkeypatch)
        # Call 0 never comes, so the fault is the description alone.
        error = self.failed_setup("do_step", 0, misdescribing(change), created=("left",))
        assert type(error) is InvalidState
        assert str(error) == ("slave 'left' was created unlike the description "
                              "it was checked against")
        assert MT.SPAWN in sent and MT.INITIALIZE not in sent


def crossed_fail_after(address, here_first):
    """``fail_after`` as ``here`` in process and as ``there`` on
    ``address``, each driving the other through a gain."""
    here = SlaveSpec("here", "fail_after")
    there = SlaveSpec("there", "fail_after", provider=address)
    wires = [("here.v", "g1.u"), ("g1.y", "there.tau"), ("there.v", "g2.u"), ("g2.y", "here.tau")]
    return SystemDescription(
        slaves=(here, there) if here_first else (there, here),
        signals=tuple(SignalConnection(PortRef(*src.split(".")), PortRef(*dst.split(".")))
                      for src, dst in wires),
        function_units=(FunctionUnitSpec("g1", "gain"), FunctionUnitSpec("g2", "gain")),
        step_policy=FixedStepPolicy(0.1),
    )


class ForceMsd(MsdIntegral):
    """A provider's own ``msd_integral``, with the input ``force`` in place of ``tau``."""

    DESCRIPTOR = dataclasses.replace(MsdIntegral.DESCRIPTOR, variables=(
        VariableDescriptor("force", Causality.INPUT, VarKind.EFFORT, NEWTON),
        *MsdIntegral.DESCRIPTOR.outputs()))


class TestSetupResolution:
    """Set-up describes each slave where it is placed: one slave's
    descriptor never stands in for another slave of the same model id
    placed elsewhere."""

    @pytest.mark.parametrize("here_first", [True, False])
    def test_an_in_process_slave_of_a_model_only_a_provider_serves(self, provider,
                                                                   monkeypatch, here_first):
        sent, _ = client_frames(monkeypatch)
        with NetworkResolver(registry=standard_registry) as resolver:
            with pytest.raises(InvalidSystem) as err:
                initialize_run(crossed_fail_after(provider.address, here_first), resolver)
        findings = err.value.findings
        assert [(f.where, f.message) for f in findings if f.code == "unknown-model"] == [
            ("here", "model 'fail_after' not in registry")]
        assert {f.where.split(".")[0] for f in findings} == {"here"}
        assert MT.SPAWN not in sent

    def test_a_provider_model_is_checked_against_its_own_ports(self):
        registry = ModelRegistry()
        registry.register(ForceMsd)
        prov = Provider(registry, ProviderConfig(host="127.0.0.1", port=0)).start()
        system = SystemDescription(
            slaves=(SlaveSpec("src", "sine_source"), SlaveSpec("here", "msd_integral"),
                    SlaveSpec("there", "msd_integral", provider=prov.address)),
            signals=tuple(SignalConnection(PortRef("src", "y"), PortRef(name, "tau"))
                          for name in ("here", "there")),
        )
        try:
            with NetworkResolver(registry=standard_registry) as resolver:
                with pytest.raises(InvalidSystem) as err:
                    initialize_run(system, resolver)
        finally:
            prov.shutdown()
        assert [(f.code, f.where) for f in err.value.findings] == [
            ("unknown-port", "there.tau"), ("unwired-input", "there.force")]

    def test_a_malformed_descriptor_is_a_protocol_error(self, tmp_path, capsys):
        # The stand-in describes and spawns msd_integral with x in furlongs,
        # a unit this end does not know.
        furlong = Unit("furlong", METER.dimension, 201.168)

        def answer(conn, msg, r):
            desc = standard_registry.describe(r.string())
            desc = dataclasses.replace(desc, variables=tuple(
                dataclasses.replace(v, unit=furlong) if v.unit == METER else v
                for v in desc.variables))
            w = Writer().u64(1) if msg == MT.SPAWN else Writer()
            wire.write_descriptor(w, desc)
            send_frame(conn, MT.SPAWNED if msg == MT.SPAWN else MT.DESCRIPTION, w.payload())

        malformed = "malformed descriptor: unknown unit 'furlong'"
        with stand_in(answer) as (address, read):
            with ProviderClient(address) as client:
                for request in (lambda: client.describe("msd_integral"),
                                lambda: client.spawn("msd_integral")):
                    with pytest.raises(ProtocolError, match=malformed):
                        request()
            assert cli.main(["describe", "msd_integral", "--provider", address]) == 2
            err = capsys.readouterr().err.splitlines()
            assert len(err) == 1 and err[0].startswith(f"error: {malformed}")
            cfg = tmp_path / "furlong.cfg"
            cfg.write_text("[simulation]\nt_end = 1.0\ndt = 0.1\n\n"
                           f"[slave osc]\nmodel = msd_integral\nprovider = {address}\n")
            assert cli.main(["validate", str(cfg)]) == 1
            err = capsys.readouterr().err.splitlines()
            assert len(err) == 1 and err[0].startswith(
                f"[unknown-model] osc: model 'msd_integral' not described by provider {address}: "
                f"{malformed}")
        assert [msg for _, msg in read] == [MT.HELLO, MT.DESCRIBE, MT.SPAWN,
                                            MT.HELLO, MT.DESCRIBE, MT.HELLO, MT.DESCRIBE]

    def test_a_silent_provider_costs_one_timeout_per_set_up(self, monkeypatch):
        # The stand-in never answers, or answers HELLO and then only reads:
        # the first HELLO or DESCRIBE times out, and set-up asks no more.
        monkeypatch.setattr(ProviderClient.__init__, "__defaults__", (0.2,))
        models = ("sine_source", "msd_integral", "sine_source", "msd_differential")
        for answer, frames in ((None, [MT.HELLO]),
                               (lambda conn, msg, r: None, [MT.HELLO, MT.DESCRIBE])):
            with stand_in(answer) as (address, read):
                system = SystemDescription(slaves=tuple(
                    SlaveSpec(f"s{i}", model_id, provider=address)
                    for i, model_id in enumerate(models)))
                started = time.monotonic()
                with NetworkResolver(registry=standard_registry) as resolver:
                    findings = validate_system(system, Resolution(system, resolver.describe)).findings
                elapsed = time.monotonic() - started
            assert [(f.code, f.where) for f in findings] == [
                ("unknown-model", f"s{i}") for i in range(4)]
            assert [f.message.split(": ", 1)[0] for f in findings] == [
                f"model {model_id!r} not described by provider {address}" for model_id in models]
            assert len({f.message.split(": ", 1)[1] for f in findings}) == 1
            assert elapsed < 0.5
            assert read == [(1, msg) for msg in frames]  # one connection


class TestDiscovery:
    def test_discover_reports_live_and_dead(self, provider):
        # port 1 is never listening
        entries, warnings = discover([provider.address, "127.0.0.1:1"])
        assert any(e.model_id == "msd_integral" for e in entries)
        assert all(e.provider == provider.address for e in entries)
        assert len(warnings) == 1
        assert "127.0.0.1:1" in warnings[0]

    def test_discover_lists_models_without_describing_them(self, provider,
                                                         monkeypatch):
        sent, _ = client_frames(monkeypatch)
        entries, warnings = discover([provider.address])
        assert tuple(e.model_id for e in entries) == provider.model_ids
        assert warnings == []
        assert sent.count(MT.LIST_MODELS) == 1
        assert MT.DESCRIBE not in sent


class TestDistributedRuns:
    def test_setup_sends_one_describe_per_remote_slave(self, provider,
                                                       monkeypatch):
        sent, _ = client_frames(monkeypatch)
        with NetworkResolver(registry=standard_registry) as resolver:
            initialize_run(remote_pair_system(provider.address),
                           resolver).terminate()
        assert sent.count(MT.SPAWN) == 2
        assert sent.count(MT.DESCRIBE) == 2

    def test_setup_describes_each_model_once_per_provider(self, monkeypatch):
        # Two msd pairs on each of two providers: two models on each.
        sent, _ = client_frames(monkeypatch)
        providers = [Provider(extended_registry(),
                              ProviderConfig(host="127.0.0.1", port=0)).start()
                     for _ in range(2)]
        try:
            with NetworkResolver(registry=standard_registry) as resolver:
                initialize_run(pairs_on(providers, 2), resolver).terminate()
        finally:
            for prov in providers:
                prov.shutdown()
        assert sent.count(MT.SPAWN) == 8
        assert sent.count(MT.DESCRIBE) == 4

    def test_a_run_says_hello_once_per_provider(self, monkeypatch):
        # Two msd pairs on each of two providers: eight slaves, two sessions.
        sent, _ = client_frames(monkeypatch)
        providers = [Provider(extended_registry(),
                              ProviderConfig(host="127.0.0.1", port=0)).start()
                     for _ in range(2)]
        try:
            with NetworkResolver(registry=standard_registry) as resolver:
                run_to_end(initialize_run(pairs_on(providers, 2), resolver))
        finally:
            for prov in providers:
                prov.shutdown()
        assert sent.count(MT.SPAWN) == 8
        assert sent.count(MT.HELLO) == 2

    def test_a_run_is_served_on_one_thread_per_provider(self):
        before = set(threading.enumerate())
        providers = [Provider(extended_registry(),
                              ProviderConfig(host="127.0.0.1", port=0)).start()
                     for _ in range(2)]
        serving = []

        class Census(MemoryObserver):
            def on_step(self, record):
                serving.append(sum(1 for t in set(threading.enumerate()) - before
                                   if t.name.startswith("conn:")))

        try:
            with NetworkResolver(registry=standard_registry) as resolver:
                run_to_end(initialize_run(pairs_on(providers, 2), resolver,
                                          observers=[Census()]))
        finally:
            for prov in providers:
                prov.shutdown()
        assert serving and set(serving) == {2}

    def test_setup_reads_each_reply_before_the_next_request(self, provider,
                                                            monkeypatch):
        # INITIALIZE carries the span and answers the outputs: one request
        # per slave, and each request's reply is read before the next goes
        # out.  Protocol 7 waited for as many replies (1 HELLO, 2 DESCRIBE,
        # 6 SPAWN, 12 GET_OUTPUTS and 6 TERMINATE), and also read 12 OKs.
        log = []
        sent, read = client_frames(monkeypatch, log)
        with NetworkResolver(registry=standard_registry) as resolver:
            initialize_run(pairs_on([provider], 3), resolver).terminate()
        assert sent.count(MT.SPAWN) == sent.count(MT.INITIALIZE) == 3 * 2
        assert MT.SETUP not in sent and MT.OK not in read
        assert [kind for kind, _ in log] == ["sent", "read"] * len(sent)
        assert len(read) == 27

    def test_one_request_per_remote_slave_per_step(self, provider,
                                                   monkeypatch):
        sent, read = client_frames(monkeypatch)

        class PerStep:
            """Keeps the frames each step sent and read."""

            def __init__(self):
                self.steps = []

            def on_start(self, info):
                self.mark = len(sent), len(read)

            def on_step(self, record):
                s, r = self.mark
                self.mark = len(sent), len(read)
                self.steps.append((sent[s:], read[r:]))

            def on_end(self, reason):
                pass

        per_step = PerStep()
        with NetworkResolver(registry=standard_registry) as resolver:
            run_to_end(initialize_run(remote_pair_system(provider.address),
                                      resolver, observers=[per_step]))
        assert len(per_step.steps) == 200
        for sends, reads in per_step.steps:
            assert sends == [MT.STEP, MT.STEP]
            assert reads == [MT.STEP_OK, MT.STEP_OK]

    def test_remote_run_matches_in_process_bitwise(self, provider):
        system_local = msd_pair_system(FixedStepPolicy(1e-2), t_end=2.0)
        local = run_system(system_local)

        system_remote = remote_pair_system(provider.address)
        remote = MemoryObserver()
        with NetworkResolver(registry=standard_registry) as resolver:
            run = initialize_run(system_remote, resolver, observers=[remote])
            result = run_to_end(run)

        assert len(local.records) == len(remote.records) == result.steps
        for ra, rb in zip(local.records, remote.records):
            assert ra.outputs == rb.outputs
            assert ra.inputs == rb.inputs
            assert ra.energy.epsilon == rb.energy.epsilon

    def test_mixed_local_and_remote_placement(self, provider):
        system = remote_pair_system(provider.address, remote=("left",))
        mixed = MemoryObserver()
        with NetworkResolver(registry=standard_registry) as resolver:
            run_to_end(initialize_run(system, resolver, observers=[mixed]))
        reference = run_system(msd_pair_system(FixedStepPolicy(1e-2),
                                               t_end=2.0))
        for ra, rb in zip(reference.records, mixed.records):
            assert ra.outputs == rb.outputs

    def test_remote_step_failure_aborts_run(self, provider):
        system = msd_pair_system(FixedStepPolicy(0.2), t_end=2.0)
        slaves = (
            dataclasses.replace(system.slaves[0], model_id="fail_after",
                                parameters={"t_fail": 0.5},
                                provider=provider.address),
            system.slaves[1],
        )
        system = dataclasses.replace(system, slaves=slaves)
        obs = MemoryObserver()
        with NetworkResolver(registry=standard_registry) as resolver:
            run = initialize_run(system, resolver, observers=[obs])
            with pytest.raises(RunAborted, match="diverged"):
                run_to_end(run)
        assert obs.end_reason.startswith("aborted:")

    def test_provider_death_mid_run_aborts(self):
        prov = Provider(extended_registry(),
                        ProviderConfig(host="127.0.0.1", port=0)).start()
        system = remote_pair_system(prov.address, t_end=5.0)

        class Killer:
            def on_start(self, info):
                pass

            def on_step(self, record):
                if record.index == 2:
                    prov.shutdown()

            def on_end(self, reason):
                self.reason = reason

        killer = Killer()
        try:
            with NetworkResolver(registry=standard_registry) as resolver:
                run = initialize_run(system, resolver, observers=[killer],
                                     step_timeout=10.0)
                with pytest.raises(RunAborted, match="connection lost"):
                    run_to_end(run)
            assert killer.reason.startswith("aborted: connection lost: slave '")
        finally:
            prov.shutdown()

    def test_hung_remote_slave_aborts_at_the_deadline(self):
        prov = Provider(extended_registry(),
                        ProviderConfig(host="127.0.0.1", port=0,
                                       max_slaves=1)).start()
        system = msd_pair_system(FixedStepPolicy(0.2), t_end=2.0)
        slaves = (
            dataclasses.replace(system.slaves[0], model_id="slow",
                                parameters={"delay": 3.0},
                                provider=prov.address),
            system.slaves[1],
        )
        system = dataclasses.replace(system, slaves=slaves)
        obs = MemoryObserver()
        ends = []
        obs.on_end = ends.append
        step_timeout = 0.2
        try:
            with NetworkResolver(registry=standard_registry) as resolver:
                run = initialize_run(system, resolver, observers=[obs],
                                     step_timeout=step_timeout)
                started = time.monotonic()
                with pytest.raises(BarrierTimeout, match="barrier"):
                    run_to_end(run)
                elapsed = time.monotonic() - started
            assert elapsed < step_timeout + 0.5
            assert len(ends) == 1 and "barrier" in ends[0]
            assert obs.records == []
            # The provider frees the slot once the slow step returns and
            # it finds the connection closed.
            with ProviderClient(prov.address) as client:
                give_up = time.monotonic() + 10.0
                while True:
                    try:
                        slave = client.spawn("sine_source", {})
                        break
                    except SpawnLimitExceeded:
                        if time.monotonic() > give_up:
                            pytest.fail("slot never released")
                        time.sleep(0.05)
                slave.terminate()
        finally:
            prov.shutdown()

    @pytest.mark.parametrize("stage", ["set_inputs", "get_outputs"])
    def test_hang_in_a_step_ends_at_the_deadline(self, provider, stage,
                                                 release_hangs):
        # Call 6 comes after the settle passes, while stepping.
        system = faulty_left_system(provider.address, stage, 6, "hang")
        obs = MemoryObserver()
        ends = []
        obs.on_end = ends.append
        step_timeout = 0.5
        with NetworkResolver(registry=standard_registry) as resolver:
            run = initialize_run(system, resolver, observers=[obs],
                                 step_timeout=step_timeout)
            started = time.monotonic()
            with pytest.raises(BarrierTimeout, match="slave 'left'"):
                run_to_end(run)
            elapsed = time.monotonic() - started
        assert elapsed < 1.0
        assert len(ends) == 1 and "barrier" in ends[0]
        assert run.index > 0 and len(obs.records) == run.index

    def test_truncated_step_reply_aborts_as_connection_lost(self):
        # A fake provider session spawns one slave and answers its lifecycle
        # and exchange requests, then answers STEP with a header promising 8
        # payload bytes, sends 3 and closes its side.
        threads_before = set(threading.enumerate())
        listener = socket.create_server(("127.0.0.1", 0))
        listener.settimeout(10.0)
        host, port = listener.getsockname()[:2]
        received = []

        def serve():
            conn, _ = listener.accept()
            with conn:
                conn.settimeout(10.0)
                try:
                    while True:
                        msg, body = recv_frame(conn)
                        received.append(msg)
                        r = Reader(body)
                        if msg == MT.HELLO:
                            send_frame(conn, MT.HELLO_OK,
                                       Writer().u64(PROTOCOL_VERSION).payload())
                        elif msg == MT.SPAWN:
                            w = Writer().u64(0)
                            wire.write_descriptor(w, standard_registry.describe(r.string()))
                            send_frame(conn, MT.SPAWNED, w.payload())
                        elif msg in (MT.INITIALIZE, MT.GET_OUTPUTS):
                            outputs = standard_registry.describe("msd_integral").outputs()
                            send_frame(conn, MT.OUTPUTS,
                                       Writer().f64s([0.0] * len(outputs)).payload())
                        elif msg == MT.STEP:
                            reply = encode_frame(MT.STEP_OK, Writer().f64(0.2).payload())
                            conn.sendall(reply[:-5])
                            conn.shutdown(socket.SHUT_WR)
                except ConnectionLost:
                    pass  # the master closed its end

        server = threading.Thread(target=serve)
        server.start()

        sessions = []

        class FakeEndpointResolver(LocalResolver):
            def create(self, spec):
                if spec.name == "left":
                    sessions.append(ProviderClient(f"{host}:{port}"))
                    slave = sessions[0].spawn(spec.model_id, spec.parameters)
                    assert isinstance(slave, RemoteSlave)
                    return slave
                return super().create(spec)

        obs = MemoryObserver()
        ends = []
        obs.on_end = ends.append
        step_timeout = 1.0
        try:
            run = initialize_run(msd_pair_system(FixedStepPolicy(0.2), t_end=2.0),
                                 FakeEndpointResolver(standard_registry),
                                 observers=[obs], step_timeout=step_timeout)
            started = time.monotonic()
            with pytest.raises(RunAborted, match="connection lost"):
                run_to_end(run)
            elapsed = time.monotonic() - started
            server.join(5.0)
        finally:
            for session in sessions:
                session.close()
            listener.close()
        assert elapsed < step_timeout + 0.5
        assert len(ends) == 1 and ends[0].startswith("aborted: connection lost")
        assert "slave 'left' do_step" in ends[0]
        assert obs.records == []
        assert MT.STEP in received and MT.TERMINATE not in received
        assert set(threading.enumerate()) <= threads_before
