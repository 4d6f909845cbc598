"""Per-layer spans recorded from outside the program.

The tracer wraps the public entry points of each layer in the
benchmark's own code: resolver and ``SlaveInstance`` methods,
``SimulationRun.push_inputs``/``gather_outputs``, ``step_once``,
``evaluate_plan``/``validate_system``/``build_plan``/``error_indicator``
as bound in ``cosim.master``, ``rk4_step`` as bound in ``cosim.models``,
the CSV observer, each model's ``_step`` hook, and
``cosim.net.wire.send_frame``/``recv_frame``.  Wrappers pass arguments
and results through untouched, so a traced run must write the same bits
as an untraced one.

A span is ``(key, start_ns, end_ns)``.  Spans of one macro step are
folded into per-step sums when ``step_once`` returns; the per-layer
figures are medians over steps.
"""
from __future__ import annotations

import statistics
import threading
import time
from collections import defaultdict
from contextlib import contextmanager

import cosim.master
import cosim.models
import cosim.net.wire
from cosim.net.wire import MessageType
from cosim.slave import ModelSlave

_clock = time.perf_counter_ns

SLAVE_METHODS = ("setup", "initialize", "set_inputs", "do_step", "get_outputs")
STEP_METHODS = ("set_inputs", "do_step", "get_outputs")
PER_STEP_RTT = ("SET_INPUTS", "STEP", "GET_OUTPUTS")


def _median(values) -> float:
    return statistics.median(values) if values else 0.0


@contextmanager
def patched(module, name: str, replacement):
    original = getattr(module, name)
    setattr(module, name, replacement)
    try:
        yield
    finally:
        setattr(module, name, original)


class Tracer:
    """Collects spans and counts for traced set-ups and runs."""

    def __init__(self):
        self.spans: list[tuple] = []      # appended from any thread
        self.frames: list[tuple] = []     # ("send" or "recv", frame bytes)
        self.rk4_calls: list[int] = []
        self.local_slaves: set[str] = set()
        self._pending: dict[int, tuple[int, int]] = {}
        self.steps: list[dict[str, float]] = []
        self.rtt_ns: dict[str, list[int]] = defaultdict(list)
        self.step_wall_ns = 0
        self.model_ns = 0
        self.threads_peak = 0
        self.setups: list[dict[str, float]] = []
        self.ops_per_eval = 0

    # -- wrappers --------------------------------------------------------

    def timed(self, key, fn):
        spans = self.spans

        def wrapper(*args, **kwargs):
            t0 = _clock()
            try:
                return fn(*args, **kwargs)
            finally:
                spans.append((key, t0, _clock()))

        return wrapper

    def wrap_slave(self, name: str, slave) -> None:
        for method in SLAVE_METHODS:
            setattr(slave, method, self.timed((method, name), getattr(slave, method)))
        if isinstance(slave, ModelSlave):
            self.local_slaves.add(name)
            slave._step = self.timed(("_step", name), slave._step)

    def _send_frame(self, original):
        frames, pending = self.frames, self._pending

        def send_frame(sock, msg_type, payload=b""):
            t0 = _clock()
            pending[id(sock)] = (msg_type, t0)
            original(sock, msg_type, payload)
            frames.append(("send", 5 + len(payload)))

        return send_frame

    def _recv_frame(self, original):
        frames, pending, rtt = self.frames, self._pending, self.rtt_ns

        def recv_frame(sock):
            msg_type, body = original(sock)
            t1 = _clock()
            frames.append(("recv", 5 + len(body)))
            request = pending.pop(id(sock), None)
            if request is not None:
                rtt[MessageType(request[0]).name].append(t1 - request[1])
            return msg_type, body

        return recv_frame

    def _rk4_step(self, original):
        calls = self.rk4_calls

        def rk4_step(f, t, y, h):
            calls.append(1)
            return original(f, t, y, h)

        return rk4_step

    # -- set-up ------------------------------------------------------------

    def traced_resolver(self, inner):
        tracer = self

        class TracedResolver:
            def describe(self, spec):
                return tracer.timed("describe", inner.describe)(spec)

            def create(self, spec):
                slave = tracer.timed("create", inner.create)(spec)
                tracer.wrap_slave(spec.name, slave)
                return slave

            def close(self):
                getattr(inner, "close", lambda: None)()

        return TracedResolver()

    @contextmanager
    def setup_patches(self):
        m = cosim.master
        with patched(m, "validate_system", self.timed("validate", m.validate_system)), \
                patched(m, "build_plan", self.timed("plan", m.build_plan)):
            yield

    def fold_setup(self, times) -> None:
        """Split one traced set-up (``SetupTimes``) into its phases."""
        parse_ns, init_ns = times.parse_ns, times.init_ns
        sums: dict = defaultdict(int)
        for key, t0, t1 in self.spans:
            kind = key[0] if isinstance(key, tuple) else key
            sums[kind] += t1 - t0
        del self.spans[:]
        validate = sums["describe"] + sums["validate"]
        instantiate = sums["create"] + sums["setup"] + sums["initialize"]
        self.setups.append({
            "config.parse_ms": parse_ns / 1e6,
            "setup.validate_ms": validate / 1e6,
            "setup.plan_ms": sums["plan"] / 1e6,
            "setup.instantiate_ms": instantiate / 1e6,
            "setup.settle_ms": (init_ns - validate - sums["plan"] - instantiate) / 1e6,
        })

    # -- stepping ------------------------------------------------------------

    def before_steps(self, run) -> None:
        """Wrap the live run's exchange methods and CSV observer."""
        run.push_inputs = self.timed("push", run.push_inputs)
        run.gather_outputs = self.timed("gather", run.gather_outputs)
        csv = run.observers[0]
        csv.on_step = self.timed("on_step", csv.on_step)
        self.ops_per_eval = len(run.plan.ops)
        del self.spans[:]
        del self.frames[:]
        del self.rk4_calls[:]

    @contextmanager
    def step_patches(self):
        m, w = cosim.master, cosim.net.wire
        with patched(m, "step_once", self._step_once(m.step_once)), \
                patched(m, "evaluate_plan", self.timed("evaluate", m.evaluate_plan)), \
                patched(m, "error_indicator", self.timed("energy", m.error_indicator)), \
                patched(cosim.models, "rk4_step", self._rk4_step(cosim.models.rk4_step)), \
                patched(w, "send_frame", self._send_frame(w.send_frame)), \
                patched(w, "recv_frame", self._recv_frame(w.recv_frame)):
            yield

    def _step_once(self, original):
        def step_once(run, dt):
            t0 = _clock()
            record = original(run, dt)
            t1 = _clock()
            self._fold_step(t1 - t0)
            return record

        return step_once

    def _fold_step(self, wall: int) -> None:
        one: dict = {}
        sums: dict = defaultdict(int)
        local_do_step = 0
        remote_do_step = 0
        calls = 0
        for key, t0, t1 in self.spans:
            if isinstance(key, tuple):
                method, slave = key
                sums[method] += t1 - t0
                if method in STEP_METHODS:
                    calls += 1
                if method == "do_step":
                    if slave in self.local_slaves:
                        local_do_step += t1 - t0
                    else:
                        remote_do_step = max(remote_do_step, t1 - t0)
            else:
                one[key] = (t0, t1)
                sums[key] += t1 - t0
        del self.spans[:]
        barrier = one["gather"][0] - one["push"][1]
        energy = one["energy"][1] - one["evaluate"][1]
        children = (sums["push"] + barrier + sums["gather"] + sums["evaluate"]
                    + energy + sums["on_step"])
        local_step = sums["_step"]
        self.step_wall_ns += wall
        self.model_ns += local_step
        self.threads_peak = max(self.threads_peak, threading.active_count())
        net_bytes = sum(nbytes for _, nbytes in self.frames)
        round_trips = sum(1 for kind, _ in self.frames if kind == "send")
        del self.frames[:]
        rk4 = len(self.rk4_calls)
        del self.rk4_calls[:]
        self.steps.append({
            "master.push_inputs_us": sums["push"] / 1e3,
            "master.gather_outputs_us": sums["gather"] / 1e3,
            "master.barrier_us": barrier / 1e3,
            "master.dispatch_overhead_us": (barrier - local_do_step - remote_do_step) / 1e3,
            "master.self_us": (wall - children) / 1e3,
            "slave.set_inputs_us": sums["set_inputs"] / 1e3,
            "slave.get_outputs_us": sums["get_outputs"] / 1e3,
            "slave.do_step_overhead_us": (local_do_step - local_step) / 1e3,
            "slave.calls_per_step": calls,
            "models.step_us": local_step / 1e3,
            "models.rk4_steps_per_step": rk4,
            "function_units.evaluate_plan_us": sums["evaluate"] / 1e3,
            "energy.accounting_us": energy / 1e3,
            "observers.on_step_us": sums["on_step"] / 1e3,
            "net.round_trips_per_step": round_trips,
            "net.bytes_per_step": net_bytes,
        })

    def step_metrics(self) -> dict[str, float]:
        """Medians over every traced step, plus the RTT medians per message."""
        out = {}
        for key in self.steps[0] if self.steps else ():
            out[key] = _median([s[key] for s in self.steps])
        out["models.share"] = self.model_ns / self.step_wall_ns if self.step_wall_ns else 0.0
        out["master.threads_peak"] = self.threads_peak
        out["function_units.ops_per_eval"] = self.ops_per_eval
        for name in PER_STEP_RTT:
            out[f"net.rtt_us.{name}"] = _median(self.rtt_ns.get(name, ())) / 1e3
        return out

    def setup_metrics(self) -> dict[str, float]:
        keys = self.setups[0] if self.setups else ()
        return {k: _median([s[k] for s in self.setups]) for k in keys}
