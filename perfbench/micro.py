"""Micro-benchmarks of single layers, run by the traced pass only.

Each times a fixed block of calls several times and reports the median
per call, so it yields per-layer numbers and no end-to-end metric.
"""
from __future__ import annotations

import statistics
import time

from cosim import LocalResolver, evaluate_plan, initialize_run, parse_config, registry
from cosim.net.wire import MessageType as MT, Reader, Writer, decode_frame, encode_frame

REPEATS = 5


def _per_call_ns(fn, calls: int) -> float:
    """Median over REPEATS blocks of ``fn(calls)``, in ns per call."""
    blocks = []
    for _ in range(REPEATS):
        t0 = time.perf_counter_ns()
        fn(calls)
        blocks.append((time.perf_counter_ns() - t0) / calls)
    return statistics.median(blocks)


# (type, encode, decode) of each frame one remote msd slave exchanges per
# macro step: SET_INPUTS/OK, STEP/STEP_OK, GET_OUTPUTS/OUTPUTS.
STEP_FRAMES = (
    (MT.SET_INPUTS, lambda: Writer().count(1).u64(0).f64(0.25).payload(),
     lambda r: [(r.u64(), r.f64()) for _ in range(r.count())]),
    (MT.OK, lambda: b"", lambda r: None),
    (MT.STEP, lambda: Writer().f64(1.23).f64(1e-2).payload(),
     lambda r: (r.f64(), r.f64())),
    (MT.STEP_OK, lambda: Writer().f64(1.24).payload(), lambda r: r.f64()),
    (MT.GET_OUTPUTS, lambda: Writer().count(2).u64(1).u64(2).payload(),
     lambda r: [r.u64() for _ in range(r.count())]),
    (MT.OUTPUTS, lambda: Writer().count(2).f64(0.5).f64(-0.75).payload(),
     lambda r: [r.f64() for _ in range(r.count())]),
)


def codec_ns_per_frame() -> float:
    """Encode with ``Writer`` plus decode with ``Reader``, per frame."""

    def block(n):
        for _ in range(n):
            for msg_type, encode, decode in STEP_FRAMES:
                _, body = decode_frame(encode_frame(msg_type, encode()))
                r = Reader(body)
                decode(r)
                r.done()

    return _per_call_ns(block, 2000) / len(STEP_FRAMES)


def evaluate_plan_us(config_text: str) -> float:
    """One ``evaluate_plan`` call on the settled snapshot of a system."""
    run = initialize_run(parse_config(config_text), LocalResolver(registry))
    plan, snapshot = run.plan, run.outputs
    run.terminate()

    def block(n):
        for _ in range(n):
            evaluate_plan(plan, snapshot, 0.5)

    return _per_call_ns(block, 2000) / 1e3


def rk4_macro_step_us(config_text: str, slave_name: str) -> float:
    """One macro step of a model's ``_step`` hook (``rk4_integrate``)."""
    system = parse_config(config_text)
    spec = system.slave(slave_name)
    dt = system.step_policy.dt
    slave = registry.create(spec.model_id, spec.parameters)
    slave.setup(system.t_start, system.t_end)
    slave.initialize()
    clock = [system.t_start]

    def block(n):
        t = clock[0]
        for _ in range(n):
            slave._step(t, dt)
            t += dt
        clock[0] = t

    return _per_call_ns(block, 500) / 1e3
