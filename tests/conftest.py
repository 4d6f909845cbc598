"""Shared fixtures: canned systems, test-only models, run helpers."""
from __future__ import annotations

import math
import threading
import time
from dataclasses import dataclass

import pytest

from cosim.errors import StepRejected
from cosim.master import (
    LocalResolver,
    SimulationResult,
    StepRecord,
    initialize_run,
    run_to_end,
)
from cosim.models import registry as standard_registry
from cosim.observers import MemoryObserver
from cosim.slave import ModelRegistry, ModelSlave, StepOutcome, StepStatus
from cosim.system import (
    BondSide,
    Causality,
    FixedStepPolicy,
    PowerBond,
    SlaveDescriptor,
    SlaveSpec,
    SystemDescription,
    VariableDescriptor,
    VarKind,
)
from cosim.units import METER_PER_SECOND, NEWTON

IN = Causality.INPUT
OUT = Causality.OUTPUT


class FailAfterModel(ModelSlave):
    """Steps fine until its clock passes t_fail, then reports failure."""

    DESCRIPTOR = SlaveDescriptor(
        model_id="fail_after",
        variables=(
            VariableDescriptor("tau", IN, VarKind.EFFORT, NEWTON),
            VariableDescriptor("v", OUT, VarKind.FLOW, METER_PER_SECOND),
        ),
        parameters={"t_fail": 0.5},
    )

    def _initialize(self, t0):
        self.outputs["v"] = 0.0

    def _step(self, t, dt):
        if t + dt > self.params["t_fail"]:
            raise RuntimeError("diverged")


class RejectAfterModel(ModelSlave):
    """Rejects any step that would carry it past t_reject."""

    DESCRIPTOR = SlaveDescriptor(
        model_id="reject_after",
        variables=(
            VariableDescriptor("tau", IN, VarKind.EFFORT, NEWTON),
            VariableDescriptor("v", OUT, VarKind.FLOW, METER_PER_SECOND),
        ),
        parameters={"t_reject": 0.5},
    )

    def _initialize(self, t0):
        self.outputs["v"] = 0.0

    def _step(self, t, dt):
        if t + dt > self.params["t_reject"]:
            raise StepRejected("cannot step that far")


class SlowModel(ModelSlave):
    """Sleeps through every step; for barrier-timeout tests."""

    DESCRIPTOR = SlaveDescriptor(
        model_id="slow",
        variables=(
            VariableDescriptor("tau", IN, VarKind.EFFORT, NEWTON),
            VariableDescriptor("v", OUT, VarKind.FLOW, METER_PER_SECOND),
        ),
        parameters={"delay": 0.5},
    )

    def _initialize(self, t0):
        self.outputs["v"] = 0.0

    def _step(self, t, dt):
        time.sleep(self.params["delay"])


class InjectedFault(Exception):
    """Raised by ``FaultyModel`` on the call it is set to break."""


class FaultyModel(ModelSlave):
    """Misbehaves once: on call number ``call`` of one stage.

    ``stage`` indexes STAGES and ``mode`` MODES: raise ``InjectedFault``,
    return a failed outcome, or return OK with a NaN end time.  The last
    two are step outcomes, so they apply to ``do_step`` only.  Otherwise
    a unit mass driven by its force input.
    """

    STAGES = ("set_inputs", "do_step", "get_outputs", "terminate")
    MODES = ("raise", "fail", "nan_end")
    DESCRIPTOR = SlaveDescriptor(
        model_id="faulty",
        variables=(
            VariableDescriptor("tau", IN, VarKind.EFFORT, NEWTON),
            VariableDescriptor("v", OUT, VarKind.FLOW, METER_PER_SECOND),
        ),
        parameters={"stage": 1.0, "call": 1.0, "mode": 0.0},
    )

    def __init__(self, parameters=None):
        super().__init__(parameters)
        self.calls = 0

    def _breaks(self, stage):
        """Count a call of ``stage``; True on the one that misbehaves."""
        if self.STAGES[int(self.params["stage"])] != stage:
            return False
        self.calls += 1
        return self.calls == self.params["call"]

    def set_inputs(self, values):
        if self._breaks("set_inputs"):
            raise InjectedFault(f"set_inputs call {self.calls}")
        super().set_inputs(values)

    def do_step(self, t, dt):
        outcome = super().do_step(t, dt)
        if not self._breaks("do_step"):
            return outcome
        mode = self.MODES[int(self.params["mode"])]
        if mode == "fail":
            return StepOutcome(StepStatus.FAILED, t, "injected failure")
        if mode == "nan_end":
            return StepOutcome(StepStatus.OK, math.nan)
        raise InjectedFault(f"do_step call {self.calls}")

    def get_outputs(self):
        if self._breaks("get_outputs"):
            raise InjectedFault(f"get_outputs call {self.calls}")
        return super().get_outputs()

    def terminate(self):
        super().terminate()
        if self._breaks("terminate"):
            raise InjectedFault(f"terminate call {self.calls}")

    def _initialize(self, t0):
        self.outputs["v"] = 0.0

    def _step(self, t, dt):
        self.outputs["v"] += dt * self.inputs["tau"]


def extended_registry() -> ModelRegistry:
    """The standard registry plus the test-only models above."""
    reg = ModelRegistry()
    reg._entries.update(standard_registry._entries)
    for cls in (FailAfterModel, RejectAfterModel, SlowModel, FaultyModel):
        reg.register(cls)
    return reg


@pytest.fixture
def test_registry() -> ModelRegistry:
    return extended_registry()


def quarter_car_system(policy, h=1e-4, t_end=10.0, reticulation="b",
                       z1_0=0.05, orientation="a") -> SystemDescription:
    if reticulation == "b":
        slaves = (
            SlaveSpec("chassis", "quarter_car_chassis_susp", {"z1_0": z1_0, "h": h}),
            SlaveSpec("wheel", "quarter_car_wheel", {"h": h}),
        )
        bond = PowerBond("susp",
                         BondSide("chassis", "F", "v2"),
                         BondSide("wheel", "v2", "F"),
                         positive_side=orientation)
    else:
        slaves = (
            SlaveSpec("chassis", "quarter_car_chassis", {"z1_0": z1_0, "h": h}),
            SlaveSpec("wheel", "quarter_car_wheel_susp", {"z1_0": z1_0, "h": h}),
        )
        bond = PowerBond("susp",
                         BondSide("wheel", "F", "v1"),
                         BondSide("chassis", "v1", "F"),
                         positive_side=orientation)
    return SystemDescription(
        slaves=slaves, bonds=(bond,), signals=(), function_units=(),
        step_policy=policy, t_start=0.0, t_end=t_end,
    )


def msd_pair_system(policy, t_end=20.0, h=1e-3) -> SystemDescription:
    return SystemDescription(
        slaves=(
            SlaveSpec("left", "msd_integral",
                      {"m": 1.0, "d": 0.5, "k": 2.0, "x0": 1.0, "h": h}),
            SlaveSpec("right", "msd_differential",
                      {"m": 0.2, "d": 0.1, "k": 0.5, "h": h}),
        ),
        bonds=(PowerBond("link",
                         BondSide("left", "v", "tau"),
                         BondSide("right", "tau", "v"),
                         positive_side="a"),),
        signals=(), function_units=(),
        step_policy=policy, t_start=0.0, t_end=t_end,
    )


@dataclass(frozen=True)
class RecordedRun:
    """A finished run's summary plus the records a MemoryObserver kept."""

    result: SimulationResult
    records: list[StepRecord]

    @property
    def steps(self) -> int:
        return self.result.steps


class ThreadCounter:
    """Observer that keeps the highest thread count seen while stepping."""

    def __init__(self):
        self.peak = 0

    def on_start(self, info):
        pass

    def on_step(self, record):
        self.peak = max(self.peak, threading.active_count())

    def on_end(self, reason):
        pass


def run_system(system, observers=None, registry=None, step_timeout=60.0):
    """Run to the end with a MemoryObserver attached after `observers`.

    An in-process run steps on the caller's thread: it must start none.
    """
    memory = MemoryObserver()
    threads = ThreadCounter()
    before = threading.active_count()
    resolver = LocalResolver(registry or standard_registry)
    run = initialize_run(system, resolver,
                         observers=[*(observers or ()), memory, threads],
                         step_timeout=step_timeout)
    result = run_to_end(run)
    assert memory.end_reason == "completed"
    assert len(memory.records) == result.steps
    assert threads.peak <= before
    return RecordedRun(result, memory.records)


def single_slave(model_id, parameters=None, registry=None):
    """A set-up, initialized instance driven directly (no master)."""
    reg = registry or standard_registry
    inst = reg.create(model_id, parameters or {})
    inst.setup(0.0, 1e9)
    inst.initialize()
    return inst
