"""The explicit parallel co-simulation master.

Every macro step runs the same fixed sequence: latch inputs, step all
slaves to the barrier, gather outputs, evaluate the connection plan,
account residual energies, notify observers, add the step to the step
sum.  Inputs are held constant over the step and every slave integrates
from the same snapshot, so permuting the slave list cannot change any
value.

One thread steps all slaves, split once by placement into two lists in
system order.  It sends every remote STEP request, steps the in-process
slaves while the providers compute, then reads the replies; the first to
fail names the abort.  ``step_timeout`` catches an in-process overrun on
return and cuts a late remote reply off: one clock read after each
slave's step checks that deadline and gives the next reply read its time
left.  Energy reports and step records are immutable named tuples, cheap
to build on every step.

The run's time is the exact step sum: ``t_start`` plus the steps taken,
held as a few non-overlapping partials and rounded once by
``math.fsum``.  The final step is the remainder, rounded once, and the
run ends with it: the exact sum of the steps taken is the requested
span to within half an ulp of that last step.
"""

from __future__ import annotations

import logging
import math
import time
import traceback
from array import array
from dataclasses import dataclass
from itertools import chain
from typing import NamedTuple

from .energy import EnergyReport, account_step
from .errors import (
    BarrierTimeout,
    ConnectionLost,
    InvalidState,
    InvalidSystem,
    RunAborted,
    StepRejected,
)
from .function_units import EvaluationPlan, build_plan, evaluate_plan
from .slave import ModelRegistry, SlaveInstance, time_matches
from .system import (
    LAST_STEP_RTOL,
    AdaptiveStepPolicy,
    FixedStepPolicy,
    PortRef,
    Resolution,
    SlaveSpec,
    SystemDescription,
    validate_system,
)

log = logging.getLogger(__name__)

# Step (5) calls the accounting by this name, which the benchmark's
# tracer (``perfbench/spans.py``) wraps to time the energy layer.
error_indicator = account_step

_new_tuple = tuple.__new__  # builds a named tuple without its Python-level __new__


def _add_exact(partials: list[float], x: float) -> None:
    """Add x to the exact sum held as non-overlapping partials, in place.

    Shewchuk (1997) as in the ``msum`` recipe behind ``math.fsum``: the
    partials' exact sum is the exact sum of everything added, and the
    list stays a few floats long however many values go in.
    """
    i = 0
    for y in partials:
        if abs(x) < abs(y):
            x, y = y, x
        hi = x + y
        lo = y - (hi - x)
        if lo:
            partials[i] = lo
            i += 1
        x = hi
    partials[i:] = [x]


@dataclass(frozen=True)
class StartInfo:
    """Metadata observers receive before the first step."""

    system: SystemDescription
    output_ports: tuple[PortRef, ...]
    bond_names: tuple[str, ...]
    t_start: float
    t_end: float


class StepRecord(NamedTuple):
    """Everything exchanged and accounted over one accepted macro step; immutable."""

    index: int
    t: float
    dt: float
    t_next: float
    inputs: dict[PortRef, float]
    outputs: dict[PortRef, float]
    energy: EnergyReport


@dataclass
class SimulationResult:
    """Summary of a finished run; step records go only to observers."""

    steps: int
    t_start: float
    t_end: float


class LocalResolver:
    """Finds descriptors and builds instances from the in-process registry."""

    def __init__(self, registry: ModelRegistry):
        self.registry = registry

    def describe(self, spec: SlaveSpec):
        return self.registry.describe(spec.model_id)

    def create(self, spec: SlaveSpec) -> SlaveInstance:
        return self.registry.create(spec.model_id, spec.parameters)


class SimulationRun:
    """A live run: slaves, plan, step sum, latched inputs, controller.

    ``slaves`` is in ``plan.slaves`` order, as ``initialize_run`` builds
    it.  ``_local`` and ``_remote`` split it by placement, once: the
    in-process slaves and the remote ones, which have a ``start_step``,
    each a list of ``(name, slave)`` in system order.  Stage (2) of a
    step runs every remote ``start_step``, then every in-process
    ``do_step``, then every remote ``finish_step``.  A slave exchanges
    its ports in descriptor order, which is the order of its entry in
    ``plan.slaves``; the plan fixes where they sit in ``latched`` and
    ``outputs``, and which of them are bond legs (``plan.bonds``).
    ``time`` is ``t_start`` plus the exact sum of the steps taken,
    rounded once.  ``controller`` is the adaptive policy, or None whenever
    ``dt`` does not adapt: under a fixed-step policy, or when a slave
    cannot vary its step.
    """

    def __init__(
        self,
        system: SystemDescription,
        slaves: dict[str, SlaveInstance],
        plan: EvaluationPlan,
        observers: list,
        step_timeout: float,
    ):
        self.system = system
        self.slaves = slaves
        self.plan = plan
        self.observers = list(observers)
        self.step_timeout = step_timeout
        self.index = 0
        self.dt_partials: list[float] = []  # exact sum of the steps taken
        self.latched: list[float] = []  # slave inputs, ``plan.inputs`` order
        self.outputs: list[float] = []  # slave outputs, ``plan.outputs`` order
        self.cumulative = [0.0] * len(plan.bonds)  # running dE, ``plan.bonds`` order
        self._terminated = False
        self._local: list[tuple[str, SlaveInstance]] = []
        self._remote: list[tuple[str, SlaveInstance]] = []
        for entry in slaves.items():
            (self._remote if hasattr(entry[1], "start_step") else self._local).append(entry)

        policy = system.step_policy
        self.controller: AdaptiveStepPolicy | None = None
        if isinstance(policy, FixedStepPolicy):
            self.next_dt = policy.dt
        else:
            self.next_dt = policy.dt0
            rigid = [n for n, s in slaves.items() if not s.descriptor().supports_variable_step]
            if rigid:
                log.warning("slaves %s do not support variable steps; adaptive policy "
                            "degraded to fixed dt=%g", rigid, policy.dt0)
            else:
                self.controller = policy

        # A slave's inputs are one run of ``plan.inputs``, so its share of
        # a latched list is a slice; a slave without inputs gets no share.
        self._fed: list[tuple[SlaveInstance, slice]] = []
        start = 0
        for name, ins, _ in plan.slaves:
            if ins:
                self._fed.append((slaves[name], slice(start, start + len(ins))))
            start += len(ins)

    @property
    def time(self) -> float:
        return math.fsum([self.system.t_start, *self.dt_partials])

    def start_info(self) -> StartInfo:
        return StartInfo(
            system=self.system,
            output_ports=self.plan.outputs,
            bond_names=tuple(b.name for b in self.plan.bonds),
            t_start=self.system.t_start,
            t_end=self.system.t_end,
        )

    # -- lifecycle ------------------------------------------------------

    def terminate(self) -> None:
        if self._terminated:
            return
        self._terminated = True
        _terminate_all(self.slaves)

    # -- internals ------------------------------------------------------

    def _notify(self, method: str, *args) -> None:
        # A broken observer is dropped; it must never take the run down.
        for obs in list(self.observers):
            try:
                getattr(obs, method)(*args)
            except Exception as exc:
                # One line: ``cosim run`` configures no logging, so logging's
                # last-resort handler prints it, above the CLI's own error.
                log.warning("observer %s failed in %s; disabling: %s: %s",
                            type(obs).__name__, method, type(exc).__name__, exc)
                self.observers.remove(obs)

    def _abort(self, reason: str, exc_type: type[RunAborted] = RunAborted, cause=None):
        if not self._terminated:
            self._notify("on_end", f"aborted: {reason}")
            self.terminate()
        if cause is not None:
            raise exc_type(reason) from cause
        raise exc_type(reason)

    def gather_outputs(self) -> list[float]:
        """Every slave output, in ``plan.outputs`` order."""
        values: list[float] = []
        for slave in self.slaves.values():
            values += slave.get_outputs()
        return values

    def push_inputs(self, inputs: list[float]) -> None:
        """Set every slave input from a list in ``plan.inputs`` order."""
        for slave, share in self._fed:
            slave.set_inputs(inputs[share])


def _terminate_all(slaves: dict[str, SlaveInstance]) -> None:
    """Terminate every slave once; a failing terminate is logged in one
    line, with no traceback, and not raised."""
    for name, slave in slaves.items():
        try:
            slave.terminate()
        except Exception as exc:
            log.warning("terminate failed for slave %r: %s: %s", name, type(exc).__name__, exc)


def initialize_run(
    system: SystemDescription,
    resolver,
    observers: list | None = None,
    step_timeout: float = 60.0,
) -> SimulationRun:
    """Validate, instantiate, set up, initialize, and settle a system.

    A slave that ``resolver.describe`` cannot describe where it is placed
    is a finding: ``InvalidSystem`` is raised before any slave exists.  A
    created slave whose descriptor differs from the one described raises
    ``InvalidState`` before any slave is set up: validation and the plan
    read that description.

    Settle passes at t_start push the assigned inputs and apply the plan
    to the outputs again, until one leaves them the same bit for bit or
    ``n_init`` have run, so feedthrough chains settle before the first
    step.  On any failure or interrupt every slave created so far is
    terminated.
    """
    resolved = Resolution(system, resolver.describe)
    report = validate_system(system, resolved)
    if not report.ok:
        raise InvalidSystem(list(report.findings))

    plan = build_plan(system, resolved)

    slaves: dict[str, SlaveInstance] = {}
    try:
        for spec in system.slaves:
            slave = slaves[spec.name] = resolver.create(spec)
            if slave.descriptor() != resolved.slaves[spec.name]:
                raise InvalidState(f"slave {spec.name!r} was created unlike "
                                   f"the description it was checked against")
        for slave in slaves.values():
            slave.setup(system.t_start, system.t_end)
            slave.initialize()
        run = SimulationRun(
            system, slaves, plan,
            observers=list(observers or ()),
            step_timeout=step_timeout,
        )
        snapshot = run.gather_outputs()
        assigned = evaluate_plan(plan, snapshot, system.t_start)
        for _ in range(plan.n_init):
            run.push_inputs(assigned)
            snapshot = run.gather_outputs()
            pushed, assigned = assigned, evaluate_plan(plan, snapshot, system.t_start)
            if array("d", assigned).tobytes() == array("d", pushed).tobytes():
                break
    except BaseException:
        _terminate_all(slaves)
        raise
    run.outputs = snapshot
    run.latched = assigned
    return run


def step_once(run: SimulationRun, dt: float) -> StepRecord:
    """Advance the whole system by one macro step of size dt.

    Any exception out of the step aborts the run the same way a rejected
    step does: observers get the end notification, everything
    terminates, and the caller sees a RunAborted caused by it.
    """
    try:
        return _step_once(run, dt)
    except RunAborted:
        raise
    except Exception as exc:
        run._abort(_fault_reason(_fault_site(run, exc), exc), cause=exc)


def _fault_reason(site: str, exc: Exception) -> str:
    """Why ``exc`` at ``site`` aborts; a lost connection says so first."""
    if isinstance(exc, ConnectionLost):
        return f"connection lost: {site}{exc}"
    return f"{site}{type(exc).__name__}: {exc}"


def _fault_site(run: SimulationRun, exc: Exception) -> str:
    """The slave call or function unit a step fault left, or ''; read from
    the loop variable its frame still holds, on the abort path only."""
    for frame, _ in traceback.walk_tb(exc.__traceback__):
        local, call = frame.f_locals, _SLAVE_CALLS.get(frame.f_code)
        if call is not None:
            name = next(n for n, s in run.slaves.items() if s is local["slave"])
            return f"slave {name!r} {call}: "
        if frame.f_code is _PLAN_CODE and local.get("fu") is not None:
            return f"function unit {local['fu'].spec.name!r}: "
    return ""


_SLAVE_CALLS = {SimulationRun.gather_outputs.__code__: "get_outputs",
                SimulationRun.push_inputs.__code__: "set_inputs"}
_PLAN_CODE = evaluate_plan.__code__


def _step_once(run: SimulationRun, dt: float) -> StepRecord:
    t = run.time
    held = run.latched

    # (1) latch inputs on every slave
    run.push_inputs(held)

    # (2) step to the barrier on this thread: send the remote STEPs, step
    # the in-process slaves, read the replies; one clock read per slave
    # checks the deadline, and a reply read gets the time left
    deadline = time.monotonic() + run.step_timeout
    for name, slave in run._remote:
        try:
            slave.start_step(t, dt)
        except Exception as exc:
            run._abort(_fault_reason(f"slave {name!r} start_step: ", exc), cause=exc)
    t_next = t + dt
    for name, slave in run._local:
        try:
            end = slave.do_step(t, dt)
        except Exception as exc:
            _step_failed(run, name, exc, deadline)
        if time.monotonic() >= deadline:
            run._abort(f"slave {name!r} missed the step barrier after {run.step_timeout}s",
                       BarrierTimeout)
        if end != t_next and not time_matches(t_next, end):
            run._abort(f"slave {name!r} do_step ended at {end!r}, expected {t_next!r}")
    now = time.monotonic()
    for name, slave in run._remote:
        left = deadline - now
        try:
            # max(left, 0.0), without a builtin call per slave
            end = slave.finish_step(t, dt, left if left > 0.0 else 0.0)
        except Exception as exc:
            _step_failed(run, name, exc, deadline)
        now = time.monotonic()
        if now >= deadline:
            run._abort(f"slave {name!r} missed the step barrier after {run.step_timeout}s",
                       BarrierTimeout)
        if end != t_next and not time_matches(t_next, end):
            run._abort(f"slave {name!r} do_step ended at {end!r}, expected {t_next!r}")

    # (3) gather fresh outputs
    snapshot = run.gather_outputs()

    # (4) connection plan at the new communication point
    assigned = evaluate_plan(run.plan, snapshot, t_next)

    # (5) residual-energy accounting over the held/fresh bracket; a
    # non-finite indicator cannot drive the step size, so it ends the run
    energy = error_indicator(run.plan.bonds, held, snapshot, dt, run.cumulative)
    if run.controller is not None and not math.isfinite(energy.epsilon):
        run._abort(_indicator_reason(energy))

    record = _new_tuple(StepRecord, (run.index, t, dt, t_next,
                                     dict(zip(run.plan.inputs, held)),
                                     dict(zip(run.plan.outputs, snapshot)), energy))

    # (6) observers see the finished step
    run._notify("on_step", record)

    # (7) advance
    _add_exact(run.dt_partials, dt)
    run.index += 1
    run.latched = assigned
    run.outputs = snapshot
    if run.controller is not None:
        run.next_dt = run.controller.propose(energy.epsilon, dt)
    return record


def _step_failed(run: SimulationRun, name: str, exc: Exception, deadline: float) -> None:
    """Abort for a step call that raised, unless it is a reply read cut off
    by the deadline: that is a missed barrier, which the caller names."""
    if isinstance(exc, StepRejected):
        run._abort(f"slave {name!r} rejected the step: {exc}")
    if not isinstance(exc, ConnectionLost) or time.monotonic() < deadline:
        run._abort(_fault_reason(f"slave {name!r} do_step: ", exc), cause=exc)


def _indicator_reason(energy: EnergyReport) -> str:
    """Why a non-finite indicator ends the run: the first bond whose
    residual energy is not finite (over a finite step, only such a bond
    makes the indicator non-finite)."""
    bond = next(b for b in energy.bonds if not math.isfinite(b.de))
    return (f"error indicator is {energy.epsilon!r}: "
            f"bond {bond.bond!r} residual energy is {bond.de!r}")


def run_to_end(run: SimulationRun) -> SimulationResult:
    """Step until the remainder step reaches t_end; terminate everything.

    Each step record goes to the observers and is not kept here: the
    returned summary carries the step count and the span.  Attach a
    ``MemoryObserver`` to keep the records.  An interrupt ends the run
    as an abort caused by it, named by its text: ``"interrupted"`` for a
    bare Ctrl-C, ``"terminated"`` for the CLI's ``Terminated``.
    """
    t_end = run.system.t_end
    t_start = run.system.t_start
    head = (-t_end, t_start)  # fsum rounds correctly: -fsum(-x) is fsum(x)
    slack = 1.0 + LAST_STEP_RTOL
    run._notify("on_start", run.start_info())
    try:
        while (rem := -math.fsum(chain(head, run.dt_partials))) > run.next_dt * slack:
            step_once(run, run.next_dt)
        if rem > 0.0:
            # The last step is the remainder, rounded once; the run ends with it.
            step_once(run, rem)
        run._notify("on_end", "completed")
    except KeyboardInterrupt as exc:
        run._abort(str(exc) or "interrupted", cause=exc)
    finally:
        run.terminate()
    return SimulationResult(run.index, t_start, t_end)
