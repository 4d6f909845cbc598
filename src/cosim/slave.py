"""Slave lifecycle contract and the in-process model base class.

A slave walks created -> set up -> ready -> terminated, one state per
stage; stepping keeps it ready.  ``setup``, ``initialize``, ``bind``, the
exchange and ``do_step`` each require exactly one state and raise
``InvalidState`` otherwise, so misuse fails loudly instead of producing
silent garbage.  ``terminate`` is allowed once, from any state.
Names are checked once, when the master binds a ready slave's inputs and
outputs; from then on the exchange moves value lists in the bound order,
until ``terminate`` drops the binding.
Remote proxies implement the same interface, which is what lets the
master run unchanged against local or networked slaves.
"""

from __future__ import annotations

import enum
from abc import ABC, abstractmethod
from typing import NamedTuple

from .errors import (
    InvalidState,
    NotAnInput,
    NotAnOutput,
    StepRejected,
    UnknownModel,
    UnknownParameter,
    UnknownVariable,
)
from .system import Causality, SlaveDescriptor

# Relative slack when comparing the caller's notion of time with the
# slave clock; absolute near zero.
TIME_RTOL = 1e-9


class StepStatus(enum.Enum):
    OK = "ok"
    FAILED = "failed"


class StepOutcome(NamedTuple):
    """Result of one macro step attempt; immutable.

    ``end_time`` equals the requested target time exactly when
    ``status`` is OK; on failure it reports how far the slave got.
    """

    status: StepStatus
    end_time: float
    diagnostic: str = ""

    @property
    def ok(self) -> bool:
        return self.status is StepStatus.OK


# Read on every step: a module global is several times cheaper than an
# enum class attribute, and ``tuple.__new__`` than the named tuple's own
# ``__new__``.
OK = StepStatus.OK
_new_tuple = tuple.__new__


def time_matches(expected: float, actual: float) -> bool:
    return abs(expected - actual) <= TIME_RTOL * max(1.0, abs(expected))


class SlaveInstance(ABC):
    """Interface the master drives; local models and remote proxies share it."""

    @abstractmethod
    def descriptor(self) -> SlaveDescriptor: ...

    @abstractmethod
    def setup(self, t_start: float, t_end: float) -> None: ...

    @abstractmethod
    def initialize(self) -> None: ...

    @abstractmethod
    def bind(self, inputs: list[str], outputs: list[str]) -> None:
        """Fix the ports the exchange moves, in order; bad names raise here."""

    @abstractmethod
    def set_inputs(self, values: list[float]) -> None: ...

    @abstractmethod
    def do_step(self, t: float, dt: float) -> StepOutcome: ...

    def start_step(self, t: float, dt: float) -> None:
        """Begin a step that ``finish_step`` completes; a no-op in process."""

    def finish_step(self, t: float, dt: float, timeout: float) -> StepOutcome:
        """Complete the step; only a remote reply is bounded by ``timeout``."""
        return self.do_step(t, dt)

    @abstractmethod
    def get_outputs(self) -> list[float]: ...

    @abstractmethod
    def terminate(self) -> None: ...


class _State(enum.Enum):
    CREATED = "created"
    SET_UP = "set up"
    READY = "ready"
    TERMINATED = "terminated"


_READY = _State.READY


class ModelSlave(SlaveInstance):
    """Base class for in-process models.

    Subclasses set ``DESCRIPTOR``, take parameter overrides at
    construction, and implement ``_initialize`` and ``_step``.  Input
    latching, output bookkeeping, state and clock checks live here.
    """

    DESCRIPTOR: SlaveDescriptor

    def __init__(self, parameters: dict[str, float] | None = None):
        self._state = _State.CREATED
        self._time = 0.0
        self._t_end = 0.0
        self._latched_dt: float | None = None
        self.params: dict[str, float] = dict(self.DESCRIPTOR.parameters)
        for name, value in (parameters or {}).items():
            if name not in self.DESCRIPTOR.parameters:
                raise UnknownParameter(
                    f"{self.DESCRIPTOR.model_id!r} has no parameter {name!r}"
                )
            self.params[name] = float(value)
        self.inputs: dict[str, float] = {}
        self.outputs: dict[str, float] = {}
        self._binding: tuple[list[str], list[str]] | None = None

    # -- interface ----------------------------------------------------

    def descriptor(self) -> SlaveDescriptor:
        return self.DESCRIPTOR

    def setup(self, t_start: float, t_end: float) -> None:
        self._require(_State.CREATED, "setup")
        self._time = float(t_start)
        self._t_end = float(t_end)
        self._state = _State.SET_UP

    def initialize(self) -> None:
        self._require(_State.SET_UP, "initialize")
        # Read once: a causality switch changes ports, not this flag.
        self._variable_step = self.descriptor().supports_variable_step
        for v in self.descriptor().variables:
            if v.causality is Causality.INPUT:
                self.inputs[v.name] = 0.0
        self._initialize(self._time)
        missing = [v.name for v in self.descriptor().outputs() if v.name not in self.outputs]
        if missing:
            raise InvalidState(f"model left outputs unset after initialize: {missing}")
        self._state = _State.READY

    def bind(self, inputs: list[str], outputs: list[str]) -> None:
        self._require(_State.READY, "bind")
        for name in inputs:
            if self._variable(name).causality is not Causality.INPUT:
                raise NotAnInput(f"{name} is not an input")
        for name in outputs:
            if self._variable(name).causality is not Causality.OUTPUT:
                raise NotAnOutput(f"{name} is not an output")
        self._binding = (list(inputs), list(outputs))
        # Decided once: only a model that overrides the hook has one to run.
        self._feedthrough = (type(self)._refresh_feedthrough
                             is not ModelSlave._refresh_feedthrough)

    def set_inputs(self, values: list[float]) -> None:
        binding = self._binding
        if binding is None:
            self._raise_unbound("set_inputs")
        names = binding[0]
        if len(values) != len(names):
            raise InvalidState(f"{len(values)} values for {len(names)} bound inputs")
        inputs = self.inputs
        for name, value in zip(names, values):
            inputs[name] = float(value)
        if self._feedthrough:
            self._refresh_feedthrough()

    def do_step(self, t: float, dt: float) -> StepOutcome:
        if self._state is not _READY:
            self._require(_READY, "do_step")
        if not dt > 0.0:
            raise StepRejected(f"step size must be positive (got {dt})")
        if t != self._time and not time_matches(t, self._time):
            raise InvalidState(
                f"do_step at t={t!r} but slave clock is {self._time!r}"
            )
        if not self._variable_step:
            if self._latched_dt is None:
                self._latched_dt = dt
            elif abs(dt - self._latched_dt) > 1e-12 * self._latched_dt:
                raise StepRejected(
                    f"fixed-step model: dt changed from {self._latched_dt!r} to {dt!r}"
                )
        try:
            self._step(t, dt)
        except StepRejected:
            raise
        except Exception as exc:  # solver blow-ups become a failed outcome
            return StepOutcome(StepStatus.FAILED, self._time, f"{type(exc).__name__}: {exc}")
        self._time = end = t + dt
        return _new_tuple(StepOutcome, (OK, end, ""))

    def get_outputs(self) -> list[float]:
        binding = self._binding
        if binding is None:
            self._raise_unbound("get_outputs")
        # A plain loop: in Python 3.11 a list comprehension is a function
        # call of its own, the larger cost for one or two outputs.
        outputs = self.outputs
        values = []
        for name in binding[1]:
            values.append(outputs[name])
        return values

    def terminate(self) -> None:
        if self._state is _State.TERMINATED:
            raise InvalidState("terminate called twice")
        self._state = _State.TERMINATED
        self._binding = None

    # -- hooks for subclasses ------------------------------------------

    @abstractmethod
    def _initialize(self, t0: float) -> None:
        """Set initial state and fill ``self.outputs`` for every output."""

    @abstractmethod
    def _step(self, t: float, dt: float) -> None:
        """Advance internal state from t to t+dt and refresh ``self.outputs``."""

    def _refresh_feedthrough(self) -> None:
        """Recompute direct-feedthrough outputs from freshly set inputs."""

    # -- helpers --------------------------------------------------------

    def _variable(self, name: str):
        try:
            return self.descriptor().variable(name)
        except KeyError:
            raise UnknownVariable(f"no variable named {name!r}") from None

    def _raise_unbound(self, what: str):
        """Raise why there is no binding: only a ready slave holds one,
        as ``terminate`` clears it."""
        self._require(_READY, what)
        raise InvalidState(f"{what} before bind")

    def _require(self, state: _State, what: str):
        if self._state is not state:
            raise InvalidState(f"{what} not allowed in state {self._state.value!r}")


class ModelRegistry:
    """Maps model ids to descriptors and instance factories."""

    def __init__(self):
        self._entries: dict[str, tuple[SlaveDescriptor, type[ModelSlave]]] = {}

    def register(self, cls: type[ModelSlave]) -> type[ModelSlave]:
        desc = cls.DESCRIPTOR
        if desc.model_id in self._entries:
            raise ValueError(f"model {desc.model_id!r} already registered")
        self._entries[desc.model_id] = (desc, cls)
        return cls

    def model_ids(self) -> list[str]:
        return sorted(self._entries)

    def describe(self, model_id: str) -> SlaveDescriptor:
        try:
            return self._entries[model_id][0]
        except KeyError:
            raise UnknownModel(f"unknown model {model_id!r}") from None

    def create(self, model_id: str, parameters: dict[str, float] | None = None) -> ModelSlave:
        try:
            cls = self._entries[model_id][1]
        except KeyError:
            raise UnknownModel(f"unknown model {model_id!r}") from None
        return cls(parameters)

    def descriptors(self) -> dict[str, SlaveDescriptor]:
        return {mid: desc for mid, (desc, _) in self._entries.items()}
