"""Slave lifecycle contract and the in-process model base class.

A slave walks created -> set up -> ready -> terminated, one state per
stage; stepping keeps it ready.  ``setup``, ``initialize``, the exchange
and ``do_step`` each require exactly one state and raise ``InvalidState``
otherwise, so misuse fails loudly instead of producing silent garbage.
``do_step`` returns the end time; a step that fails raises, as every
other call does.  ``terminate`` is allowed once, from any state.  A
port's address is its position in the descriptor, as an FMI value
reference is: once ready, ``set_inputs`` takes one value per
``descriptor().inputs()`` and ``get_outputs`` gives one per
``descriptor().outputs()``, in that order.  An in-process model sees
its ports the same way, as the lists ``self.inputs`` and
``self.outputs`` in descriptor order; no port name is looked up while
it runs.
Remote proxies implement the same interface, which is what lets the
master run unchanged against local or networked slaves.
"""

from __future__ import annotations

import enum
from abc import ABC, abstractmethod

from .errors import InvalidState, StepRejected, UnknownModel, UnknownParameter
from .system import FIXED_STEP_RTOL, SlaveDescriptor

# Relative slack when comparing the caller's notion of time with the
# slave clock; absolute near zero.
TIME_RTOL = 1e-9


def time_matches(expected: float, actual: float) -> bool:
    return abs(expected - actual) <= TIME_RTOL * max(1.0, abs(expected))


class SlaveInstance(ABC):
    """Interface the master drives; local models and remote proxies share it.

    Only a slave that waits on I/O also has ``start_step``, which sends
    the step, and ``finish_step``, which reads its end time within a timeout.
    """

    @abstractmethod
    def descriptor(self) -> SlaveDescriptor: ...

    @abstractmethod
    def setup(self, t_start: float, t_end: float) -> None: ...

    @abstractmethod
    def initialize(self) -> None: ...

    @abstractmethod
    def set_inputs(self, values: list[float]) -> None:
        """Set the inputs, one value per ``descriptor().inputs()``, in order."""

    @abstractmethod
    def do_step(self, t: float, dt: float) -> float:
        """Step from ``t`` to ``t + dt``; returns the end time, or raises."""

    @abstractmethod
    def get_outputs(self) -> list[float]:
        """The outputs, one value per ``descriptor().outputs()``, in order."""

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
    construction, and implement ``_initialize`` and ``_step``.  They read
    ``self.inputs`` and assign ``self.outputs``, both lists in descriptor
    order.  Input latching, the port counts, state and clock checks live
    here.
    """

    DESCRIPTOR: SlaveDescriptor

    def __init__(self, parameters: dict[str, float] | None = None):
        self._state = _State.CREATED
        self._time = 0.0
        self._latched_dt: float | None = None
        self.params: dict[str, float] = dict(self.DESCRIPTOR.parameters)
        for name, value in (parameters or {}).items():
            if name not in self.DESCRIPTOR.parameters:
                raise UnknownParameter(
                    f"{self.DESCRIPTOR.model_id!r} has no parameter {name!r}"
                )
            self.params[name] = float(value)
        self.inputs: list[float] = []
        self.outputs: list[float] = []

    # -- interface ----------------------------------------------------

    def descriptor(self) -> SlaveDescriptor:
        return self.DESCRIPTOR

    def setup(self, t_start: float, t_end: float) -> None:
        self._require(_State.CREATED, "setup")
        self._time = float(t_start)
        self._state = _State.SET_UP

    def initialize(self) -> None:
        self._require(_State.SET_UP, "initialize")
        desc = self.descriptor()
        # Read once: a causality switch changes ports, not this flag.
        self._variable_step = desc.supports_variable_step
        # Decided once: only a model that overrides the hook has one to run.
        self._feedthrough = (type(self)._refresh_feedthrough
                             is not ModelSlave._refresh_feedthrough)
        # The port counts are fixed from here: a causality switch swaps
        # ports, not how many there are.
        self.inputs = [0.0] * len(desc.inputs())
        self._n_outputs = len(desc.outputs())
        self._initialize(self._time)
        if len(self.outputs) != self._n_outputs:
            raise InvalidState(f"model set {len(self.outputs)} outputs for "
                               f"{self._n_outputs} after initialize")
        self._state = _State.READY

    def set_inputs(self, values: list[float]) -> None:
        if self._state is not _READY:
            self._require(_READY, "set_inputs")
        if len(values) != len(self.inputs):
            raise InvalidState(f"{len(values)} values for {len(self.inputs)} inputs")
        self.inputs = list(map(float, values))
        if self._feedthrough:
            self._refresh_feedthrough()

    def do_step(self, t: float, dt: float) -> float:
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
            elif abs(dt - self._latched_dt) > FIXED_STEP_RTOL * self._latched_dt:
                raise StepRejected(
                    f"fixed-step model: dt changed from {self._latched_dt!r} to {dt!r}"
                )
        self._step(t, dt)  # a model that raises leaves the clock where it was
        self._time = end = t + dt
        return end

    def get_outputs(self) -> list[float]:
        if self._state is not _READY:
            self._require(_READY, "get_outputs")
        outputs = self.outputs
        if len(outputs) != self._n_outputs:
            raise InvalidState(f"model set {len(outputs)} outputs for {self._n_outputs}")
        return outputs[:]

    def terminate(self) -> None:
        if self._state is _State.TERMINATED:
            raise InvalidState("terminate called twice")
        self._state = _State.TERMINATED

    # -- hooks for subclasses ------------------------------------------

    @abstractmethod
    def _initialize(self, t0: float) -> None:
        """Set initial state and assign ``self.outputs``, one value per
        output in descriptor order; ``self.inputs`` holds zeros."""

    @abstractmethod
    def _step(self, t: float, dt: float) -> None:
        """Advance internal state from t to t+dt, with ``self.inputs`` held,
        and assign ``self.outputs`` anew."""

    def _refresh_feedthrough(self) -> None:
        """Recompute direct-feedthrough outputs from freshly set inputs."""

    # -- helpers --------------------------------------------------------

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
