"""Exception hierarchy shared by every layer of the kernel."""

from __future__ import annotations


class CosimError(Exception):
    """Base class for all errors raised by this package."""


class DimensionMismatch(CosimError):
    """Two quantities with incompatible physical dimensions were combined."""


class UnknownModel(CosimError):
    """A model id is not present in the registry."""


class UnknownParameter(CosimError):
    """A parameter name is not declared by the model."""


class InvalidState(CosimError):
    """A lifecycle operation was called in a state that does not allow it."""


class StepRejected(CosimError):
    """A slave refused a do_step call (non-positive dt or capability violation)."""


class AlgebraicLoop(CosimError):
    """A same-instant dependency cycle was found in the evaluation graph."""

    def __init__(self, cycle: list[str]):
        self.cycle = list(cycle)
        super().__init__("algebraic loop " + " -> ".join(self.cycle + [self.cycle[0]]))


class InvalidSystem(CosimError):
    """A system description failed validation; carries the findings."""

    def __init__(self, findings):
        self.findings = list(findings)
        lines = "; ".join(str(f) for f in self.findings)
        super().__init__(f"invalid system: {lines}")


class RunAborted(CosimError):
    """A simulation run stopped before reaching its end time."""


class ProtocolError(CosimError):
    """Malformed or unexpected traffic on the wire."""


class ConnectionLost(CosimError):
    """The transport to a remote peer dropped mid-conversation."""


class BarrierTimeout(RunAborted):
    """A slave did not answer a step request within the allowed time."""


class SpawnLimitExceeded(CosimError):
    """A provider refused to spawn because it is at capacity."""


class Terminated(KeyboardInterrupt):
    """SIGTERM, raised in the main thread so that a run ends as on Ctrl-C;
    the CLI raises it as ``Terminated("terminated")``, the abort reason."""
