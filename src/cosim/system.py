"""Descriptors, connection topology, and whole-system validation.

Everything here is immutable after construction.  Validation never
raises for bad systems; it returns a report whose findings are plain
data, so a frontend can show all of them at once.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import NamedTuple

from .errors import AlgebraicLoop, DimensionMismatch
from .units import Unit, is_power_conjugate


class Causality(enum.Enum):
    INPUT = "input"
    OUTPUT = "output"


class VarKind(enum.Enum):
    FLOW = "flow"
    EFFORT = "effort"
    SIGNAL = "signal"


@dataclass(frozen=True)
class VariableDescriptor:
    """One scalar variable of a model: name, direction, kind, unit.

    ``direct_feedthrough`` marks outputs whose value depends on the
    same-instant inputs; such outputs take part in algebraic-loop
    detection.  ``unit`` may be None only on function-unit ports, which
    are dimension-polymorphic.
    """

    name: str
    causality: Causality
    kind: VarKind
    unit: Unit | None
    direct_feedthrough: bool = False


@dataclass(frozen=True)
class SlaveDescriptor:
    """Blueprint metadata for a model: its variables and capabilities."""

    model_id: str
    variables: tuple[VariableDescriptor, ...]
    parameters: dict[str, float] = field(default_factory=dict)
    supports_variable_step: bool = True

    def __post_init__(self):
        names = [v.name for v in self.variables]
        if len(names) != len(set(names)):
            raise ValueError(f"{self.model_id}: duplicate variable names")
        if not self.variables:
            raise ValueError(f"{self.model_id}: a descriptor needs at least one variable")

    def variable(self, name: str) -> VariableDescriptor:
        for v in self.variables:
            if v.name == name:
                return v
        raise KeyError(name)

    def inputs(self) -> tuple[VariableDescriptor, ...]:
        return tuple(v for v in self.variables if v.causality is Causality.INPUT)

    def outputs(self) -> tuple[VariableDescriptor, ...]:
        return tuple(v for v in self.variables if v.causality is Causality.OUTPUT)


class PortRef(NamedTuple):
    """A (owner, variable) reference; the owner is a slave or FU name.

    A named tuple, as set-up builds and hashes many: a tuple does both
    several times faster than a frozen dataclass, with the same hash.
    """

    owner: str
    var: str

    def __str__(self) -> str:
        return f"{self.owner}.{self.var}"


@dataclass(frozen=True)
class BondSide:
    """One side of a power bond: this slave's output and input legs."""

    slave: str
    output: str
    input: str


@dataclass(frozen=True)
class PowerBond:
    """An oriented effort/flow pairing between two slaves.

    Exactly one side outputs the effort and inputs the flow; the other
    side does the opposite.  ``positive_side`` fixes the sign
    convention: power flowing into that side counts positive, which
    makes residual-energy signs deterministic.
    """

    name: str
    side_a: BondSide
    side_b: BondSide
    positive_side: str = "a"  # "a" or "b"

    def sides(self) -> tuple[BondSide, BondSide]:
        return (self.side_a, self.side_b)


@dataclass(frozen=True)
class SignalConnection:
    """A directed copy from one output port to one input port."""

    source: PortRef
    target: PortRef


@dataclass(frozen=True)
class SlaveSpec:
    """A named instantiation of a model, with parameter overrides."""

    name: str
    model_id: str
    parameters: dict[str, float] = field(default_factory=dict)
    provider: str | None = None  # "host:port" for remote spawning


@dataclass(frozen=True)
class FunctionUnitSpec:
    """A named instantiation of a built-in function-unit kind."""

    name: str
    kind: str
    params: dict[str, object] = field(default_factory=dict)


@dataclass(frozen=True)
class FixedStepPolicy:
    dt: float


@dataclass(frozen=True)
class AdaptiveStepPolicy:
    dt0: float
    dt_min: float
    dt_max: float
    tolerance: float
    safety: float = 0.8
    alpha: float = 0.5
    theta_min: float = 0.5
    theta_max: float = 2.0


StepPolicy = FixedStepPolicy | AdaptiveStepPolicy


@dataclass(frozen=True)
class SystemDescription:
    """The full declarative model of one co-simulation."""

    slaves: tuple[SlaveSpec, ...]
    bonds: tuple[PowerBond, ...] = ()
    signals: tuple[SignalConnection, ...] = ()
    function_units: tuple[FunctionUnitSpec, ...] = ()
    step_policy: StepPolicy = FixedStepPolicy(0.01)
    t_start: float = 0.0
    t_end: float = 1.0

    def slave(self, name: str) -> SlaveSpec:
        for s in self.slaves:
            if s.name == name:
                return s
        raise KeyError(name)


@dataclass(frozen=True)
class Finding:
    """One validation problem; ``where`` names the offending element."""

    code: str
    message: str
    where: str = ""

    def __str__(self) -> str:
        if self.where:
            return f"[{self.code}] {self.where}: {self.message}"
        return f"[{self.code}] {self.message}"


@dataclass(frozen=True)
class ValidationReport:
    findings: tuple[Finding, ...]

    @property
    def ok(self) -> bool:
        return not self.findings

    def __str__(self) -> str:
        if self.ok:
            return "ok"
        return "\n".join(str(f) for f in self.findings)


def _fu_descriptor(spec: FunctionUnitSpec):
    # Imported lazily: function_units depends on this module for types.
    from .function_units import make_fu

    return make_fu(spec).desc


def validate_system(
    system: SystemDescription,
    descriptors: dict[str, SlaveDescriptor],
) -> ValidationReport:
    """Check a system description against the registry of blueprints.

    Returns a report; an empty findings list means the system can be
    instantiated by the master without wiring errors.  Pure function:
    identical inputs produce identical reports.
    """
    findings: list[Finding] = []

    def add(code: str, message: str, where: str = ""):
        findings.append(Finding(code, message, where))

    if not system.slaves:
        add("no-slaves", "system declares no slaves")

    # Name uniqueness across slaves and function units.
    seen: dict[str, str] = {}
    for s in system.slaves:
        if s.name in seen:
            add("duplicate-name", f"name also used by a {seen[s.name]}", s.name)
        seen[s.name] = "slave"
    for fu in system.function_units:
        if fu.name in seen:
            add("duplicate-name", f"name also used by a {seen[fu.name]}", fu.name)
        seen[fu.name] = "function unit"

    # Resolve descriptors; slaves with unknown models are skipped below.
    slave_desc: dict[str, SlaveDescriptor] = {}
    for s in system.slaves:
        d = descriptors.get(s.model_id)
        if d is None:
            add("unknown-model", f"model {s.model_id!r} not in registry", s.name)
            continue
        slave_desc[s.name] = d
        for pname in s.parameters:
            if pname not in d.parameters:
                add("unknown-parameter", f"model {s.model_id!r} has no parameter {pname!r}", s.name)

    fu_desc: dict[str, SlaveDescriptor] = {}
    for fu in system.function_units:
        try:
            fu_desc[fu.name] = _fu_descriptor(fu)
        except (KeyError, ValueError, DimensionMismatch) as exc:
            add("bad-function-unit", str(exc), fu.name)

    def lookup_var(ref: PortRef) -> VariableDescriptor | None:
        d = slave_desc.get(ref.owner) or fu_desc.get(ref.owner)
        try:
            return d.variable(ref.var) if d is not None else None
        except KeyError:
            return None

    # Wiring bookkeeping: every input must end up wired exactly once.
    wired: dict[PortRef, int] = {}

    def wire(ref: PortRef, what: str):
        v = lookup_var(ref)
        if v is None:
            add("unknown-port", f"{what} references unknown port {ref}", str(ref))
            return
        if v.causality is not Causality.INPUT:
            add("not-an-input", f"{what} targets non-input {ref}", str(ref))
            return
        wired[ref] = wired.get(ref, 0) + 1

    def check_source(ref: PortRef, what: str) -> VariableDescriptor | None:
        v = lookup_var(ref)
        if v is None:
            add("unknown-port", f"{what} references unknown port {ref}", str(ref))
            return None
        if v.causality is not Causality.OUTPUT:
            add("not-an-output", f"{what} reads non-output {ref}", str(ref))
            return None
        return v

    # Power bonds: unique names, complementary effort/flow roles and the
    # watt check.
    bond_names: set[str] = set()
    for bond in system.bonds:
        where = f"bond {bond.name}"
        if bond.name in bond_names:
            add("duplicate-name", "name also used by another bond", where)
        bond_names.add(bond.name)
        if bond.positive_side not in ("a", "b"):
            add("bad-orientation", f"positive_side must be 'a' or 'b'", where)
        side_vars = []
        for side in bond.sides():
            if side.slave in fu_desc:
                add("bond-not-slave", f"bond side {side.slave!r} is a function unit", where)
            out_ref = PortRef(side.slave, side.output)
            in_ref = PortRef(side.slave, side.input)
            out_v = check_source(out_ref, where)
            wire(in_ref, where)
            in_v = lookup_var(in_ref)
            side_vars.append((out_v, in_v))
        (out_a, in_a), (out_b, in_b) = side_vars
        if None in (out_a, in_a, out_b, in_b):
            continue
        kinds = {out_a.kind, out_b.kind}
        if kinds != {VarKind.EFFORT, VarKind.FLOW}:
            add(
                "bad-bond-roles",
                "one side must output effort and the other flow "
                f"(got {out_a.kind.value} and {out_b.kind.value})",
                where,
            )
            continue
        if out_a.kind == in_a.kind or out_b.kind == in_b.kind:
            add("bad-bond-roles", "each side must input the opposite kind it outputs", where)
            continue
        effort_v = out_a if out_a.kind is VarKind.EFFORT else out_b
        flow_v = out_a if out_a.kind is VarKind.FLOW else out_b
        if effort_v.unit is not None and flow_v.unit is not None:
            if not is_power_conjugate(effort_v.unit, flow_v.unit):
                add(
                    "not-a-power-pair",
                    f"effort {effort_v.unit} x flow {flow_v.unit} is not a power",
                    where,
                )
        # Units must also match across each leg (conversion permitted).
        for out_v, in_v in ((out_a, in_b), (out_b, in_a)):
            if out_v.unit is not None and in_v.unit is not None:
                if out_v.unit.dimension != in_v.unit.dimension:
                    add(
                        "dimension-mismatch",
                        f"bond leg {out_v.name} -> {in_v.name}: "
                        f"{out_v.unit} vs {in_v.unit}",
                        where,
                    )

    # Signal connections: direction and dimension.
    for sig in system.signals:
        where = f"signal {sig.source} -> {sig.target}"
        out_v = check_source(sig.source, where)
        wire(sig.target, where)
        in_v = lookup_var(sig.target)
        if out_v is not None and in_v is not None:
            if out_v.unit is not None and in_v.unit is not None:
                if out_v.unit.dimension != in_v.unit.dimension:
                    add(
                        "dimension-mismatch",
                        f"{out_v.unit} does not convert to {in_v.unit}",
                        where,
                    )

    # Every slave and FU input wired exactly once.
    for name, d in list(slave_desc.items()) + list(fu_desc.items()):
        for v in d.inputs():
            ref = PortRef(name, v.name)
            n = wired.get(ref, 0)
            if n == 0:
                add("unwired-input", "input is not wired", str(ref))
            elif n > 1:
                add("input-wired-twice", f"input has {n} sources", str(ref))

    # Same-instant dependency graph over FUs and feedthrough outputs.
    try:
        _topological_order(_same_instant_edges(system, slave_desc, fu_desc))
    except AlgebraicLoop as loop:
        add("algebraic-loop", str(loop))

    # Step policy sanity.
    pol = system.step_policy
    if isinstance(pol, FixedStepPolicy):
        if not pol.dt > 0:
            add("bad-step-policy", f"fixed dt must be positive (got {pol.dt})")
    else:
        if not (pol.dt_min <= pol.dt0 <= pol.dt_max):
            add(
                "bad-step-policy",
                f"need dt_min <= dt0 <= dt_max (got {pol.dt_min}, {pol.dt0}, {pol.dt_max})",
            )
        if not pol.dt_min > 0:
            add("bad-step-policy", f"dt_min must be positive (got {pol.dt_min})")
        if not pol.tolerance > 0:
            add("bad-step-policy", f"tolerance must be positive (got {pol.tolerance})")
        if not (0.0 < pol.theta_min < 1.0 < pol.theta_max):
            add(
                "bad-step-policy",
                f"need 0 < theta_min < 1 < theta_max (got {pol.theta_min}, {pol.theta_max})",
            )
        if not 0.0 < pol.safety <= 1.0:
            add("bad-step-policy", f"safety must be in (0, 1] (got {pol.safety})")
        if not pol.alpha > 0.0:
            add("bad-step-policy", f"alpha must be positive (got {pol.alpha})")
    if system.t_end < system.t_start:
        add("bad-horizon", f"t_end {system.t_end} before t_start {system.t_start}")

    return ValidationReport(tuple(findings))


def _same_instant_edges(
    system: SystemDescription,
    slave_desc: dict[str, SlaveDescriptor],
    fu_desc: dict[str, SlaveDescriptor],
) -> dict[str, set[str]]:
    """The same-instant dependency graph, as each node's predecessors.

    u in preds[v] means v's same-instant value needs u's; every node
    with an edge is a key.  Only FUs and slaves with direct-feedthrough
    outputs propagate within an instant; connections into a
    non-feedthrough slave terminate the chain.
    """
    propagates = set(fu_desc)
    propagates.update(
        name for name, d in slave_desc.items()
        if any(v.direct_feedthrough and v.causality is Causality.OUTPUT
               for v in d.variables))
    preds: dict[str, set[str]] = {}
    pairs: list[tuple[str, str]] = []
    for sig in system.signals:
        pairs.append((sig.source.owner, sig.target.owner))
    for bond in system.bonds:
        pairs.append((bond.side_a.slave, bond.side_b.slave))
        pairs.append((bond.side_b.slave, bond.side_a.slave))
    for src, dst in pairs:
        if src in propagates and dst in propagates:
            preds.setdefault(src, set())
            preds.setdefault(dst, set()).add(src)
    return preds


def _topological_order(preds: dict[str, set[str]]) -> tuple[list[str], int]:
    """Order a predecessor graph in one pass; return the order and the batch count.

    Ready nodes are taken in sorted batches, so the order is
    deterministic and the batch count is the longest chain.  On a stall
    every unplaced node waits on another, so walking back through
    unplaced predecessors, smallest first, repeats a node: the walk from
    it is the cycle AlgebraicLoop names, reversed into edge order.
    """
    order: list[str] = []
    placed: set[str] = set()
    batches = 0
    while len(placed) < len(preds):
        ready = sorted(n for n, p in preds.items() if n not in placed and p <= placed)
        if not ready:
            walk = [min(n for n in preds if n not in placed)]
            while (node := min(preds[walk[-1]] - placed)) not in walk:
                walk.append(node)
            raise AlgebraicLoop([node, *reversed(walk[walk.index(node) + 1 :])])
        placed.update(ready)
        order += ready
        batches += 1
    return order, batches
