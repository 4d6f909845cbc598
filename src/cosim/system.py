"""Descriptors, connection topology, and whole-system validation.

Everything here is immutable after construction.  Validation never
raises for bad systems; it returns a report whose findings are plain
data, so a frontend can show all of them at once.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple

from .errors import AlgebraicLoop, ConnectionLost, DimensionMismatch, ProtocolError, UnknownModel
from .units import Unit, conversion_factor, is_power_conjugate


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
    detection.  ``unit`` may be None on signal and function-unit ports,
    which then take any dimension; a bond port without a unit is a
    ``not-a-power-pair`` finding.
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
        if len({v.name for v in self.variables}) != len(self.variables):
            raise ValueError(f"{self.model_id}: duplicate variable names")
        if not self.variables:
            raise ValueError(f"{self.model_id}: a descriptor needs at least one variable")
        # Kept once, beside the fields: set-up reads them for every slave.
        object.__setattr__(self, "_inputs", tuple(
            v for v in self.variables if v.causality is Causality.INPUT))
        object.__setattr__(self, "_outputs", tuple(
            v for v in self.variables if v.causality is Causality.OUTPUT))

    def inputs(self) -> tuple[VariableDescriptor, ...]:
        return self._inputs

    def outputs(self) -> tuple[VariableDescriptor, ...]:
        return self._outputs


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

    def problems(self) -> list[str]:
        """What ``validate_system`` reports as ``bad-step-policy``."""
        return [] if self.dt > 0 else [f"fixed dt must be positive (got {self.dt})"]


# Floor on epsilon inside the step-size power law.
EPS_TINY = 1e-15
# Relative slacks: a model that cannot vary its step takes a step within
# FIXED_STEP_RTOL of its first; ``run_to_end`` takes a remainder up to
# LAST_STEP_RTOL over dt as its last step.
FIXED_STEP_RTOL = 1e-12
LAST_STEP_RTOL = 1e-9


@dataclass(frozen=True)
class AdaptiveStepPolicy:
    """The energy-error step controller: the run starts at ``dt0``, and
    ``propose`` gives each next step as dt * clamp(safety*(tol/eps)^alpha,
    theta_min, theta_max), clamped to [dt_min, dt_max].  Pure."""

    dt0: float
    dt_min: float
    dt_max: float
    tolerance: float
    safety: float = 0.8
    alpha: float = 0.5
    theta_min: float = 0.5
    theta_max: float = 2.0

    def propose(self, epsilon: float, dt: float) -> float:
        ratio = self.safety * (self.tolerance / max(epsilon, EPS_TINY)) ** self.alpha
        ratio = min(max(ratio, self.theta_min), self.theta_max)
        return min(max(dt * ratio, self.dt_min), self.dt_max)

    def problems(self) -> list[str]:
        """What ``validate_system`` reports as ``bad-step-policy``."""
        return [message for ok, message in (
            (self.dt_min <= self.dt0 <= self.dt_max,
             f"need dt_min <= dt0 <= dt_max (got {self.dt_min}, {self.dt0}, {self.dt_max})"),
            (self.dt_min > 0, f"dt_min must be positive (got {self.dt_min})"),
            (self.tolerance > 0, f"tolerance must be positive (got {self.tolerance})"),
            (0.0 < self.theta_min < 1.0 < self.theta_max,
             f"need 0 < theta_min < 1 < theta_max (got {self.theta_min}, {self.theta_max})"),
            (0.0 < self.safety <= 1.0, f"safety must be in (0, 1] (got {self.safety})"),
            (self.alpha > 0.0, f"alpha must be positive (got {self.alpha})"),
        ) if not ok]


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


class Resolution:
    """A system resolved where each slave is placed, once per set-up.

    The constructor calls ``describe(spec)`` once per provider and model
    id, before validation.  A slave whose descriptor cannot be had where
    it is placed (an unknown model; for a slave on a provider, also a
    provider unreachable or answering wrongly) keeps the reason, for
    ``validate_system`` to report as ``unknown-model``.  A provider that
    fails other than by an unknown model is asked no more: each later
    model placed there keeps that error.  The FU instances, the port
    table and the same-instant order, which ``validate_system`` and
    ``build_plan`` share, are built on first use.
    """

    def __init__(self, system: SystemDescription, describe):
        self.system = system
        known: dict[tuple[str, str], SlaveDescriptor | str] = {}  # by (provider, model id)
        failed: dict[str, Exception] = {}  # each provider's first failure
        for spec in system.slaves:
            key = (spec.provider, spec.model_id)
            exc = failed.get(spec.provider)
            remote = (OSError, ConnectionLost, ProtocolError) if spec.provider else ()
            if key not in known and exc is None:
                try:
                    known[key] = describe(spec)
                except UnknownModel as unknown:
                    exc = unknown
                except remote as lost:
                    exc = failed[spec.provider] = lost
            if key not in known:
                where = f"described by provider {spec.provider}: {exc}" if remote else "in registry"
                known[key] = f"model {spec.model_id!r} not {where}"
        self.found: list[SlaveDescriptor | str] = [  # descriptor or reason, per slave
            known[s.provider, s.model_id] for s in system.slaves]
        self.slaves: dict[str, SlaveDescriptor] = {
            s.name: d for s, d in zip(system.slaves, self.found) if not isinstance(d, str)}

    @classmethod
    def of(cls, system: SystemDescription, descriptors) -> "Resolution":
        """``descriptors``, or the system resolved by model id against that map."""
        if isinstance(descriptors, cls):
            return descriptors

        def describe(spec: SlaveSpec) -> SlaveDescriptor:
            if spec.model_id not in descriptors:
                raise UnknownModel(f"unknown model {spec.model_id!r}")
            return descriptors[spec.model_id]

        return cls(system, describe)

    @cached_property
    def fus(self) -> tuple[dict, list[tuple[str, Exception]]]:
        """The FUs that build, by name, and (name, error) for each that does not."""
        # Imported here: function_units depends on this module for types.
        from .function_units import make_fu

        built, failed = {}, []
        for spec in self.system.function_units:
            try:
                built[spec.name] = make_fu(spec, len(self.system.signals))
            except (KeyError, ValueError, DimensionMismatch) as exc:
                failed.append((spec.name, exc))
        return built, failed

    @cached_property
    def ports(self) -> dict[PortRef, VariableDescriptor]:
        """Every port's variable in the plan's slot order: slave outputs, then
        slave inputs, then FU ports; a name held by a slave and an FU
        resolves to the slave."""
        slaves = self.slaves.items()
        owners = [*((o, d.outputs()) for o, d in slaves), *((o, d.inputs()) for o, d in slaves),
                  *((o, fu.desc.variables) for o, fu in self.fus[0].items()
                    if o not in self.slaves)]
        return {PortRef(owner, v.name): v for owner, vs in owners for v in vs}

    @cached_property
    def same_instant(self) -> tuple[list[str], int, AlgebraicLoop | None]:
        """The same-instant order, the longest chain and the loop, if any.

        The graph holds the FUs and the slaves with direct-feedthrough
        outputs, which alone propagate within an instant; a connection
        into any other slave ends the chain, which is 0 without edges.
        One pass takes ready nodes in sorted batches, so the order is
        deterministic and the batch count is the longest chain.  On a
        stall every unplaced node waits on another, so walking back
        through unplaced predecessors, smallest first, repeats a node:
        the walk from it is the loop, reversed into edge order.
        """
        fus = self.fus[0]
        propagates = set(fus)
        propagates.update(name for name, d in self.slaves.items()
                          if any(v.direct_feedthrough for v in d.outputs()))
        preds: dict[str, set[str]] = {}  # u in preds[v]: v's value needs u's
        pairs = [(sig.source.owner, sig.target.owner) for sig in self.system.signals]
        for bond in self.system.bonds:
            a, b = bond.side_a.slave, bond.side_b.slave
            pairs += [(a, b), (b, a)]
        for src, dst in pairs:
            if src in propagates and dst in propagates:
                preds.setdefault(src, set())
                preds.setdefault(dst, set()).add(src)
        graph = {name: set() for name in fus} | preds
        order: list[str] = []
        placed: set[str] = set()
        batches = 0
        while len(placed) < len(graph):
            ready = sorted(n for n, p in graph.items() if n not in placed and p <= placed)
            if not ready:
                walk = [min(n for n in graph if n not in placed)]
                while (node := min(graph[walk[-1]] - placed)) not in walk:
                    walk.append(node)
                return [], 0, AlgebraicLoop([node, *reversed(walk[walk.index(node) + 1 :])])
            placed.update(ready)
            order += ready
            batches += 1
        return order, batches if preds else 0, None


def validate_system(
    system: SystemDescription,
    descriptors: dict[str, SlaveDescriptor],
) -> ValidationReport:
    """Check a system description against its slaves' descriptors.

    ``descriptors`` is the system's ``Resolution``, or a map of model ids
    to descriptors for ``Resolution.of``.  Returns a report; an empty
    findings list means the system can be instantiated by the master
    without wiring errors.  Pure function: identical inputs produce
    identical reports.
    """
    resolved = Resolution.of(system, descriptors)
    findings: list[Finding] = []

    def add(code: str, message: str, where: str = ""):
        findings.append(Finding(code, message, where))

    if not system.slaves:
        add("no-slaves", "system declares no slaves")

    def check_name(name: str, where: str):
        """Report a name ``emit_config`` cannot write back: a section header
        splits at whitespace, a port at '.', a bond side and the CSV header
        at ',', and '#' starts a comment."""
        if not name or any(c.isspace() or c in ".,#" for c in name):
            add("bad-name", f"name {name!r} is empty or holds whitespace, '.', ',' or '#'",
                where)

    # Name uniqueness across slaves and function units.
    seen: dict[str, str] = {}
    for kind, specs in (("slave", system.slaves), ("function unit", system.function_units)):
        for spec in specs:
            check_name(spec.name, spec.name)
            if spec.name in seen:
                add("duplicate-name", f"name also used by a {seen[spec.name]}", spec.name)
            seen[spec.name] = kind

    # Slaves and FUs that do not resolve, and their ports, are left out of
    # the rest of the checks.
    unresolved: set[str] = set()
    for s, d in zip(system.slaves, resolved.found):
        if isinstance(d, str):
            add("unknown-model", d, s.name)
            unresolved.add(s.name)
            continue
        for pname, value in s.parameters.items():
            if pname not in d.parameters:
                add("unknown-parameter", f"model {s.model_id!r} has no parameter {pname!r}", s.name)
            if not isinstance(value, (int, float)):
                add("bad-parameter", f"parameter {pname!r} must be a number, got {value!r}", s.name)
            elif math.isnan(value):
                add("bad-parameter", f"parameter {pname!r} is nan", s.name)

    fus, fu_errors = resolved.fus
    for name, exc in fu_errors:
        add("bad-function-unit", str(exc), name)
        unresolved.add(name)
    var_of = resolved.ports

    # Wiring bookkeeping: every input must end up wired exactly once.
    wired: dict[PortRef, int] = {}

    def port(ref: PortRef, what: str, causality: Causality) -> VariableDescriptor | None:
        """The variable at ``ref`` if it has ``causality``; else reported, None."""
        v = var_of.get(ref)
        if v is None:
            if ref.owner not in unresolved:
                add("unknown-port", f"{what} references unknown port {ref}", str(ref))
        elif v.causality is not causality:
            wrong = "targets non-input" if causality is Causality.INPUT else "reads non-output"
            add(f"not-an-{causality.value}", f"{what} {wrong} {ref}", str(ref))
        else:
            return v
        return None

    def wire(ref: PortRef, what: str):
        if port(ref, what, Causality.INPUT) is not None:
            wired[ref] = wired.get(ref, 0) + 1

    # Power bonds: unique names, complementary effort/flow roles and the
    # watt check.
    bond_names: set[str] = set()
    for bond in system.bonds:
        where = f"bond {bond.name}"
        check_name(bond.name, where)
        if bond.name in bond_names:
            add("duplicate-name", "name also used by another bond", where)
        bond_names.add(bond.name)
        if bond.positive_side not in ("a", "b"):
            add("bad-orientation", f"positive_side must be 'a' or 'b'", where)
        side_vars = []
        for side in bond.sides():
            if side.slave in fus:
                add("bond-not-slave", f"bond side {side.slave!r} is a function unit", where)
            out_ref = PortRef(side.slave, side.output)
            in_ref = PortRef(side.slave, side.input)
            out_v = port(out_ref, where, Causality.OUTPUT)
            wire(in_ref, where)
            in_v = var_of.get(in_ref)
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
        bare = [f"{side.slave}.{v.name}" for side, vs in zip(bond.sides(), side_vars)
                for v in vs if v.unit is None]
        if bare:
            add("not-a-power-pair", f"bond ports without a unit: {', '.join(bare)}", where)
        elif not is_power_conjugate(effort_v.unit, flow_v.unit):
            add("not-a-power-pair", f"effort {effort_v.unit} x flow {flow_v.unit} is not a power",
                where)
        # Units must also match across each leg (conversion permitted).
        for out_v, in_v in ((out_a, in_b), (out_b, in_a)):
            try:
                conversion_factor(out_v.unit, in_v.unit)
            except DimensionMismatch:
                add("dimension-mismatch", f"bond leg {out_v.name} -> {in_v.name}: "
                    f"{out_v.unit} vs {in_v.unit}", where)

    # Signal connections: direction and dimension.
    for sig in system.signals:
        where = f"signal {sig.source} -> {sig.target}"
        out_v = port(sig.source, where, Causality.OUTPUT)
        wire(sig.target, where)
        in_v = var_of.get(sig.target)
        if out_v is None or in_v is None:
            continue
        try:
            conversion_factor(out_v.unit, in_v.unit)
        except DimensionMismatch:
            add("dimension-mismatch", f"{out_v.unit} does not convert to {in_v.unit}", where)

    # Every slave and FU input wired exactly once.
    for name, d in (*resolved.slaves.items(), *((n, fu.desc) for n, fu in fus.items())):
        for v in d.inputs():
            ref = PortRef(name, v.name)
            n = wired.get(ref, 0)
            if n == 0:
                add("unwired-input", "input is not wired", str(ref))
            elif n > 1:
                add("input-wired-twice", f"input has {n} sources", str(ref))

    loop = resolved.same_instant[2]
    if loop is not None:
        add("algebraic-loop", str(loop))

    pol = system.step_policy
    for message in pol.problems():
        add("bad-step-policy", message)
    if not (math.isfinite(system.t_start) and math.isfinite(system.t_end)):
        # The step sum never reaches such an end: the run would not stop.
        add("bad-horizon", f"t_start {system.t_start} and t_end {system.t_end} "
            "must be finite")
    elif system.t_end < system.t_start:
        add("bad-horizon", f"t_end {system.t_end} before t_start {system.t_start}")
    else:
        # A slave that cannot vary its step holds the run at one dt.
        rigid = [name for name, d in resolved.slaves.items() if not d.supports_variable_step]
        dt = pol.dt if isinstance(pol, FixedStepPolicy) else pol.dt0
        if rigid and not _last_step_fits(system.t_start, system.t_end, dt):
            add("bad-horizon", f"t_end - t_start is not a whole number of steps of {dt}, "
                f"and slaves {rigid} cannot vary their step")

    return ValidationReport(tuple(findings))


def _last_step_fits(t_start: float, t_end: float, dt: float) -> bool:
    """Whether a model that cannot vary its step takes every step of
    ``run_to_end`` at a constant ``dt``: its last, the remainder rounded as
    ``math.fsum`` rounds it, must be the only one or within FIXED_STEP_RTOL
    of ``dt``."""
    if not 0.0 < dt < math.inf:
        return True  # a bad dt is a finding of its own
    from fractions import Fraction  # imported here: only such runs need it

    span, step = Fraction(t_end) - Fraction(t_start), Fraction(dt)
    k = max(0, math.ceil(span / step) - 2)  # every earlier remainder exceeds 2 dt
    bound = dt * (1.0 + LAST_STEP_RTOL)
    while float(span - k * step) > bound:
        k += 1
    return k == 0 or abs(float(span - k * step) - dt) <= FIXED_STEP_RTOL * dt

