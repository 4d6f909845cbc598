"""Stateless transformation nodes evaluated between macro steps.

Function units (FUs) close the gap between plain output-to-input
routing and subsimulators: they transform same-instant values without
introducing a macro-step delay and without carrying state.  The plan
builder orders FU evaluations by the same-instant order of the system's
``Resolution`` and interleaves the connection copies so every value
is ready before it is consumed.  The plan is the one place that knows
the port layout: the slots, each slave's bound ports and each bond's
legs.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import NamedTuple

from .system import (
    Causality,
    FunctionUnitSpec,
    PortRef,
    Resolution,
    SlaveDescriptor,
    SystemDescription,
    VariableDescriptor,
    VarKind,
)
from .units import AMPERE, METER, NEWTON, NEWTON_METER, VOLT, conversion_factor, parse_unit

IN = Causality.INPUT
OUT = Causality.OUTPUT
SIG = VarKind.SIGNAL


def _sig(name: str, causality: Causality, unit=None) -> VariableDescriptor:
    return VariableDescriptor(name, causality, SIG, unit)


class FunctionUnit(ABC):
    """One stateless node: outputs = g(inputs, t).

    ``evaluate`` takes the input values and returns the output values,
    both as lists in descriptor order (``desc.inputs()``,
    ``desc.outputs()``); the plan hands them over by slot, not by name.
    """

    def __init__(self, spec: FunctionUnitSpec):
        self.spec = spec
        self.desc = self._describe(spec)

    @abstractmethod
    def _describe(self, spec: FunctionUnitSpec) -> SlaveDescriptor: ...

    @abstractmethod
    def evaluate(self, u: list[float], t: float) -> list[float]: ...

    @staticmethod
    def _params(spec: FunctionUnitSpec, **expected):
        """Merge spec params over defaults; unknown or missing keys error."""
        out = {}
        for key, default in expected.items():
            if key in spec.params:
                out[key] = spec.params[key]
            elif default is None:
                raise ValueError(f"fu kind {spec.kind!r} requires parameter {key!r}")
            else:
                out[key] = default
        unknown = set(spec.params) - set(expected)
        if unknown:
            raise ValueError(
                f"fu kind {spec.kind!r} does not accept {sorted(unknown)}"
            )
        return out

    @staticmethod
    def _arity(params, key="n") -> int:
        n = int(params[key])
        if n < 1:
            raise ValueError(f"arity must be >= 1 (got {n})")
        return n


class Gain(FunctionUnit):
    """y = c * u."""

    def _describe(self, spec):
        p = self._params(spec, c=1.0)
        self.c = float(p["c"])
        return SlaveDescriptor(
            model_id="fu:gain",
            variables=(_sig("u", IN), _sig("y", OUT)),
        )

    def evaluate(self, u, t):
        return [self.c * u[0]]


class Sum(FunctionUnit):
    """y = u1 + u2 + ... + un, summed left to right."""

    def _describe(self, spec):
        p = self._params(spec, n=2)
        self.n = self._arity(p)
        return SlaveDescriptor(
            model_id="fu:sum",
            variables=tuple(_sig(f"u{i}", IN) for i in range(1, self.n + 1))
            + (_sig("y", OUT),),
        )

    def evaluate(self, u, t):
        acc = 0.0
        for x in u:
            acc += x
        return [acc]


class UnitConvert(FunctionUnit):
    """y = u rescaled from one unit to a dimension-equal other."""

    def _describe(self, spec):
        p = self._params(spec, **{"from": None, "to": None})
        src = parse_unit(str(p["from"]))
        dst = parse_unit(str(p["to"]))
        self.factor = conversion_factor(src, dst)  # raises on dimension mismatch
        return SlaveDescriptor(
            model_id="fu:unit_convert",
            variables=(_sig("u", IN, src), _sig("y", OUT, dst)),
        )

    def evaluate(self, u, t):
        return [u[0] * self.factor]


class Splitter(FunctionUnit):
    """One input fanned out to n identical outputs."""

    def _describe(self, spec):
        p = self._params(spec, n=2)
        self.n = self._arity(p)
        return SlaveDescriptor(
            model_id="fu:splitter",
            variables=(_sig("u", IN),)
            + tuple(_sig(f"y{i}", OUT) for i in range(1, self.n + 1)),
        )

    def evaluate(self, u, t):
        return [u[0]] * self.n


class ForceAggregator(FunctionUnit):
    """Net force and moment of n point forces: F = sum F_k, M = sum r_k x F_k.

    Inputs per contribution k: force components fx_k, fy_k, fz_k (N)
    and application point rx_k, ry_k, rz_k (m).
    """

    def _describe(self, spec):
        p = self._params(spec, n=1)
        self.n = self._arity(p)
        ins = []
        for k in range(1, self.n + 1):
            ins += [_sig(f"{c}{k}", IN, NEWTON) for c in ("fx", "fy", "fz")]
            ins += [_sig(f"{c}{k}", IN, METER) for c in ("rx", "ry", "rz")]
        outs = [_sig(c, OUT, NEWTON) for c in ("fx", "fy", "fz")]
        outs += [_sig(c, OUT, NEWTON_METER) for c in ("mx", "my", "mz")]
        return SlaveDescriptor(
            model_id="fu:force_aggregator", variables=tuple(ins) + tuple(outs)
        )

    def evaluate(self, u, t):
        F = [0.0, 0.0, 0.0]
        M = [0.0, 0.0, 0.0]
        for k in range(0, 6 * self.n, 6):
            f = u[k : k + 3]
            r = u[k + 3 : k + 6]
            for i in range(3):
                F[i] += f[i]
            M[0] += r[1] * f[2] - r[2] * f[1]
            M[1] += r[2] * f[0] - r[0] * f[2]
            M[2] += r[0] * f[1] - r[1] * f[0]
        return F + M


class Switchboard(FunctionUnit):
    """Voltage fan-out and current summation over n breaker-gated legs.

    leg_v_k mirrors bus_v while breaker_k >= 0.5 (closed), else 0;
    bus_i sums the leg currents of closed legs.
    """

    def _describe(self, spec):
        p = self._params(spec, n=1)
        self.n = self._arity(p)
        ins = [_sig("bus_v", IN, VOLT)]
        for k in range(1, self.n + 1):
            ins.append(_sig(f"leg_i_{k}", IN, AMPERE))
            ins.append(_sig(f"breaker_{k}", IN))
        outs = [_sig("bus_i", OUT, AMPERE)]
        outs += [_sig(f"leg_v_{k}", OUT, VOLT) for k in range(1, self.n + 1)]
        return SlaveDescriptor(
            model_id="fu:switchboard", variables=tuple(ins) + tuple(outs)
        )

    def evaluate(self, u, t):
        bus_v = u[0]
        bus_i = 0.0
        legs = []
        for k in range(1, 2 * self.n, 2):  # (leg_i_k, breaker_k) pairs
            closed = u[k + 1] >= 0.5
            legs.append(bus_v if closed else 0.0)
            if closed:
                bus_i += u[k]
        return [bus_i, *legs]


FU_KINDS: dict[str, type[FunctionUnit]] = {
    "gain": Gain,
    "sum": Sum,
    "unit_convert": UnitConvert,
    "splitter": Splitter,
    "force_aggregator": ForceAggregator,
    "switchboard": Switchboard,
}


def make_fu(spec: FunctionUnitSpec) -> FunctionUnit:
    try:
        cls = FU_KINDS[spec.kind]
    except KeyError:
        raise KeyError(
            f"unknown fu kind {spec.kind!r}; known: {sorted(FU_KINDS)}"
        ) from None
    return cls(spec)


class BondLegs(NamedTuple):
    """A bond's four legs as list positions, with their scales to SI.

    ``e_out``/``f_out`` index the slave outputs (``plan.outputs`` order),
    ``e_in``/``f_in`` the slave inputs (``plan.inputs`` order).  A named
    tuple, so the accounting unpacks it in one go.
    """

    name: str
    sign: float  # +1.0 when power into side a counts positive, else -1.0
    e_out: int
    f_out: int
    e_in: int
    f_in: int
    e_out_si: float
    f_out_si: float
    e_in_si: float
    f_in_si: float


@dataclass(frozen=True)
class EvaluationPlan:
    """Ordered copies and FU evaluations turning outputs into inputs.

    The one place that knows the port layout.  ``ports`` gives each port
    the integer slot the ops use: slave outputs, then slave inputs
    (system order, then descriptor order), then FU ports.  ``slaves``
    names each slave's inputs and outputs in that order, so a slave's
    share of ``inputs`` and of ``outputs`` is one contiguous run;
    ``bonds`` holds each bond's legs as positions in those lists, in
    bond-name order.

    ``ops`` are the plain tuples ``evaluate_plan`` runs, slots as above:
    a copy is ``(None, src, dst, factor)``, with ``factor`` from
    ``conversion_factor`` (exactly 1.0 for equal scales); an evaluation is
    ``(fu, inputs, outputs, None)``, its slots in descriptor order.
    """

    ports: tuple[PortRef, ...]
    outputs: tuple[PortRef, ...]  # the slave outputs that lead ``ports``
    inputs: tuple[PortRef, ...]  # the slave inputs that follow them
    slaves: tuple[tuple[str, tuple[str, ...], tuple[str, ...]], ...]  # (name, ins, outs)
    bonds: tuple[BondLegs, ...]
    ops: tuple[tuple, ...]
    chain_length: int  # nodes on the longest same-instant chain

    @property
    def n_init(self) -> int:
        return 1 + self.chain_length  # the cap on settle passes


def build_plan(
    system: SystemDescription, descriptors: dict[str, SlaveDescriptor] | Resolution
) -> EvaluationPlan:
    """Lay out the port slots and order all copies and FU evaluations.

    ``descriptors`` is the system's ``Resolution``, or a map of model ids
    to descriptors for ``Resolution.of``; its same-instant order gives the
    FU order and the longest chain.  Assumes the system already passed
    validation; still raises AlgebraicLoop when the graph is cyclic, since
    an unplannable system must never reach the master loop.
    """
    resolved = Resolution.of(system, descriptors)
    fus, fu_errors = resolved.fus
    if fu_errors:
        raise fu_errors[0][1]
    order, chain_length, loop = resolved.same_instant
    if loop is not None:
        raise loop

    # The port table is in slot order.
    var_of = resolved.ports
    ports = tuple(var_of)
    slot = {ref: i for i, ref in enumerate(ports)}
    slaves = tuple((name, tuple(v.name for v in d.inputs()), tuple(v.name for v in d.outputs()))
                   for name, d in resolved.slaves.items())
    n_out = sum(len(outs) for _, _, outs in slaves)
    n_in = sum(len(ins) for _, ins, _ in slaves)

    # File every directed copy by its source as it is collected, bond
    # legs first, then signals, which fixes evaluation determinism:
    # copies out of a slave run before every evaluation, copies out of an
    # FU right after it.  Each bond's legs are also kept as list positions
    # for energy accounting, in bond-name order, so that the order the
    # bonds are declared in cannot change the bits of epsilon's sum.
    ops: list[tuple] = []
    after: dict[str, list[tuple]] = {name: [] for name in fus}

    def copy(src: PortRef, dst: PortRef):
        factor = conversion_factor(var_of[src].unit, var_of[dst].unit)
        after.get(src.owner, ops).append((None, slot[src], slot[dst], factor))

    bonds: list[BondLegs] = []
    for bond in sorted(system.bonds, key=lambda bond: bond.name):
        a, b = bond.side_a, bond.side_b
        pos, si = {}, {}
        for side in (a, b):
            out_ref = PortRef(side.slave, side.output)
            in_ref = PortRef(side.slave, side.input)
            out_v, in_v = var_of[out_ref], var_of[in_ref]
            okind = "e_out" if out_v.kind is VarKind.EFFORT else "f_out"
            ikind = "e_in" if in_v.kind is VarKind.EFFORT else "f_in"
            pos[okind], si[okind] = slot[out_ref], out_v.unit.scale_to_si
            pos[ikind], si[ikind] = slot[in_ref] - n_out, in_v.unit.scale_to_si
        bonds.append(BondLegs(
            bond.name, 1.0 if bond.positive_side == "a" else -1.0,
            pos["e_out"], pos["f_out"], pos["e_in"], pos["f_in"],
            si["e_out"], si["f_out"], si["e_in"], si["f_in"],
        ))
        copy(PortRef(a.slave, a.output), PortRef(b.slave, b.input))
        copy(PortRef(b.slave, b.output), PortRef(a.slave, a.input))
    for sig in system.signals:
        copy(sig.source, sig.target)

    def slots(fu, variables):
        return tuple(slot[PortRef(fu.spec.name, v.name)] for v in variables)

    for fu in (fus[name] for name in order if name in fus):
        ops.append((fu, slots(fu, fu.desc.inputs()), slots(fu, fu.desc.outputs()), None))
        ops += after[fu.spec.name]

    return EvaluationPlan(
        ports=ports,
        outputs=ports[:n_out],
        inputs=ports[n_out : n_out + n_in],
        slaves=slaves,
        bonds=tuple(bonds),
        ops=tuple(ops),
        chain_length=chain_length,
    )


def evaluate_plan(
    plan: EvaluationPlan, outputs: list[float], t: float
) -> list[float]:
    """Run the plan on the slave outputs (``plan.outputs`` order); return
    the slave inputs in ``plan.inputs`` order.

    Pure: identical outputs and t give bit-identical results.
    """
    n = len(plan.outputs)
    values = outputs + [0.0] * (len(plan.ports) - n)
    for fu, a, b, factor in plan.ops:
        if fu is None:
            values[b] = values[a] * factor
        else:
            u = []  # a plain loop is cheaper than a list comprehension here
            for i in a:
                u.append(values[i])
            for i, y in zip(b, fu.evaluate(u, t)):
                values[i] = y
    return values[n : n + len(plan.inputs)]
