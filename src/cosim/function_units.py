"""Stateless transformation nodes evaluated between macro steps.

Function units (FUs) close the gap between plain output-to-input
routing and subsimulators: they transform same-instant values without
introducing a macro-step delay and without carrying state.  The plan
builder orders FU evaluations in one topological pass over the
same-instant graph and interleaves the connection copies so every value
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
    SlaveDescriptor,
    SystemDescription,
    VariableDescriptor,
    VarKind,
    _same_instant_edges,
    _topological_order,
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


@dataclass(frozen=True)
class CopyOp:
    src: int  # slot in ``EvaluationPlan.ports``
    dst: int
    factor: float  # unit conversion, exactly 1.0 for identical units


@dataclass(frozen=True)
class EvalOp:
    fu: FunctionUnit
    inputs: tuple[int, ...]  # slots in ``EvaluationPlan.ports``, descriptor order
    outputs: tuple[int, ...]


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
    ``bonds`` holds each bond's legs as positions in those lists.
    """

    ports: tuple[PortRef, ...]
    outputs: tuple[PortRef, ...]  # the slave outputs that lead ``ports``
    inputs: tuple[PortRef, ...]  # the slave inputs that follow them
    slaves: tuple[tuple[str, tuple[str, ...], tuple[str, ...]], ...]  # (name, ins, outs)
    bonds: tuple[BondLegs, ...]
    ops: tuple[CopyOp | EvalOp, ...]
    chain_length: int  # nodes on the longest same-instant chain
    # ``ops`` as plain (fu, a, b, factor) tuples for ``evaluate_plan``: a
    # copy is (None, src, dst, factor), an evaluation (fu, inputs, outputs, None)
    flat_ops: tuple[tuple, ...]

    @property
    def n_init(self) -> int:
        return 1 + self.chain_length  # the cap on settle passes


def _copy_factor(src_v: VariableDescriptor, dst_v: VariableDescriptor) -> float:
    if src_v.unit is None or dst_v.unit is None or src_v.unit == dst_v.unit:
        return 1.0
    return conversion_factor(src_v.unit, dst_v.unit)


def _si(v: VariableDescriptor) -> float:
    return v.unit.scale_to_si if v.unit is not None else 1.0


def build_plan(
    system: SystemDescription, descriptors: dict[str, SlaveDescriptor]
) -> EvaluationPlan:
    """Lay out the port slots and order all copies and FU evaluations.

    One topological pass over the same-instant graph gives the FU order,
    the longest chain and the loop check.  Assumes the system already
    passed validation; still raises AlgebraicLoop when the graph is
    cyclic, since an unplannable system must never reach the master loop.
    """
    slave_desc = {s.name: descriptors[s.model_id] for s in system.slaves}
    fus = {fu.name: make_fu(fu) for fu in system.function_units}
    fu_desc = {name: fu.desc for name, fu in fus.items()}

    # One walk over the descriptors, slaves first, lays out the slots,
    # names each slave's ports and keeps each port's variable.
    outputs, inputs, fu_ports, slaves = [], [], [], []
    var_of: dict[PortRef, VariableDescriptor] = {}
    for owner, desc in slave_desc.items():
        ins, outs = [], []
        for v in desc.variables:
            ref = PortRef(owner, v.name)
            var_of[ref] = v
            if v.causality is OUT:
                outputs.append(ref)
                outs.append(v.name)
            else:
                inputs.append(ref)
                ins.append(v.name)
        slaves.append((owner, tuple(ins), tuple(outs)))
    for owner, desc in fu_desc.items():
        for v in desc.variables:
            ref = PortRef(owner, v.name)
            var_of[ref] = v
            fu_ports.append(ref)
    ports = (*outputs, *inputs, *fu_ports)
    slot = {ref: i for i, ref in enumerate(ports)}

    # FU order and longest chain in one pass; a loop raises AlgebraicLoop.
    preds = _same_instant_edges(system, slave_desc, fu_desc)
    order, batches = _topological_order({name: set() for name in fus} | preds)

    # Collect every directed copy: bond legs first, then signals, in
    # declaration order, which fixes evaluation determinism.  Each bond's
    # legs are also kept as list positions for energy accounting.
    n_out = len(outputs)
    copies: list[tuple[PortRef, PortRef]] = []
    bonds: list[BondLegs] = []
    for bond in system.bonds:
        a, b = bond.side_a, bond.side_b
        pos, si = {}, {}
        for side in (a, b):
            out_ref = PortRef(side.slave, side.output)
            in_ref = PortRef(side.slave, side.input)
            out_v, in_v = var_of[out_ref], var_of[in_ref]
            okind = "e_out" if out_v.kind is VarKind.EFFORT else "f_out"
            ikind = "e_in" if in_v.kind is VarKind.EFFORT else "f_in"
            pos[okind], si[okind] = slot[out_ref], _si(out_v)
            pos[ikind], si[ikind] = slot[in_ref] - n_out, _si(in_v)
        bonds.append(BondLegs(
            bond.name, 1.0 if bond.positive_side == "a" else -1.0,
            pos["e_out"], pos["f_out"], pos["e_in"], pos["f_in"],
            si["e_out"], si["f_out"], si["e_in"], si["f_in"],
        ))
        copies.append((PortRef(a.slave, a.output), PortRef(b.slave, b.input)))
        copies.append((PortRef(b.slave, b.output), PortRef(a.slave, a.input)))
    for sig in system.signals:
        copies.append((sig.source, sig.target))

    ops: list[CopyOp | EvalOp] = []
    emitted: set[int] = set()

    def emit_copies(pred):
        for i, (src, dst) in enumerate(copies):
            if i in emitted or not pred(src):
                continue
            factor = _copy_factor(var_of[src], var_of[dst])
            ops.append(CopyOp(slot[src], slot[dst], factor))
            emitted.add(i)

    def slots(fu, variables):
        return tuple(slot[PortRef(fu.spec.name, v.name)] for v in variables)

    emit_copies(lambda src: src.owner not in fus)
    for fu in (fus[name] for name in order if name in fus):
        ops.append(EvalOp(fu, slots(fu, fu.desc.inputs()), slots(fu, fu.desc.outputs())))
        emit_copies(lambda src, name=fu.spec.name: src.owner == name)

    return EvaluationPlan(
        ports=ports,
        outputs=tuple(outputs),
        inputs=tuple(inputs),
        slaves=tuple(slaves),
        bonds=tuple(bonds),
        ops=tuple(ops),
        chain_length=batches if preds else 0,
        flat_ops=tuple((None, op.src, op.dst, op.factor) if isinstance(op, CopyOp)
                       else (op.fu, op.inputs, op.outputs, None) for op in ops),
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
    for fu, a, b, factor in plan.flat_ops:
        if fu is None:
            values[b] = values[a] * factor
        else:
            u = []  # a plain loop is cheaper than a list comprehension here
            for i in a:
                u.append(values[i])
            for i, y in zip(b, fu.evaluate(u, t)):
                values[i] = y
    return values[n : n + len(plan.inputs)]
