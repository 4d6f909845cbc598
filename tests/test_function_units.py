"""Stateless function units and the same-instant evaluation plan."""
import math
from pathlib import Path

import numpy as np
import pytest

from cosim.config import parse_config
from cosim.errors import AlgebraicLoop, DimensionMismatch
from cosim.function_units import (
    build_plan,
    evaluate_plan,
    make_fu,
)
from cosim.models import registry
from cosim.system import (
    Causality,
    FixedStepPolicy,
    FunctionUnitSpec,
    PortRef,
    SignalConnection,
    SlaveDescriptor,
    SlaveSpec,
    SystemDescription,
    VariableDescriptor,
    VarKind,
    validate_system,
)

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"
DESCRIPTORS = registry.descriptors()
# A two-input direct-feedthrough block, so a slave loop can have a tail.
LOOP_DESCRIPTORS = {**DESCRIPTORS, "mix_block": SlaveDescriptor("mix_block", (
    VariableDescriptor("u1", Causality.INPUT, VarKind.SIGNAL, None),
    VariableDescriptor("u2", Causality.INPUT, VarKind.SIGNAL, None),
    VariableDescriptor("y", Causality.OUTPUT, VarKind.SIGNAL, None, direct_feedthrough=True),
))}


def fu(kind, **params):
    return make_fu(FunctionUnitSpec("f", kind, params))


def evaluate_fu(fu, named):
    """``fu.evaluate`` on inputs keyed by name, its result keyed likewise."""
    u = [named[v.name] for v in fu.desc.inputs()]
    return dict(zip((v.name for v in fu.desc.outputs()), fu.evaluate(u, 0.0)))


def evaluate_named(plan, named, t):
    """``evaluate_plan`` on named slave outputs, its result keyed by input.

    Outputs left unnamed read as NaN, so a plan that used one shows it.
    """
    assert set(named) <= set(plan.outputs)
    outputs = [named.get(ref, math.nan) for ref in plan.outputs]
    return dict(zip(plan.inputs, evaluate_plan(plan, outputs, t)))


def system_of(slaves, signals, fus):
    return SystemDescription(
        slaves=tuple(slaves), bonds=(), signals=tuple(signals),
        function_units=tuple(fus), step_policy=FixedStepPolicy(0.1),
        t_start=0.0, t_end=1.0,
    )


class TestKinds:
    def test_sum(self):
        adder = fu("sum", n=3)
        out = evaluate_fu(adder, {"u1": 2.0, "u2": -5.0, "u3": 3.0})
        assert out == {"y": 0.0}

    def test_gain(self):
        assert evaluate_fu(fu("gain", c=-1.5), {"u": 4.0}) == {"y": -6.0}

    def test_gain_default_is_identity(self):
        assert evaluate_fu(fu("gain"), {"u": 7.0}) == {"y": 7.0}

    def test_splitter(self):
        split = fu("splitter", n=3)
        out = evaluate_fu(split, {"u": 1.25})
        assert out == {"y1": 1.25, "y2": 1.25, "y3": 1.25}

    def test_unit_convert_scales(self):
        conv = fu("unit_convert", **{"from": "kN", "to": "N"})
        assert evaluate_fu(conv, {"u": 2.0}) == {"y": 2000.0}

    def test_unit_convert_angular_rate(self):
        conv = fu("unit_convert", **{"from": "rad/s", "to": "rpm"})
        out = evaluate_fu(conv, {"u": 2 * math.pi})
        assert out["y"] == pytest.approx(60.0, rel=1e-12)

    def test_unit_convert_rejects_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            fu("unit_convert", **{"from": "N", "to": "m/s"})

    def test_force_aggregator_cancelling_couple(self):
        agg = fu("force_aggregator", n=2)
        out = evaluate_fu(agg, {
            "fx1": 0.0, "fy1": 0.0, "fz1": 10.0,
            "rx1": 1.0, "ry1": 0.0, "rz1": 0.0,
            "fx2": 0.0, "fy2": 0.0, "fz2": -10.0,
            "rx2": -1.0, "ry2": 0.0, "rz2": 0.0,
        })
        assert (out["fx"], out["fy"], out["fz"]) == (0.0, 0.0, 0.0)
        # right-handed r x F: each leg contributes (0, -10, 0)
        assert (out["mx"], out["my"], out["mz"]) == (0.0, -20.0, 0.0)

    def test_force_aggregator_matches_numpy_cross(self):
        rng = np.random.default_rng(7)
        agg = fu("force_aggregator", n=3)
        for _ in range(25):
            f = rng.normal(size=(3, 3))
            r = rng.normal(size=(3, 3))
            values = {}
            for k in range(3):
                for i, c in enumerate(("fx", "fy", "fz")):
                    values[f"{c}{k + 1}"] = f[k, i]
                for i, c in enumerate(("rx", "ry", "rz")):
                    values[f"{c}{k + 1}"] = r[k, i]
            out = evaluate_fu(agg, values)
            F = f.sum(axis=0)
            M = np.cross(r, f).sum(axis=0)
            assert np.allclose([out["fx"], out["fy"], out["fz"]], F, atol=1e-12)
            assert np.allclose([out["mx"], out["my"], out["mz"]], M, atol=1e-12)

    def test_switchboard_gates_legs(self):
        board = fu("switchboard", n=2)
        out = evaluate_fu(board, {
            "bus_v": 230.0,
            "leg_i_1": 3.0, "breaker_1": 1.0,
            "leg_i_2": 4.0, "breaker_2": 0.0,
        })
        assert out == {"leg_v_1": 230.0, "leg_v_2": 0.0, "bus_i": 3.0}

    def test_switchboard_sums_closed_currents(self):
        board = fu("switchboard", n=3)
        out = evaluate_fu(board, {
            "bus_v": 100.0,
            "leg_i_1": 1.0, "breaker_1": 1.0,
            "leg_i_2": 2.0, "breaker_2": 0.6,
            "leg_i_3": 4.0, "breaker_3": 0.4,
        })
        assert out["bus_i"] == 3.0

    def test_unknown_kind(self):
        with pytest.raises(KeyError):
            fu("fourier_transform")

    def test_unknown_parameter(self):
        with pytest.raises(ValueError):
            fu("gain", gain=2.0)

    def test_missing_required_parameter(self):
        with pytest.raises(ValueError):
            fu("unit_convert", **{"from": "N"})

    def test_bad_arity(self):
        with pytest.raises(ValueError):
            fu("sum", n=0)


class TestPlan:
    def chain_system(self):
        return system_of(
            slaves=[SlaveSpec("src", "sine_source", {}),
                    SlaveSpec("osc", "msd_integral", {})],
            signals=[SignalConnection(PortRef("src", "y"), PortRef("g", "u")),
                     SignalConnection(PortRef("g", "y"), PortRef("osc", "tau"))],
            fus=[FunctionUnitSpec("g", "gain", {"c": 2.0})],
        )

    def test_chain_orders_copy_eval_copy(self):
        # A copy is (None, src, dst, factor), an evaluation (fu, inputs, outputs, None).
        plan = build_plan(self.chain_system(), DESCRIPTORS)
        assert [(op[0] is None, op[3] is None) for op in plan.ops] == [
            (True, False), (False, True), (True, False)]
        first, mid, last = plan.ops
        ports = plan.ports
        assert (ports[first[1]], ports[first[2]]) == (PortRef("src", "y"), PortRef("g", "u"))
        assert mid[0].spec.name == "g"
        assert [ports[i] for i in mid[1]] == [PortRef("g", "u")]
        assert [ports[i] for i in mid[2]] == [PortRef("g", "y")]
        assert (ports[last[1]], ports[last[2]]) == (PortRef("g", "y"), PortRef("osc", "tau"))

    def test_copies_follow_their_source(self):
        # Declared against the order they run in: FU outputs first, the
        # slave outputs last and in reverse.
        system = system_of(
            slaves=[SlaveSpec("src_a", "sine_source", {}),
                    SlaveSpec("src_b", "sine_source", {}),
                    SlaveSpec("osc", "msd_integral", {}),
                    SlaveSpec("osc2", "msd_integral", {})],
            signals=[SignalConnection(PortRef("g", "y"), PortRef("osc", "tau")),
                     SignalConnection(PortRef("add", "y"), PortRef("osc2", "tau")),
                     SignalConnection(PortRef("add", "y"), PortRef("g", "u")),
                     SignalConnection(PortRef("src_b", "y"), PortRef("add", "u2")),
                     SignalConnection(PortRef("src_a", "y"), PortRef("add", "u1"))],
            fus=[FunctionUnitSpec("g", "gain", {}),
                 FunctionUnitSpec("add", "sum", {})],
        )
        plan = build_plan(system, DESCRIPTORS)
        ports = plan.ports
        got = [f"{ports[a]} -> {ports[b]}" if fu is None else fu.spec.name
               for fu, a, b, _ in plan.ops]
        assert got == ["src_b.y -> add.u2", "src_a.y -> add.u1", "add",
                       "add.y -> osc2.tau", "add.y -> g.u", "g", "g.y -> osc.tau"]

    def test_chain_evaluates(self):
        plan = build_plan(self.chain_system(), DESCRIPTORS)
        got = evaluate_named(plan, {PortRef("src", "y"): 3.0}, 0.0)
        assert got == {PortRef("osc", "tau"): 6.0}

    def test_independent_fus_both_fire(self):
        system = system_of(
            slaves=[SlaveSpec("s1", "sine_source", {}),
                    SlaveSpec("s2", "sine_source", {}),
                    SlaveSpec("a", "msd_integral", {}),
                    SlaveSpec("b", "msd_integral", {})],
            signals=[SignalConnection(PortRef("s1", "y"), PortRef("g1", "u")),
                     SignalConnection(PortRef("g1", "y"), PortRef("a", "tau")),
                     SignalConnection(PortRef("s2", "y"), PortRef("g2", "u")),
                     SignalConnection(PortRef("g2", "y"), PortRef("b", "tau"))],
            fus=[FunctionUnitSpec("g1", "gain", {"c": 10.0}),
                 FunctionUnitSpec("g2", "gain", {"c": -10.0})],
        )
        plan = build_plan(system, DESCRIPTORS)
        snapshot = {PortRef("s1", "y"): 1.0, PortRef("s2", "y"): 2.0}
        got = evaluate_named(plan, snapshot, 0.0)
        assert got == {PortRef("a", "tau"): 10.0, PortRef("b", "tau"): -20.0}

    def test_crossed_signals_swap(self):
        system = system_of(
            slaves=[SlaveSpec("s1", "sine_source", {}),
                    SlaveSpec("s2", "sine_source", {}),
                    SlaveSpec("a", "msd_integral", {}),
                    SlaveSpec("b", "msd_integral", {})],
            signals=[SignalConnection(PortRef("s1", "y"), PortRef("b", "tau")),
                     SignalConnection(PortRef("s2", "y"), PortRef("a", "tau"))],
            fus=[],
        )
        plan = build_plan(system, DESCRIPTORS)
        got = evaluate_named(
            plan, {PortRef("s1", "y"): 3.0, PortRef("s2", "y"): 7.0}, 0.0)
        assert got[PortRef("a", "tau")] == 7.0
        assert got[PortRef("b", "tau")] == 3.0

    @pytest.mark.parametrize("system, cycle", [
        pytest.param(
            system_of(
                slaves=[SlaveSpec("a", "msd_integral", {})],
                signals=[SignalConnection(PortRef("f1", "y"), PortRef("f2", "u")),
                         SignalConnection(PortRef("f2", "y"), PortRef("f1", "u")),
                         SignalConnection(PortRef("f2", "y"), PortRef("a", "tau"))],
                fus=[FunctionUnitSpec("f1", "gain", {}),
                     FunctionUnitSpec("f2", "gain", {})],
            ),
            ["f1", "f2"],
            id="fu_loop",
        ),
        pytest.param(
            # direct-feedthrough slaves close the loop; no FU takes part
            system_of(
                slaves=[SlaveSpec("g1", "gain_block", {}),
                        SlaveSpec("g2", "gain_block", {}),
                        SlaveSpec("g3", "gain_block", {})],
                signals=[SignalConnection(PortRef("g1", "y"), PortRef("g2", "u")),
                         SignalConnection(PortRef("g2", "y"), PortRef("g3", "u")),
                         SignalConnection(PortRef("g3", "y"), PortRef("g1", "u"))],
                fus=[],
            ),
            ["g1", "g2", "g3"],
            id="feedthrough_loop",
        ),
        # Each tailed loop has a node feeding into it (a_in) and one fed
        # by it (a_out), both named to sort before every loop member.
        pytest.param(
            system_of(
                slaves=[SlaveSpec("src", "sine_source", {}),
                        SlaveSpec("osc", "msd_integral", {})],
                signals=[SignalConnection(PortRef("src", "y"), PortRef("a_in", "u")),
                         SignalConnection(PortRef("a_in", "y"), PortRef("f1", "u1")),
                         SignalConnection(PortRef("f2", "y"), PortRef("f1", "u2")),
                         SignalConnection(PortRef("f1", "y"), PortRef("f2", "u")),
                         SignalConnection(PortRef("f2", "y"), PortRef("a_out", "u")),
                         SignalConnection(PortRef("a_out", "y"), PortRef("osc", "tau"))],
                fus=[FunctionUnitSpec("a_in", "gain", {}),
                     FunctionUnitSpec("a_out", "gain", {}),
                     FunctionUnitSpec("f1", "sum", {"n": 2}),
                     FunctionUnitSpec("f2", "gain", {})],
            ),
            ["f1", "f2"],
            id="fu_loop_with_tail",
        ),
        pytest.param(
            system_of(
                slaves=[SlaveSpec("src", "sine_source", {}),
                        SlaveSpec("a_in", "gain_block", {}),
                        SlaveSpec("a_out", "gain_block", {}),
                        SlaveSpec("g1", "mix_block", {}),
                        SlaveSpec("g2", "gain_block", {}),
                        SlaveSpec("g3", "gain_block", {})],
                signals=[SignalConnection(PortRef("src", "y"), PortRef("a_in", "u")),
                         SignalConnection(PortRef("a_in", "y"), PortRef("g1", "u1")),
                         SignalConnection(PortRef("g3", "y"), PortRef("g1", "u2")),
                         SignalConnection(PortRef("g1", "y"), PortRef("g2", "u")),
                         SignalConnection(PortRef("g2", "y"), PortRef("g3", "u")),
                         SignalConnection(PortRef("g3", "y"), PortRef("a_out", "u"))],
                fus=[],
            ),
            ["g1", "g2", "g3"],
            id="feedthrough_loop_with_tail",
        ),
        pytest.param(
            # g1 (slave) -> f (FU) -> g2 (slave) -> g1
            system_of(
                slaves=[SlaveSpec("src", "sine_source", {}),
                        SlaveSpec("a_in", "gain_block", {}),
                        SlaveSpec("g1", "mix_block", {}),
                        SlaveSpec("g2", "gain_block", {}),
                        SlaveSpec("osc", "msd_integral", {})],
                signals=[SignalConnection(PortRef("src", "y"), PortRef("a_in", "u")),
                         SignalConnection(PortRef("a_in", "y"), PortRef("g1", "u1")),
                         SignalConnection(PortRef("g2", "y"), PortRef("g1", "u2")),
                         SignalConnection(PortRef("g1", "y"), PortRef("f", "u")),
                         SignalConnection(PortRef("f", "y"), PortRef("g2", "u")),
                         SignalConnection(PortRef("g2", "y"), PortRef("a_out", "u")),
                         SignalConnection(PortRef("a_out", "y"), PortRef("osc", "tau"))],
                fus=[FunctionUnitSpec("a_out", "gain", {}),
                     FunctionUnitSpec("f", "gain", {})],
            ),
            ["g1", "f", "g2"],
            id="mixed_loop_with_tail",
        ),
    ])
    def test_fu_cycle_raises_and_names_cycle(self, system, cycle):
        with pytest.raises(AlgebraicLoop) as err:
            build_plan(system, LOOP_DESCRIPTORS)
        # exactly the loop's members in edge order, from any of them
        got = err.value.cycle
        start = cycle.index(got[0])
        assert got == cycle[start:] + cycle[:start]
        for name in cycle:
            assert name in str(err.value)
        # validation names the same loop
        report = validate_system(system, LOOP_DESCRIPTORS)
        assert [f.message for f in report.findings if f.code == "algebraic-loop"] \
            == [str(err.value)]

    def test_linear_network_equals_matrix(self):
        # y1 = 2 u1 + 0.5 u2 ; y2 = -u1 + 3 u2, assembled from gains + sums
        system = system_of(
            slaves=[SlaveSpec("s1", "sine_source", {}),
                    SlaveSpec("s2", "sine_source", {}),
                    SlaveSpec("a", "msd_integral", {}),
                    SlaveSpec("b", "msd_integral", {})],
            signals=[
                SignalConnection(PortRef("s1", "y"), PortRef("g11", "u")),
                SignalConnection(PortRef("s2", "y"), PortRef("g12", "u")),
                SignalConnection(PortRef("s1", "y"), PortRef("g21", "u")),
                SignalConnection(PortRef("s2", "y"), PortRef("g22", "u")),
                SignalConnection(PortRef("g11", "y"), PortRef("row1", "u1")),
                SignalConnection(PortRef("g12", "y"), PortRef("row1", "u2")),
                SignalConnection(PortRef("g21", "y"), PortRef("row2", "u1")),
                SignalConnection(PortRef("g22", "y"), PortRef("row2", "u2")),
                SignalConnection(PortRef("row1", "y"), PortRef("a", "tau")),
                SignalConnection(PortRef("row2", "y"), PortRef("b", "tau")),
            ],
            fus=[FunctionUnitSpec("g11", "gain", {"c": 2.0}),
                 FunctionUnitSpec("g12", "gain", {"c": 0.5}),
                 FunctionUnitSpec("g21", "gain", {"c": -1.0}),
                 FunctionUnitSpec("g22", "gain", {"c": 3.0}),
                 FunctionUnitSpec("row1", "sum", {"n": 2}),
                 FunctionUnitSpec("row2", "sum", {"n": 2})],
        )
        plan = build_plan(system, DESCRIPTORS)
        A = np.array([[2.0, 0.5], [-1.0, 3.0]])
        rng = np.random.default_rng(11)
        for _ in range(50):
            u = rng.normal(size=2)
            got = evaluate_named(
                plan, {PortRef("s1", "y"): u[0], PortRef("s2", "y"): u[1]}, 0.0)
            y = A @ u
            assert abs(got[PortRef("a", "tau")] - y[0]) < 1e-12
            assert abs(got[PortRef("b", "tau")] - y[1]) < 1e-12

    def test_evaluate_is_pure(self):
        plan = build_plan(self.chain_system(), DESCRIPTORS)
        snapshot = [1.5 if ref == PortRef("src", "y") else 0.0 for ref in plan.outputs]
        before = list(snapshot)
        first = evaluate_plan(plan, snapshot, 0.25)
        second = evaluate_plan(plan, snapshot, 0.25)
        assert snapshot == before
        assert first == second

    def test_copies_carry_unit_conversion(self):
        # kN output into N input picks up the factor on the copy itself
        system = system_of(
            slaves=[SlaveSpec("src", "sine_source", {}),
                    SlaveSpec("osc", "msd_integral", {})],
            signals=[SignalConnection(PortRef("src", "y"), PortRef("c", "u")),
                     SignalConnection(PortRef("c", "y"), PortRef("osc", "tau"))],
            fus=[FunctionUnitSpec("c", "unit_convert",
                                  {"from": "kN", "to": "N"})],
        )
        plan = build_plan(system, DESCRIPTORS)
        got = evaluate_named(plan, {PortRef("src", "y"): 0.002}, 0.0)
        assert got[PortRef("osc", "tau")] == pytest.approx(2.0, rel=1e-12)

    def test_n_init_counts_longest_chain(self):
        shallow = build_plan(self.chain_system(), DESCRIPTORS)
        deep_sys = system_of(
            slaves=[SlaveSpec("src", "sine_source", {}),
                    SlaveSpec("osc", "msd_integral", {})],
            signals=[SignalConnection(PortRef("src", "y"), PortRef("g1", "u")),
                     SignalConnection(PortRef("g1", "y"), PortRef("g2", "u")),
                     SignalConnection(PortRef("g2", "y"), PortRef("g3", "u")),
                     SignalConnection(PortRef("g3", "y"), PortRef("osc", "tau"))],
            fus=[FunctionUnitSpec("g1", "gain", {}),
                 FunctionUnitSpec("g2", "gain", {}),
                 FunctionUnitSpec("g3", "gain", {})],
        )
        deep = build_plan(deep_sys, DESCRIPTORS)
        # FUs and direct-feedthrough slaves chain alike:
        # src -> g1 (gain_block) -> f (gain FU) -> g2 (gain_block) -> osc
        mixed_sys = system_of(
            slaves=[SlaveSpec("src", "sine_source", {}),
                    SlaveSpec("g1", "gain_block", {}),
                    SlaveSpec("g2", "gain_block", {}),
                    SlaveSpec("osc", "msd_integral", {})],
            signals=[SignalConnection(PortRef("src", "y"), PortRef("g1", "u")),
                     SignalConnection(PortRef("g1", "y"), PortRef("f", "u")),
                     SignalConnection(PortRef("f", "y"), PortRef("g2", "u")),
                     SignalConnection(PortRef("g2", "y"), PortRef("osc", "tau"))],
            fus=[FunctionUnitSpec("f", "gain", {})],
        )
        mixed = build_plan(mixed_sys, DESCRIPTORS)
        # a single FU between plain slaves resolves inside one pass
        assert shallow.chain_length == 0 and shallow.n_init == 1
        assert deep.chain_length == 3
        assert deep.n_init == deep.chain_length + 1
        assert mixed.chain_length == 3 and mixed.n_init == 4

    def test_layout_names_slave_ports_and_bond_legs(self):
        # a slave without inputs, one with two inputs, and one bond
        system = parse_config((CONFIG_DIR / "quarter_car_bump.cfg").read_text())
        plan = build_plan(system, DESCRIPTORS)
        assert [name for name, _, _ in plan.slaves] == [s.name for s in system.slaves]
        assert [PortRef(name, var) for name, ins, _ in plan.slaves for var in ins] \
            == list(plan.inputs)
        assert [PortRef(name, var) for name, _, outs in plan.slaves for var in outs] \
            == list(plan.outputs)
        assert [len(ins) for _, ins, _ in plan.slaves] == [0, 1, 2]

        def kind(ref):
            desc = DESCRIPTORS[system.slave(ref.owner).model_id]
            return next(v.kind for v in desc.variables if v.name == ref.var)

        (bond,) = system.bonds
        (legs,) = plan.bonds
        assert (legs.name, legs.sign) == (bond.name, 1.0)
        at = {
            "e_out": plan.outputs[legs.e_out], "f_out": plan.outputs[legs.f_out],
            "e_in": plan.inputs[legs.e_in], "f_in": plan.inputs[legs.f_in],
        }
        assert at == {
            "e_out": PortRef("chassis", "F"), "f_out": PortRef("wheel", "v2"),
            "e_in": PortRef("wheel", "F"), "f_in": PortRef("chassis", "v2"),
        }
        assert [kind(at[leg]) for leg in ("e_out", "f_out", "e_in", "f_in")] \
            == [VarKind.EFFORT, VarKind.FLOW, VarKind.EFFORT, VarKind.FLOW]
