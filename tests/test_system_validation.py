"""System validation: every finding category, and clean systems pass."""
import pytest

from cosim.models import registry
from cosim.system import (
    AdaptiveStepPolicy,
    BondSide,
    FixedStepPolicy,
    FunctionUnitSpec,
    PortRef,
    PowerBond,
    SignalConnection,
    SlaveSpec,
    SystemDescription,
    validate_system,
)

from conftest import msd_pair_system, quarter_car_system

DESCRIPTORS = registry.descriptors()


def build(slaves=(), bonds=(), signals=(), fus=(),
          policy=FixedStepPolicy(0.1), t_start=0.0, t_end=1.0):
    return SystemDescription(
        slaves=tuple(slaves), bonds=tuple(bonds), signals=tuple(signals),
        function_units=tuple(fus), step_policy=policy,
        t_start=t_start, t_end=t_end,
    )


def codes(system):
    return [f.code for f in validate_system(system, DESCRIPTORS).findings]


def test_good_systems_pass():
    for system in (quarter_car_system(FixedStepPolicy(1e-3)),
                   msd_pair_system(FixedStepPolicy(1e-2))):
        report = validate_system(system, DESCRIPTORS)
        assert report.ok, report.findings


def test_empty_system():
    assert "no-slaves" in codes(build())


def test_duplicate_slave_name():
    system = build(slaves=[SlaveSpec("a", "msd_integral", {}),
                           SlaveSpec("a", "msd_differential", {})])
    assert "duplicate-name" in codes(system)


def test_duplicate_bond_name():
    # Each bond's cumulative residual is its own; two bonds of one name
    # would read as one in every record and CSV row.
    slaves, bonds = [], []
    for i in range(2):
        slaves += [SlaveSpec(f"l{i}", "msd_integral", {}),
                   SlaveSpec(f"r{i}", "msd_differential", {})]
        bonds.append(PowerBond("link", BondSide(f"l{i}", "v", "tau"),
                               BondSide(f"r{i}", "tau", "v"), positive_side="a"))
    system = build(slaves=slaves, bonds=bonds)
    report = validate_system(system, DESCRIPTORS)
    assert [(f.code, f.where) for f in report.findings] == [("duplicate-name", "bond link")]


def test_unknown_model():
    system = build(slaves=[SlaveSpec("a", "nosuchmodel", {})])
    assert "unknown-model" in codes(system)


def test_unknown_parameter():
    system = build(slaves=[SlaveSpec("a", "msd_integral", {"mass": 1.0})])
    assert "unknown-parameter" in codes(system)


def test_unknown_port_in_signal():
    system = build(
        slaves=[SlaveSpec("a", "sine_source", {}),
                SlaveSpec("b", "msd_integral", {})],
        signals=[SignalConnection(PortRef("a", "nope"), PortRef("b", "tau"))],
    )
    assert "unknown-port" in codes(system)


def test_signal_source_must_be_output():
    system = build(
        slaves=[SlaveSpec("a", "msd_integral", {}),
                SlaveSpec("b", "msd_integral", {})],
        signals=[SignalConnection(PortRef("a", "tau"), PortRef("b", "tau"))],
    )
    assert "not-an-output" in codes(system)


def test_signal_target_must_be_input():
    system = build(
        slaves=[SlaveSpec("a", "sine_source", {}),
                SlaveSpec("b", "msd_integral", {})],
        signals=[SignalConnection(PortRef("a", "y"), PortRef("b", "x"))],
    )
    assert "not-an-input" in codes(system)


def _bond(side_a, side_b, orientation="a"):
    return PowerBond("bond", side_a, side_b, positive_side=orientation)


def test_bond_orientation_checked():
    system = quarter_car_system(FixedStepPolicy(1e-3))
    bad = build(
        slaves=system.slaves,
        bonds=[PowerBond("susp",
                         BondSide("chassis", "F", "v2"),
                         BondSide("wheel", "v2", "F"),
                         positive_side="c")],
    )
    assert "bad-orientation" in codes(bad)


def test_bond_must_join_slaves_not_fus():
    system = build(
        slaves=[SlaveSpec("a", "msd_integral", {})],
        bonds=[_bond(BondSide("g", "y", "u"), BondSide("a", "v", "tau"))],
        fus=[FunctionUnitSpec("g", "gain", {"c": 1.0})],
    )
    assert "bond-not-slave" in codes(system)


def test_bond_needs_effort_flow_pair():
    # both sides produce the flow: roles collide
    system = build(
        slaves=[SlaveSpec("a", "msd_integral", {}),
                SlaveSpec("b", "msd_integral", {})],
        bonds=[_bond(BondSide("a", "v", "tau"), BondSide("b", "v", "tau"))],
    )
    found = codes(system)
    assert "bad-bond-roles" in found or "not-a-power-pair" in found


def test_bond_rejects_non_power_units():
    # x is a position signal; position times velocity is not power
    system = build(
        slaves=[SlaveSpec("a", "msd_integral", {}),
                SlaveSpec("b", "msd_differential", {})],
        bonds=[_bond(BondSide("a", "x", "tau"), BondSide("b", "tau", "v"))],
    )
    found = codes(system)
    assert "not-a-power-pair" in found or "bad-bond-roles" in found


def test_signal_dimension_mismatch():
    # velocity output into a force input
    system = build(
        slaves=[SlaveSpec("a", "msd_integral", {}),
                SlaveSpec("b", "quarter_car_wheel", {})],
        signals=[SignalConnection(PortRef("a", "v"), PortRef("b", "F"))],
    )
    assert "dimension-mismatch" in codes(system)


def test_unwired_input():
    system = build(slaves=[SlaveSpec("a", "msd_integral", {})])
    assert "unwired-input" in codes(system)


def test_input_wired_twice():
    system = build(
        slaves=[SlaveSpec("s1", "sine_source", {}),
                SlaveSpec("s2", "sine_source", {}),
                SlaveSpec("a", "msd_integral", {})],
        signals=[SignalConnection(PortRef("s1", "y"), PortRef("a", "tau")),
                 SignalConnection(PortRef("s2", "y"), PortRef("a", "tau"))],
    )
    assert "input-wired-twice" in codes(system)


def test_bad_function_unit_kind():
    system = build(
        slaves=[SlaveSpec("a", "msd_integral", {}),
                SlaveSpec("s", "sine_source", {})],
        signals=[SignalConnection(PortRef("s", "y"), PortRef("g", "u")),
                 SignalConnection(PortRef("g", "y"), PortRef("a", "tau"))],
        fus=[FunctionUnitSpec("g", "nosuchkind", {})],
    )
    assert "bad-function-unit" in codes(system)


def test_bad_function_unit_params():
    system = build(
        slaves=[SlaveSpec("a", "msd_integral", {}),
                SlaveSpec("s", "sine_source", {})],
        signals=[SignalConnection(PortRef("s", "y"), PortRef("g", "u")),
                 SignalConnection(PortRef("g", "y"), PortRef("a", "tau"))],
        fus=[FunctionUnitSpec("g", "gain", {"gain": 2.0})],
    )
    assert "bad-function-unit" in codes(system)


def test_fu_cycle_names_the_cycle():
    system = build(
        slaves=[SlaveSpec("a", "msd_integral", {})],
        signals=[SignalConnection(PortRef("f1", "y"), PortRef("f2", "u")),
                 SignalConnection(PortRef("f2", "y"), PortRef("f1", "u")),
                 SignalConnection(PortRef("f2", "y"), PortRef("a", "tau"))],
        fus=[FunctionUnitSpec("f1", "gain", {}),
             FunctionUnitSpec("f2", "gain", {})],
    )
    report = validate_system(system, DESCRIPTORS)
    loops = [f for f in report.findings if f.code == "algebraic-loop"]
    assert loops
    assert "f1" in loops[0].message and "f2" in loops[0].message


def test_feedthrough_cycle_names_the_cycle():
    slaves = [SlaveSpec(n, "gain_block", {}) for n in ("g1", "g2", "g3")]
    signals = [SignalConnection(PortRef("g1", "y"), PortRef("g2", "u")),
               SignalConnection(PortRef("g2", "y"), PortRef("g3", "u")),
               SignalConnection(PortRef("g3", "y"), PortRef("g1", "u"))]
    report = validate_system(build(slaves=slaves, signals=signals), DESCRIPTORS)
    loops = [f for f in report.findings if f.code == "algebraic-loop"]
    assert loops
    for name in ("g1", "g2", "g3"):
        assert name in loops[0].message


def test_step_policy_validation():
    base = quarter_car_system(FixedStepPolicy(1e-3))

    def with_policy(policy):
        return build(slaves=base.slaves, bonds=base.bonds, policy=policy)

    assert "bad-step-policy" in codes(with_policy(FixedStepPolicy(0.0)))
    assert "bad-step-policy" in codes(with_policy(
        AdaptiveStepPolicy(dt0=1e-3, dt_min=1e-2, dt_max=1e-3, tolerance=0.1)))
    assert "bad-step-policy" in codes(with_policy(
        AdaptiveStepPolicy(dt0=1e-3, dt_min=1e-4, dt_max=1e-2, tolerance=-1.0)))
    assert "bad-step-policy" in codes(with_policy(
        AdaptiveStepPolicy(dt0=1e-3, dt_min=1e-4, dt_max=1e-2, tolerance=0.1,
                           theta_min=1.5)))


def test_bad_horizon():
    base = quarter_car_system(FixedStepPolicy(1e-3))
    system = build(slaves=base.slaves, bonds=base.bonds,
                   t_start=1.0, t_end=0.0)
    assert "bad-horizon" in codes(system)


def test_zero_span_horizon_is_allowed():
    base = quarter_car_system(FixedStepPolicy(1e-3))
    system = build(slaves=base.slaves, bonds=base.bonds,
                   t_start=1.0, t_end=1.0)
    assert "bad-horizon" not in codes(system)


def test_findings_name_their_location():
    system = build(slaves=[SlaveSpec("osc", "msd_integral", {"mass": 1.0})])
    report = validate_system(system, DESCRIPTORS)
    located = [f for f in report.findings if f.code == "unknown-parameter"]
    assert located and "osc" in located[0].where
