"""System validation: every finding category, and clean systems pass."""
import dataclasses
import math
import string
from unittest import mock

import pytest
from hypothesis import assume, given, settings, strategies as st

from cosim.config import emit_config, parse_config
from cosim.errors import ConnectionLost, ProtocolError, RunAborted, UnknownModel
from cosim.master import LocalResolver, initialize_run, run_to_end
from cosim.models import registry
from cosim.system import (
    AdaptiveStepPolicy,
    BondSide,
    Causality,
    FixedStepPolicy,
    FunctionUnitSpec,
    PortRef,
    PowerBond,
    Resolution,
    SignalConnection,
    SlaveDescriptor,
    SlaveSpec,
    SystemDescription,
    ValidationReport,
    VariableDescriptor,
    VarKind,
    validate_system,
)
from cosim.units import METER_PER_SECOND, NEWTON

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


def test_non_numeric_slave_parameter():
    # Models take numbers; a string would only fail once the slave is built.
    system = build(slaves=[SlaveSpec("a", "sine_source", {"amp": "abc"})])
    report = validate_system(system, DESCRIPTORS)
    assert [(f.code, f.where) for f in report.findings] == [("bad-parameter", "a")]
    assert "'amp'" in report.findings[0].message


def test_a_nan_slave_parameter_is_a_finding():
    # Infinities stay legal: ``h = inf`` means one micro step.
    system = build(slaves=[SlaveSpec("a", "sine_source", {"amp": math.nan, "freq": math.inf})])
    report = validate_system(system, DESCRIPTORS)
    assert [str(f) for f in report.findings] == ["[bad-parameter] a: parameter 'amp' is nan"]


def named_system(src="src", fu="amp", bond="link") -> SystemDescription:
    """A sine slave ``src`` through a gain unit ``fu`` into a gain block,
    and an oscillator pair on a bond ``bond``; valid with the defaults."""
    return build(
        slaves=[SlaveSpec(src, "sine_source", {}), SlaveSpec("g", "gain_block", {}),
                SlaveSpec("l", "msd_integral", {}), SlaveSpec("r", "msd_differential", {})],
        signals=[SignalConnection(PortRef(src, "y"), PortRef(fu, "u")),
                 SignalConnection(PortRef(fu, "y"), PortRef("g", "u"))],
        fus=[FunctionUnitSpec(fu, "gain", {})],
        bonds=[PowerBond(bond, BondSide("l", "v", "tau"), BondSide("r", "tau", "v"),
                         positive_side="a")],
    )


@pytest.mark.parametrize("kind", ["src", "fu", "bond"])
@pytest.mark.parametrize("name", ["", "a b", "a\tb", "left.0", "a,b", "a#b"], ids=repr)
def test_a_name_the_config_cannot_carry_is_a_finding(kind, name):
    # A slave ``left.0`` would parse back as port ``0.y`` of a slave ``left``.
    assert codes(named_system()) == []
    assert codes(named_system(**{kind: name})) == ["bad-name"]


NAMES = st.text(string.printable + "\u00e9\u00a0", max_size=4)


@settings(max_examples=150, derandomize=True, deadline=None)
@given(src=NAMES, fu=NAMES, bond=NAMES)
def test_a_system_that_validates_round_trips_through_its_config(src, fu, bond):
    system = named_system(src, fu, bond)
    assume(validate_system(system, DESCRIPTORS).ok)
    assert parse_config(emit_config(system)) == system


def test_slave_and_function_unit_sharing_a_name():
    # A name held by both resolves to the slave's ports only; the FU's
    # input is still walked, so it is reported unwired.
    system = build(
        slaves=[SlaveSpec("g", "msd_integral", {})],
        signals=[SignalConnection(PortRef("g", "x"), PortRef("g", "u")),
                 SignalConnection(PortRef("g", "y"), PortRef("g", "tau"))],
        fus=[FunctionUnitSpec("g", "gain", {})],
    )
    report = validate_system(system, DESCRIPTORS)
    assert [(f.code, f.where) for f in report.findings] == [
        ("duplicate-name", "g"),
        ("unknown-port", "g.u"),
        ("unknown-port", "g.y"),
        ("unwired-input", "g.u"),
        ("algebraic-loop", ""),
    ]


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


def findings(system, descriptors=DESCRIPTORS):
    return [(f.code, f.message) for f in validate_system(system, descriptors).findings]


def test_bond_of_no_power_is_not_a_power_pair():
    # force in, velocity out against voltage out, current in: the roles
    # fit, but volt times metre per second is no power, and neither leg converts
    system = build(
        slaves=[SlaveSpec("a", "msd_integral", {}),
                SlaveSpec("b", "generator_voltage", {})],
        bonds=[_bond(BondSide("a", "v", "tau"), BondSide("b", "V", "I"))],
    )
    assert findings(system) == [
        ("not-a-power-pair", "effort V x flow m/s is not a power"),
        ("dimension-mismatch", "bond leg v -> I: m/s vs A"),
        ("dimension-mismatch", "bond leg V -> tau: V vs N"),
    ]


def test_bond_side_must_input_the_kind_it_does_not_output():
    # the effort side also inputs an effort, the flow side a flow
    def model(model_id, kind, unit):
        return SlaveDescriptor(model_id, (
            VariableDescriptor("u", Causality.INPUT, kind, unit),
            VariableDescriptor("y", Causality.OUTPUT, kind, unit)))

    descriptors = {"pusher": model("pusher", VarKind.EFFORT, NEWTON),
                   "mover": model("mover", VarKind.FLOW, METER_PER_SECOND)}
    system = build(
        slaves=[SlaveSpec("a", "pusher", {}), SlaveSpec("b", "mover", {})],
        bonds=[_bond(BondSide("a", "y", "u"), BondSide("b", "y", "u"))],
    )
    assert findings(system, descriptors) == [
        ("bad-bond-roles", "each side must input the opposite kind it outputs")]


def test_bond_port_without_a_unit_is_not_a_power_pair():
    # msd_integral's velocity output stripped of its unit: the bond's
    # power, and the scale of that leg, would be unknown
    desc = registry.describe("msd_integral")
    unitless = dataclasses.replace(desc, variables=tuple(
        dataclasses.replace(v, unit=None) if v.name == "v" else v for v in desc.variables))
    system = build(
        slaves=[SlaveSpec("a", "msd_integral", {}),
                SlaveSpec("b", "msd_differential", {})],
        bonds=[_bond(BondSide("a", "v", "tau"), BondSide("b", "tau", "v"))],
    )
    assert findings(system) == []
    assert findings(system, {**DESCRIPTORS, "msd_integral": unitless}) == [
        ("not-a-power-pair", "bond ports without a unit: a.v")]


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


def fu_report(kind, **params):
    """The findings of an unwired FU ``k`` of ``kind`` in a system of two
    signals, from a source into two gain blocks."""
    system = build(
        slaves=[SlaveSpec("src", "sine_source", {}),
                SlaveSpec("g1", "gain_block", {}), SlaveSpec("g2", "gain_block", {})],
        signals=[SignalConnection(PortRef("src", "y"), PortRef("g1", "u")),
                 SignalConnection(PortRef("src", "y"), PortRef("g2", "u"))],
        fus=[FunctionUnitSpec("k", kind, params)],
    )
    return [str(f) for f in validate_system(system, DESCRIPTORS).findings]


@pytest.mark.parametrize("kind", ["sum", "splitter", "force_aggregator", "switchboard"])
@pytest.mark.parametrize("n, message", [
    (math.inf, "arity must be a whole number >= 1 (got inf)"),
    (-math.inf, "arity must be a whole number >= 1 (got -inf)"),
    (math.nan, "parameter 'n' is nan"),
    (2.5, "arity must be a whole number >= 1 (got 2.5)"),
    (0, "arity must be a whole number >= 1 (got 0)"),
    ("two", "arity must be a whole number >= 1 (got 'two')"),
    (3.0, "arity must be at most 2, the system's signal count (got 3.0)"),
    (1e30, "arity must be at most 2, the system's signal count (got 1e+30)"),
    (10**400, f"arity must be at most 2, the system's signal count (got {10**400})"),
], ids=["inf", "-inf", "nan", "2.5", "0", "str", "3", "1e30", "int-1e400"])
def test_a_function_unit_arity_is_a_whole_number_up_to_the_signal_count(kind, n, message):
    # Each of the n ports needs a signal of its own; the FU is refused before
    # any port is built, and its ports are not reported again.
    assert fu_report(kind, n=n) == [f"[bad-function-unit] k: {message}"]


@pytest.mark.parametrize("kind", ["sum", "splitter", "force_aggregator", "switchboard"])
def test_an_arity_up_to_the_signal_count_builds(kind):
    assert not any("bad-function-unit" in f for f in fu_report(kind, n=2.0))


def test_a_nan_function_unit_parameter_is_a_finding():
    assert fu_report("gain", c=math.nan) == ["[bad-function-unit] k: parameter 'c' is nan"]


@pytest.mark.parametrize("c", [math.inf, -math.inf])
def test_an_infinite_gain_builds(c):
    # As for a slave parameter, only NaN is refused.
    assert not any("bad-function-unit" in f for f in fu_report("gain", c=c))


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
    assert "bad-step-policy" in codes(with_policy(
        AdaptiveStepPolicy(dt0=1e-3, dt_min=1e-4, dt_max=1e-2, tolerance=0.1,
                           theta_max=0.5)))


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


ADAPTIVE = AdaptiveStepPolicy(dt0=0.01, dt_min=1e-4, dt_max=0.1, tolerance=1e-3)
POLICIES = [FixedStepPolicy(0.01), ADAPTIVE]


def rigid_system(policy, t_end, t_start=0.0):
    """Two sources summed by ``sum_delay``, which cannot vary its step."""
    return build(slaves=[SlaveSpec("a", "sine_source", {}),
                         SlaveSpec("b", "sine_source", {}),
                         SlaveSpec("adder", "sum_delay", {})],
                 signals=[SignalConnection(PortRef("a", "y"), PortRef("adder", "u1")),
                          SignalConnection(PortRef("b", "y"), PortRef("adder", "u2"))],
                 policy=policy, t_start=t_start, t_end=t_end)


def runs_to_end(system) -> bool:
    """Whether the run completes with validation skipped; False when the
    rigid slave rejects its last step."""
    with mock.patch("cosim.master.validate_system", lambda *_: ValidationReport(())):
        run = initialize_run(system, LocalResolver(registry))
    try:
        run_to_end(run)
    except RunAborted as exc:
        assert "dt changed" in str(exc)
        return False
    return True


@pytest.mark.parametrize("policy", POLICIES, ids=["fixed", "adaptive"])
@pytest.mark.parametrize("t_end", [1.055, 1.0000000000001])
def test_rigid_slave_needs_a_whole_number_of_steps(policy, t_end):
    # 1.055 leaves a half step; 1.0000000000001 a last step 1e-13 too long.
    report = validate_system(rigid_system(policy, t_end), DESCRIPTORS)
    (finding,) = report.findings
    assert finding.code == "bad-horizon"
    assert "0.01" in finding.message and "'adder'" in finding.message


@pytest.mark.parametrize("policy", POLICIES, ids=["fixed", "adaptive"])
@pytest.mark.parametrize("t_end", [1.05, 1.0, 5.0, 0.005, 0.01, 0.3, 1.0 + 1e-15])
def test_whole_number_of_steps_is_valid(policy, t_end):
    # 0.005 and 0.01 are one step each; 1 + 1e-15 is within the slack.
    assert codes(rigid_system(policy, t_end)) == []


def test_variable_step_slaves_need_no_whole_number_of_steps():
    system = build(slaves=[SlaveSpec("a", "sine_source", {})], t_end=1.055,
                   policy=FixedStepPolicy(0.01))
    assert codes(system) == []


@pytest.mark.parametrize("t_end", [1.055, 1.0000000000001, 1.05, 0.995, 2.675,
                                   0.01 * (1 + 2e-12), 0.01 * (1 + 2e-9), 0.02 * (1 + 2e-9),
                                   0.3 + 1e-14, 0.3 - 1e-14, 0.7 + 3e-15])
def test_validation_agrees_with_the_run(t_end):
    for t_start in (0.0, 0.1):
        system = rigid_system(FixedStepPolicy(0.01), t_start + t_end, t_start)
        assert (codes(system) == []) == runs_to_end(system), (t_start, t_end)


def test_a_rounded_remainder_is_the_last_step():
    # The remainder 0.333...329 is the exact one rounded, 2.8e-17 off;
    # the run ends with it, so a rigid slave takes no sliver of a step.
    system = rigid_system(FixedStepPolicy(1 / 3), 2.766666666666666, 0.1)
    assert codes(system) == []
    assert runs_to_end(system)


@pytest.mark.parametrize("t_start, t_end", [
    (0.0, math.nan), (0.0, math.inf), (math.nan, 1.0), (math.inf, math.inf),
    (-math.inf, 1.0)])
def test_non_finite_horizon(t_start, t_end):
    # The step sum never reaches such an end, so a run would never stop;
    # a span without a last step is no whole number of steps either.
    base = quarter_car_system(FixedStepPolicy(1e-3))
    for system in (build(slaves=base.slaves, bonds=base.bonds,
                         t_start=t_start, t_end=t_end),
                   rigid_system(FixedStepPolicy(0.01), t_end, t_start)):
        assert codes(system) == ["bad-horizon"]


@settings(max_examples=60, deadline=None)
@given(steps=st.integers(min_value=0, max_value=60),
       dt=st.sampled_from([0.01, 0.1, 0.03, 1e-3, 0.25, 1 / 3]),
       t_start=st.sampled_from([0.0, 0.1, 3.7]),
       off=st.one_of(st.floats(min_value=-1.0, max_value=1.0),
                     st.floats(min_value=-1e-11, max_value=1e-11)))
def test_validation_agrees_with_the_run_anywhere(steps, dt, t_start, off):
    # A span of whole steps shifted by ``off`` steps, coarse or fine.
    system = rigid_system(FixedStepPolicy(dt), t_start + (steps + off) * dt, t_start)
    assume(system.t_end >= t_start)
    assert (codes(system) == []) == runs_to_end(system)


def test_findings_name_their_location():
    system = build(slaves=[SlaveSpec("osc", "msd_integral", {"mass": 1.0})])
    report = validate_system(system, DESCRIPTORS)
    located = [f for f in report.findings if f.code == "unknown-parameter"]
    assert located and "osc" in located[0].where


@pytest.mark.parametrize("failure", [ConnectionLost("reset"), OSError("refused"),
                                     ProtocolError("bad frame")])
def test_set_up_describes_each_placed_model_once(failure):
    # ``p`` fails on its second model and is asked nothing after that;
    # ``q`` lacks one model and still describes the next.
    placed = [("", "sine_source"), ("p", "sine_source"), ("", "nope"), ("p", "sine_source"),
              ("q", "nope"), ("p", "msd_integral"), ("q", "sine_source"), ("", "nope"),
              ("p", "el_motor"), ("", "sine_source"), ("", "gone"), ("q", "nope")]
    calls = []

    def describe(spec):
        calls.append((spec.provider, spec.model_id))
        if (spec.provider, spec.model_id) == ("p", "msd_integral"):
            raise failure
        if spec.model_id in ("nope", "gone"):
            raise UnknownModel(f"unknown model {spec.model_id!r}")
        return registry.describe(spec.model_id)

    system = build(slaves=[SlaveSpec(f"s{i}", model_id, provider=provider)
                           for i, (provider, model_id) in enumerate(placed)])
    found = Resolution(system, describe).found
    assert calls == [("", "sine_source"), ("p", "sine_source"), ("", "nope"), ("q", "nope"),
                     ("p", "msd_integral"), ("q", "sine_source"), ("", "gone")]
    sine = registry.describe("sine_source")
    assert found == [
        sine, sine, "model 'nope' not in registry", sine,
        "model 'nope' not described by provider q: unknown model 'nope'",
        f"model 'msd_integral' not described by provider p: {failure}", sine,
        "model 'nope' not in registry",
        f"model 'el_motor' not described by provider p: {failure}", sine,
        "model 'gone' not in registry",
        "model 'nope' not described by provider q: unknown model 'nope'"]
