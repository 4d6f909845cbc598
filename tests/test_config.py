"""Config text format: parsing, diagnostics, and round-trip emission."""
import dataclasses
from pathlib import Path

import pytest

from cosim.config import ConfigError, emit_config, parse_config
from cosim.system import (
    AdaptiveStepPolicy,
    FixedStepPolicy,
    PortRef,
    SignalConnection,
)

from conftest import msd_pair_system, quarter_car_system

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"
SHIPPED = sorted(CONFIG_DIR.glob("*.cfg"))
INVALID = sorted((CONFIG_DIR / "invalid").glob("*.cfg"))

MINIMAL = """\
[simulation]
t_end = 1.0
step = fixed
dt = 0.1

[slave osc]
model = msd_integral

[slave src]
model = sine_source

[signal]
source = src.y
target = osc.tau
"""


def diagnostics_of(text):
    with pytest.raises(ConfigError) as err:
        parse_config(text)
    return err.value.diagnostics


def messages_of(text):
    return [str(d) for d in diagnostics_of(text)]


class TestParsing:
    def test_minimal_document(self):
        system = parse_config(MINIMAL)
        assert [s.name for s in system.slaves] == ["osc", "src"]
        assert system.step_policy == FixedStepPolicy(0.1)
        assert system.t_start == 0.0 and system.t_end == 1.0
        assert system.signals == (SignalConnection(PortRef("src", "y"),
                                                   PortRef("osc", "tau")),)

    def test_comments_and_blank_lines_ignored(self):
        commented = "# leading comment\n" + MINIMAL.replace(
            "t_end = 1.0", "t_end = 1.0   # horizon")
        assert parse_config(commented) == parse_config(MINIMAL)

    def test_adaptive_policy_keys(self):
        text = MINIMAL.replace(
            "step = fixed\ndt = 0.1",
            "step = adaptive\ndt0 = 1e-3\ndt_min = 1e-5\ndt_max = 1e-2\n"
            "tolerance = 0.05\nsafety = 0.9\nalpha = 0.25\n"
            "theta_min = 0.4\ntheta_max = 3.0")
        pol = parse_config(text).step_policy
        assert pol == AdaptiveStepPolicy(
            dt0=1e-3, dt_min=1e-5, dt_max=1e-2, tolerance=0.05,
            safety=0.9, alpha=0.25, theta_min=0.4, theta_max=3.0)

    def test_adaptive_controller_keys_are_optional(self):
        text = MINIMAL.replace(
            "step = fixed\ndt = 0.1",
            "step = adaptive\ndt0 = 1e-3\ndt_min = 1e-5\ndt_max = 1e-2\n"
            "tolerance = 0.05")
        pol = parse_config(text).step_policy
        assert (pol.safety, pol.alpha) == (0.8, 0.5)
        assert (pol.theta_min, pol.theta_max) == (0.5, 2.0)

    def test_slave_params_numeric_or_string(self):
        text = MINIMAL.replace("model = msd_integral",
                               "model = msd_integral\nm = 2.5\nh = 1e-4")
        system = parse_config(text)
        assert system.slaves[0].parameters == {"m": 2.5, "h": 1e-4}

    def test_provider_key_sets_remote_placement(self):
        text = MINIMAL.replace("model = msd_integral",
                               "model = msd_integral\nprovider = host:7000")
        system = parse_config(text)
        assert system.slaves[0].provider == "host:7000"
        assert "provider" not in system.slaves[0].parameters

    def test_fu_wiring_desugars_to_signals(self):
        text = """\
[simulation]
t_end = 1.0
step = fixed
dt = 0.1

[slave s1]
model = sine_source

[slave s2]
model = sine_source

[slave osc]
model = msd_integral

[fu adder]
kind = sum
n = 2
in.u1 = s1.y
in.u2 = s2.y
out.y = osc.tau
"""
        system = parse_config(text)
        assert len(system.function_units) == 1
        fu = system.function_units[0]
        assert (fu.name, fu.kind) == ("adder", "sum")
        assert fu.params == {"n": 2.0}
        assert set(system.signals) == {
            SignalConnection(PortRef("s1", "y"), PortRef("adder", "u1")),
            SignalConnection(PortRef("s2", "y"), PortRef("adder", "u2")),
            SignalConnection(PortRef("adder", "y"), PortRef("osc", "tau")),
        }

    def test_shipped_configs_parse(self):
        assert SHIPPED, "no shipped configs found"
        for path in SHIPPED:
            system = parse_config(path.read_text())
            assert system.slaves, path.name

    def test_invalid_fixtures_parse_but_fail_validation(self):
        # the loop fixtures are syntactically fine; the cycle is a
        # validation finding, not a parse error
        from cosim.models import registry
        from cosim.system import validate_system

        assert INVALID
        for path in INVALID:
            system = parse_config(path.read_text())
            report = validate_system(system, registry.descriptors())
            assert any(f.code == "algebraic-loop" for f in report.findings), path.name


class TestDiagnostics:
    def test_missing_simulation_section(self):
        assert any("missing [simulation]" in m
                   for m in messages_of("[slave a]\nmodel = msd_integral\n"))

    def test_missing_t_end(self):
        text = "[simulation]\nstep = fixed\ndt = 0.1\n"
        assert any("t_end" in m for m in messages_of(text))

    def test_missing_dt_for_fixed(self):
        text = "[simulation]\nt_end = 1.0\nstep = fixed\n"
        assert any("dt" in m for m in messages_of(text))

    def test_missing_tolerance_for_adaptive(self):
        text = ("[simulation]\nt_end = 1.0\nstep = adaptive\n"
                "dt0 = 1e-3\ndt_min = 1e-5\ndt_max = 1e-2\n")
        assert any("tolerance" in m for m in messages_of(text))

    def test_unknown_step_mode(self):
        text = "[simulation]\nt_end = 1.0\nstep = sideways\ndt = 0.1\n"
        assert any("step" in m for m in messages_of(text))

    def test_unknown_simulation_key(self):
        text = MINIMAL.replace("dt = 0.1", "dt = 0.1\ncolor = red")
        assert any("color" in m for m in messages_of(text))

    def test_key_before_any_section(self):
        assert any("section" in m for m in messages_of("x = 1\n" + MINIMAL))

    def test_malformed_header(self):
        text = MINIMAL.replace("[slave osc]", "[slave osc")
        msgs = messages_of(text)
        assert msgs

    def test_duplicate_key_reports_both_lines(self):
        text = MINIMAL.replace("dt = 0.1", "dt = 0.1\ndt = 0.2")
        msgs = messages_of(text)
        assert any("dt" in m and "line" in m for m in msgs)

    def test_duplicate_slave_name_reports_both_lines(self):
        text = MINIMAL + "\n[slave osc]\nmodel = msd_integral\n"
        msgs = messages_of(text)
        dup = [m for m in msgs if "osc" in m]
        assert dup
        first_line = 1 + MINIMAL.splitlines().index("[slave osc]")
        assert str(first_line) in dup[0]

    def test_slave_missing_model(self):
        text = MINIMAL.replace("model = msd_integral", "m = 1.0")
        assert any("model" in m for m in messages_of(text))

    def test_bad_port_syntax(self):
        text = MINIMAL.replace("source = src.y", "source = srcy")
        assert any("port" in m or "." in m for m in messages_of(text))

    def test_signal_missing_target(self):
        text = MINIMAL.replace("target = osc.tau\n", "")
        assert any("target" in m for m in messages_of(text))

    def test_bond_side_must_share_owner(self):
        text = """\
[simulation]
t_end = 1.0
step = fixed
dt = 0.1

[slave left]
model = msd_integral

[slave right]
model = msd_differential

[bond link]
side_a = left.v, right.tau
side_b = right.tau, right.v
"""
        assert any("owner" in m or "slave" in m for m in messages_of(text))

    def test_bond_bad_orientation(self):
        text = """\
[simulation]
t_end = 1.0
step = fixed
dt = 0.1

[slave left]
model = msd_integral

[slave right]
model = msd_differential

[bond link]
side_a = left.v, left.tau
side_b = right.tau, right.v
orientation = q
"""
        assert any("orientation" in m for m in messages_of(text))

    def test_diagnostics_carry_line_numbers(self):
        text = MINIMAL.replace("dt = 0.1", "dt = 0.1\ncolor = red")
        bad_line = 1 + text.splitlines().index("color = red")
        diags = diagnostics_of(text)
        assert any(d.line == bad_line for d in diags)

    def test_all_problems_reported_at_once(self):
        text = ("[simulation]\nt_end = 1.0\nstep = fixed\n"  # missing dt
                "[slave a]\n"                                 # missing model
                "[signal]\nsource = a.y\n")                   # missing target
        assert len(diagnostics_of(text)) >= 3


class TestRoundTrip:
    @pytest.mark.parametrize("path", SHIPPED, ids=lambda p: p.stem)
    def test_shipped_configs_round_trip(self, path):
        system = parse_config(path.read_text())
        assert parse_config(emit_config(system)) == system

    def test_programmatic_systems_round_trip(self):
        for system in (
            quarter_car_system(FixedStepPolicy(1e-3)),
            quarter_car_system(AdaptiveStepPolicy(
                dt0=3e-4, dt_min=5e-5, dt_max=5e-3, tolerance=0.05,
                theta_min=0.999, theta_max=1.001)),
            msd_pair_system(FixedStepPolicy(1e-2)),
        ):
            assert parse_config(emit_config(system)) == system

    def test_a_placed_slave_keeps_its_provider(self):
        system = msd_pair_system(FixedStepPolicy(1e-2))
        left = dataclasses.replace(system.slaves[0], provider="127.0.0.1:7501")
        system = dataclasses.replace(system, slaves=(left, *system.slaves[1:]))
        text = emit_config(system)
        assert f"[slave {left.name}]\nmodel = {left.model_id}\nprovider = 127.0.0.1:7501\n" in text
        assert parse_config(text) == system

    def test_emission_is_stable(self):
        system = parse_config(MINIMAL)
        once = emit_config(system)
        assert emit_config(parse_config(once)) == once


HEAD = "[simulation]\nt_end = 1.0\ndt = 0.1\n"


class TestScanner:
    """How each line splits: comments, separators, whitespace, headers."""

    def slave(self, body, header="[slave a]"):
        (spec,) = parse_config(f"{HEAD}{header}\n{body}").slaves
        return spec

    def test_hash_ends_a_value_and_a_header(self):
        spec = self.slave("model = msd_integral# note\np = 1#2=3\n",
                          header="[slave a] # the first")
        assert spec.model_id == "msd_integral"
        assert spec.parameters == {"p": 1.0}

    def test_equals_inside_a_value_stays_in_the_value(self):
        spec = self.slave("model = msd_integral\nlabel = x = y=z\n")
        assert spec.parameters == {"label": "x = y=z"}

    def test_tabs_and_spaces_around_keys_and_values(self):
        spec = self.slave("\tmodel\t=msd_integral \n \t m \t=\t 2.0\t\n")
        assert spec.model_id == "msd_integral"
        assert spec.parameters == {"m": 2.0}

    def test_crlf_line_endings(self):
        assert parse_config(MINIMAL.replace("\n", "\r\n")) == parse_config(MINIMAL)
        text = (HEAD + "[slave a]\nmodel = m\nmodel = n\n").replace("\n", "\r\n")
        assert messages_of(text) == ["line 6: duplicate key 'model' (first on line 5)"]

    def test_spaces_inside_a_header(self):
        assert self.slave("model = msd_integral\n", header="[slave  a ]").name == "a"

    @pytest.mark.parametrize("header", ["[slave]", "[slave a b]"])
    def test_a_named_section_needs_exactly_one_name(self, header):
        assert messages_of(f"{HEAD}{header}\nmodel = msd_integral\n") == [
            "line 4: [slave] needs exactly one name",
            "line 5: key outside any section",
        ]

    def test_duplicate_keys_name_both_lines(self):
        text = HEAD + "[slave a]\nmodel = m\n\nmodel = n\nmodel = o\n"
        assert messages_of(text) == [
            "line 7: duplicate key 'model' (first on line 5)",
            "line 8: duplicate key 'model' (first on line 5)",
        ]

    def test_a_line_without_equals_is_quoted_with_its_comment(self):
        assert messages_of(HEAD + "junk # c\n") == [
            "line 4: expected key = value, got 'junk # c'"]
        # the missing "=" is reported before the missing section
        assert messages_of("junk\n" + HEAD) == [
            "line 1: expected key = value, got 'junk'"]
        assert messages_of("k = 1\n" + HEAD) == ["line 1: key outside any section"]

    def test_empty_key(self):
        assert messages_of(HEAD + "[slave a]\n = 3\nmodel = m\n") == ["line 5: empty key"]
