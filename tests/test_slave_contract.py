"""Lifecycle and stepping contract shared by every slave implementation."""
import math

import pytest

from cosim.errors import InvalidState, StepRejected, UnknownModel, UnknownParameter
from cosim.models import registry
from cosim.slave import ModelSlave
from conftest import extended_registry, single_slave


def fresh(model_id="msd_integral", parameters=None):
    return registry.create(model_id, parameters or {})


class TestLifecycle:
    def test_nominal_sequence(self):
        slave = fresh()
        slave.setup(0.0, 1.0)
        slave.initialize()
        slave.set_inputs([0.0])
        assert slave.do_step(0.0, 0.1) == pytest.approx(0.1)
        slave.get_outputs()
        slave.terminate()

    def test_setup_twice_rejected(self):
        slave = fresh()
        slave.setup(0.0, 1.0)
        with pytest.raises(InvalidState):
            slave.setup(0.0, 1.0)

    def test_initialize_before_setup_rejected(self):
        with pytest.raises(InvalidState):
            fresh().initialize()

    def test_initialize_twice_rejected(self):
        slave = fresh()
        slave.setup(0.0, 1.0)
        slave.initialize()
        with pytest.raises(InvalidState):
            slave.initialize()

    def test_step_before_initialize_rejected(self):
        slave = fresh()
        slave.setup(0.0, 1.0)
        with pytest.raises(InvalidState):
            slave.do_step(0.0, 0.1)

    def test_terminate_twice_rejected(self):
        slave = fresh()
        slave.setup(0.0, 1.0)
        slave.initialize()
        slave.terminate()
        with pytest.raises(InvalidState):
            slave.terminate()

    def test_step_after_terminate_rejected(self):
        slave = fresh()
        slave.setup(0.0, 1.0)
        slave.initialize()
        slave.terminate()
        with pytest.raises(InvalidState):
            slave.do_step(0.0, 0.1)

    def test_exchange_outside_ready_rejected(self):
        created = fresh()
        set_up = fresh()
        set_up.setup(0.0, 1.0)
        for slave, state in ((created, "created"), (set_up, "set up")):
            with pytest.raises(InvalidState) as err:
                slave.set_inputs([0.0])
            assert str(err.value) == f"set_inputs not allowed in state {state!r}"
            with pytest.raises(InvalidState) as err:
                slave.get_outputs()
            assert str(err.value) == f"get_outputs not allowed in state {state!r}"

    def test_terminated_slave_refuses_its_binding(self):
        def terminated():
            slave = fresh()
            slave.setup(0.0, 1.0)
            slave.initialize()
            slave.terminate()
            return slave

        calls = (
            ("set_inputs", lambda s: s.set_inputs([0.0])),
            ("get_outputs", lambda s: s.get_outputs()),
            ("do_step", lambda s: s.do_step(0.0, 0.1)),
        )
        for what, call in calls:
            with pytest.raises(InvalidState) as err:
                call(terminated())
            assert str(err.value) == f"{what} not allowed in state 'terminated'"

    def test_terminate_legal_from_any_live_state(self):
        fresh().terminate()
        slave = fresh()
        slave.setup(0.0, 1.0)
        slave.terminate()


class TestStepContract:
    def test_non_positive_dt_rejected(self):
        slave = single_slave("msd_integral")
        for dt in (0.0, -0.1):
            with pytest.raises(StepRejected):
                slave.do_step(0.0, dt)

    def test_time_mismatch_rejected(self):
        slave = single_slave("msd_integral")
        slave.do_step(0.0, 0.1)
        with pytest.raises(InvalidState):
            slave.do_step(0.3, 0.1)

    def test_time_tolerance_is_relative(self):
        slave = single_slave("msd_integral")
        slave.do_step(0.0, 0.125)
        # within 1e-9 * max(1, |t|) of the true clock
        slave.do_step(0.125 + 1e-10, 0.125)

    def test_end_time_reports_reached_clock(self):
        slave = single_slave("msd_integral")
        t = 0.0
        for dt in (0.1, 0.05, 0.2):
            end = slave.do_step(t, dt)
            t += dt
            assert end == pytest.approx(t, abs=1e-12)

    def test_fixed_step_slave_latches_first_dt(self):
        slave = single_slave("sum_delay")
        slave.set_inputs([1.0, 2.0])
        slave.do_step(0.0, 0.1)
        with pytest.raises(StepRejected):
            slave.do_step(0.1, 0.05)
        slave.do_step(0.1, 0.1)

    def test_solver_blowup_becomes_failed_outcome(self):
        reg = extended_registry()
        slave = reg.create("fail_after", {})
        slave.setup(0.0, 10.0)
        slave.initialize()
        assert slave.do_step(0.0, 0.25) == 0.25
        with pytest.raises(RuntimeError, match="diverged"):
            slave.do_step(0.25, 0.5)
        # The clock stays where the last step that returned left it.
        assert slave.do_step(0.25, 0.25) == 0.5


class TestVariableAccess:
    def test_outputs_follow_descriptor_order(self):
        slave = single_slave("msd_integral", {"x0": 2.0, "v0": -1.0})
        assert [v.name for v in slave.descriptor().outputs()] == ["v", "x"]
        assert slave.get_outputs() == [-1.0, 2.0]

    def test_value_count_must_match_binding(self):
        slave = single_slave("msd_integral")
        for values in ([], [1.0, 2.0]):
            with pytest.raises(InvalidState, match="values for 1 inputs"):
                slave.set_inputs(values)

    def test_a_wrong_output_count_is_refused_at_initialize(self):
        class TooManyOutputs(ModelSlave):
            DESCRIPTOR = registry.describe("sine_source")

            def _initialize(self, t0):
                self.outputs = [0.0, 1.0]

            def _step(self, t, dt):
                pass

        slave = TooManyOutputs()
        slave.setup(0.0, 1.0)
        with pytest.raises(InvalidState, match="model set 2 outputs for 1 after initialize"):
            slave.initialize()


class TestConstruction:
    def test_unknown_model(self):
        with pytest.raises(UnknownModel):
            registry.create("not_a_model", {})

    def test_unknown_parameter(self):
        with pytest.raises(UnknownParameter):
            registry.create("msd_integral", {"mass": 1.0})

    def test_parameter_defaults_applied(self):
        slave = single_slave("msd_integral")
        assert slave.get_outputs() == [0.0, 0.0]

    def test_instances_are_independent(self):
        a = single_slave("msd_integral", {"x0": 1.0})
        b = single_slave("msd_integral", {"x0": 1.0})
        for slave in (a, b):
            slave.set_inputs([0.0])
        a.do_step(0.0, 0.5)
        assert b.get_outputs() == [0.0, 1.0]

    def test_model_ids_sorted(self):
        ids = registry.model_ids()
        assert list(ids) == sorted(ids)


class TestDeterminism:
    @pytest.mark.parametrize("model_id,drive", [
        ("msd_integral", [("tau", 0.3)]),
        ("msd_differential", [("v", 0.7)]),
        ("el_motor", [("V", 12.0)]),
    ])
    def test_identical_histories_bitwise(self, model_id, drive):
        def run():
            slave = single_slave(model_id)
            assert [v.name for v in slave.descriptor().inputs()] == [n for n, _ in drive]
            out = []
            t = 0.0
            for _ in range(50):
                slave.set_inputs([value for _, value in drive])
                slave.do_step(t, 0.01)
                t += 0.01
                out.extend(slave.get_outputs())
            return out

        first, second = run(), run()
        assert all(math.copysign(1, x) == math.copysign(1, y) and x == y
                   for x, y in zip(first, second))
        assert first == second
