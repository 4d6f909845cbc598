"""Master loop: scheduling, exact span accounting, determinism, aborts."""
import dataclasses
import math
import threading
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from cosim.config import parse_config
from cosim.errors import BarrierTimeout, InvalidSystem, RunAborted
from cosim.function_units import EvalOp
from cosim.master import (
    LocalResolver,
    _add_exact,
    initialize_run,
    run_to_end,
    step_once,
)
from cosim.models import registry as standard_registry
from cosim.observers import CsvObserver, MemoryObserver
from cosim.slave import TIME_RTOL, ModelRegistry, ModelSlave, StepOutcome
from cosim.system import (
    AdaptiveStepPolicy,
    BondSide,
    Causality,
    FixedStepPolicy,
    FunctionUnitSpec,
    PortRef,
    PowerBond,
    SignalConnection,
    SlaveDescriptor,
    SlaveSpec,
    SystemDescription,
    VariableDescriptor,
    VarKind,
)
from cosim.units import METER_PER_SECOND, NEWTON

from conftest import (
    FaultyModel,
    InjectedFault,
    ThreadCounter,
    extended_registry,
    msd_pair_system,
    run_system,
)

IN = Causality.INPUT
OUT = Causality.OUTPUT
CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


def source_only_system(policy, t_start=0.0, t_end=1.0):
    return SystemDescription(
        slaves=(SlaveSpec("src", "sine_source", {}),),
        bonds=(), signals=(), function_units=(),
        step_policy=policy, t_start=t_start, t_end=t_end,
    )


def faulty_pair_system(model_id, params, policy):
    """Test-model `model_id` coupled to the differential oscillator."""
    return SystemDescription(
        slaves=(SlaveSpec("probe", model_id, params),
                SlaveSpec("right", "msd_differential",
                          {"m": 0.2, "d": 0.1, "k": 0.5, "h": 1e-3})),
        bonds=(PowerBond("link",
                         BondSide("probe", "v", "tau"),
                         BondSide("right", "tau", "v"),
                         positive_side="a"),),
        signals=(), function_units=(),
        step_policy=policy, t_start=0.0, t_end=1.0,
    )


class TestSchedule:
    def test_tail_step_fits_the_horizon(self):
        result = run_system(source_only_system(FixedStepPolicy(0.3)))
        dts = [r.dt for r in result.records]
        assert dts[:3] == [0.3, 0.3, 0.3]
        assert len(dts) == 4
        assert math.fsum(dts) == 1.0
        assert result.records[-1].t_next == pytest.approx(1.0, abs=1e-15)

    def test_divisible_horizon_needs_no_tail(self):
        result = run_system(source_only_system(FixedStepPolicy(0.25)))
        assert [r.dt for r in result.records] == [0.25] * 4

    def test_zero_span_runs_no_steps(self):
        obs = MemoryObserver()
        result = run_system(
            source_only_system(FixedStepPolicy(0.1), t_start=0.5, t_end=0.5),
            observers=[obs])
        assert result.records == []
        assert obs.end_reason == "completed"

    def test_awkward_step_sums_exactly(self):
        for dt, t_end in ((1.0 / 3.0, 1.0), (0.1, 0.7), (1e-3, 0.0123)):
            result = run_system(
                source_only_system(FixedStepPolicy(dt), t_end=t_end))
            assert math.fsum(r.dt for r in result.records) == t_end

    @settings(max_examples=40, deadline=None)
    @given(dt=st.floats(min_value=0.01, max_value=0.4),
           span=st.floats(min_value=0.1, max_value=2.0))
    def test_span_accounting_property(self, dt, span):
        result = run_system(
            source_only_system(FixedStepPolicy(dt), t_end=span))
        assert math.fsum(r.dt for r in result.records) == span
        assert all(r.dt > 0.0 for r in result.records)

    @settings(max_examples=200, deadline=None)
    @given(dts=st.lists(st.floats(min_value=1e-9, max_value=1.0), max_size=300),
           span=st.floats(min_value=0.0, max_value=300.0))
    def test_exact_partials_fit_the_tail_like_the_full_list(self, dts, span):
        partials = []
        for dt in dts:
            _add_exact(partials, dt)
        assert math.fsum(partials) == math.fsum(dts)
        assert (math.fsum([span, -0.5] + [-p for p in partials])
                == math.fsum([span, -0.5] + [-d for d in dts]))

    @settings(max_examples=100, deadline=None)
    @given(dts=st.lists(st.floats(min_value=1e-9, max_value=1.0), max_size=60),
           t_start=st.floats(min_value=-1e3, max_value=1e3))
    def test_slaves_are_handed_the_exact_step_sum(self, dts, t_start):
        system = source_only_system(
            FixedStepPolicy(0.1), t_start=t_start, t_end=t_start + 100.0)
        run = initialize_run(system, LocalResolver(standard_registry))
        try:
            for i, dt in enumerate(dts):
                record = step_once(run, dt)
                assert record.t == math.fsum([t_start, *dts[:i]])
            assert run.time == math.fsum([t_start, *dts])
        finally:
            run.terminate()

    def test_exact_partials_stay_short(self):
        partials = []
        for _ in range(10_000):
            _add_exact(partials, 1e-3)
        assert len(partials) <= 4

    def test_indices_and_times_are_consistent(self):
        result = run_system(source_only_system(FixedStepPolicy(0.3)))
        for i, rec in enumerate(result.records):
            assert rec.index == i
            assert rec.t_next == pytest.approx(rec.t + rec.dt, abs=1e-15)


class TestDeterminism:
    def test_rerun_is_bit_identical(self):
        system = msd_pair_system(FixedStepPolicy(1e-2), t_end=5.0)
        a = run_system(system)
        b = run_system(system)
        assert len(a.records) == len(b.records)
        for ra, rb in zip(a.records, b.records):
            assert ra.outputs == rb.outputs
            assert ra.energy.epsilon == rb.energy.epsilon

    def test_slave_order_cannot_change_values(self):
        system = msd_pair_system(FixedStepPolicy(1e-2), t_end=5.0)
        permuted = dataclasses.replace(system, slaves=system.slaves[::-1])
        a = run_system(system)
        b = run_system(permuted)
        for ra, rb in zip(a.records, b.records):
            assert ra.outputs == rb.outputs
            assert ra.inputs == rb.inputs

    def test_uncoupled_subsystems_do_not_interact(self):
        def chain(name_prefix, freq):
            src = SlaveSpec(f"{name_prefix}_src", "sine_source", {"freq": freq})
            osc = SlaveSpec(f"{name_prefix}_osc", "msd_integral", {"h": 1e-3})
            sig = SignalConnection(PortRef(src.name, "y"),
                                   PortRef(osc.name, "tau"))
            return (src, osc), (sig,)

        (sa, oa), siga = chain("a", 0.7)
        (sb, ob), sigb = chain("b", 1.3)
        combined = SystemDescription(
            slaves=(sa, oa, sb, ob), bonds=(), signals=siga + sigb,
            function_units=(), step_policy=FixedStepPolicy(0.05),
            t_start=0.0, t_end=2.0,
        )
        alone = SystemDescription(
            slaves=(sa, oa), bonds=(), signals=siga, function_units=(),
            step_policy=FixedStepPolicy(0.05), t_start=0.0, t_end=2.0,
        )
        both = run_system(combined)
        solo = run_system(alone)
        port = PortRef("a_osc", "x")
        assert [r.outputs[port] for r in both.records] == \
               [r.outputs[port] for r in solo.records]


class TestSettling:
    def feedthrough_chain(self):
        return SystemDescription(
            slaves=(SlaveSpec("src", "sine_source",
                              {"amp": 1.0, "phase": math.pi / 2}),
                    SlaveSpec("g1", "gain_block", {"c": 0.5}),
                    SlaveSpec("g2", "gain_block", {"c": 0.5}),
                    SlaveSpec("g3", "gain_block", {"c": 0.5}),
                    SlaveSpec("osc", "msd_integral", {"h": 1e-3})),
            bonds=(),
            signals=(SignalConnection(PortRef("src", "y"), PortRef("g1", "u")),
                     SignalConnection(PortRef("g1", "y"), PortRef("g2", "u")),
                     SignalConnection(PortRef("g2", "y"), PortRef("g3", "u")),
                     SignalConnection(PortRef("g3", "y"), PortRef("osc", "tau"))),
            function_units=(), step_policy=FixedStepPolicy(0.1),
            t_start=0.0, t_end=1.0,
        )

    def test_initialization_settles_feedthrough_chain(self):
        run = initialize_run(self.feedthrough_chain(),
                             LocalResolver(standard_registry))
        try:
            assert run.plan.n_init == 4
            # y(0) = sin(pi/2) = 1.0 through three 0.5 gains
            latched = dict(zip(run.plan.inputs, run.latched))
            assert latched[PortRef("osc", "tau")] == 0.125
        finally:
            run.terminate()

    def test_settled_state_is_a_fixed_point(self):
        from cosim.function_units import evaluate_plan

        run = initialize_run(self.feedthrough_chain(),
                             LocalResolver(standard_registry))
        try:
            before = list(run.latched)
            run.push_inputs(run.latched)
            snapshot = run.gather_outputs()
            again = evaluate_plan(run.plan, snapshot, 0.0)
            assert again == before
        finally:
            run.terminate()

    def signed_zero_chain(self):
        # y(0) = -0.0 + 0.0*sin(-pi/2) = -0.0, and each -1 gain flips the
        # sign of a zero, so settle passes differ in signed zeros only;
        # ``==`` would call the first pass settled and latch osc.tau = +0.0
        return SystemDescription(
            slaves=(SlaveSpec("src", "sine_source",
                              {"amp": 0.0, "bias": -0.0, "phase": -math.pi / 2}),
                    SlaveSpec("g1", "gain_block", {"c": -1.0}),
                    SlaveSpec("g2", "gain_block", {"c": -1.0}),
                    SlaveSpec("osc", "msd_integral", {"h": 1e-3})),
            signals=(SignalConnection(PortRef("src", "y"), PortRef("g1", "u")),
                     SignalConnection(PortRef("g1", "y"), PortRef("g2", "u")),
                     SignalConnection(PortRef("g2", "y"), PortRef("osc", "tau"))),
            step_policy=FixedStepPolicy(0.1), t_start=0.0, t_end=1.0,
        )

    def test_settle_stops_at_the_bitwise_fixed_point(self):
        run = initialize_run(self.signed_zero_chain(),
                             LocalResolver(standard_registry))
        try:
            latched = {str(ref): x.hex() for ref, x in zip(run.plan.inputs, run.latched)}
            assert latched == {"g1.u": "-0x0.0p+0", "g2.u": "0x0.0p+0",
                               "osc.tau": "-0x0.0p+0"}
        finally:
            run.terminate()

    @staticmethod
    def set_inputs_calls(system):
        """Each slave's ``set_inputs`` call count over ``initialize_run``."""
        calls = {}

        class CountingResolver(LocalResolver):
            def create(self, spec):
                slave = super().create(spec)
                set_inputs = slave.set_inputs
                calls[spec.name] = 0

                def counted(values):
                    calls[spec.name] += 1
                    set_inputs(values)

                slave.set_inputs = counted
                return slave

        initialize_run(system, CountingResolver(standard_registry)).terminate()
        return calls

    def test_settle_stops_after_one_pass_on_a_function_unit_chain(self):
        # src -> g1 -> g2 -> g3 (gain FUs) -> osc: n_init is 4, but the
        # FUs resolve inside one plan evaluation
        system = SystemDescription(
            slaves=(SlaveSpec("src", "sine_source", {"phase": 0.5}),
                    SlaveSpec("osc", "msd_integral", {"h": 1e-3})),
            signals=(SignalConnection(PortRef("src", "y"), PortRef("g1", "u")),
                     SignalConnection(PortRef("g1", "y"), PortRef("g2", "u")),
                     SignalConnection(PortRef("g2", "y"), PortRef("g3", "u")),
                     SignalConnection(PortRef("g3", "y"), PortRef("osc", "tau"))),
            function_units=tuple(FunctionUnitSpec(n, "gain", {"c": 0.5})
                                 for n in ("g1", "g2", "g3")),
            step_policy=FixedStepPolicy(0.1), t_start=0.0, t_end=1.0,
        )
        run = initialize_run(system, LocalResolver(standard_registry))
        try:
            assert run.plan.n_init == 4
            assert run.latched == [0.125 * math.sin(0.5)]
        finally:
            run.terminate()
        assert self.set_inputs_calls(system) == {"src": 0, "osc": 1}

    def test_feedthrough_chain_takes_every_pass(self):
        assert self.set_inputs_calls(self.feedthrough_chain()) == {
            "src": 0, "g1": 4, "g2": 4, "g3": 4, "osc": 4}


class TestAborts:
    def test_invalid_system_raises_before_any_instance(self):
        bad = SystemDescription(
            slaves=(SlaveSpec("a", "no_such_model", {}),),
            bonds=(), signals=(), function_units=(),
            step_policy=FixedStepPolicy(0.1), t_start=0.0, t_end=1.0,
        )
        with pytest.raises(InvalidSystem) as err:
            run_system(bad)
        assert any(f.code == "unknown-model" for f in err.value.findings)

    def test_failed_outcome_aborts_run(self, test_registry):
        obs = MemoryObserver()
        system = faulty_pair_system("fail_after", {"t_fail": 0.5},
                                    FixedStepPolicy(0.2))
        with pytest.raises(RunAborted, match="diverged"):
            run_system(system, observers=[obs], registry=test_registry)
        assert obs.end_reason.startswith("aborted:")
        assert len(obs.records) == 2  # steps ending 0.2 and 0.4 succeeded

    def test_rejected_step_aborts_run(self, test_registry):
        obs = MemoryObserver()
        system = faulty_pair_system("reject_after", {"t_reject": 0.5},
                                    FixedStepPolicy(0.2))
        with pytest.raises(RunAborted, match="rejected"):
            run_system(system, observers=[obs], registry=test_registry)
        assert "rejected" in obs.end_reason

    def test_barrier_timeout(self, test_registry):
        obs = MemoryObserver()
        system = faulty_pair_system("slow", {"delay": 0.5},
                                    FixedStepPolicy(0.2))
        with pytest.raises(BarrierTimeout, match="barrier") as err:
            run_system(system, observers=[obs], registry=test_registry,
                       step_timeout=0.05)
        assert "barrier" in obs.end_reason
        assert "'probe'" in str(err.value)
        assert obs.records == []

    @pytest.mark.parametrize("reported, aborts", [
        (lambda t, dt: t + 1.5 * dt, True),
        (lambda t, dt: math.nan, True),
        (lambda t, dt: (t + dt) + 0.5 * TIME_RTOL * max(1.0, abs(t + dt)),
         False),
    ], ids=["ahead", "nan", "within_tolerance"])
    def test_wrong_end_time_aborts(self, reported, aborts):
        class WrongClock(ModelSlave):
            DESCRIPTOR = SlaveDescriptor(
                model_id="wrong_clock",
                variables=(
                    VariableDescriptor("tau", IN, VarKind.EFFORT, NEWTON),
                    VariableDescriptor("v", OUT, VarKind.FLOW,
                                       METER_PER_SECOND),
                ),
                parameters={},
            )

            def _initialize(self, t0):
                self.outputs["v"] = 0.0

            def _step(self, t, dt):
                pass

            def do_step(self, t, dt):
                outcome = super().do_step(t, dt)
                # report a clock other than where it really ended
                return StepOutcome(outcome.status, reported(t, dt))

        reg = extended_registry()
        reg.register(WrongClock)
        system = faulty_pair_system("wrong_clock", {}, FixedStepPolicy(0.2))
        if aborts:
            with pytest.raises(RunAborted, match="expected"):
                run_system(system, registry=reg)
        else:
            assert run_system(system, registry=reg).steps == 5

    def test_abort_terminates_slaves_once(self, test_registry):
        system = faulty_pair_system("fail_after", {"t_fail": 0.5},
                                    FixedStepPolicy(0.2))
        resolver = LocalResolver(test_registry)
        run = initialize_run(system, resolver)
        with pytest.raises(RunAborted):
            run_to_end(run)
        # idempotent: a second terminate must not blow up
        run.terminate()


def fail_on_call(k, exc, fn):
    """``fn`` wrapped to raise ``exc`` on its k-th call."""
    calls = 0

    def wrapper(*args):
        nonlocal calls
        calls += 1
        if calls == k:
            raise exc
        return fn(*args)

    return wrapper


def counted_call(calls, name, fn):
    """``fn`` wrapped to append ``name`` to ``calls`` before each call."""
    def wrapper(*args):
        calls.append(name)
        return fn(*args)

    return wrapper


def nan_output_after(slave, k, name):
    """Make ``slave`` leave output ``name`` NaN after each step past its k-th."""
    step, calls = slave._step, 0

    def wrapper(t, dt):
        nonlocal calls
        step(t, dt)
        calls += 1
        if calls > k:
            slave.outputs[name] = math.nan

    slave._step = wrapper


class EndLog:
    """Observer that keeps every end notification it gets."""

    def __init__(self):
        self.reasons = []

    def on_start(self, info):
        pass

    def on_step(self, record):
        pass

    def on_end(self, reason):
        self.reasons.append(reason)


class TestStepFaults:
    """Any exception out of a step ends the run through the abort path."""

    def abort(self, system, tmp_path, inject):
        """Run ``system`` with a fault from ``inject(run)``; check the abort.

        Returns the ``RunAborted`` and the ``MemoryObserver``.
        """
        csv, memory, ends = CsvObserver(tmp_path), MemoryObserver(), EndLog()
        run = initialize_run(system, LocalResolver(standard_registry),
                             observers=[csv, memory, ends])
        terminated = []
        for name, slave in run.slaves.items():
            slave.terminate = counted_call(terminated, name, slave.terminate)
        files = []
        on_start = csv.on_start

        def opened(info):
            on_start(info)
            files.extend((csv._signals, csv._energy))

        csv.on_start = opened
        inject(run)
        with pytest.raises(RunAborted) as err:
            run_to_end(run)
        assert len(ends.reasons) == 1
        assert ends.reasons[0].startswith("aborted:")
        assert sorted(terminated) == sorted(run.slaves)
        assert len(files) == 2 and all(f.closed for f in files)
        return err.value, memory

    def test_slave_read_fault_aborts(self, tmp_path):
        fault = ValueError("bad read")

        def inject(run):
            left = run.slaves["left"]
            left.get_outputs = fail_on_call(8, fault, left.get_outputs)

        system = msd_pair_system(FixedStepPolicy(0.01), t_end=1.0)
        aborted, memory = self.abort(system, tmp_path, inject)
        assert aborted.__cause__ is fault
        assert str(aborted) == "slave 'left' get_outputs: ValueError: bad read"
        assert memory.end_reason == "aborted: slave 'left' get_outputs: ValueError: bad read"
        assert len(memory.records) == 7

    @pytest.mark.parametrize("call", ["set_inputs", "start_step", "do_step"])
    def test_slave_fault_names_the_slave_and_call(self, tmp_path, call):
        fault = ValueError("bad call")

        def inject(run):
            right = run.slaves["right"]
            setattr(right, call, fail_on_call(3, fault, getattr(right, call)))

        system = msd_pair_system(FixedStepPolicy(0.01), t_end=1.0)
        aborted, memory = self.abort(system, tmp_path, inject)
        assert aborted.__cause__ is fault
        assert memory.end_reason == f"aborted: slave 'right' {call}: ValueError: bad call"
        assert len(memory.records) == 2

    def test_function_unit_fault_aborts(self, tmp_path):
        fault = ArithmeticError("no sum")

        def inject(run):
            (op,) = [op for op in run.plan.ops if isinstance(op, EvalOp)]
            op.fu.evaluate = fail_on_call(3, fault, op.fu.evaluate)

        system = parse_config((CONFIG_DIR / "fu_sum.cfg").read_text())
        aborted, memory = self.abort(system, tmp_path, inject)
        assert aborted.__cause__ is fault
        assert str(aborted) == "function unit 'adder': ArithmeticError: no sum"
        assert memory.end_reason == "aborted: function unit 'adder': ArithmeticError: no sum"
        assert len(memory.records) == 2


FAULTS = [("set_inputs", "raise"), ("do_step", "raise"), ("do_step", "fail"),
          ("do_step", "nan_end"), ("get_outputs", "raise"), ("terminate", "raise")]


class TestFaultMatrix:
    """One in-process slave breaks once, at each stage in each way; the
    run ends once, terminates every slave once and leaves no thread."""

    @pytest.mark.parametrize("stage,mode", FAULTS, ids=["-".join(f) for f in FAULTS])
    def test_fault_ends_the_run_once(self, stage, mode, caplog):
        # The 4th call of an exchange or step comes after the settle pass.
        params = {"stage": FaultyModel.STAGES.index(stage),
                  "call": 1 if stage == "terminate" else 4,
                  "mode": FaultyModel.MODES.index(mode)}
        system = faulty_pair_system("faulty", params, FixedStepPolicy(0.01))
        memory, ends, threads = MemoryObserver(), EndLog(), ThreadCounter()
        before = threading.active_count()
        run = initialize_run(system, LocalResolver(extended_registry()),
                             observers=[memory, ends, threads])
        terminated = []
        for name, slave in run.slaves.items():
            slave.terminate = counted_call(terminated, name, slave.terminate)
        with caplog.at_level("DEBUG", logger="cosim.master"):
            if stage == "terminate":
                # A failing terminate is logged; the run itself completed.
                run_to_end(run)
                (reason,) = [r.getMessage() for r in caplog.records]
                assert isinstance(caplog.records[0].exc_info[1], InjectedFault)
                assert ends.reasons == ["completed"]
            else:
                with pytest.raises(RunAborted) as err:
                    run_to_end(run)
                (reason,) = ends.reasons
                assert reason == f"aborted: {err.value}"
                assert len(memory.records) >= 1  # the fault came while stepping
        assert "slave 'probe'" in reason and stage in reason
        assert sorted(terminated) == sorted(run.slaves)
        assert threads.peak <= before
        assert threading.active_count() == before


class TestInitialize:
    def test_settle_failure_terminates_every_slave_once(self, test_registry):
        class BadInputs(ModelSlave):
            DESCRIPTOR = SlaveDescriptor(
                model_id="bad_inputs",
                variables=(
                    VariableDescriptor("tau", IN, VarKind.EFFORT, NEWTON),
                    VariableDescriptor("v", OUT, VarKind.FLOW,
                                       METER_PER_SECOND),
                ),
                parameters={},
            )

            def _initialize(self, t0):
                self.outputs["v"] = 0.0

            def _step(self, t, dt):
                pass

            def set_inputs(self, values):
                raise RuntimeError("inputs refused")

        test_registry.register(BadInputs)
        terminated = []

        class CountingResolver(LocalResolver):
            def create(self, spec):
                slave = super().create(spec)
                terminate = slave.terminate

                def counted():
                    terminated.append(spec.name)
                    terminate()

                slave.terminate = counted
                return slave

        system = faulty_pair_system("bad_inputs", {}, FixedStepPolicy(0.2))
        with pytest.raises(RuntimeError, match="inputs refused"):
            initialize_run(system, CountingResolver(test_registry))
        assert sorted(terminated) == ["probe", "right"]


class TestAdaptive:
    def adaptive_policy(self, **over):
        kw = dict(dt0=1e-2, dt_min=1e-4, dt_max=0.5, tolerance=1e-3)
        kw.update(over)
        return AdaptiveStepPolicy(**kw)

    def test_step_sizes_respond_to_error(self):
        system = msd_pair_system(self.adaptive_policy(), t_end=5.0)
        result = run_system(system)
        dts = {r.dt for r in result.records}
        assert len(dts) > 3  # the controller actually moved the step

    def test_rigid_slave_forces_fixed_step(self, caplog):
        system = SystemDescription(
            slaves=(SlaveSpec("a", "sine_source", {}),
                    SlaveSpec("b", "sine_source", {"phase": 1.0}),
                    SlaveSpec("sd", "sum_delay", {}),
                    SlaveSpec("osc", "msd_integral", {"h": 1e-3})),
            bonds=(),
            signals=(SignalConnection(PortRef("a", "y"), PortRef("sd", "u1")),
                     SignalConnection(PortRef("b", "y"), PortRef("sd", "u2")),
                     SignalConnection(PortRef("sd", "y"),
                                      PortRef("osc", "tau"))),
            function_units=(), step_policy=self.adaptive_policy(),
            t_start=0.0, t_end=0.5,
        )
        with caplog.at_level("WARNING", logger="cosim.master"):
            result = run_system(system)
        assert any("variable steps" in m for m in caplog.messages)
        # every step stays at dt0; only the fitted tail may differ by ulps
        assert all(abs(r.dt - 1e-2) < 1e-12 for r in result.records)

    def test_non_finite_indicator_ends_the_run_naming_the_bond(self):
        # A NaN wheel velocity makes the indicator NaN; the controller must
        # not turn it into a NaN step that the next slave is blamed for.
        system = parse_config((CONFIG_DIR / "quarter_car_adaptive.cfg").read_text())
        memory, ends = MemoryObserver(), EndLog()
        run = initialize_run(system, LocalResolver(standard_registry),
                             observers=[memory, ends])
        nan_output_after(run.slaves["wheel"], 5, "v2")
        with pytest.raises(RunAborted) as err:
            run_to_end(run)
        reason = "error indicator is nan: bond 'susp' residual energy is nan"
        assert str(err.value) == reason
        assert ends.reasons == [f"aborted: {reason}"]
        assert len(memory.records) == 5

    def test_fixed_step_runs_on_through_a_non_finite_indicator(self):
        system = parse_config((CONFIG_DIR / "quarter_car.cfg").read_text())
        system = dataclasses.replace(system, t_end=system.t_start + 0.01)
        memory, ends = MemoryObserver(), EndLog()
        run = initialize_run(system, LocalResolver(standard_registry),
                             observers=[memory, ends])
        nan_output_after(run.slaves["wheel"], 5, "v2")
        run_to_end(run)
        assert ends.reasons == ["completed"]
        assert math.isnan(memory.records[5].energy.epsilon)
        assert len(memory.records) == run.index > 5

    def test_controller_wired_from_policy(self):
        system = msd_pair_system(
            self.adaptive_policy(safety=0.9, alpha=0.25,
                                 theta_min=0.2, theta_max=4.0),
            t_end=0.1)
        run = initialize_run(system, LocalResolver(standard_registry))
        try:
            c = run.controller
            assert (c.safety, c.alpha) == (0.9, 0.25)
            assert (c.theta_min, c.theta_max) == (0.2, 4.0)
            assert (c.dt_min, c.dt_max) == (1e-4, 0.5)
        finally:
            run.terminate()


class TestStepOnce:
    def test_manual_stepping_matches_run_to_end(self):
        system = msd_pair_system(FixedStepPolicy(0.1), t_end=0.5)
        auto = run_system(system)

        resolver = LocalResolver(standard_registry)
        run = initialize_run(system, resolver)
        try:
            manual = [step_once(run, 0.1) for _ in range(5)]
        finally:
            run.terminate()
        for ra, rb in zip(auto.records, manual):
            assert ra.outputs == rb.outputs


class TestStreaming:
    def test_memory_stays_flat_in_the_step_count(self):
        # Records go to observers only; what a run keeps per step is its
        # dt history, which the exact tail fit needs.
        def peak_bytes(steps):
            system = msd_pair_system(FixedStepPolicy(1e-3),
                                     t_end=steps * 1e-3, h=1e-3)
            run = initialize_run(system, LocalResolver(standard_registry))
            tracemalloc.start()
            try:
                result = run_to_end(run)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert result.steps == steps
            return peak

        n = 200
        per_step = (peak_bytes(10 * n) - peak_bytes(n)) / (9 * n)
        assert per_step <= 128
