"""Master loop: scheduling, exact span accounting, determinism, aborts."""
import dataclasses
import math
import threading
import time
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from cosim.config import parse_config
from cosim.errors import BarrierTimeout, CosimError, InvalidState, InvalidSystem, RunAborted
from cosim.master import (
    LocalResolver,
    _add_exact,
    initialize_run,
    run_to_end,
    step_once,
)
from cosim.models import registry as standard_registry
from cosim.net import NetworkResolver, Provider, ProviderConfig
from cosim.observers import CsvObserver, MemoryObserver
from cosim.slave import TIME_RTOL, ModelSlave
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
    ThreadCounter,
    extended_registry,
    msd_pair_system,
    run_system,
    spawn_within,
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


def faulty_pair_system(model_id, params, policy, name="probe"):
    """Test-model `model_id`, as slave `name`, coupled to the differential
    oscillator."""
    return SystemDescription(
        slaves=(SlaveSpec(name, model_id, params),
                SlaveSpec("right", "msd_differential",
                          {"m": 0.2, "d": 0.1, "k": 0.5, "h": 1e-3})),
        bonds=(PowerBond("link",
                         BondSide(name, "v", "tau"),
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

    def test_the_remainder_step_ends_the_run(self):
        # The remainder rounds to 0.3333333333333329; a step of a few ulps
        # must not follow it.
        system = dataclasses.replace(
            parse_config((CONFIG_DIR / "msd_pair.cfg").read_text()),
            step_policy=FixedStepPolicy(1 / 3), t_start=0.1, t_end=2.766666666666666)
        records = run_system(system).records
        assert len(records) == 8
        assert records[-1].dt == 0.3333333333333329
        assert records[-1].t_next == system.t_end

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

    @pytest.mark.parametrize("policy", [
        FixedStepPolicy(1e-3),
        AdaptiveStepPolicy(dt0=1e-3, dt_min=1e-5, dt_max=1e-2, tolerance=1e-2),
    ], ids=["fixed", "adaptive"])
    def test_bond_order_cannot_change_values(self, policy):
        # Three bonded pairs; epsilon sums one squared ratio per bond, so
        # a sum in declaration order would move its bits, and under the
        # adaptive policy every dt after that.
        slaves, bonds = [], []
        for i, (m, d, k, x0) in enumerate(((1.0, 0.5, 2.0, 1.0), (1.7, 0.3, 3.1, -0.6),
                                           (0.6, 0.9, 1.3, 0.4))):
            slaves += [SlaveSpec(f"left{i}", "msd_integral",
                                 {"m": m, "d": d, "k": k, "x0": x0, "h": 1e-3}),
                       SlaveSpec(f"right{i}", "msd_differential",
                                 {"m": 0.2 * m, "d": 0.1, "k": 0.5, "h": 1e-3})]
            bonds.append(PowerBond(f"link{i}", BondSide(f"left{i}", "v", "tau"),
                                   BondSide(f"right{i}", "tau", "v"), positive_side="a"))
        system = SystemDescription(
            slaves=tuple(slaves), bonds=tuple(bonds), signals=(), function_units=(),
            step_policy=policy, t_start=0.0, t_end=1.0)
        runs = [run_system(dataclasses.replace(system, bonds=tuple(bonds[j] for j in order)))
                for order in ((0, 1, 2), (2, 0, 1), (1, 2, 0))]

        def bits(run):
            return [(r.dt.hex(), r.energy.epsilon.hex()) for r in run.records]

        assert bits(runs[1]) == bits(runs[0])
        assert bits(runs[2]) == bits(runs[0])

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
                self.outputs = [0.0]

            def _step(self, t, dt):
                pass

            def do_step(self, t, dt):
                super().do_step(t, dt)
                # report a clock other than where it really ended
                return reported(t, dt)

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
    slot = [v.name for v in slave.descriptor().outputs()].index(name)

    def wrapper(t, dt):
        nonlocal calls
        step(t, dt)
        calls += 1
        if calls > k:
            slave.outputs[slot] = math.nan

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


def placed(system, providers):
    """``system`` with each slave named in ``providers`` placed at its address."""
    return dataclasses.replace(system, slaves=tuple(
        dataclasses.replace(s, provider=providers[s.name]) if s.name in providers else s
        for s in system.slaves))


class TestStepOrder:
    """Each remote STEP goes out first, then every in-process slave steps
    while the providers compute, then the replies are read; each group in
    system order."""

    def test_an_in_process_slave_steps_before_a_remote_reply_is_read(self, provider):
        system = placed(msd_pair_system(FixedStepPolicy(0.01)), {"left": provider.address})
        calls = []
        with NetworkResolver(standard_registry) as resolver:
            run = initialize_run(system, resolver)
            try:
                remote, local = run.slaves["left"], run.slaves["right"]
                for slave, name, method in ((remote, "left", "start_step"),
                                            (remote, "left", "finish_step"),
                                            (remote, "left", "do_step"),
                                            (local, "right", "do_step")):
                    setattr(slave, method,
                            counted_call(calls, f"{method}({name})", getattr(slave, method)))
                step_once(run, 0.01)
            finally:
                run.terminate()
        assert calls == ["start_step(left)", "do_step(right)", "finish_step(left)"]

    def test_an_in_process_slave_takes_one_step_call_per_step(self, provider):
        system = placed(msd_pair_system(FixedStepPolicy(0.01), t_end=0.05),
                        {"left": provider.address})
        calls = []
        with NetworkResolver(standard_registry) as resolver:
            run = initialize_run(system, resolver)
            local = run.slaves["right"]
            assert not hasattr(local, "start_step") and not hasattr(local, "finish_step")
            local.do_step = counted_call(calls, "do_step", local.do_step)
            result = run_to_end(run)
        assert result.steps == 5
        assert calls == ["do_step"] * 5

    def test_the_first_slave_in_step_order_names_the_abort(self, provider):
        # Both 'far' (on the provider, declared first) and 'near' (in
        # process) fail in the step that passes t = 0.5.
        def pair(name):
            partner = f"{name}_right"
            return ((SlaveSpec(name, "fail_after", {"t_fail": 0.5}),
                     SlaveSpec(partner, "msd_differential",
                               {"m": 0.2, "d": 0.1, "k": 0.5, "h": 1e-3})),
                    PowerBond(name, BondSide(name, "v", "tau"), BondSide(partner, "tau", "v"),
                              positive_side="a"))

        (far, far_bond), (near, near_bond) = pair("far"), pair("near")
        system = placed(SystemDescription(slaves=(*far, *near), bonds=(far_bond, near_bond),
                                          step_policy=FixedStepPolicy(0.2)),
                        {"far": provider.address})
        ends = EndLog()
        with NetworkResolver(extended_registry()) as resolver:
            run = initialize_run(system, resolver, observers=[ends])
            with pytest.raises(RunAborted) as err:
                run_to_end(run)
        assert str(err.value) == "slave 'near' do_step: RuntimeError: diverged"
        assert ends.reasons == [f"aborted: {err.value}"]

    @staticmethod
    def bonded(name, model_id, params):
        """Slave ``name`` and a differential partner ``<name>_right``, and
        the bond between them."""
        partner = f"{name}_right"
        return ((SlaveSpec(name, model_id, params),
                 SlaveSpec(partner, "msd_differential",
                           {"m": 0.2, "d": 0.1, "k": 0.5, "h": 1e-3})),
                PowerBond(name, BondSide(name, "v", "tau"), BondSide(partner, "tau", "v"),
                          positive_side="a"))

    def test_each_placement_group_steps_in_system_order(self, provider):
        # Declared remote, in process, remote, in process, and against the
        # order of their names.
        (b, b_right), b_bond = self.bonded("b", "msd_integral", {"x0": 1.0, "h": 1e-3})
        (a, a_right), a_bond = self.bonded("a", "msd_integral", {"x0": -0.5, "h": 1e-3})
        system = placed(SystemDescription(slaves=(b, b_right, a, a_right),
                                          bonds=(b_bond, a_bond),
                                          step_policy=FixedStepPolicy(0.01)),
                        {"b": provider.address, "a": provider.address})
        calls = []
        with NetworkResolver(standard_registry) as resolver:
            run = initialize_run(system, resolver)
            try:
                for name, slave in run.slaves.items():
                    for method in ("start_step", "do_step", "finish_step"):
                        if hasattr(slave, method):
                            setattr(slave, method, counted_call(calls, f"{method}({name})",
                                                                getattr(slave, method)))
                step_once(run, 0.01)
            finally:
                run.terminate()
        assert calls == ["start_step(b)", "start_step(a)",
                         "do_step(b_right)", "do_step(a_right)",
                         "finish_step(b)", "finish_step(a)"]

    def test_an_in_process_failure_names_the_abort_before_a_remote_one(self, provider):
        # 'far' (remote, declared first) and 'near' (in process, declared
        # last) fail in the step that passes t = 0.5; their partners do not.
        (far, far_right), far_bond = self.bonded("far", "fail_after", {"t_fail": 0.5})
        (near, near_right), near_bond = self.bonded("near", "fail_after", {"t_fail": 0.5})
        system = placed(SystemDescription(slaves=(far, near_right, far_right, near),
                                          bonds=(far_bond, near_bond),
                                          step_policy=FixedStepPolicy(0.2)),
                        {"far": provider.address, "far_right": provider.address})
        ends = EndLog()
        with NetworkResolver(extended_registry()) as resolver:
            run = initialize_run(system, resolver, observers=[ends])
            assert [n for n, s in run.slaves.items() if hasattr(s, "start_step")] == [
                "far", "far_right"]
            with pytest.raises(RunAborted) as err:
                run_to_end(run)
        assert str(err.value) == "slave 'near' do_step: RuntimeError: diverged"
        assert ends.reasons == [f"aborted: {err.value}"]


class TestStepFaults:
    """Any exception out of a step ends the run through the abort path."""

    def abort(self, system, tmp_path, inject, resolver=None):
        """Run ``system`` with a fault from ``inject(run)``; check the abort.

        Returns the ``RunAborted`` and the ``MemoryObserver``.
        """
        csv, memory, ends = CsvObserver(tmp_path), MemoryObserver(), EndLog()
        run = initialize_run(system, resolver or LocalResolver(standard_registry),
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
    def test_slave_fault_names_the_slave_and_call(self, tmp_path, provider, call):
        fault = ValueError("bad call")

        def inject(run):
            right = run.slaves["right"]
            setattr(right, call, fail_on_call(3, fault, getattr(right, call)))

        system = msd_pair_system(FixedStepPolicy(0.01), t_end=1.0)
        if call == "start_step":
            # Only a slave that waits on a provider has ``start_step``.
            system = placed(system, {"right": provider.address})
        with NetworkResolver(standard_registry) as resolver:
            aborted, memory = self.abort(system, tmp_path, inject, resolver)
        assert aborted.__cause__ is fault
        assert memory.end_reason == f"aborted: slave 'right' {call}: ValueError: bad call"
        assert len(memory.records) == 2

    def test_function_unit_fault_aborts(self, tmp_path):
        fault = ArithmeticError("no sum")

        def inject(run):
            (fu,) = [fu for fu, *_ in run.plan.ops if fu is not None]
            fu.evaluate = fail_on_call(3, fault, fu.evaluate)

        system = parse_config((CONFIG_DIR / "fu_sum.cfg").read_text())
        aborted, memory = self.abort(system, tmp_path, inject)
        assert aborted.__cause__ is fault
        assert str(aborted) == "function unit 'adder': ArithmeticError: no sum"
        assert memory.end_reason == "aborted: function unit 'adder': ArithmeticError: no sum"
        assert len(memory.records) == 2


FAULTS = [("set_inputs", "raise"), ("do_step", "raise"), ("do_step", "nan_end"),
          ("get_outputs", "raise"), ("terminate", "raise")]


class TestModelFault:
    """A model that raises in ``_step`` ends the run with that exception as
    the cause, in process, or relayed as a ``CosimError`` from a provider."""

    SYSTEM = faulty_pair_system("fail_after", {"t_fail": 0.5}, FixedStepPolicy(0.2),
                                name="bad")

    def run_bad(self, system, resolver):
        """Run ``system`` until slave ``'bad'`` raises; returns the
        ``RunAborted``, the end reasons and the slaves terminated."""
        ends = EndLog()
        run = initialize_run(system, resolver, observers=[ends], step_timeout=0.5)
        terminated = []
        for name, slave in run.slaves.items():
            slave.terminate = counted_call(terminated, name, slave.terminate)
        with pytest.raises(RunAborted) as err:
            run_to_end(run)
        return err.value, ends.reasons, sorted(terminated)

    def test_in_process(self):
        aborted, reasons, terminated = self.run_bad(self.SYSTEM,
                                                    LocalResolver(extended_registry()))
        assert str(aborted) == "slave 'bad' do_step: RuntimeError: diverged"
        assert type(aborted.__cause__) is RuntimeError
        assert str(aborted.__cause__) == "diverged"
        assert reasons == [f"aborted: {aborted}"]
        assert terminated == ["bad", "right"]

    def test_a_wrong_output_count_aborts_naming_the_slave(self):
        class DropsOutputs(ModelSlave):
            DESCRIPTOR = SlaveDescriptor(
                model_id="drops_outputs",
                variables=(
                    VariableDescriptor("tau", IN, VarKind.EFFORT, NEWTON),
                    VariableDescriptor("v", OUT, VarKind.FLOW,
                                       METER_PER_SECOND),
                ),
                parameters={},
            )

            def _initialize(self, t0):
                self.outputs = [0.0]

            def _step(self, t, dt):
                self.outputs = [0.0] if t + dt < 0.5 else []

        reg = extended_registry()
        reg.register(DropsOutputs)
        system = faulty_pair_system("drops_outputs", {}, FixedStepPolicy(0.2), name="bad")
        aborted, reasons, terminated = self.run_bad(system, LocalResolver(reg))
        assert str(aborted) == "slave 'bad' get_outputs: InvalidState: model set 0 outputs for 1"
        assert type(aborted.__cause__) is InvalidState
        assert reasons == [f"aborted: {aborted}"]
        assert terminated == ["bad", "right"]

    def test_on_a_provider(self):
        prov = Provider(extended_registry(), ProviderConfig(max_slaves=1)).start()
        bad = dataclasses.replace(self.SYSTEM.slaves[0], provider=prov.address)
        system = dataclasses.replace(self.SYSTEM, slaves=(bad, self.SYSTEM.slaves[1]))
        try:
            with NetworkResolver(standard_registry) as resolver:
                aborted, reasons, terminated = self.run_bad(system, resolver)
            assert str(aborted) == "slave 'bad' do_step: CosimError: RuntimeError: diverged"
            assert type(aborted.__cause__) is CosimError
            assert str(aborted.__cause__) == "RuntimeError: diverged"
            assert reasons == [f"aborted: {aborted}"]
            assert terminated == ["bad", "right"]
            spawn_within(prov.address, 1.0)
        finally:
            prov.shutdown()


class TestFaultMatrix:
    """One slave, in process or on a provider, breaks once, at each stage
    in each way; the run ends once, terminates every slave once and
    leaves no thread."""

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
                assert "InjectedFault: terminate call 1" in reason
                assert caplog.records[0].exc_info is None
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

    @pytest.mark.parametrize("stage,mode", FAULTS, ids=["-".join(f) for f in FAULTS])
    def test_fault_on_a_provider_ends_the_run_once(self, stage, mode, caplog):
        # The provider counts the same calls, so the 4th still comes after
        # the settle pass.  A remote reason may read ``CosimError:
        # InjectedFault: ...``, so only the slave and the stage are checked.
        before = set(threading.enumerate())
        prov = Provider(extended_registry(), ProviderConfig(max_slaves=1)).start()
        params = {"stage": FaultyModel.STAGES.index(stage),
                  "call": 1 if stage == "terminate" else 4,
                  "mode": FaultyModel.MODES.index(mode)}
        system = faulty_pair_system("faulty", params, FixedStepPolicy(0.01))
        probe = dataclasses.replace(system.slaves[0], provider=prov.address)
        system = dataclasses.replace(system, slaves=(probe, system.slaves[1]))
        memory, ends = MemoryObserver(), EndLog()
        step_timeout = 0.5
        try:
            with NetworkResolver(standard_registry) as resolver:
                run = initialize_run(system, resolver, observers=[memory, ends],
                                     step_timeout=step_timeout)
                terminated = []
                for name, slave in run.slaves.items():
                    slave.terminate = counted_call(terminated, name, slave.terminate)
                started = time.monotonic()
                with caplog.at_level("DEBUG", logger="cosim.master"):
                    if stage == "terminate":
                        run_to_end(run)
                        (reason,) = [r.getMessage() for r in caplog.records
                                     if r.name == "cosim.master"]
                        assert ends.reasons == ["completed"]
                    else:
                        with pytest.raises(RunAborted) as err:
                            run_to_end(run)
                        assert time.monotonic() - started < step_timeout + 0.5
                        (reason,) = ends.reasons
                        assert reason == f"aborted: {err.value}"
                        assert len(memory.records) >= 1
            assert "slave 'probe'" in reason and stage in reason
            assert sorted(terminated) == sorted(run.slaves)
            spawn_within(prov.address, 1.0)
        finally:
            prov.shutdown()
        give_up = time.monotonic() + 1.0
        while not set(threading.enumerate()) <= before:
            assert time.monotonic() < give_up, "a thread outlived the run"
            time.sleep(0.01)


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
                self.outputs = [0.0]

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

    def test_interrupt_terminates_every_slave_created_once(self):
        # The second slave is interrupted in initialize, after the first
        # was set up and initialized; both are terminated, once each.
        terminated = []

        class Interrupting(LocalResolver):
            def create(self, spec):
                slave = super().create(spec)
                slave.terminate = counted_call(terminated, spec.name, slave.terminate)
                if spec.name == "right":
                    slave.initialize = fail_on_call(1, KeyboardInterrupt(),
                                                    slave.initialize)
                return slave

        system = msd_pair_system(FixedStepPolicy(1e-2))
        with pytest.raises(KeyboardInterrupt):
            initialize_run(system, Interrupting(standard_registry))
        assert sorted(terminated) == ["left", "right"]

    @pytest.mark.parametrize("path", sorted(CONFIG_DIR.glob("*.cfg")), ids=lambda p: p.name)
    def test_the_plan_lists_each_slave_in_descriptor_order(self, path):
        # A slave exchanges its ports in descriptor order, so the plan's
        # layout is right only where the two agree, slave by slave.
        run = initialize_run(parse_config(path.read_text()), LocalResolver(standard_registry))
        try:
            assert [name for name, _, _ in run.plan.slaves] == list(run.slaves)
            for name, ins, outs in run.plan.slaves:
                desc = run.slaves[name].descriptor()
                assert ins == tuple(v.name for v in desc.inputs())
                assert outs == tuple(v.name for v in desc.outputs())
        finally:
            run.terminate()


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
            assert run.controller is system.step_policy
            c = run.controller
            assert (c.safety, c.alpha) == (0.9, 0.25)
            assert (c.theta_min, c.theta_max) == (0.2, 4.0)
            assert (c.dt_min, c.dt_max) == (1e-4, 0.5)
            assert c.tolerance == 1e-3
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
