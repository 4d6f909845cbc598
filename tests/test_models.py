"""Numerical behavior of the built-in models against closed-form references."""
import math
import random

import pytest
from scipy.integrate import solve_ivp

from conftest import single_slave
from cosim.errors import InvalidState
from cosim.models import micro_grid, registry, rk4_integrate, rk4_step


def march(slave, t_end, dt, inputs=None):
    """Step a slave from t=0 to t_end, optionally feeding inputs u(t),
    given by name in descriptor order.
    """
    t = 0.0
    n = round(t_end / dt)
    for i in range(n):
        if inputs is not None:
            slave.set_inputs([f(t) for f in inputs.values()])
        t = slave.do_step(t, dt)
    return t


class TestMsdIntegral:
    def test_single_step_tracks_cosine(self):
        # undamped unit oscillator from x=1: x(t) = cos(t)
        slave = single_slave("msd_integral",
                             {"m": 1.0, "d": 0.0, "k": 1.0, "x0": 1.0})
        slave.set_inputs([0.0])
        slave.do_step(0.0, 0.001)
        _, x = slave.get_outputs()
        assert abs(x - math.cos(0.001)) < 1e-9

    def test_half_second_with_fine_micro_steps(self):
        slave = single_slave("msd_integral",
                             {"m": 1.0, "d": 0.0, "k": 1.0, "x0": 1.0,
                              "h": 1e-4})
        slave.set_inputs([0.0])
        march(slave, 0.5, 0.01)
        _, x = slave.get_outputs()
        assert abs(x - math.cos(0.5)) < 1e-8

    def test_matches_reference_integrator_with_damping(self):
        params = {"m": 2.0, "d": 0.7, "k": 5.0, "x0": 0.3, "v0": -0.1,
                  "h": 1e-4}
        slave = single_slave("msd_integral", params)
        slave.set_inputs([1.5])
        march(slave, 1.0, 0.01)
        v, x = slave.get_outputs()

        def rhs(_t, y):
            return [y[1], (1.5 - 0.7 * y[1] - 5.0 * y[0]) / 2.0]

        ref = solve_ivp(rhs, (0.0, 1.0), [0.3, -0.1],
                        rtol=1e-11, atol=1e-12).y[:, -1]
        assert abs(x - ref[0]) < 1e-7
        assert abs(v - ref[1]) < 1e-7

    def test_equilibrium_is_a_fixed_point(self):
        # constant tau with x = tau/k, v = 0 stays put
        slave = single_slave("msd_integral",
                             {"m": 1.0, "d": 0.5, "k": 4.0, "x0": 0.5})
        slave.set_inputs([2.0])
        march(slave, 1.0, 0.05)
        v, x = slave.get_outputs()
        assert x == pytest.approx(0.5, abs=1e-12)
        assert v == pytest.approx(0.0, abs=1e-12)

    def test_rk4_error_shrinks_16x_per_halving(self):
        def error_at(h):
            slave = single_slave("msd_integral",
                                 {"m": 1.0, "d": 0.0, "k": 1.0, "x0": 1.0,
                                  "h": h})
            slave.set_inputs([0.0])
            slave.do_step(0.0, 0.5)
            _, x = slave.get_outputs()
            return abs(x - math.cos(0.5))

        hs = [2e-2, 1e-2, 5e-3, 2.5e-3]
        errs = [error_at(h) for h in hs]
        for coarse, fine in zip(errs, errs[1:]):
            assert 12.0 < coarse / fine < 20.0

    def test_unforced_damped_motion_is_passive(self):
        params = {"m": 1.0, "d": 0.3, "k": 2.0, "x0": 1.0, "v0": 0.5,
                  "h": 1e-3}
        slave = single_slave("msd_integral", params)
        slave.set_inputs([0.0])

        def energy():
            v, x = slave.get_outputs()
            return 0.5 * (params["m"] * v * v + params["k"] * x * x)

        e0 = energy()
        prev = e0
        t = 0.0
        for _ in range(200):
            slave.do_step(t, 0.01)
            t += 0.01
            e = energy()
            assert e <= prev + 1e-9 * e0
            prev = e


class TestMsdDifferential:
    def test_constant_velocity_reaction(self):
        # v = 1 held: x = t, dv/dt = 0, so tau = d + k*t = 2 + 3t
        slave = single_slave("msd_differential",
                             {"m": 1.0, "d": 2.0, "k": 3.0})
        march(slave, 1.0, 0.01, inputs={"v": lambda t: 1.0})
        tau, _ = slave.get_outputs()
        assert abs(tau - 5.0) < 1e-6

    def test_ramp_velocity_reaction(self):
        # v = t sampled at step starts: tau ~ m + d*t + k*t^2/2
        m, d, k = 1.0, 2.0, 3.0
        slave = single_slave("msd_differential", {"m": m, "d": d, "k": k})
        dt = 1e-3
        march(slave, 1.0, dt, inputs={"v": lambda t: t})
        tau, x = slave.get_outputs()
        t = 1.0
        # held samples lag the ramp by up to one step
        assert abs(tau - (m + d * t + k * t * t / 2)) < 4 * dt * (d + k)
        assert abs(x - t * t / 2) < dt

    def test_first_step_assumes_zero_acceleration(self):
        slave = single_slave("msd_differential",
                             {"m": 5.0, "d": 1.0, "k": 1.0})
        slave.set_inputs([2.0])
        slave.do_step(0.0, 0.1)
        tau, _ = slave.get_outputs()
        # no velocity history yet: tau = d*v + k*x only
        assert tau == pytest.approx(1.0 * 2.0 + 1.0 * 0.2, abs=1e-12)


class TestMsdHybrid:
    def make(self, **over):
        params = {"m": 1.0, "d": 0.8, "k": 2.0, "x0": 0.0, "v0": 0.0,
                  "h": 1e-3}
        params.update(over)
        return single_slave("msd_hybrid", params)

    def test_integral_mode_matches_integral_model(self):
        hybrid = self.make()
        plain = single_slave("msd_integral",
                             {"m": 1.0, "d": 0.8, "k": 2.0, "h": 1e-3})
        for slave in (hybrid, plain):
            slave.set_inputs([1.0])
            march(slave, 2.0, 0.01)
        assert hybrid.get_outputs() == plain.get_outputs()

    def test_switch_holds_force_continuous(self):
        slave = self.make()
        slave.set_inputs([1.0])
        t = march(slave, 1.0, 0.01)
        slave.switch_causality("differential")
        tau, _ = slave.get_outputs()
        assert abs(tau - 1.0) < 1e-6
        # and the force stays near the held value over the next short step
        slave.set_inputs([slave.vel])
        slave.do_step(t, 0.001)
        tau_next, _ = slave.get_outputs()
        assert abs(tau_next - 1.0) < 1e-2

    def test_switch_preserves_stored_energy(self):
        slave = self.make()
        slave.set_inputs([1.0])
        march(slave, 1.0, 0.01)
        before = slave.energy()
        slave.switch_causality("differential")
        after = slave.energy()
        assert abs(after - before) <= 1e-9 * max(before, 1e-12)
        slave.switch_causality("integral")
        assert abs(slave.energy() - before) <= 1e-9 * max(before, 1e-12)

    def test_round_trip_at_equilibrium_is_identity(self):
        slave = self.make(x0=0.5, v0=0.0)
        slave.set_inputs([1.0])  # k*x0 = 1.0 exactly
        march(slave, 0.5, 0.01)
        state = slave.get_outputs()
        slave.switch_causality("differential")
        slave.switch_causality("integral")
        assert slave.get_outputs() == state
        assert slave.mode == "integral"

    def test_descriptor_tracks_mode(self):
        slave = self.make()
        assert [v.name for v in slave.descriptor().inputs()] == ["tau"]
        slave.switch_causality("differential")
        assert [v.name for v in slave.descriptor().inputs()] == ["v"]

    def test_switch_drops_the_binding(self):
        # The old port order does not outlive a switch: with nothing called
        # in between, the exchange follows the new descriptor's order.
        slave = self.make()
        slave.set_inputs([1.0])
        assert [v.name for v in slave.descriptor().outputs()] == ["v", "x"]
        slave.switch_causality("differential")
        assert [v.name for v in slave.descriptor().outputs()] == ["tau", "x"]
        with pytest.raises(InvalidState):
            slave.set_inputs([1.0, 0.0])
        slave.set_inputs([0.5])
        assert slave.inputs == [0.5]
        assert slave.get_outputs() == [1.0, slave.x]  # the force held at the switch

    def test_rebinding_after_a_switch_moves_the_new_ports(self):
        # The new ports move across steps and a switch back, with no call
        # other than the exchange itself.
        slave = self.make(x0=0.3)
        slave.set_inputs([1.0])
        march(slave, 0.1, 0.01)
        slave.switch_causality("differential")
        slave.set_inputs([0.25])
        assert slave.inputs == [0.25]
        assert slave.get_outputs() == [1.0, slave.x]  # the force held at the switch
        slave.do_step(0.1, 0.01)
        p = slave.params
        tau = p["m"] * (0.25 - slave.w) / slave._filter_tc() + p["d"] * 0.25 + p["k"] * slave.x
        assert slave.get_outputs() == [tau, slave.x]
        with pytest.raises(InvalidState):
            slave.set_inputs([0.25, 0.0])
        slave.switch_causality("integral")
        assert [v.name for v in slave.descriptor().outputs()] == ["v", "x"]
        slave.set_inputs([-0.5])
        assert slave.inputs == [-0.5]
        assert slave.get_outputs() == [0.25, slave.x]

    def test_causality_switch_keeps_the_step_flag(self):
        # The slave reads supports_variable_step once, at initialize, so
        # both causalities must give the same value.
        slave = self.make()
        integral = slave.descriptor()
        slave.switch_causality("differential")
        differential = slave.descriptor()
        assert integral is not differential
        assert (integral.supports_variable_step
                == differential.supports_variable_step)

    def test_switch_rejects_unknown_mode(self):
        with pytest.raises(ValueError):
            self.make().switch_causality("sideways")


class TestQuarterCar:
    def test_at_rest_stays_at_rest(self):
        chassis = single_slave("quarter_car_chassis",
                               {"m1": 400.0, "z1_0": 0.0, "v1_0": 0.0,
                                "h": 1e-4})
        wheel = single_slave("quarter_car_wheel",
                             {"m2": 40.0, "kt": 1.5e5, "z2_0": 0.0,
                              "v2_0": 0.0, "h": 1e-4})
        t = 0.0
        for _ in range(100):
            chassis.set_inputs([0.0])
            wheel.set_inputs([0.0])
            chassis.do_step(t, 1e-3)
            wheel.do_step(t, 1e-3)
            t += 1e-3
        assert chassis.get_outputs() == [0.0, 0.0]
        assert wheel.get_outputs() == [0.0, 0.0]

    def test_reticulations_expose_matching_ports(self):
        a = single_slave("quarter_car_chassis_susp", {})
        b = single_slave("quarter_car_wheel_susp", {})
        assert [v.name for v in a.descriptor().inputs()] == ["v2"]
        assert "F" in [v.name for v in a.descriptor().outputs()]
        assert [v.name for v in b.descriptor().inputs()] == ["v1"]
        assert "F" in [v.name for v in b.descriptor().outputs()]


class TestSources:
    def test_sine_source_evaluates_exactly(self):
        slave = single_slave("sine_source",
                             {"amp": 2.0, "freq": 0.5, "phase": 0.25,
                              "bias": -1.0})
        assert slave.get_outputs() == [-1.0 + 2.0 * math.sin(0.25)]
        t = march(slave, 0.3, 0.1)
        expect = -1.0 + 2.0 * math.sin(2 * math.pi * 0.5 * t + 0.25)
        assert slave.get_outputs() == [expect]

    def test_bump_source_window(self):
        slave = single_slave("bump_source",
                             {"t0": 1.0, "width": 0.2, "height": 0.05})
        t, ys = 0.0, []
        for _ in range(30):
            slave.do_step(t, 0.05)
            t += 0.05
            ys.append((t, slave.get_outputs()[0]))
        for t, y in ys:
            if t < 1.0 - 1e-9 or t > 1.2 + 1e-9:
                assert y == 0.0
        peak = max(y for _, y in ys)
        # the midpoint t0 + width/2 lands on a sample, so the peak is exact
        assert peak == pytest.approx(0.05, abs=1e-9)


class TestElectrical:
    def test_generator_settles_to_setpoint(self):
        gen = single_slave("generator_voltage",
                           {"V_set": 230.0, "R": 0.5, "T": 0.05, "h": 1e-4})
        march(gen, 1.0, 1e-3, inputs={"I": lambda t: 0.0})
        v, _ = gen.get_outputs()
        assert v == pytest.approx(230.0, rel=1e-6)

    def test_generator_droops_under_load(self):
        gen = single_slave("generator_voltage",
                           {"V_set": 230.0, "R": 0.5, "T": 0.05, "h": 1e-4})
        march(gen, 1.0, 1e-3, inputs={"I": lambda t: 10.0})
        v, _ = gen.get_outputs()
        assert v == pytest.approx(230.0 - 0.5 * 10.0, rel=1e-6)

    def test_current_generator_follows_its_first_order_lag(self):
        # I' = (I_set - I)/T from I0: I(t) = I_set + (I0 - I_set)*exp(-t/T),
        # whatever the bus voltage; the frequency output stays f0.
        p = {"I_set": 10.0, "T": 0.1, "f0": 60.0, "I0": 2.0, "h": 1e-3}
        gen = single_slave("generator_current", p)
        t = 0.0
        for k in range(50):
            gen.set_inputs([230.0 + k])
            t = gen.do_step(t, 1e-2)
            I, f = gen.get_outputs()
            exact = p["I_set"] + (p["I0"] - p["I_set"]) * math.exp(-t / p["T"])
            assert abs(I - exact) < 1e-9
            assert f == p["f0"]

    def test_motor_reaches_analytic_steady_state(self):
        p = {"R": 1.0, "L": 0.01, "Ke": 0.1, "Kt": 0.1, "J": 0.05,
             "b": 0.02, "tau_load": 0.0, "h": 1e-4}
        motor = single_slave("el_motor", p)
        # slowest pole is about 0.6/s; 40 s puts the transient below 1e-9
        march(motor, 40.0, 1e-2, inputs={"V": lambda t: 12.0})
        I, omega, _ = motor.get_outputs()
        # steady state of the linear DC motor equations
        den = p["R"] * p["b"] + p["Ke"] * p["Kt"]
        assert omega == pytest.approx(12.0 * p["Kt"] / den, rel=1e-6)
        assert I == pytest.approx(12.0 * p["b"] / den, rel=1e-6)


class TestBlocks:
    def test_sum_delay_lags_one_step(self):
        slave = single_slave("sum_delay")
        slave.set_inputs([2.0, 3.0])
        assert slave.get_outputs() == [0.0]
        slave.do_step(0.0, 0.1)
        assert slave.get_outputs() == [5.0]

    def test_gain_block_feeds_through(self):
        slave = single_slave("gain_block", {"c": -2.5})
        slave.set_inputs([4.0])
        slave.do_step(0.0, 0.1)
        assert slave.get_outputs() == [-10.0]


    def test_gain_block_refreshes_on_every_set_inputs(self):
        # No step between: the output follows each input as it is set.
        slave = single_slave("gain_block", {"c": -2.5})
        for u in (4.0, -1.0, 0.0, 8.0):
            slave.set_inputs([u])
            assert slave.get_outputs() == [-2.5 * u]

    def test_models_without_feedthrough_keep_outputs_on_set_inputs(self):
        slave = single_slave("sum_delay")
        slave.set_inputs([2.0, 3.0])
        slave.do_step(0.0, 0.1)
        slave.set_inputs([7.0, 1.0])
        assert slave.get_outputs() == [5.0]


class TestRk4Kernels:
    @staticmethod
    def reference(f, t0, y, dt, h):
        """The micro-step loop over ``rk4_step`` that every size must match."""
        n = max(1, math.ceil(dt / h - 1e-9))
        hh = dt / n
        for i in range(n):
            y = rk4_step(f, t0 + i * hh, y, hh)
        return y

    def test_micro_grid_reads_the_h_parameter(self):
        # The rule ``micro_grid`` took over: ``h <= 0`` is a tenth of dt.
        rng = random.Random(0x9D)
        for dt in (1e-3, 1e-2, 0.05, 1 / 3, 7.5, *(rng.uniform(1e-6, 10.0) for _ in range(500))):
            for h in (0.0, -1.0, 1e-4, dt, 3 * dt):
                step = h if h > 0.0 else dt / 10.0
                n = max(1, math.ceil(dt / step - 1e-9))
                assert micro_grid(dt, h) == (n, dt / n), (dt, h)

    @pytest.mark.parametrize("size", [1, 2, 3, 4])
    def test_integrate_is_bit_identical_to_rk4_step(self, size):
        rng = random.Random(0x4B4 + size)
        for _ in range(2000):
            a = [[rng.uniform(-50.0, 50.0) for _ in range(size)] for _ in range(size)]
            c = [rng.uniform(-5.0, 5.0) for _ in range(size)]
            w = rng.uniform(0.0, 20.0)

            def f(t, y):  # linear with a time-varying forcing term
                s = math.sin(w * t)
                return [sum(aij * yj for aij, yj in zip(row, y)) + ci * s
                        for row, ci in zip(a, c)]

            y = [rng.choice([0.0, -0.0, rng.uniform(-1.0, 1.0)]) for _ in range(size)]
            dt = rng.choice([1e-3, 1e-2, rng.uniform(1e-4, 0.05)])
            h = rng.choice([dt, dt / 10, dt / rng.uniform(1.0, 7.5)])
            t0 = rng.uniform(0.0, 10.0)
            got = rk4_integrate(f, t0, list(y), dt, h)
            want = self.reference(f, t0, list(y), dt, h)
            assert [x.hex() for x in got] == [x.hex() for x in want]


# The right-hand sides the fused kernels replaced, as the closures each
# model passed to ``rk4_integrate``: rhs(params, inputs, h) -> f(t, y),
# with h the micro step the model asked for.
def _msd_rhs(p, u, h):
    m, d, k, tau = p["m"], p["d"], p["k"], u["tau"]

    def f(_t, y):
        return [y[1], (tau - d * y[1] - k * y[0]) / m]

    return f


def _msd_differential_rhs(p, u, h):
    v, T = u["v"], 10.0 * h

    def f(_t, y):
        return [v, (v - y[1]) / T]

    return f


def _chassis_rhs(p, u, h):
    m1, F = p["m1"], u["F"]

    def f(_t, y):
        return [y[1], -F / m1]

    return f


def _wheel_susp_rhs(p, u, h):
    k, d, kt, m2, v1 = p["k"], p["d"], p["kt"], p["m2"], u["v1"]

    def f(_t, y):
        z1, z2, v2 = y
        F = k * (z1 - z2) + d * (v1 - v2)
        return [v1, v2, (F - kt * z2) / m2]

    return f


def _chassis_susp_rhs(p, u, h):
    k, d, m1, v2 = p["k"], p["d"], p["m1"], u["v2"]

    def f(_t, y):
        z1, v1, z2 = y
        F = k * (z1 - z2) + d * (v1 - v2)
        return [v1, -F / m1, v2]

    return f


def _wheel_rhs(p, u, h):
    kt, m2, F = p["kt"], p["m2"], u["F"]

    def f(_t, y):
        return [y[1], (F - kt * y[0]) / m2]

    return f


def _wheel_road_rhs(p, u, h):
    kt, m2, F, z_road = p["kt"], p["m2"], u["F"], u["z_road"]

    def f(_t, y):
        return [y[1], (F - kt * (y[0] - z_road)) / m2]

    return f


def _motor_rhs(p, u, h):
    R, Ke, L = p["R"], p["Ke"], p["L"]
    Kt, b, tau_load, J = p["Kt"], p["b"], p["tau_load"], p["J"]
    V = u["V"]

    def f(_t, y):
        I, omega = y
        return [
            (V - R * I - Ke * omega) / L,
            (Kt * I - b * omega - tau_load) / J,
        ]

    return f


# (model id, causality mode or None, rhs, state attributes or None for
# the ``state`` list, outputs(params, inputs, h, y) as the model publishes)
FUSED = [
    ("msd_integral", None, _msd_rhs, None,
     lambda p, u, h, y: {"x": y[0], "v": y[1]}),
    ("msd_hybrid", "integral", _msd_rhs, ("x", "vel"),
     lambda p, u, h, y: {"x": y[0], "v": y[1]}),
    ("msd_hybrid", "differential", _msd_differential_rhs, ("x", "w"),
     lambda p, u, h, y: {"x": y[0], "tau": p["m"] * (u["v"] - y[1]) / (10.0 * h)
                         + p["d"] * u["v"] + p["k"] * y[0]}),
    ("quarter_car_chassis", None, _chassis_rhs, None,
     lambda p, u, h, y: {"z1": y[0], "v1": y[1]}),
    ("quarter_car_wheel_susp", None, _wheel_susp_rhs, None,
     lambda p, u, h, y: {"F": p["k"] * (y[0] - y[1]) + p["d"] * (u["v1"] - y[2]),
                         "z2": y[1]}),
    ("quarter_car_chassis_susp", None, _chassis_susp_rhs, None,
     lambda p, u, h, y: {"F": p["k"] * (y[0] - y[2]) + p["d"] * (y[1] - u["v2"]),
                         "z1": y[0]}),
    ("quarter_car_wheel", None, _wheel_rhs, None,
     lambda p, u, h, y: {"z2": y[0], "v2": y[1]}),
    ("quarter_car_wheel_road", None, _wheel_road_rhs, None,
     lambda p, u, h, y: {"z2": y[0], "v2": y[1]}),
    ("el_motor", None, _motor_rhs, None,
     lambda p, u, h, y: {"I": y[0], "omega": y[1], "tau_m": p["Kt"] * y[0]}),
]


def _signed(rng, x):
    """x, sometimes negated, now and then replaced by a signed zero."""
    r = rng.random()
    if r < 0.05:
        return 0.0
    if r < 0.1:
        return -0.0
    return -x if r < 0.2 else x


def _hexes(values):
    return [x.hex() for x in values]


class TestFusedKernels:
    """Each fused ``_step`` gives the bits of the ``rk4_step`` loop it replaced."""

    @staticmethod
    def outcome(fn):
        """What fn() returns, or the name of the exception it raises."""
        try:
            return fn()
        except ArithmeticError as exc:
            return type(exc).__name__

    @pytest.mark.parametrize("model_id, mode, rhs, attrs, publish", FUSED,
                             ids=[f"{m}-{c}" if c else m for m, c, *_ in FUSED])
    def test_step_is_bit_identical_to_the_rk4_step_loop(self, model_id, mode, rhs,
                                                         attrs, publish):
        rng = random.Random(f"fused {model_id} {mode}")
        defaults = registry.describe(model_id).parameters
        coefficients = [name for name in defaults
                        if name != "h" and not name.endswith("0")]
        grids = set()
        for _ in range(600):
            p = {name: _signed(rng, (defaults[name] or 1.0) * rng.uniform(0.2, 5.0))
                 for name in coefficients}
            dt = rng.choice([1e-3, 1e-2, rng.uniform(1e-4, 0.05)])
            p["h"] = rng.choice([0.0, dt, dt / 10, dt / rng.uniform(1.0, 7.5)])
            slave = single_slave(model_id)
            if mode == "differential":
                slave.switch_causality("differential")
            slave.params.update(p)
            p = slave.params
            h = p["h"] if p["h"] > 0.0 else dt / 10.0
            grids.add(max(1, math.ceil(dt / h - 1e-9)) > 1)
            ins, outs = slave.descriptor().inputs(), slave.descriptor().outputs()
            slave.inputs = [_signed(rng, 10.0 ** rng.uniform(-3.0, 3.0)) for _ in ins]
            u = {v.name: value for v, value in zip(ins, slave.inputs)}
            size = len(slave.state) if attrs is None else len(attrs)
            y0 = [_signed(rng, 10.0 ** rng.uniform(-3.0, 1.0)) for _ in range(size)]
            if attrs is None:
                slave.state = list(y0)
            else:
                for attr, value in zip(attrs, y0):
                    setattr(slave, attr, value)
            t0 = rng.uniform(0.0, 10.0)

            def fused():
                slave._step(t0, dt)
                y = slave.state if attrs is None else [getattr(slave, a) for a in attrs]
                return _hexes(y), _hexes(slave.outputs)

            def reference():
                y = TestRk4Kernels.reference(rhs(p, u, h), t0, list(y0), dt, h)
                published = publish(p, u, h, y)
                return _hexes(y), [published[v.name].hex() for v in outs]

            assert self.outcome(fused) == self.outcome(reference), (p, u, y0, dt)
        assert grids == {False, True}  # both n = 1 and n > 1 were drawn
