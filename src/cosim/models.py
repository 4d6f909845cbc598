"""Built-in demonstration models, most with an internal fixed-step RK4 solver.

Each integrating model subdivides a macro step into equal micro steps
of size at most ``h`` (parameter; 0 means one tenth of the macro step)
and integrates with the classical 4th-order Runge-Kutta scheme.  Inputs
are held constant over the macro step, so the right-hand sides close
over the latched values and the parameters, read once per step.
``rk4_integrate`` unrolls the 2- and 3-state cases into scalar code
bit-identical to ``rk4_step``; one-state models take the generic loop.
``msd_differential`` integrates its one state exactly; the sources,
``sum_delay`` and ``gain_block`` have no state to integrate.
"""

from __future__ import annotations

import math

from .slave import ModelRegistry, ModelSlave, _State
from .system import Causality, SlaveDescriptor, VariableDescriptor, VarKind
from .units import (
    AMPERE,
    HERTZ,
    METER,
    METER_PER_SECOND,
    NEWTON,
    NEWTON_METER,
    RAD_PER_SECOND,
    VOLT,
)

IN = Causality.INPUT
OUT = Causality.OUTPUT


def rk4_step(f, t, y, h):
    """One classical Runge-Kutta step of size h for y' = f(t, y)."""
    k1 = f(t, y)
    k2 = f(t + h / 2, [yi + h / 2 * ki for yi, ki in zip(y, k1)])
    k3 = f(t + h / 2, [yi + h / 2 * ki for yi, ki in zip(y, k2)])
    k4 = f(t + h, [yi + h * ki for yi, ki in zip(y, k3)])
    return [
        yi + h / 6 * (k1i + 2 * k2i + 2 * k3i + k4i)
        for yi, k1i, k2i, k3i, k4i in zip(y, k1, k2, k3, k4)
    ]


def rk4_integrate(f, t0, y, dt, h):
    """Integrate over [t0, t0+dt] in ceil(dt/h) equal micro steps.

    Two and three states run as straight-line scalar code that performs
    each operation of ``rk4_step`` in the same order, so the result is
    bit-identical; other sizes loop over ``rk4_step``.
    """
    n = max(1, math.ceil(dt / h - 1e-9))
    hh = dt / n
    h2 = hh / 2
    h6 = hh / 6
    size = len(y)
    if size == 2:
        y0, y1 = y
        for i in range(n):
            t = t0 + i * hh
            a0, a1 = f(t, [y0, y1])
            b0, b1 = f(t + h2, [y0 + h2 * a0, y1 + h2 * a1])
            c0, c1 = f(t + h2, [y0 + h2 * b0, y1 + h2 * b1])
            d0, d1 = f(t + hh, [y0 + hh * c0, y1 + hh * c1])
            y0 = y0 + h6 * (a0 + 2 * b0 + 2 * c0 + d0)
            y1 = y1 + h6 * (a1 + 2 * b1 + 2 * c1 + d1)
        return [y0, y1]
    if size == 3:
        y0, y1, y2 = y
        for i in range(n):
            t = t0 + i * hh
            a0, a1, a2 = f(t, [y0, y1, y2])
            b0, b1, b2 = f(t + h2, [y0 + h2 * a0, y1 + h2 * a1, y2 + h2 * a2])
            c0, c1, c2 = f(t + h2, [y0 + h2 * b0, y1 + h2 * b1, y2 + h2 * b2])
            d0, d1, d2 = f(t + hh, [y0 + hh * c0, y1 + hh * c1, y2 + hh * c2])
            y0 = y0 + h6 * (a0 + 2 * b0 + 2 * c0 + d0)
            y1 = y1 + h6 * (a1 + 2 * b1 + 2 * c1 + d1)
            y2 = y2 + h6 * (a2 + 2 * b2 + 2 * c2 + d2)
        return [y0, y1, y2]
    for i in range(n):
        y = rk4_step(f, t0 + i * hh, y, hh)
    return y


def micro_step(params: dict[str, float], dt: float) -> float:
    h = params.get("h", 0.0)
    return h if h > 0.0 else dt / 10.0


registry = ModelRegistry()


@registry.register
class MsdIntegral(ModelSlave):
    """Mass-spring-damper in integral causality: force in, motion out.

    States x (position) and v (velocity) obey x' = v,
    v' = (tau - d*v - k*x)/m with the force input tau held over the
    step.
    """

    DESCRIPTOR = SlaveDescriptor(
        model_id="msd_integral",
        variables=(
            VariableDescriptor("tau", IN, VarKind.EFFORT, NEWTON),
            VariableDescriptor("v", OUT, VarKind.FLOW, METER_PER_SECOND),
            VariableDescriptor("x", OUT, VarKind.SIGNAL, METER),
        ),
        parameters={"m": 1.0, "d": 1.0, "k": 1.0, "x0": 0.0, "v0": 0.0, "h": 0.0},
    )

    def _initialize(self, t0):
        self.state = [self.params["x0"], self.params["v0"]]
        self._publish()

    def _step(self, t, dt):
        m, d, k = self.params["m"], self.params["d"], self.params["k"]
        tau = self.inputs["tau"]

        def f(_t, y):
            return [y[1], (tau - d * y[1] - k * y[0]) / m]

        self.state = rk4_integrate(f, t, self.state, dt, micro_step(self.params, dt))
        self._publish()

    def _publish(self):
        self.outputs["x"] = self.state[0]
        self.outputs["v"] = self.state[1]

    def energy(self) -> float:
        return 0.5 * (self.params["m"] * self.state[1] ** 2 + self.params["k"] * self.state[0] ** 2)


@registry.register
class MsdDifferential(ModelSlave):
    """Mass-spring-damper in differential causality: velocity in, force out.

    Only the position state remains; tau = m*dv/dt + d*v + k*x.  The
    acceleration is approximated by a backward difference over the
    latched macro inputs, (v_i - v_{i-1})/dt_{i-1}, and is zero on the
    first step.
    """

    DESCRIPTOR = SlaveDescriptor(
        model_id="msd_differential",
        variables=(
            VariableDescriptor("v", IN, VarKind.FLOW, METER_PER_SECOND),
            VariableDescriptor("tau", OUT, VarKind.EFFORT, NEWTON),
            VariableDescriptor("x", OUT, VarKind.SIGNAL, METER),
        ),
        parameters={"m": 1.0, "d": 1.0, "k": 1.0, "x0": 0.0, "h": 0.0},
    )

    def _initialize(self, t0):
        self.x = self.params["x0"]
        self._prev_v: float | None = None
        self._prev_dt = 0.0
        self.outputs["x"] = self.x
        self.outputs["tau"] = self.params["k"] * self.x

    def _step(self, t, dt):
        m, d, k = self.params["m"], self.params["d"], self.params["k"]
        v = self.inputs["v"]
        if self._prev_v is None:
            dvdt = 0.0
        else:
            dvdt = (v - self._prev_v) / self._prev_dt
        # x' = v with v constant integrates exactly.
        self.x += v * dt
        self._prev_v = v
        self._prev_dt = dt
        self.outputs["x"] = self.x
        self.outputs["tau"] = m * dvdt + d * v + k * self.x


_HYBRID_INTEGRAL = SlaveDescriptor(
    model_id="msd_hybrid",
    variables=(
        VariableDescriptor("tau", IN, VarKind.EFFORT, NEWTON),
        VariableDescriptor("v", OUT, VarKind.FLOW, METER_PER_SECOND),
        VariableDescriptor("x", OUT, VarKind.SIGNAL, METER),
    ),
    parameters={"m": 1.0, "d": 1.0, "k": 1.0, "x0": 0.0, "v0": 0.0, "h": 0.0},
)

_HYBRID_DIFFERENTIAL = SlaveDescriptor(
    model_id="msd_hybrid",
    variables=(
        VariableDescriptor("v", IN, VarKind.FLOW, METER_PER_SECOND),
        VariableDescriptor("tau", OUT, VarKind.EFFORT, NEWTON),
        VariableDescriptor("x", OUT, VarKind.SIGNAL, METER),
    ),
    parameters=_HYBRID_INTEGRAL.parameters,
)


@registry.register
class MsdHybrid(ModelSlave):
    """Mass-spring-damper that can swap causality between steps.

    In integral mode it behaves like the force-in model.  Switching to
    differential mode replaces the velocity state with a first-order
    low-pass filter state w (time constant T = 10 micro steps) so the
    force output stays continuous: tau = m*(v - w)/T + d*v + k*x.
    Switching back adopts the latched velocity input as the recovered
    velocity state, which keeps the flow output and the energy
    0.5*(m*v^2 + k*x^2) continuous.
    """

    DESCRIPTOR = _HYBRID_INTEGRAL

    def __init__(self, parameters=None):
        super().__init__(parameters)
        self._mode = "integral"
        self._last_h = 0.0

    def descriptor(self) -> SlaveDescriptor:
        return _HYBRID_INTEGRAL if self._mode == "integral" else _HYBRID_DIFFERENTIAL

    @property
    def mode(self) -> str:
        return self._mode

    def _initialize(self, t0):
        self.x = self.params["x0"]
        self.vel = self.params["v0"]
        self.w = self.vel
        self.outputs["x"] = self.x
        self.outputs["v"] = self.vel

    def _filter_tc(self) -> float:
        h = self.params["h"]
        if h <= 0.0:
            h = self._last_h if self._last_h > 0.0 else 1e-3
        return 10.0 * h

    def switch_causality(self, target_mode: str) -> None:
        """Swap input/output roles between steps; the slave must be bound anew."""
        if target_mode not in ("integral", "differential"):
            raise ValueError(f"unknown causality mode {target_mode!r}")
        self._require(_State.READY, "switch_causality")
        if target_mode == self._mode:
            return
        m, d, k = self.params["m"], self.params["d"], self.params["k"]
        if target_mode == "differential":
            tau_held = self.inputs["tau"]
            accel = (tau_held - d * self.vel - k * self.x) / m
            T = self._filter_tc()
            # Seed the filter so the force output reproduces the held
            # input exactly at the switch instant.
            self.w = self.vel - T * accel
            self.inputs = {"v": self.vel}
            self.outputs = {"tau": tau_held, "x": self.x}
        else:
            v_held = self.inputs["v"]
            tau_now = self.outputs["tau"]
            self.vel = v_held
            self.inputs = {"tau": tau_now}
            self.outputs = {"v": self.vel, "x": self.x}
        self._mode = target_mode
        self._binding = None

    def _step(self, t, dt):
        m, d, k = self.params["m"], self.params["d"], self.params["k"]
        h = micro_step(self.params, dt)
        self._last_h = h
        if self._mode == "integral":
            tau = self.inputs["tau"]

            def f(_t, y):
                return [y[1], (tau - d * y[1] - k * y[0]) / m]

            self.x, self.vel = rk4_integrate(f, t, [self.x, self.vel], dt, h)
            self.outputs["x"] = self.x
            self.outputs["v"] = self.vel
        else:
            v = self.inputs["v"]
            T = self._filter_tc()

            def f(_t, y):
                return [v, (v - y[1]) / T]

            self.x, self.w = rk4_integrate(f, t, [self.x, self.w], dt, h)
            self.outputs["x"] = self.x
            self.outputs["tau"] = m * (v - self.w) / T + d * v + k * self.x

    def energy(self) -> float:
        vel = self.vel if self._mode == "integral" else self.inputs["v"]
        return 0.5 * (self.params["m"] * vel**2 + self.params["k"] * self.x**2)


@registry.register
class QuarterCarChassis(ModelSlave):
    """Quarter-car chassis as a bare mass: suspension force in, motion out."""

    DESCRIPTOR = SlaveDescriptor(
        model_id="quarter_car_chassis",
        variables=(
            VariableDescriptor("F", IN, VarKind.EFFORT, NEWTON),
            VariableDescriptor("v1", OUT, VarKind.FLOW, METER_PER_SECOND),
            VariableDescriptor("z1", OUT, VarKind.SIGNAL, METER),
        ),
        parameters={"m1": 400.0, "z1_0": 0.05, "v1_0": 0.0, "h": 0.0},
    )

    def _initialize(self, t0):
        self.state = [self.params["z1_0"], self.params["v1_0"]]
        self._publish()

    def _step(self, t, dt):
        m1 = self.params["m1"]
        F = self.inputs["F"]

        def f(_t, y):
            return [y[1], -F / m1]

        self.state = rk4_integrate(f, t, self.state, dt, micro_step(self.params, dt))
        self._publish()

    def _publish(self):
        self.outputs["z1"] = self.state[0]
        self.outputs["v1"] = self.state[1]


@registry.register
class QuarterCarWheelSusp(ModelSlave):
    """Quarter-car wheel hosting the suspension spring-damper.

    Receives the chassis velocity, integrates its own copy of the
    chassis position, and returns the suspension force
    F = k*(z1 - z2) + d*(v1 - v2).  The tire spring k_t couples the
    wheel to the ground.
    """

    DESCRIPTOR = SlaveDescriptor(
        model_id="quarter_car_wheel_susp",
        variables=(
            VariableDescriptor("v1", IN, VarKind.FLOW, METER_PER_SECOND),
            VariableDescriptor("F", OUT, VarKind.EFFORT, NEWTON),
            VariableDescriptor("z2", OUT, VarKind.SIGNAL, METER),
        ),
        parameters={
            "m2": 40.0,
            "k": 1.5e4,
            "d": 1.0e3,
            "kt": 1.5e5,
            "z1_0": 0.05,
            "z2_0": 0.0,
            "v2_0": 0.0,
            "h": 0.0,
        },
    )

    def _initialize(self, t0):
        self.state = [self.params["z1_0"], self.params["z2_0"], self.params["v2_0"]]
        self._publish(0.0)

    def _step(self, t, dt):
        p = self.params
        k, d, kt, m2 = p["k"], p["d"], p["kt"], p["m2"]
        v1 = self.inputs["v1"]

        def f(_t, y):
            z1, z2, v2 = y
            F = k * (z1 - z2) + d * (v1 - v2)
            return [v1, v2, (F - kt * z2) / m2]

        self.state = rk4_integrate(f, t, self.state, dt, micro_step(p, dt))
        self._publish(v1)

    def _publish(self, v1):
        z1, z2, v2 = self.state
        self.outputs["F"] = self.params["k"] * (z1 - z2) + self.params["d"] * (v1 - v2)
        self.outputs["z2"] = z2


@registry.register
class QuarterCarChassisSusp(ModelSlave):
    """Quarter-car chassis hosting the suspension spring-damper.

    The complementary cut: receives the wheel velocity, integrates its
    own copy of the wheel position, outputs the suspension force.
    """

    DESCRIPTOR = SlaveDescriptor(
        model_id="quarter_car_chassis_susp",
        variables=(
            VariableDescriptor("v2", IN, VarKind.FLOW, METER_PER_SECOND),
            VariableDescriptor("F", OUT, VarKind.EFFORT, NEWTON),
            VariableDescriptor("z1", OUT, VarKind.SIGNAL, METER),
        ),
        parameters={
            "m1": 400.0,
            "k": 1.5e4,
            "d": 1.0e3,
            "z1_0": 0.05,
            "z2_0": 0.0,
            "v1_0": 0.0,
            "h": 0.0,
        },
    )

    def _initialize(self, t0):
        self.state = [self.params["z1_0"], self.params["v1_0"], self.params["z2_0"]]
        self._publish(0.0)

    def _step(self, t, dt):
        p = self.params
        k, d, m1 = p["k"], p["d"], p["m1"]
        v2 = self.inputs["v2"]

        def f(_t, y):
            z1, v1, z2 = y
            F = k * (z1 - z2) + d * (v1 - v2)
            return [v1, -F / m1, v2]

        self.state = rk4_integrate(f, t, self.state, dt, micro_step(p, dt))
        self._publish(v2)

    def _publish(self, v2):
        z1, v1, z2 = self.state
        self.outputs["F"] = self.params["k"] * (z1 - z2) + self.params["d"] * (v1 - v2)
        self.outputs["z1"] = z1


@registry.register
class QuarterCarWheel(ModelSlave):
    """Quarter-car wheel as a mass on the tire spring: force in, motion out."""

    DESCRIPTOR = SlaveDescriptor(
        model_id="quarter_car_wheel",
        variables=(
            VariableDescriptor("F", IN, VarKind.EFFORT, NEWTON),
            VariableDescriptor("v2", OUT, VarKind.FLOW, METER_PER_SECOND),
            VariableDescriptor("z2", OUT, VarKind.SIGNAL, METER),
        ),
        parameters={"m2": 40.0, "kt": 1.5e5, "z2_0": 0.0, "v2_0": 0.0, "h": 0.0},
    )

    def _initialize(self, t0):
        self.state = [self.params["z2_0"], self.params["v2_0"]]
        self._publish()

    def _step(self, t, dt):
        p = self.params
        kt, m2 = p["kt"], p["m2"]
        F = self.inputs["F"]

        def f(_t, y):
            return [y[1], (F - kt * y[0]) / m2]

        self.state = rk4_integrate(f, t, self.state, dt, micro_step(p, dt))
        self._publish()

    def _publish(self):
        self.outputs["z2"] = self.state[0]
        self.outputs["v2"] = self.state[1]


@registry.register
class QuarterCarWheelRoad(ModelSlave):
    """Quarter-car wheel with a road profile input.

    Like the bare wheel, but the tire spring reacts to the road
    displacement: v2' = (F - kt*(z2 - z_road))/m2.
    """

    DESCRIPTOR = SlaveDescriptor(
        model_id="quarter_car_wheel_road",
        variables=(
            VariableDescriptor("F", IN, VarKind.EFFORT, NEWTON),
            VariableDescriptor("z_road", IN, VarKind.SIGNAL, METER),
            VariableDescriptor("v2", OUT, VarKind.FLOW, METER_PER_SECOND),
            VariableDescriptor("z2", OUT, VarKind.SIGNAL, METER),
        ),
        parameters={"m2": 40.0, "kt": 1.5e5, "z2_0": 0.0, "v2_0": 0.0, "h": 0.0},
    )

    def _initialize(self, t0):
        self.state = [self.params["z2_0"], self.params["v2_0"]]
        self._publish()

    def _step(self, t, dt):
        p = self.params
        kt, m2 = p["kt"], p["m2"]
        F = self.inputs["F"]
        z_road = self.inputs["z_road"]

        def f(_t, y):
            return [y[1], (F - kt * (y[0] - z_road)) / m2]

        self.state = rk4_integrate(f, t, self.state, dt, micro_step(p, dt))
        self._publish()

    def _publish(self):
        self.outputs["z2"] = self.state[0]
        self.outputs["v2"] = self.state[1]


@registry.register
class GeneratorVoltage(ModelSlave):
    """Behavioral generator in voltage-setting mode.

    First-order voltage dynamics with a resistive droop on the drawn
    current: V' = (V_set - R*I - V)/T.  Also reports a constant grid
    frequency signal.
    """

    DESCRIPTOR = SlaveDescriptor(
        model_id="generator_voltage",
        variables=(
            VariableDescriptor("I", IN, VarKind.FLOW, AMPERE),
            VariableDescriptor("V", OUT, VarKind.EFFORT, VOLT),
            VariableDescriptor("f", OUT, VarKind.SIGNAL, HERTZ),
        ),
        parameters={"V_set": 230.0, "R": 0.5, "T": 0.1, "f0": 50.0, "V0": 0.0, "h": 0.0},
    )

    def _initialize(self, t0):
        self.V = self.params["V0"]
        self.outputs["V"] = self.V
        self.outputs["f"] = self.params["f0"]

    def _step(self, t, dt):
        p = self.params
        V_set, R, T = p["V_set"], p["R"], p["T"]
        I = self.inputs["I"]

        def f(_t, y):
            return [(V_set - R * I - y[0]) / T]

        (self.V,) = rk4_integrate(f, t, [self.V], dt, micro_step(p, dt))
        self.outputs["V"] = self.V


@registry.register
class GeneratorCurrent(ModelSlave):
    """Behavioral generator in current-source mode: bus voltage in, current out."""

    DESCRIPTOR = SlaveDescriptor(
        model_id="generator_current",
        variables=(
            VariableDescriptor("V", IN, VarKind.EFFORT, VOLT),
            VariableDescriptor("I", OUT, VarKind.FLOW, AMPERE),
            VariableDescriptor("f", OUT, VarKind.SIGNAL, HERTZ),
        ),
        parameters={"I_set": 10.0, "T": 0.1, "f0": 50.0, "I0": 0.0, "h": 0.0},
    )

    def _initialize(self, t0):
        self.I = self.params["I0"]
        self.outputs["I"] = self.I
        self.outputs["f"] = self.params["f0"]

    def _step(self, t, dt):
        p = self.params
        I_set, T = p["I_set"], p["T"]

        def f(_t, y):
            return [(I_set - y[0]) / T]

        (self.I,) = rk4_integrate(f, t, [self.I], dt, micro_step(p, dt))
        self.outputs["I"] = self.I


@registry.register
class ElMotor(ModelSlave):
    """DC motor toy: bus voltage in, drawn current and shaft speed out.

    L*I' = V - R*I - Ke*omega, J*omega' = Kt*I - b*omega - tau_load.
    """

    DESCRIPTOR = SlaveDescriptor(
        model_id="el_motor",
        variables=(
            VariableDescriptor("V", IN, VarKind.EFFORT, VOLT),
            VariableDescriptor("I", OUT, VarKind.FLOW, AMPERE),
            VariableDescriptor("omega", OUT, VarKind.SIGNAL, RAD_PER_SECOND),
            VariableDescriptor("tau_m", OUT, VarKind.SIGNAL, NEWTON_METER),
        ),
        parameters={
            "R": 1.0,
            "L": 0.05,
            "Ke": 0.5,
            "Kt": 0.5,
            "J": 0.1,
            "b": 0.2,
            "tau_load": 0.0,
            "h": 0.0,
        },
    )

    def _initialize(self, t0):
        self.state = [0.0, 0.0]
        self._publish()

    def _step(self, t, dt):
        p = self.params
        R, Ke, L = p["R"], p["Ke"], p["L"]
        Kt, b, tau_load, J = p["Kt"], p["b"], p["tau_load"], p["J"]
        V = self.inputs["V"]

        def f(_t, y):
            I, omega = y
            return [
                (V - R * I - Ke * omega) / L,
                (Kt * I - b * omega - tau_load) / J,
            ]

        self.state = rk4_integrate(f, t, self.state, dt, micro_step(p, dt))
        self._publish()

    def _publish(self):
        I, omega = self.state
        self.outputs["I"] = I
        self.outputs["omega"] = omega
        self.outputs["tau_m"] = self.params["Kt"] * I


@registry.register
class SineSource(ModelSlave):
    """Signal source y = bias + amp*sin(2*pi*freq*t + phase), evaluated exactly."""

    DESCRIPTOR = SlaveDescriptor(
        model_id="sine_source",
        variables=(VariableDescriptor("y", OUT, VarKind.SIGNAL, None),),
        parameters={"amp": 1.0, "freq": 1.0, "phase": 0.0, "bias": 0.0},
    )

    def _initialize(self, t0):
        self._emit(t0)

    def _step(self, t, dt):
        self._emit(t + dt)

    def _emit(self, t):
        p = self.params
        self.outputs["y"] = p["bias"] + p["amp"] * math.sin(
            2.0 * math.pi * p["freq"] * t + p["phase"]
        )


@registry.register
class BumpSource(ModelSlave):
    """Smooth displacement bump: y = height*sin(pi*(t-t0)/width)^2 inside
    [t0, t0+width], zero elsewhere.  Evaluated exactly at communication
    points.
    """

    DESCRIPTOR = SlaveDescriptor(
        model_id="bump_source",
        variables=(VariableDescriptor("y", OUT, VarKind.SIGNAL, None),),
        parameters={"t0": 1.0, "width": 0.1, "height": 0.05},
    )

    def _initialize(self, t0):
        self._emit(t0)

    def _step(self, t, dt):
        self._emit(t + dt)

    def _emit(self, t):
        p = self.params
        if p["t0"] <= t <= p["t0"] + p["width"]:
            s = math.sin(math.pi * (t - p["t0"]) / p["width"])
            self.outputs["y"] = p["height"] * s * s
        else:
            self.outputs["y"] = 0.0


@registry.register
class SumDelay(ModelSlave):
    """Adder realized as a subsimulator: y at step end is the sum of the
    inputs held over the step, so the result lags the sources by one
    macro step.  Declares no variable-step support, which forces the
    master into fixed-step mode.
    """

    DESCRIPTOR = SlaveDescriptor(
        model_id="sum_delay",
        variables=(
            VariableDescriptor("u1", IN, VarKind.SIGNAL, None),
            VariableDescriptor("u2", IN, VarKind.SIGNAL, None),
            VariableDescriptor("y", OUT, VarKind.SIGNAL, None),
        ),
        parameters={},
        supports_variable_step=False,
    )

    def _initialize(self, t0):
        self.outputs["y"] = 0.0

    def _step(self, t, dt):
        self.outputs["y"] = self.inputs["u1"] + self.inputs["u2"]


@registry.register
class GainBlock(ModelSlave):
    """Pure gain y = c*u with direct feedthrough; exists to build
    same-instant dependency chains (and loops) through slaves.
    """

    DESCRIPTOR = SlaveDescriptor(
        model_id="gain_block",
        variables=(
            VariableDescriptor("u", IN, VarKind.SIGNAL, None),
            VariableDescriptor("y", OUT, VarKind.SIGNAL, None, direct_feedthrough=True),
        ),
        parameters={"c": 1.0},
    )

    def _initialize(self, t0):
        self.outputs["y"] = self.params["c"] * self.inputs["u"]

    def _step(self, t, dt):
        self.outputs["y"] = self.params["c"] * self.inputs["u"]

    def _refresh_feedthrough(self):
        self.outputs["y"] = self.params["c"] * self.inputs["u"]
