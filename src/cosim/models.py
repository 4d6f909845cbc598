"""Built-in demonstration models, most with an internal fixed-step RK4 solver.

Each integrating model subdivides a macro step into equal micro steps
of size at most its ``h`` parameter and integrates with the classical
4th-order Runge-Kutta scheme.  ``micro_grid(dt, h)`` alone fixes the
micro steps from ``h`` as declared: ``h <= 0`` means ten of ``dt/10``.
Inputs are held constant over the macro step and parameters are read
once per step.  A model unpacks ``self.inputs`` and assigns
``self.outputs`` as lists in its ``DESCRIPTOR`` order, which is not
always the order of its state (``msd_integral`` keeps ``[x, v]`` and
outputs ``[v, x]``).  Every 2- and 3-state model runs its own fused kernel:
the micro-step loop as straight-line scalar code with the right-hand
side inline, doing each operation of ``rk4_step`` in the same order, so
its bits equal the ``rk4_step`` loop.  Terms that are constant over the
step are computed once.  Every constant is written as a float literal
(``2.0 * v2``, ``hh / 6.0``): CPython multiplies or divides a float by
an int on a slower path, and an int this small converts to its double
exactly, so the float literal gives the same IEEE operation and the same
bits, only sooner.  The one-state generators, like any other
model, use ``rk4_integrate``, the generic loop over ``rk4_step``.
``msd_differential`` integrates its one state exactly; the sources,
``sum_delay`` and ``gain_block`` have no state to integrate.
"""

from __future__ import annotations

import math
from dataclasses import replace

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
    k2 = f(t + h / 2.0, [yi + h / 2.0 * ki for yi, ki in zip(y, k1)])
    k3 = f(t + h / 2.0, [yi + h / 2.0 * ki for yi, ki in zip(y, k2)])
    k4 = f(t + h, [yi + h * ki for yi, ki in zip(y, k3)])
    return [
        yi + h / 6.0 * (k1i + 2.0 * k2i + 2.0 * k3i + k4i)
        for yi, k1i, k2i, k3i, k4i in zip(y, k1, k2, k3, k4)
    ]


def micro_grid(dt: float, h: float) -> tuple[int, float]:
    """The micro steps of a macro step for a model's ``h`` parameter:
    n = ceil(dt/h), at least 1, of size dt/n; ``h <= 0`` means ten of dt/10."""
    if h > 0.0:
        n = max(1, math.ceil(dt / h - 1e-9))
        return n, dt / n
    return 10, dt / 10.0


def rk4_integrate(f, t0, y, dt, h):
    """Integrate y' = f(t, y) over [t0, t0+dt] with ``rk4_step`` on ``micro_grid``.

    The generic loop for any state size; the built-in 2- and 3-state
    models run fused kernels that give the same bits.
    """
    n, hh = micro_grid(dt, h)
    for i in range(n):
        y = rk4_step(f, t0 + i * hh, y, hh)
    return y


def _msd_kernel(x, v, tau, m, d, k, dt, h):
    """x' = v, v' = (tau - d*v - k*x)/m over one macro step."""
    n, hh = micro_grid(dt, h)
    h2, h6 = hh / 2.0, hh / 6.0
    for _ in range(n):
        a1 = (tau - d * v - k * x) / m
        x2, v2 = x + h2 * v, v + h2 * a1
        a2 = (tau - d * v2 - k * x2) / m
        x3, v3 = x + h2 * v2, v + h2 * a2
        a3 = (tau - d * v3 - k * x3) / m
        x4, v4 = x + hh * v3, v + hh * a3
        a4 = (tau - d * v4 - k * x4) / m
        x, v = x + h6 * (v + 2.0 * v2 + 2.0 * v3 + v4), v + h6 * (a1 + 2.0 * a2 + 2.0 * a3 + a4)
    return [x, v]


def _wheel_kernel(x, v, F, z_road, kt, m2, dt, h):
    """x' = v, v' = (F - kt*(x - z_road))/m2 over one macro step.

    With ``z_road = 0.0`` this is the bare wheel: ``x - 0.0`` is x, bit for bit.
    """
    n, hh = micro_grid(dt, h)
    h2, h6 = hh / 2.0, hh / 6.0
    for _ in range(n):
        a1 = (F - kt * (x - z_road)) / m2
        x2, v2 = x + h2 * v, v + h2 * a1
        a2 = (F - kt * (x2 - z_road)) / m2
        x3, v3 = x + h2 * v2, v + h2 * a2
        a3 = (F - kt * (x3 - z_road)) / m2
        x4, v4 = x + hh * v3, v + hh * a3
        a4 = (F - kt * (x4 - z_road)) / m2
        x, v = x + h6 * (v + 2.0 * v2 + 2.0 * v3 + v4), v + h6 * (a1 + 2.0 * a2 + 2.0 * a3 + a4)
    return [x, v]


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
        x, v = self.state = [self.params["x0"], self.params["v0"]]
        self.outputs = [v, x]

    def _step(self, t, dt):
        p = self.params
        (tau,) = self.inputs
        x, v = self.state = _msd_kernel(*self.state, tau, p["m"], p["d"], p["k"], dt, p["h"])
        self.outputs = [v, x]


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
        self.outputs = [self.params["k"] * self.x, self.x]

    def _step(self, t, dt):
        m, d, k = self.params["m"], self.params["d"], self.params["k"]
        (v,) = self.inputs
        if self._prev_v is None:
            dvdt = 0.0
        else:
            dvdt = (v - self._prev_v) / self._prev_dt
        # x' = v with v constant integrates exactly.
        self.x += v * dt
        self._prev_v = v
        self._prev_dt = dt
        self.outputs = [m * dvdt + d * v + k * self.x, self.x]


_HYBRID_INTEGRAL = replace(MsdIntegral.DESCRIPTOR, model_id="msd_hybrid")
_HYBRID_DIFFERENTIAL = replace(MsdDifferential.DESCRIPTOR, model_id="msd_hybrid",
                               parameters=_HYBRID_INTEGRAL.parameters)


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
        self.outputs = [self.vel, self.x]

    def _filter_tc(self) -> float:
        h = self.params["h"]
        if h <= 0.0:
            h = self._last_h if self._last_h > 0.0 else 1e-3
        return 10.0 * h

    def switch_causality(self, target_mode: str) -> None:
        """Swap input/output roles between steps; from here on the exchange
        moves the new descriptor's ports, in its order.  Both modes have
        one input and two outputs, so only the values change."""
        if target_mode not in ("integral", "differential"):
            raise ValueError(f"unknown causality mode {target_mode!r}")
        self._require(_State.READY, "switch_causality")
        if target_mode == self._mode:
            return
        m, d, k = self.params["m"], self.params["d"], self.params["k"]
        if target_mode == "differential":
            (tau_held,) = self.inputs
            accel = (tau_held - d * self.vel - k * self.x) / m
            T = self._filter_tc()
            # Seed the filter so the force output reproduces the held
            # input exactly at the switch instant.
            self.w = self.vel - T * accel
            self.inputs = [self.vel]
            self.outputs = [tau_held, self.x]
        else:
            (self.vel,) = self.inputs
            self.inputs = [self.outputs[0]]  # the force output, held
            self.outputs = [self.vel, self.x]
        self._mode = target_mode

    def _step(self, t, dt):
        m, d, k, h = self.params["m"], self.params["d"], self.params["k"], self.params["h"]
        n, hh = micro_grid(dt, h)
        self._last_h = hh
        if self._mode == "integral":
            (tau,) = self.inputs
            self.x, self.vel = _msd_kernel(self.x, self.vel, tau, m, d, k, dt, h)
            self.outputs = [self.vel, self.x]
            return
        # x' = v, w' = (v - w)/T: x gains the same amount every micro step
        (v,) = self.inputs
        T = self._filter_tc()
        h2, h6 = hh / 2.0, hh / 6.0
        x, w = self.x, self.w
        dx = h6 * (v + 2.0 * v + 2.0 * v + v)
        for _ in range(n):
            a1 = (v - w) / T
            a2 = (v - (w + h2 * a1)) / T
            a3 = (v - (w + h2 * a2)) / T
            a4 = (v - (w + hh * a3)) / T
            x, w = x + dx, w + h6 * (a1 + 2.0 * a2 + 2.0 * a3 + a4)
        self.x, self.w = x, w
        self.outputs = [m * (v - w) / T + d * v + k * x, x]

    def energy(self) -> float:
        vel = self.vel if self._mode == "integral" else self.inputs[0]
        return 0.5 * (self.params["m"] * vel**2.0 + self.params["k"] * self.x**2.0)


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
        z, v = self.state = [self.params["z1_0"], self.params["v1_0"]]
        self.outputs = [v, z]

    def _step(self, t, dt):
        # z1' = v1, v1' = -F/m1: the acceleration is fixed over the step
        n, hh = micro_grid(dt, self.params["h"])
        h2, h6 = hh / 2.0, hh / 6.0
        (F,) = self.inputs
        a = -F / self.params["m1"]
        ah2, ahh, dv = h2 * a, hh * a, h6 * (a + 2.0 * a + 2.0 * a + a)
        z, v = self.state
        for _ in range(n):
            v2 = v + ah2
            z, v = z + h6 * (v + 2.0 * v2 + 2.0 * v2 + (v + ahh)), v + dv
        self.state = [z, v]
        self.outputs = [v, z]


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
        p = self.params
        z1, z2, v2 = self.state = [p["z1_0"], p["z2_0"], p["v2_0"]]
        self.outputs = [p["k"] * (z1 - z2) + p["d"] * (0.0 - v2), z2]  # v1 held at 0.0

    def _step(self, t, dt):
        # (y, x, v) = (z1, z2, v2), u = v1 held: y' = u, x' = v, v' = (F - kt*x)/m2
        p = self.params
        k, d, kt, m2 = p["k"], p["d"], p["kt"], p["m2"]
        (u,) = self.inputs
        n, hh = micro_grid(dt, p["h"])
        h2, h6 = hh / 2.0, hh / 6.0
        uh2, uhh, dy = h2 * u, hh * u, h6 * (u + 2.0 * u + 2.0 * u + u)
        y, x, v = self.state
        for _ in range(n):
            a1 = (k * (y - x) + d * (u - v) - kt * x) / m2
            y2, x2, v2 = y + uh2, x + h2 * v, v + h2 * a1
            a2 = (k * (y2 - x2) + d * (u - v2) - kt * x2) / m2
            x3, v3 = x + h2 * v2, v + h2 * a2
            a3 = (k * (y2 - x3) + d * (u - v3) - kt * x3) / m2
            y4, x4, v4 = y + uhh, x + hh * v3, v + hh * a3
            a4 = (k * (y4 - x4) + d * (u - v4) - kt * x4) / m2
            y, x, v = (y + dy, x + h6 * (v + 2.0 * v2 + 2.0 * v3 + v4),
                       v + h6 * (a1 + 2.0 * a2 + 2.0 * a3 + a4))
        self.state = [y, x, v]
        self.outputs = [k * (y - x) + d * (u - v), x]


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
        p = self.params
        z1, v1, z2 = self.state = [p["z1_0"], p["v1_0"], p["z2_0"]]
        self.outputs = [p["k"] * (z1 - z2) + p["d"] * (v1 - 0.0), z1]  # v2 held at 0.0

    def _step(self, t, dt):
        # (x, v, y) = (z1, v1, z2), u = v2 held: x' = v, v' = -F/m1, y' = u
        p = self.params
        k, d, m1 = p["k"], p["d"], p["m1"]
        (u,) = self.inputs
        n, hh = micro_grid(dt, p["h"])
        h2, h6 = hh / 2.0, hh / 6.0
        uh2, uhh, dy = h2 * u, hh * u, h6 * (u + 2.0 * u + 2.0 * u + u)
        x, v, y = self.state
        for _ in range(n):
            a1 = -(k * (x - y) + d * (v - u)) / m1
            x2, v2, y2 = x + h2 * v, v + h2 * a1, y + uh2
            a2 = -(k * (x2 - y2) + d * (v2 - u)) / m1
            x3, v3 = x + h2 * v2, v + h2 * a2
            a3 = -(k * (x3 - y2) + d * (v3 - u)) / m1
            x4, v4, y4 = x + hh * v3, v + hh * a3, y + uhh
            a4 = -(k * (x4 - y4) + d * (v4 - u)) / m1
            x, v, y = (x + h6 * (v + 2.0 * v2 + 2.0 * v3 + v4),
                       v + h6 * (a1 + 2.0 * a2 + 2.0 * a3 + a4), y + dy)
        self.state = [x, v, y]
        self.outputs = [k * (x - y) + d * (v - u), x]


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
        z, v = self.state = [self.params["z2_0"], self.params["v2_0"]]
        self.outputs = [v, z]

    def _step(self, t, dt):
        p = self.params
        (F,) = self.inputs
        z, v = self.state = _wheel_kernel(*self.state, F, 0.0, p["kt"], p["m2"], dt, p["h"])
        self.outputs = [v, z]


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
        z, v = self.state = [self.params["z2_0"], self.params["v2_0"]]
        self.outputs = [v, z]

    def _step(self, t, dt):
        p = self.params
        F, z_road = self.inputs
        z, v = self.state = _wheel_kernel(*self.state, F, z_road, p["kt"], p["m2"], dt, p["h"])
        self.outputs = [v, z]


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
        self.outputs = [self.V, self.params["f0"]]

    def _step(self, t, dt):
        p = self.params
        V_set, R, T = p["V_set"], p["R"], p["T"]
        (I,) = self.inputs

        def f(_t, y):
            return [(V_set - R * I - y[0]) / T]

        (self.V,) = rk4_integrate(f, t, [self.V], dt, p["h"])
        self.outputs = [self.V, p["f0"]]


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
        self.outputs = [self.I, self.params["f0"]]

    def _step(self, t, dt):
        p = self.params
        I_set, T = p["I_set"], p["T"]

        def f(_t, y):
            return [(I_set - y[0]) / T]

        (self.I,) = rk4_integrate(f, t, [self.I], dt, p["h"])
        self.outputs = [self.I, p["f0"]]


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
        self.outputs = [0.0, 0.0, self.params["Kt"] * 0.0]

    def _step(self, t, dt):
        p = self.params
        R, Ke, L = p["R"], p["Ke"], p["L"]
        Kt, b, tau_load, J = p["Kt"], p["b"], p["tau_load"], p["J"]
        (V,) = self.inputs
        n, hh = micro_grid(dt, p["h"])
        h2, h6 = hh / 2.0, hh / 6.0
        i, w = self.state
        for _ in range(n):
            p1, q1 = (V - R * i - Ke * w) / L, (Kt * i - b * w - tau_load) / J
            i2, w2 = i + h2 * p1, w + h2 * q1
            p2, q2 = (V - R * i2 - Ke * w2) / L, (Kt * i2 - b * w2 - tau_load) / J
            i3, w3 = i + h2 * p2, w + h2 * q2
            p3, q3 = (V - R * i3 - Ke * w3) / L, (Kt * i3 - b * w3 - tau_load) / J
            i4, w4 = i + hh * p3, w + hh * q3
            p4, q4 = (V - R * i4 - Ke * w4) / L, (Kt * i4 - b * w4 - tau_load) / J
            i, w = (i + h6 * (p1 + 2.0 * p2 + 2.0 * p3 + p4),
                    w + h6 * (q1 + 2.0 * q2 + 2.0 * q3 + q4))
        self.state = [i, w]
        self.outputs = [i, w, Kt * i]


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
        self.outputs = [p["bias"] + p["amp"] * math.sin(
            2.0 * math.pi * p["freq"] * t + p["phase"]
        )]


@registry.register
class BumpSource(ModelSlave):
    """Smooth displacement bump: y = height*sin(pi*(t-t0)/width)^2 inside
    [t0, t0+width], zero elsewhere; a zero width is no bump.  Evaluated
    exactly at communication points.
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
        if p["width"] and p["t0"] <= t <= p["t0"] + p["width"]:
            s = math.sin(math.pi * (t - p["t0"]) / p["width"])
            self.outputs = [p["height"] * s * s]
        else:
            self.outputs = [0.0]


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
        self.outputs = [0.0]

    def _step(self, t, dt):
        u1, u2 = self.inputs
        self.outputs = [u1 + u2]


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
        self._refresh_feedthrough()

    def _step(self, t, dt):
        self._refresh_feedthrough()

    def _refresh_feedthrough(self):
        (u,) = self.inputs
        self.outputs = [self.params["c"] * u]
