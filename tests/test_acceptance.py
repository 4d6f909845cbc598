"""End-to-end acceptance checks.

Each test covers one acceptance criterion and prints exactly one line

    ACCEPTANCE <n> <PASS|FAIL>: <detail>

so a log scrape shows the full scorecard even under pytest capture.
"""
import contextlib
import dataclasses
import math
import random
import struct
import time
from pathlib import Path

import numpy as np
import pytest
from numpy.linalg import matrix_power
from scipy.linalg import eig, solve

from cosim.config import parse_config
from cosim.errors import DimensionMismatch
from cosim.master import RunAborted, initialize_run, run_to_end
from cosim.models import registry
from cosim.net import NetworkResolver, Provider, ProviderConfig
from cosim.net.wire import (
    MessageType,
    Reader,
    Writer,
    decode_frame,
    encode_frame,
)
from cosim.observers import CsvObserver
from cosim.system import (
    AdaptiveStepPolicy,
    BondSide,
    FixedStepPolicy,
    PortRef,
    PowerBond,
    SlaveSpec,
    SystemDescription,
    validate_system,
)
from cosim.units import (
    DIMENSIONLESS,
    Dimension,
    KILONEWTON,
    NEWTON,
    RAD_PER_SECOND,
    RPM,
    Unit,
    WATT_DIM,
    conversion_factor,
    is_power_conjugate,
)

from conftest import run_system

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"
DESCRIPTORS = registry.descriptors()

# Quarter-car constants shared by several criteria (same values as the
# shipped quarter_car*.cfg examples).
M1, M2, K, D, KT = 400.0, 40.0, 1.5e4, 1.0e3, 1.5e5
Z1_0 = 0.05
T_END = 10.0

A_MATRIX = np.array([
    [0.0, 1.0, 0.0, 0.0],
    [-K / M1, -D / M1, K / M1, D / M1],
    [0.0, 0.0, 0.0, 1.0],
    [K / M2, D / M2, -(K + KT) / M2, -D / M2],
])
X0 = np.array([Z1_0, 0.0, 0.0, 0.0])

P_Z1 = PortRef("chassis", "z1")
P_Z2 = PortRef("wheel", "z2")


class _Outcome:
    ok = False
    detail = ""


@contextlib.contextmanager
def criterion(capsys, n):
    """Collects a verdict and prints the scorecard line unconditionally."""
    out = _Outcome()
    try:
        yield out
    except Exception as exc:
        with capsys.disabled():
            print(f"\nACCEPTANCE {n} FAIL: {exc!r}")
        raise
    with capsys.disabled():
        print(f"\nACCEPTANCE {n} {'PASS' if out.ok else 'FAIL'}: {out.detail}")
    assert out.ok, out.detail


def exact_states(ts):
    """Closed-form solution of the monolithic 4-state system at times ts."""
    lam, vecs = eig(A_MATRIX)
    c = solve(vecs, X0.astype(complex))
    return ((np.exp(np.outer(np.asarray(ts), lam)) * c[None, :])
            @ vecs.T).real


def chassis_wheel_system(policy, h, t_end=T_END):
    return SystemDescription(
        slaves=(
            SlaveSpec("chassis", "quarter_car_chassis_susp",
                      {"m1": M1, "k": K, "d": D, "z1_0": Z1_0, "h": h}),
            SlaveSpec("wheel", "quarter_car_wheel",
                      {"m2": M2, "kt": KT, "h": h}),
        ),
        bonds=(PowerBond("susp",
                         BondSide("chassis", "F", "v2"),
                         BondSide("wheel", "v2", "F"),
                         positive_side="a"),),
        signals=(),
        function_units=(),
        step_policy=policy,
        t_start=0.0,
        t_end=t_end,
    )


def rms_position_error(result, reference=exact_states):
    ts = [r.t_next for r in result.records]
    ref = reference(ts)
    z1 = np.array([r.outputs[P_Z1] for r in result.records])
    z2 = np.array([r.outputs[P_Z2] for r in result.records])
    err = np.concatenate([z1 - ref[:, 0], z2 - ref[:, 2]])
    return float(np.sqrt(np.mean(err ** 2)))


def load_config(name):
    return parse_config((CONFIG_DIR / name).read_text())


def shipped_configs():
    return sorted(p.name for p in CONFIG_DIR.glob("*.cfg"))


def test_01_monolithic_equivalence(capsys):
    """Split quarter car at fixed dt=1e-3 tracks a monolithic reference."""
    with criterion(capsys, 1) as out:
        system = load_config("quarter_car.cfg")
        t0 = time.perf_counter()
        result = run_system(system)
        wall = time.perf_counter() - t0

        # One micro step of the classical explicit fourth-order scheme on
        # x' = Ax is the linear map I + Ah + (Ah)^2/2 + (Ah)^3/6 +
        # (Ah)^4/24, so the h=1e-6 reference trajectory is that matrix
        # raised to the step count.  Cross-check it against the
        # closed-form solution before trusting it.
        h_ref = 1e-6
        ah = A_MATRIX * h_ref
        stage = np.eye(4)
        one_step = np.eye(4)
        for order in (1, 2, 3, 4):
            stage = stage @ ah / order
            one_step = one_step + stage
        per_macro = matrix_power(one_step, round(1e-3 / h_ref))

        states = np.empty((len(result.records), 4))
        x = X0.copy()
        for i in range(len(result.records)):
            x = per_macro @ x
            states[i] = x
        ts = [r.t_next for r in result.records]
        assert np.max(np.abs(states - exact_states(ts))) < 1e-10

        z1 = np.array([r.outputs[P_Z1] for r in result.records])
        z2 = np.array([r.outputs[P_Z2] for r in result.records])
        err = np.concatenate([z1 - states[:, 0], z2 - states[:, 2]])
        rms = float(np.sqrt(np.mean(err ** 2)))

        out.ok = rms < 1e-3 and wall < 10.0
        out.detail = (f"RMS position error {rms:.3e} m < 1e-3 m "
                      f"(runtime {wall:.1f} s < 10 s)")


def test_02_error_convergence(capsys):
    """Halving the macro step shrinks both energy and trajectory error."""
    with criterion(capsys, 2) as out:
        dts = [1e-2, 5e-3, 2.5e-3, 1.25e-3]
        rmses, energies = [], []
        for dt in dts:
            result = run_system(chassis_wheel_system(FixedStepPolicy(dt),
                                                     h=1e-4))
            rmses.append(rms_position_error(result))
            energies.append(
                abs(result.records[-1].energy.bonds[0].cumulative_de))
        slope_rms = float(np.polyfit(np.log(dts), np.log(rmses), 1)[0])
        slope_de = float(np.polyfit(np.log(dts), np.log(energies), 1)[0])

        monotone = (all(a > b for a, b in zip(rmses, rmses[1:]))
                    and all(a > b for a, b in zip(energies, energies[1:])))
        out.ok = monotone and slope_rms >= 0.9 and slope_de >= 0.9
        out.detail = (f"log-log slopes: trajectory RMS {slope_rms:.2f}, "
                      f"|cumulative dE| {slope_de:.2f}, both >= 0.9 and "
                      f"monotone over dt {dts}")


def test_03_critical_step_and_indicator(capsys):
    """Bisect the divergence onset; the indicator warns well below it."""
    def run_at(dt):
        try:
            return run_system(chassis_wheel_system(FixedStepPolicy(dt),
                                                   h=1e-4))
        except RunAborted:
            return None

    def diverged(result):
        if result is None:
            return True
        peaks = [abs(r.outputs[P_Z1]) for r in result.records]
        return not all(map(math.isfinite, peaks)) or max(peaks) > 20 * Z1_0

    def mean_epsilon(result):
        eps = [r.energy.epsilon for r in result.records]
        return sum(eps) / len(eps)

    with criterion(capsys, 3) as out:
        lo, hi = 0.010, 0.020
        assert not diverged(run_at(lo)) and diverged(run_at(hi))
        while hi - lo > 4e-5:
            mid = 0.5 * (lo + hi)
            if diverged(run_at(mid)):
                hi = mid
            else:
                lo = mid
        dt_crit = 0.5 * (lo + hi)

        eps_hot = mean_epsilon(run_at(0.9 * dt_crit))
        eps_cold = mean_epsilon(run_at(0.1 * dt_crit))
        ratio = eps_hot / eps_cold

        out.ok = hi - lo <= 4e-5 and ratio >= 10.0
        out.detail = (f"dt_crit = {dt_crit:.2g} s (bracket width "
                      f"{hi - lo:.1e}); mean epsilon at 0.9*dt_crit is "
                      f"{ratio:.1f}x the value at 0.1*dt_crit (>= 10x)")


def test_04_adaptive_beats_fixed(capsys):
    """Adaptive stepping beats a fixed run with the same step budget."""
    with criterion(capsys, 4) as out:
        policy = AdaptiveStepPolicy(dt0=3e-4, dt_min=5e-5, dt_max=5e-3,
                                    tolerance=0.05,
                                    theta_min=0.999, theta_max=1.001)
        adaptive = run_system(chassis_wheel_system(policy, h=2e-5))
        n = adaptive.steps
        fixed = run_system(chassis_wheel_system(FixedStepPolicy(T_END / n),
                                                h=2e-5))
        assert fixed.steps == n

        rms_a = rms_position_error(adaptive)
        rms_f = rms_position_error(fixed)
        reduction = (rms_f - rms_a) / rms_f * 100.0

        out.ok = rms_a < rms_f and reduction >= 30.0
        out.detail = (f"equal budget n={n}: adaptive RMS {rms_a:.3e} vs "
                      f"fixed {rms_f:.3e}, reduction {reduction:+.1f}% "
                      f"(>= 30%)")


def test_05_function_unit_zero_delay(capsys):
    """An FU sum adds no step delay; a summing slave lags one step."""
    with criterion(capsys, 5) as out:
        res_fu = run_system(load_config("fu_sum.cfg"))
        res_lag = run_system(load_config("sum_delay.cfg"))

        # Monolithic reference: the oscillator alone, fed the exact
        # summed forcing at each communication point.
        ref = registry.create("msd_integral",
                              {"m": 1.0, "d": 0.4, "k": 2.0, "h": 1e-3})
        ref.setup(0.0, 5.0)
        ref.initialize()
        worst = 0.0
        px, pv = PortRef("osc", "x"), PortRef("osc", "v")
        for r in res_fu.records:
            force = (math.sin(2 * math.pi * 0.7 * r.t)
                     + 0.5 * math.sin(2 * math.pi * 1.3 * r.t + 0.9))
            ref.set_inputs([force])
            ref.do_step(r.t, r.dt)
            v_ref, x_ref = ref.get_outputs()
            worst = max(worst, abs(r.outputs[px] - x_ref),
                        abs(r.outputs[pv] - v_ref))
        ref.terminate()

        ptau = PortRef("osc", "tau")
        f_fu = np.array([r.inputs[ptau] for r in res_fu.records])
        f_lag = np.array([r.inputs[ptau] for r in res_lag.records])
        a = f_fu - f_fu.mean()
        b = f_lag - f_lag.mean()
        lags = range(-3, 4)
        cc = [float(np.dot(b[max(0, k):len(b) + min(0, k)],
                           a[max(0, -k):len(a) + min(0, -k)]))
              for k in lags]
        peak_lag = list(lags)[int(np.argmax(cc))]
        shifted = float(np.max(np.abs(f_lag[1:] - f_fu[:-1])))

        out.ok = worst <= 1e-9 and peak_lag == 1 and shifted <= 1e-12
        out.detail = (f"FU run deviates {worst:.1e} (<= 1e-9) from the "
                      f"monolithic reference; slave-summed forcing "
                      f"cross-correlation peaks at lag {peak_lag} "
                      f"(shifted match {shifted:.1e})")


def test_06_causality_switch_continuity(capsys):
    """Swapping the hybrid model's causality leaves force and energy."""
    def switch_discontinuity(drive, n_steps):
        slave = registry.create("msd_hybrid",
                                {"m": 1.0, "d": 0.8, "k": 2.0, "h": 1e-3})
        slave.setup(0.0, 10.0)
        slave.initialize()
        dt = 1e-3
        force = 0.0
        for i in range(n_steps):
            force = drive(i * dt)
            slave.set_inputs([force])
            slave.do_step(i * dt, dt)
        v_now, _ = slave.get_outputs()
        e_before = slave.energy()
        slave.switch_causality("differential")
        slave.set_inputs([v_now])
        tau_out, _ = slave.get_outputs()
        e_after = slave.energy()
        slave.terminate()
        jump = abs(tau_out - force)
        e_rel = abs(e_after - e_before) / max(e_before, 1e-12)
        return jump, e_rel

    with criterion(capsys, 6) as out:
        jump_eq, de_eq = switch_discontinuity(lambda t: 1.0, 3000)
        jump_osc, de_osc = switch_discontinuity(
            lambda t: math.sin(2 * math.pi * 0.8 * t), 1370)

        out.ok = (jump_eq < 1e-6 and jump_osc < 1e-6
                  and de_eq < 1e-9 and de_osc < 1e-9)
        out.detail = (f"force jump {jump_eq:.1e} (equilibrium) / "
                      f"{jump_osc:.1e} (mid-oscillation) < 1e-6; relative "
                      f"energy jump {de_eq:.1e} / {de_osc:.1e} < 1e-9")


def test_07_residual_power_identities(capsys):
    """Steady bonds create no power; orientation is bookkeeping only."""
    with criterion(capsys, 7) as out:
        # Run the generator/motor pair long enough for the state to
        # freeze at the floating-point fixed point, then every further
        # step must report exactly zero residual power.
        plant = dataclasses.replace(load_config("power_plant.cfg"),
                                    t_end=10.0)
        result = run_system(plant)
        tail = result.records[-100:]
        steady = all(b.dp == 0.0 and b.de == 0.0
                     for r in tail for b in r.energy.bonds)
        steady = steady and all(r.energy.epsilon == 0.0 for r in tail)

        flipped_ok = []
        for name in shipped_configs():
            system = load_config(name)
            if not system.bonds:
                continue
            mirrored = dataclasses.replace(
                system,
                bonds=tuple(
                    dataclasses.replace(
                        b,
                        positive_side="b" if b.positive_side == "a" else "a")
                    for b in system.bonds),
            )
            res_a = run_system(system)
            res_b = run_system(mirrored)
            same = len(res_a.records) == len(res_b.records) and all(
                ra.energy.epsilon == rb.energy.epsilon
                and all(abs(ba.de) == abs(bb.de) and abs(ba.dp) == abs(bb.dp)
                        for ba, bb in zip(ra.energy.bonds, rb.energy.bonds))
                for ra, rb in zip(res_a.records, res_b.records))
            flipped_ok.append((name, same))

        assert len(flipped_ok) >= 5
        out.ok = steady and all(same for _, same in flipped_ok)
        out.detail = (f"steady-state residual power exactly 0.0 over the "
                      f"last {len(tail)} steps; orientation flip leaves "
                      f"|dE| and epsilon bit-identical on all "
                      f"{len(flipped_ok)} bonded examples")


@pytest.fixture(scope="module")
def provider_pair():
    providers = [
        Provider(registry, ProviderConfig(host="127.0.0.1", port=0)).start()
        for _ in range(2)
    ]
    yield providers
    for p in providers:
        p.shutdown()


def test_08_distributed_determinism(capsys, provider_pair, tmp_path):
    """Remote placement changes nothing; the codec loses no bits."""
    with criterion(capsys, 8) as out:
        identical = []
        for name in shipped_configs():
            system = load_config(name)
            local_dir = tmp_path / name / "local"
            remote_dir = tmp_path / name / "remote"
            local_dir.mkdir(parents=True)
            remote_dir.mkdir(parents=True)

            run_system(system, observers=[CsvObserver(local_dir)])

            placed = dataclasses.replace(
                system,
                slaves=tuple(
                    dataclasses.replace(
                        spec, provider=provider_pair[i % 2].address)
                    for i, spec in enumerate(system.slaves)),
            )
            with NetworkResolver(registry=registry) as resolver:
                run_to_end(initialize_run(placed, resolver,
                                          observers=[CsvObserver(remote_dir)]))

            same = all(
                (local_dir / f).read_bytes() == (remote_dir / f).read_bytes()
                for f in ("signals.csv", "energy.csv"))
            identical.append((name, same))

        rng = random.Random(0xC051)
        specials = [float("nan"), -0.0, 0.0, float("inf"), float("-inf"),
                    5e-324, -5e-324, -1.5]
        types = list(MessageType)
        frames = 1_000_000
        codec_ok = True
        for i in range(frames):
            w = Writer()
            floats = []
            for k in range((i % 3) + 1):
                x = (specials[(i + k) % len(specials)] if i % 31 == 0
                     else rng.uniform(-1e308, 1e308))
                floats.append(x)
                w.f64(x)
            number = rng.getrandbits(64)
            w.u64(number)
            payload = w.payload()
            mtype, back = decode_frame(encode_frame(types[i % len(types)],
                                                    payload))
            if mtype != types[i % len(types)] or back != payload:
                codec_ok = False
                break
            r = Reader(back)
            for x in floats:
                if struct.pack(">d", r.f64()) != struct.pack(">d", x):
                    codec_ok = False
            if r.u64() != number:
                codec_ok = False
            if not codec_ok:
                break

        out.ok = codec_ok and all(same for _, same in identical)
        bad = [n for n, same in identical if not same]
        out.detail = (f"{len(identical)} examples bit-identical between "
                      f"in-process and two-provider runs"
                      + (f" (mismatch: {bad})" if bad else "")
                      + f"; {frames} random frames round-tripped bit-exact")


def test_09_loop_detection(capsys):
    """Both algebraic-loop fixtures are named and refused quickly."""
    with criterion(capsys, 9) as out:
        t0 = time.perf_counter()
        named = []
        for fname, members in [
            ("loop_fu.cfg", ("fwd", "back")),
            ("loop_feedthrough.cfg", ("g1", "g2", "g3")),
        ]:
            system = parse_config((CONFIG_DIR / "invalid" / fname)
                                  .read_text())
            report = validate_system(system, DESCRIPTORS)
            loops = [f for f in report.findings
                     if f.code == "algebraic-loop"]
            ok = bool(loops) and all(
                any(m in f.message for f in loops) for m in members)
            named.append((fname, ok))
        wall = time.perf_counter() - t0

        out.ok = all(ok for _, ok in named) and wall < 10.0
        out.detail = (f"both loop fixtures rejected with findings naming "
                      f"every cycle member in {wall:.2f} s")


def test_10_unit_algebra(capsys):
    """Randomized dimension, conversion, and power-conjugacy properties."""
    with criterion(capsys, 10) as out:
        rng = random.Random(20260826)
        cases = 0

        def random_dim():
            return Dimension(tuple(rng.randint(-4, 4) for _ in range(7)))

        for _ in range(10_000):
            a, b = random_dim(), random_dim()
            assert a + b == b + a
            assert (a + b) - b == a
            assert a + (-a) == DIMENSIONLESS
            cases += 1

            d = random_dim()
            scale_a = 10.0 ** rng.uniform(-6, 6)
            scale_b = 10.0 ** rng.uniform(-6, 6)
            ua = Unit("ua", d, scale_a)
            ub = Unit("ub", d, scale_b)
            value = rng.uniform(-1e12, 1e12)
            back = value * conversion_factor(ua, ub) * conversion_factor(ub, ua)
            assert back == pytest.approx(value, rel=1e-12, abs=1e-300)
            cases += 1

            effort_dim = random_dim()
            flow_dim = WATT_DIM - effort_dim
            eu = Unit("e", effort_dim, 1.0)
            fu = Unit("f", flow_dim, 1.0)
            assert is_power_conjugate(eu, fu)
            cases += 1

            axis = rng.randrange(7)
            bumped = list(flow_dim.exponents)
            bumped[axis] += rng.choice((-1, 1))
            wrong = Unit("w", Dimension(tuple(bumped)), 1.0)
            assert not is_power_conjugate(eu, wrong)
            with pytest.raises(DimensionMismatch):
                conversion_factor(fu, wrong)
            cases += 1

        kn_factor = conversion_factor(KILONEWTON, NEWTON)
        rpm_factor = conversion_factor(RAD_PER_SECOND, RPM)
        assert kn_factor == pytest.approx(1e3, rel=1e-12)
        assert rpm_factor == pytest.approx(60.0 / (2 * math.pi), rel=1e-12)
        assert conversion_factor(NEWTON, KILONEWTON) == pytest.approx(
            1e-3, rel=1e-12)
        assert math.tau * rpm_factor == pytest.approx(60.0, rel=1e-12)
        cases += 4

        out.ok = cases >= 10_000
        out.detail = (f"{cases} randomized property cases passed, "
                      f"including kN->N (x{kn_factor:.0f}) and rad/s->rpm "
                      f"(x{rpm_factor:.4f})")
