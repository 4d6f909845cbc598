"""Energy residual bookkeeping and the adaptive step policy's step-size law."""
import math
import struct

import pytest
from hypothesis import assume, given, settings, strategies as st

from cosim.energy import E_FLOOR, BondEnergy, EnergyReport, account_step
from cosim.function_units import BondLegs
from cosim.system import EPS_TINY, AdaptiveStepPolicy

finite = st.floats(min_value=-1e6, max_value=1e6,
                   allow_nan=False, allow_infinity=False)
positive = st.floats(min_value=1e-9, max_value=1e3,
                     allow_nan=False, allow_infinity=False)


# The residual-energy rule step by step: the reference that
# ``account_step``, the package's one pass over the bonds, is checked
# against bit for bit.


def bracket_powers(
    sign: float, e_held: float, f_held: float, e_new: float, f_new: float
) -> tuple[float, float]:
    """The two per-side powers a bond transmitted during a step.

    ``e_held``/``f_held`` are the effort and flow inputs latched over
    the step; ``e_new``/``f_new`` the fresh outputs at its end; all in
    SI.  ``sign`` is +1 when side a counts incoming power as positive,
    -1 when the bond is declared the other way around.
    """
    p1 = sign * e_held * f_new
    p2 = -sign * e_new * f_held
    return p1, p2


def residual_power(p1: float, p2: float) -> float:
    """Power the coupling creates out of nothing: dp = -(p1 + p2)."""
    return -(p1 + p2)


def residual_energy(dp: float, dt: float) -> float:
    """Rectangle-rule energy residual over one step."""
    return dp * dt


def error_indicator(
    bonds: list[tuple[float, float, float]], dt: float, e_floor: float = E_FLOOR
) -> float:
    """RMS of per-bond residual energies relative to transmitted energy.

    Each entry is (de, p1, p2); the scale is the mean transmitted
    energy 0.5*(|p1|+|p2|)*dt floored at ``e_floor``.  Systems without
    bonds report 0, degrading adaptive control to a fixed step.
    """
    if not bonds:
        return 0.0
    acc = 0.0
    for de, p1, p2 in bonds:
        scale = 0.5 * (abs(p1) + abs(p2)) * dt
        r = de / max(scale, e_floor)
        acc += r * r
    return math.sqrt(acc / len(bonds))


class TestResiduals:
    def test_worked_example_one_watt(self):
        # held effort 1 N, fresh flow 1 m/s vs fresh effort 2 N, held flow 1 m/s
        p1, p2 = bracket_powers(1.0, e_held=1.0, f_held=1.0, e_new=2.0, f_new=1.0)
        assert (p1, p2) == (1.0, -2.0)
        assert residual_power(p1, p2) == 1.0

    def test_energy_is_power_times_step(self):
        assert residual_energy(1.0, 0.01) == 0.01

    def test_steady_exchange_has_zero_residual(self):
        p1, p2 = bracket_powers(1.0, 3.0, -2.0, 3.0, -2.0)
        assert residual_power(p1, p2) == 0.0

    def test_orientation_flip_negates_both_powers(self):
        pa = bracket_powers(+1.0, 1.2, 0.7, 1.5, 0.9)
        pb = bracket_powers(-1.0, 1.2, 0.7, 1.5, 0.9)
        assert pb == (-pa[0], -pa[1])
        assert abs(residual_power(*pb)) == abs(residual_power(*pa))

    @given(e1=finite, f1=finite, e2=finite, f2=finite)
    def test_flip_invariance_property(self, e1, f1, e2, f2):
        dp_a = residual_power(*bracket_powers(+1.0, e1, f1, e2, f2))
        dp_b = residual_power(*bracket_powers(-1.0, e1, f1, e2, f2))
        assert dp_b == -dp_a


class TestIndicator:
    def test_no_bonds_reports_zero(self):
        assert error_indicator([], 0.1) == 0.0

    def test_unit_relative_error(self):
        # de equals the transmitted-energy scale exactly: epsilon = 1
        p1, p2 = 1.0, -2.0
        dt = 0.5
        scale = 0.5 * (abs(p1) + abs(p2)) * dt
        assert error_indicator([(scale, p1, p2)], dt) == 1.0

    def test_rms_over_bonds(self):
        dt = 0.1
        bonds = []
        for p1, p2 in ((1.0, -3.0), (2.0, -2.0)):
            scale = 0.5 * (abs(p1) + abs(p2)) * dt
            bonds.append((residual_energy(residual_power(p1, p2), dt), p1, p2))
        by_hand = math.sqrt(sum(
            (de / (0.5 * (abs(p1) + abs(p2)) * dt)) ** 2
            for de, p1, p2 in bonds) / len(bonds))
        assert error_indicator(bonds, dt) == pytest.approx(by_hand, rel=1e-15)

    def test_floor_guards_resting_bonds(self):
        eps = error_indicator([(1e-20, 0.0, 0.0)], 0.1)
        assert eps == pytest.approx(1e-20 / E_FLOOR)

    @given(e1=finite, f1=finite, e2=finite, f2=finite, dt=positive,
           scale=st.floats(min_value=1e-3, max_value=1e3))
    def test_invariant_under_global_unit_rescaling(self, e1, f1, e2, f2,
                                                   dt, scale):
        assume(abs(e1 * f2) + abs(e2 * f1) > 1e-6)

        def eps(k):
            p1, p2 = bracket_powers(1.0, k * e1, k * f1, k * e2, k * f2)
            de = residual_energy(residual_power(p1, p2), dt)
            return error_indicator([(de, p1, p2)], dt, e_floor=0.0)

        a, b = eps(1.0), eps(scale)
        if math.isfinite(a) and math.isfinite(b):
            assert b == pytest.approx(a, rel=1e-9, abs=1e-12)

    @given(e1=finite, f1=finite, e2=finite, f2=finite, dt=positive)
    def test_single_bond_indicator_bounded_by_two(self, e1, f1, e2, f2, dt):
        # |de|/scale = 2|p1+p2|/(|p1|+|p2|) <= 2 whenever the scale
        # dominates the floor
        p1, p2 = bracket_powers(1.0, e1, f1, e2, f2)
        de = residual_energy(residual_power(p1, p2), dt)
        if 0.5 * (abs(p1) + abs(p2)) * dt > E_FLOOR:
            assert error_indicator([(de, p1, p2)], dt) <= 2.0 + 1e-12


# Any double: the ones IEEE arithmetic treats apart, plain values whose
# rounding shows, and the whole range.
any_double = st.one_of(st.sampled_from([0.0, -0.0, math.inf, -math.inf, math.nan]),
                       finite, st.floats())
bond_values = st.tuples(st.sampled_from([1.0, -1.0]),  # both orientations
                        *[any_double] * 4,  # e/f held, e/f fresh
                        *[st.sampled_from([1.0, 1e-3, 0.0254, 1e3])] * 4,  # to SI
                        any_double)  # cumulative dE so far


def _bits(value):
    """A report, or any nest of tuples, with every float as its 8 bytes.

    Every NaN reads the same: IEEE 754 leaves the sign and payload of a
    NaN result open, and once a line has run a few times CPython's
    specialised float ``*`` may return the other operand's NaN.
    """
    if isinstance(value, float):
        return "nan" if math.isnan(value) else struct.pack("<d", value)
    if isinstance(value, tuple):
        return tuple(_bits(v) for v in value)
    return value


class TestFusedAccounting:
    """``account_step`` against the step-by-step reference above."""

    @settings(max_examples=300)
    @given(bonds=st.lists(bond_values, max_size=4), dt=st.one_of(positive, any_double))
    def test_bit_for_bit_with_the_helpers(self, bonds, dt):
        # Bond k reads held[2k], held[2k+1] and fresh[2k+1], fresh[2k].
        held, fresh, legs, cumulative = [], [], [], []
        for k, (sign, e_held, f_held, e_new, f_new, *si, cum) in enumerate(bonds):
            held += [e_held, f_held]
            fresh += [f_new, e_new]
            legs.append(BondLegs(f"b{k}", sign, 2 * k + 1, 2 * k, 2 * k, 2 * k + 1, *si))
            cumulative.append(cum)
        entries, reports = [], []
        for b, before in zip(legs, cumulative):
            p1, p2 = bracket_powers(b.sign, held[b.e_in] * b.e_in_si,
                                    held[b.f_in] * b.f_in_si,
                                    fresh[b.e_out] * b.e_out_si,
                                    fresh[b.f_out] * b.f_out_si)
            dp = residual_power(p1, p2)
            de = residual_energy(dp, dt)
            entries.append((de, p1, p2))
            reports.append(BondEnergy(b.name, p1, p2, dp, de, before + de))
        expected = EnergyReport(tuple(reports), error_indicator(entries, dt))

        report = account_step(tuple(legs), held, fresh, dt, cumulative)
        assert _bits(report) == _bits(expected)
        assert type(report) is EnergyReport
        assert all(type(b) is BondEnergy for b in report.bonds)
        assert _bits(tuple(cumulative)) == _bits(tuple(b.cumulative_de for b in reports))


def policy(**over) -> AdaptiveStepPolicy:
    kw = dict(dt0=0.01, tolerance=1e-4, dt_min=1e-6, dt_max=1.0)
    kw.update(over)
    return AdaptiveStepPolicy(**kw)


class TestController:
    def test_on_tolerance_fixed_point(self):
        # epsilon = tol * safety^(1/alpha) makes the raw ratio exactly 1
        c = policy()
        eps = c.tolerance * c.safety ** (1.0 / c.alpha)
        assert c.propose(eps, 0.01) == pytest.approx(0.01, rel=1e-12)

    def test_zero_error_grows_at_theta_max(self):
        c = policy()
        assert c.propose(0.0, 0.01) == pytest.approx(0.01 * c.theta_max)

    def test_huge_error_shrinks_at_theta_min(self):
        c = policy()
        assert c.propose(1e6, 0.01) == pytest.approx(0.01 * c.theta_min)

    def test_dt_clamps(self):
        c = policy(dt0=1.5e-3, dt_min=1e-3, dt_max=2e-3)
        assert c.propose(1e6, 1.1e-3) == 1e-3
        assert c.propose(0.0, 1.9e-3) == 2e-3

    def test_power_law_in_unclamped_region(self):
        c = policy(tolerance=1e-2, dt_min=1e-9, dt_max=10.0,
                   safety=1.0, alpha=0.5, theta_min=0.1, theta_max=10.0)
        # eps = 4*tol with alpha = 1/2 halves the step
        assert c.propose(4e-2, 0.2) == pytest.approx(0.1, rel=1e-12)

    def test_constructor_rejects_bad_configs(self):
        # the policy is a plain record; its bad configurations are the
        # problems that validation reports as ``bad-step-policy``
        assert policy().problems() == []
        assert policy(theta_min=1.5).problems()
        assert policy(theta_max=0.5).problems()
        assert policy(dt_min=1.0, dt_max=0.1).problems()
        assert policy(tolerance=0.0).problems()

    @given(eps=st.floats(min_value=0.0, max_value=1e6, allow_nan=False),
           dt=st.floats(min_value=1e-6, max_value=0.5))
    def test_proposal_always_within_bounds(self, eps, dt):
        c = policy()
        out = c.propose(eps, dt)
        assert c.dt_min <= out <= c.dt_max
        if c.dt_min <= dt * c.theta_min and dt * c.theta_max <= c.dt_max:
            assert dt * c.theta_min <= out <= dt * c.theta_max

    @given(eps=st.floats(min_value=1e-12, max_value=1e3),
           dt=st.floats(min_value=1e-4, max_value=0.1))
    def test_proposal_is_pure(self, eps, dt):
        c = policy()
        assert c.propose(eps, dt) == c.propose(eps, dt)

    def test_tiny_epsilon_floor_prevents_div_by_zero(self):
        c = policy()
        assert c.propose(EPS_TINY / 10, 0.01) == c.propose(0.0, 0.01)
