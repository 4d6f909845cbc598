"""Dimension algebra, unit conversion, and power-conjugacy checks."""
import math

import pytest
from hypothesis import given, settings, strategies as st

from cosim.errors import DimensionMismatch
from cosim.units import (
    DIMENSIONLESS,
    Dimension,
    KILONEWTON,
    METER_PER_SECOND,
    NEWTON,
    RAD_PER_SECOND,
    RPM,
    Unit,
    WATT_DIM,
    conversion_factor,
    dim,
    is_power_conjugate,
    known_units,
    parse_unit,
)

exponents = st.integers(min_value=-4, max_value=4)
dimensions = st.tuples(*([exponents] * 7)).map(Dimension)
scales = st.floats(min_value=1e-6, max_value=1e6,
                   allow_nan=False, allow_infinity=False)
finite = st.floats(min_value=-1e12, max_value=1e12,
                   allow_nan=False, allow_infinity=False)


class TestDimensionAlgebra:
    @given(dimensions, dimensions)
    @settings(max_examples=2500)
    def test_addition_commutes(self, a, b):
        assert a + b == b + a

    @given(dimensions, dimensions, dimensions)
    @settings(max_examples=2500)
    def test_addition_associates(self, a, b, c):
        assert (a + b) + c == a + (b + c)

    @given(dimensions)
    @settings(max_examples=2500)
    def test_negation_inverts(self, a):
        assert a + (-a) == DIMENSIONLESS
        assert -(-a) == a

    @given(dimensions, dimensions)
    @settings(max_examples=2500)
    def test_subtraction_is_addition_of_negation(self, a, b):
        assert a - b == a + (-b)

    def test_watt_is_force_times_velocity(self):
        assert NEWTON.dimension + METER_PER_SECOND.dimension == WATT_DIM


class TestConversion:
    @given(scales, scales, finite)
    @settings(max_examples=2500)
    def test_round_trip(self, sa, sb, value):
        d = dim(length=1)
        a = Unit("a", d, sa)
        b = Unit("b", d, sb)
        there = value * conversion_factor(a, b)
        back = there * conversion_factor(b, a)
        assert back == pytest.approx(value, rel=1e-12, abs=1e-300)

    @given(scales, finite)
    @settings(max_examples=1000)
    def test_identity_conversion_is_exact(self, s, value):
        u = Unit("u", dim(mass=1), s)
        assert conversion_factor(u, u) == 1.0
        assert value * conversion_factor(u, u) == value

    def test_kilonewton_to_newton(self):
        assert conversion_factor(KILONEWTON, NEWTON) == pytest.approx(1e3)
        assert 1.5 * conversion_factor(KILONEWTON, NEWTON) == pytest.approx(1500.0)

    def test_rad_per_second_to_rpm(self):
        # one full turn per second
        assert 2 * math.pi * conversion_factor(RAD_PER_SECOND, RPM) == pytest.approx(60.0)
        assert 60.0 * conversion_factor(RPM, RAD_PER_SECOND) == pytest.approx(2 * math.pi)

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(DimensionMismatch):
            conversion_factor(NEWTON, METER_PER_SECOND)

    def test_one_rule_for_every_pair_of_ports(self):
        # The rules ``conversion_factor`` took over, restated for ports
        # whose dimensions match: the plan's copy factor, and a value
        # conversion with its own equal-scale shortcut.
        def copy_factor(a, b):
            if a is None or b is None or a == b:
                return 1.0
            return a.scale_to_si / b.scale_to_si

        def old_convert(value, a, b):
            if a.scale_to_si == b.scale_to_si:
                return value
            return value * (a.scale_to_si / b.scale_to_si)

        catalogue = [parse_unit(name) for name in known_units()]
        values = (1.5, -0.0, 1e-300, -3e300, math.pi, math.inf, math.nan)
        for a in (None, *catalogue):
            for b in (None, *catalogue):
                if a is not None and b is not None and a.dimension != b.dimension:
                    with pytest.raises(DimensionMismatch):
                        conversion_factor(a, b)
                    continue
                assert conversion_factor(a, b).hex() == copy_factor(a, b).hex(), (a, b)
                if a is not None and b is not None:
                    assert ([(v * conversion_factor(a, b)).hex() for v in values]
                            == [old_convert(v, a, b).hex() for v in values]), (a, b)


class TestPowerConjugacy:
    def test_force_velocity_is_a_power_pair(self):
        assert is_power_conjugate(NEWTON, METER_PER_SECOND)

    def test_kilonewton_velocity_is_a_power_pair(self):
        assert is_power_conjugate(KILONEWTON, METER_PER_SECOND)

    def test_force_force_is_not(self):
        assert not is_power_conjugate(NEWTON, NEWTON)

    @given(dimensions)
    @settings(max_examples=2500)
    def test_conjugate_iff_product_is_watt(self, d):
        e = Unit("e", d)
        f = Unit("f", WATT_DIM - d)
        assert is_power_conjugate(e, f)
        g = Unit("g", WATT_DIM - d + dim(mass=1))
        assert not is_power_conjugate(e, g)


class TestCatalogue:
    def test_known_units_parse_back(self):
        for name in known_units():
            assert parse_unit(name).name == name

    def test_unknown_unit_rejected(self):
        with pytest.raises(KeyError) as err:
            parse_unit("furlong/fortnight")
        assert err.value.args[0] == ("unknown unit 'furlong/fortnight'; known units: "
                                     + ", ".join(sorted(known_units())))
