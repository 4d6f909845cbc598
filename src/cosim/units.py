"""Physical dimensions and multiplicative units.

A dimension is a vector of seven signed exponents over the SI base
quantities (mass, length, time, current, temperature, amount,
luminosity).  A unit is a dimension plus a positive scale factor to the
coherent SI unit of that dimension.  Only multiplicative units are
supported; affine scales such as degree Celsius are deliberately out.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DimensionMismatch


@dataclass(frozen=True)
class Dimension:
    """Exponent vector over the SI base quantities.

    Addition composes dimensions of a product; subtraction those of a
    quotient.  The zero vector is dimensionless.
    """

    exponents: tuple[int, int, int, int, int, int, int]

    def __post_init__(self):
        if len(self.exponents) != 7:
            raise ValueError("a dimension has exactly 7 exponents")
        object.__setattr__(self, "exponents", tuple(int(e) for e in self.exponents))

    def __add__(self, other: "Dimension") -> "Dimension":
        return Dimension(tuple(a + b for a, b in zip(self.exponents, other.exponents)))

    def __sub__(self, other: "Dimension") -> "Dimension":
        return Dimension(tuple(a - b for a, b in zip(self.exponents, other.exponents)))

    def __neg__(self) -> "Dimension":
        return Dimension(tuple(-a for a in self.exponents))


def dim(mass=0, length=0, time=0, current=0, temperature=0, amount=0, luminosity=0) -> Dimension:
    """Build a Dimension from named base exponents."""
    return Dimension((mass, length, time, current, temperature, amount, luminosity))


DIMENSIONLESS = dim()
WATT_DIM = dim(mass=1, length=2, time=-3)


@dataclass(frozen=True)
class Unit:
    """A named multiplicative unit: dimension plus scale to coherent SI."""

    name: str
    dimension: Dimension
    scale_to_si: float = 1.0

    def __post_init__(self):
        if not (self.scale_to_si > 0.0) or not math.isfinite(self.scale_to_si):
            raise ValueError(f"unit {self.name!r}: scale_to_si must be positive and finite")

    def __str__(self) -> str:
        return self.name


def conversion_factor(from_unit: Unit | None, to_unit: Unit | None) -> float:
    """Multiplier applied to values travelling from one port's unit to
    another's: the one rule for how two ports convert.

    A ``None`` unit is a dimension-polymorphic port and takes a value as
    it is (1.0).  Units of one dimension convert by the ratio of their
    scales, exactly 1.0 for equal scales.  Raises DimensionMismatch when
    the dimensions differ.
    """
    if from_unit is None or to_unit is None:
        return 1.0
    if from_unit.dimension != to_unit.dimension:
        raise DimensionMismatch(f"no conversion from {from_unit} to {to_unit}")
    return from_unit.scale_to_si / to_unit.scale_to_si


def is_power_conjugate(effort_unit: Unit, flow_unit: Unit) -> bool:
    """Whether effort times flow has the dimension of power (watts); the
    scale factors are irrelevant here."""
    return effort_unit.dimension + flow_unit.dimension == WATT_DIM


# Catalogue of units the built-in models and the config format speak.
ONE = Unit("1", DIMENSIONLESS)
METER = Unit("m", dim(length=1))
SECOND = Unit("s", dim(time=1))
KILOGRAM = Unit("kg", dim(mass=1))
METER_PER_SECOND = Unit("m/s", dim(length=1, time=-1))
NEWTON = Unit("N", dim(mass=1, length=1, time=-2))
KILONEWTON = Unit("kN", dim(mass=1, length=1, time=-2), 1e3)
NEWTON_METER = Unit("N*m", dim(mass=1, length=2, time=-2))
WATT = Unit("W", WATT_DIM)
VOLT = Unit("V", dim(mass=1, length=2, time=-3, current=-1))
AMPERE = Unit("A", dim(current=1))
HERTZ = Unit("Hz", dim(time=-1))
RAD_PER_SECOND = Unit("rad/s", dim(time=-1))
# One revolution is 2*pi radians, spread over 60 seconds.
RPM = Unit("rpm", dim(time=-1), 2.0 * math.pi / 60.0)
PASCAL = Unit("Pa", dim(mass=1, length=-1, time=-2))
CUBIC_METER_PER_SECOND = Unit("m^3/s", dim(length=3, time=-1))

_CATALOGUE = {
    u.name: u
    for u in (
        ONE,
        METER,
        SECOND,
        KILOGRAM,
        METER_PER_SECOND,
        NEWTON,
        KILONEWTON,
        NEWTON_METER,
        WATT,
        VOLT,
        AMPERE,
        HERTZ,
        RAD_PER_SECOND,
        RPM,
        PASCAL,
        CUBIC_METER_PER_SECOND,
    )
}


def known_units() -> tuple[str, ...]:
    return tuple(sorted(_CATALOGUE))


def parse_unit(name: str) -> Unit:
    """Look a unit up by its catalogue name (as used in config files)."""
    try:
        return _CATALOGUE[name]
    except KeyError:
        known = ", ".join(known_units())
        raise KeyError(f"unknown unit {name!r}; known units: {known}") from None
