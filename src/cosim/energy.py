"""Coupling-error estimation from energy residuals.

Because inputs are held constant over a macro step while outputs move,
each power bond transmits slightly different power into its two sides;
the imbalance is energy spuriously created or destroyed by the
coupling itself.  Summed and normalized, it yields a cheap error
indicator that needs no rollback and no model internals.  The
step-size law it drives is ``system.AdaptiveStepPolicy.propose``.
"""

from __future__ import annotations

import math
from typing import NamedTuple

# Floor on the per-bond energy scale, so resting bonds do not divide by zero.
E_FLOOR = 1e-12

_new_tuple = tuple.__new__  # builds a named tuple without its Python-level __new__


class BondEnergy(NamedTuple):
    """Energy bookkeeping for one bond over one accepted step.

    p1 is the power into the side that receives the effort (held
    effort times fresh flow); p2 the power into the opposite side,
    negated so that a lossless exchange gives p1 + p2 = 0.  All values
    are SI (watts, joules).
    """

    bond: str
    p1: float
    p2: float
    dp: float
    de: float
    cumulative_de: float


class EnergyReport(NamedTuple):
    """Per-bond residuals plus the global indicator for one step."""

    bonds: tuple[BondEnergy, ...]
    epsilon: float


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


def account_step(
    bonds, held: list[float], fresh: list[float], dt: float, cumulative: list[float]
) -> EnergyReport:
    """One step's residual-energy accounting, in one pass over the bonds.

    ``bonds`` are the plan's ``BondLegs``: positions in ``held`` (the
    inputs latched over the step) and ``fresh`` (the outputs at its end)
    and their scales to SI.  ``cumulative`` holds each bond's running dE
    and is advanced in place.  The arithmetic is that of
    ``bracket_powers``, ``residual_power``, ``residual_energy`` and
    ``error_indicator``, inline and in their operation order, so the
    bits are theirs.
    """
    reports = []
    acc = 0.0
    for i, (name, sign, e_out, f_out, e_in, f_in,
            e_out_si, f_out_si, e_in_si, f_in_si) in enumerate(bonds):
        e_held = held[e_in] * e_in_si
        f_held = held[f_in] * f_in_si
        e_new = fresh[e_out] * e_out_si
        f_new = fresh[f_out] * f_out_si
        p1 = sign * e_held * f_new
        p2 = -sign * e_new * f_held
        dp = -(p1 + p2)
        de = dp * dt
        cumulative[i] = cum = cumulative[i] + de
        reports.append(_new_tuple(BondEnergy, (name, p1, p2, dp, de, cum)))
        scale = 0.5 * (abs(p1) + abs(p2)) * dt
        r = de / (E_FLOOR if E_FLOOR > scale else scale)  # max(scale, E_FLOOR)
        acc += r * r
    epsilon = math.sqrt(acc / len(reports)) if reports else 0.0
    return _new_tuple(EnergyReport, (tuple(reports), epsilon))
