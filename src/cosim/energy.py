"""Coupling-error estimation from energy residuals.

Because inputs are held constant over a macro step while outputs move,
each power bond transmits slightly different power into its two sides;
the imbalance is energy spuriously created or destroyed by the
coupling itself.  Summed and normalized, it yields a cheap error
indicator that needs no rollback and no model internals.  The
step-size law it drives is ``system.AdaptiveStepPolicy.propose``.

``account_step`` is the one code for this rule; ``tests/test_energy.py``
restates it step by step as the reference it is checked against.
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


def account_step(
    bonds, held: list[float], fresh: list[float], dt: float, cumulative: list[float]
) -> EnergyReport:
    """One step's residual-energy accounting, in one pass over the bonds.

    ``bonds`` are the plan's ``BondLegs``: positions in ``held`` (the
    inputs latched over the step) and ``fresh`` (the outputs at its end)
    and their scales to SI.  ``cumulative`` holds each bond's running dE
    and is advanced in place.  The plan lays the bonds out in name order,
    so epsilon's sum does not depend on the order they are declared in.
    ``tests/test_energy.py`` keeps the rule as separate steps (the powers
    each side received, the residual power and energy, the RMS
    indicator) and checks this one pass against them bit for bit.
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
