"""Coupling-error estimation from energy residuals, and step control.

Because inputs are held constant over a macro step while outputs move,
each power bond transmits slightly different power into its two sides;
the imbalance is energy spuriously created or destroyed by the
coupling itself.  Summed and normalized, it yields a cheap error
indicator that needs no rollback and no model internals, and drives an
elementary-controller step-size law.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

# Floor on the per-bond energy scale so resting bonds do not divide by
# zero, and on epsilon inside the controller power law.
E_FLOOR = 1e-12
EPS_TINY = 1e-15


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


@dataclass(frozen=True)
class StepController:
    """Elementary step-size controller on the energy-error indicator.

    Proposes dt_next = clamp(dt * clamp(safety*(tol/eps)^alpha,
    theta_min, theta_max), dt_min, dt_max).  Pure: same inputs, same
    proposal.
    """

    tolerance: float = 1e-4
    dt_min: float = 1e-6
    dt_max: float = 1.0
    safety: float = 0.8
    alpha: float = 0.5
    theta_min: float = 0.5
    theta_max: float = 2.0

    def __post_init__(self):
        if not (0.0 < self.theta_min < 1.0 < self.theta_max):
            raise ValueError("need 0 < theta_min < 1 < theta_max")
        if not (0.0 < self.dt_min <= self.dt_max):
            raise ValueError("need 0 < dt_min <= dt_max")
        if not self.tolerance > 0.0:
            raise ValueError("tolerance must be positive")

    def propose(self, epsilon: float, dt: float) -> float:
        ratio = self.safety * (self.tolerance / max(epsilon, EPS_TINY)) ** self.alpha
        ratio = min(max(ratio, self.theta_min), self.theta_max)
        return min(max(dt * ratio, self.dt_min), self.dt_max)
