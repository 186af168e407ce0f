"""Reference evaluation of the type-II outcome-group formulas, one group at
a time.

This is the per-group evaluation `formulas` had before the five group
formulas shared one evaluation per input: each group's probability and
fidelity recompute the loss factors and the input's angle parts on every
call.  `formulas` keeps every expression and the summation order of this
code, so its values must equal these exactly, not merely to rounding.
"""

from __future__ import annotations

import math

from hybrid_teleport.encoding import BlochAngles
from hybrid_teleport.protocol import DEFAULT_QUADRATURE, SphereQuadrature


def damped_overlap(alpha: float, t: float) -> float:
    """<t*alpha | -t*alpha>, the surviving coherent-branch overlap."""
    if (alpha * t) * (alpha * t) == math.inf:
        raise OverflowError(f"damped overlap exp(-2(alpha t)^2) overflows at alpha t = {alpha * t:.3g}")
    return math.exp(-2.0 * (alpha * t) ** 2)


def cross_dephasing(alpha: float, t: float) -> float:
    """Decay of coherent off-diagonal blocks after symmetric two-arm loss."""
    r2 = 1.0 - t * t
    return math.exp(-4.0 * alpha * alpha * r2)


def _angle_parts(angles: BlochAngles) -> tuple:
    """(|mu|^2, |nu|^2, 2Re(mu nu*), 2Re(mu^2 nu*^2), mu nu*)."""
    mu, nu = angles.mu, angles.nu
    mn = mu * nu.conjugate()
    return abs(mu) ** 2, abs(nu) ** 2, 2.0 * mn.real, 2.0 * (mn * mn).real, mn


def group_probability(i: int, alpha: float, t: float, angles: BlochAngles) -> float:
    """Total probability of group i (angle-dependent only for group 5)."""
    e = damped_overlap(alpha, t)
    if i == 1:
        return 0.25 * (1.0 - e) * (1.0 + t * e)
    if i == 2:
        return 0.25 * (1.0 - e) * (1.0 - t * e)
    if i == 3:
        return 0.25 * (1.0 - e) ** 2
    if i == 4:
        return 0.25 * (1.0 - e) * (1.0 + e)
    if i == 5:
        _, _, c1, _, _ = _angle_parts(angles)
        return 0.5 * e * (1.0 - c1 * (1.0 - t * t))
    raise ValueError(f"group index {i} out of range 1..5")


def group_fidelity(i: int, alpha: float, t: float, angles: BlochAngles) -> float:
    """Fidelity of group i's conditional state with the ideal output."""
    m2, n2, c1, c2, _ = _angle_parts(angles)
    quart = m2 * m2 + n2 * n2
    mixed = 2.0 * m2 * n2
    r2 = 1.0 - t * t
    e = damped_overlap(alpha, t)
    deph = cross_dephasing(alpha, t)
    e4t = math.exp(-4.0 * (alpha * t) ** 2)
    e4 = math.exp(-4.0 * alpha * alpha)
    half_p = 0.5 * (t * t + t)
    half_m = 0.5 * (t * t - t)
    if i in (1, 2, 3, 4):
        s = t if i in (1, 2) else t * t
        sign = 1.0 if i in (1, 3) else -1.0
        return (
            quart * 0.5 * (1.0 + t)
            + mixed * (0.5 * (1.0 - t) * e4t + s * half_p * deph)
            + c2 * s * half_m * e4
            + sign * c1 * 0.5 * r2 * e
        )
    if i == 5:
        den = 1.0 - c1 * r2
        if den <= 0.0:
            raise ValueError("group 5 normalizer is not positive")
        a_ = 0.5 * (1.0 + t)
        b_ = 0.5 * (1.0 - t)
        return (
            quart * (a_ * a_ + b_ * b_ * e4t)
            + mixed
            * (
                0.25 * r2 * (1.0 + e * e + 2.0 * r2 * e)
                + half_p**2 * deph
                + half_m**2 * e4
            )
            + c2 * (0.5 * r2 * r2 * e + half_p * half_m * (deph + e4))
            - c1 * 0.5 * r2 * (1.0 + e) * (a_ + b_ * e)
        ) / den
    raise ValueError(f"group index {i} out of range 1..5")


def group_sums(alpha: float, t: float, angles: BlochAngles) -> tuple:
    """(sum_i p_i, sum_i p_i f_i) over the five outcome groups for one input."""
    num = 0.0
    den = 0.0
    for i in range(1, 6):
        p = group_probability(i, alpha, t, angles)
        num += p * group_fidelity(i, alpha, t, angles)
        den += p
    return den, num


def average_fidelity_quadrature(
    alpha: float, t: float, quad: SphereQuadrature = DEFAULT_QUADRATURE
) -> float:
    """Sphere average of the per-input success-weighted fidelity ratio."""
    total = 0.0
    for u, v, w in quad.nodes():
        den, num = group_sums(alpha, t, BlochAngles(u, v))
        total += w * num / den
    return total
