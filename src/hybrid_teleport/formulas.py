"""Closed-form results: success probabilities, fidelities, output states.

Everything here evaluates printed expressions directly, with no multimode
simulation, so it serves as an independent reference for the
first-principles protocol engine.  For the single-photon-encoded type the
success outcomes fall into five groups whose members share one conditional
state; group probabilities and fidelities are scalar functions of the
loss, the coherent amplitude, and (for the group heralded by a dark
coherent-comparison port) the input angles.  The type-II Bloch-sphere
average of their success-weighted fidelity is exact: one integral in the
height along the axis of the success probability
(`protocol.axial_average`, which the protocol engine's averages use too).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .encoding import BlochAngles, HybridType, _plus_minus, qubit_layout
from .engine import VACUUM, Coherent, FockVector, TermSum
from .loss import pm_block
from .measurement import OutcomeLabel
from .protocol import DEFAULT_QUADRATURE, SphereQuadrature, axial_average

_INV_SQRT2 = 1.0 / math.sqrt(2.0)


def damped_overlap(alpha: float, t: float) -> float:
    """<t*alpha | -t*alpha>, the surviving coherent-branch overlap."""
    if (alpha * t) * (alpha * t) == math.inf:
        raise OverflowError(f"damped overlap exp(-2(alpha t)^2) overflows at alpha t = {alpha * t:.3g}")
    return math.exp(-2.0 * (alpha * t) ** 2)


def cross_dephasing(alpha: float, t: float) -> float:
    """Decay of coherent off-diagonal blocks after symmetric two-arm loss."""
    r2 = 1.0 - t * t
    return math.exp(-4.0 * alpha * alpha * r2)


def success_probability(hybrid: HybridType, alpha: float, t: float) -> float:
    """Sphere-averaged total success probability, closed form."""
    base = 1.0 - 0.5 * damped_overlap(alpha, t)
    if hybrid is HybridType.TYPE_I:
        return t * t * base
    return base


def average_fidelity(
    hybrid: HybridType,
    alpha: float,
    t: float,
    quad: SphereQuadrature | None = None,
) -> float:
    """Sphere-averaged conditional fidelity from the closed forms.

    The dual-rail type has a fully closed expression; the single-photon
    type averages the outcome-group formulas over the sphere, exactly, or
    on the nodes of the rule quad if one is given.
    """
    if hybrid is HybridType.TYPE_I:
        return (t * t / 3.0) * (2.0 + cross_dephasing(alpha, t))
    if quad is not None:
        return average_fidelity_quadrature(alpha, t, quad)
    (a, beta, _), c = _axial_coefficients(alpha, t)
    return axial_average(a, beta, c)


@dataclass(frozen=True)
class OutcomeGroup:
    """Detector-outcome class sharing one conditional output state."""

    index: int
    members: tuple


OUTCOME_GROUPS = (
    OutcomeGroup(1, tuple(OutcomeLabel(s, a) for s, a in
                          (("1", "2"), ("1", "3"), ("2", "1"), ("2", "4")))),
    OutcomeGroup(2, tuple(OutcomeLabel(s, a) for s, a in
                          (("1", "1"), ("1", "4"), ("2", "2"), ("2", "3")))),
    OutcomeGroup(3, tuple(OutcomeLabel(s, a) for s, a in
                          (("e", "1"), ("e", "3")))),
    OutcomeGroup(4, tuple(OutcomeLabel(s, a) for s, a in
                          (("e", "2"), ("e", "4")))),
    OutcomeGroup(5, tuple(OutcomeLabel(s, a) for s, a in
                          (("1", "e"), ("2", "e")))),
)


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
        # The mixed-population bracket keeps the loss factor on its
        # cross term: r^2/4 * (1 + e^2 + 2 r^2 e).  This is the exact
        # overlap of the group's conditional state with the target and is
        # what both state-based routes reproduce.
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


def _signed_single_photon(sign: int) -> FockVector:
    return FockVector((_INV_SQRT2, sign * _INV_SQRT2))


def group_state(i: int, alpha: float, t: float, angles: BlochAngles) -> TermSum:
    """Conditional output state of group i over the receiver's modes."""
    if not 1 <= i <= 5:
        raise ValueError(f"group index {i} out of range 1..5")
    lay = qubit_layout(HybridType.TYPE_II, "c", alpha)
    m2, n2, c1, _, mn = _angle_parts(angles)
    nm = mn.conjugate()
    r2 = 1.0 - t * t
    deph = cross_dephasing(alpha, t)
    ta = t * alpha
    half_p = 0.5 * (t * t + t)
    half_m = 0.5 * (t * t - t)
    terms = []

    def add(scalar, block, lcoh, rcoh, primed=False):
        for c, ls, rs in pm_block(block, t, primed):
            terms.append(
                (
                    scalar * c,
                    (_signed_single_photon(ls), Coherent(lcoh)),
                    (_signed_single_photon(rs), Coherent(rcoh)),
                )
            )

    if i in (1, 2, 3, 4):
        primed = i in (2, 4)
        s = t if i in (1, 2) else t * t
        add(m2, "++", ta, ta, primed)
        add(s * deph * mn, "+-", ta, -ta)
        add(s * deph * nm, "-+", -ta, ta)
        add(n2, "--", -ta, -ta, primed)
    else:
        den = 1.0 - c1 * r2
        if den <= 0.0:
            raise ValueError("group 5 normalizer is not positive")
        pref = 1.0 / den
        c_pp = m2 * 0.5 * (1.0 + t) - mn * 0.5 * r2 - nm * 0.5 * r2 + n2 * 0.5 * (1.0 - t)
        c_mm = m2 * 0.5 * (1.0 - t) - mn * 0.5 * r2 - nm * 0.5 * r2 + n2 * 0.5 * (1.0 + t)
        add(pref * c_pp, "++", ta, ta, primed=True)
        add(pref * deph * (mn * half_p + nm * half_m), "+-", ta, -ta)
        add(pref * deph * (mn * half_m + nm * half_p), "-+", -ta, ta)
        add(pref * c_mm, "--", -ta, -ta, primed=True)
    return TermSum(lay, terms).canonicalized()


def uniform_teleported_state(alpha: float, t: float, angles: BlochAngles) -> TermSum:
    """Dual-rail output state, identical across all success outcomes."""
    lay = qubit_layout(HybridType.TYPE_I, "c", alpha)
    mu, nu = angles.mu, angles.nu
    t2 = t * t
    r2 = 1.0 - t2
    deph = cross_dephasing(alpha, t)
    ta = t * alpha
    plus = _plus_minus(HybridType.TYPE_I, 1)
    minus = _plus_minus(HybridType.TYPE_I, -1)
    vacuum = ((1.0, (VACUUM, VACUUM)),)
    terms = []

    def add(scalar, left, lcoh, right, rcoh):
        for cl, kl in left:
            for cr, kr in right:
                terms.append(
                    (
                        scalar * cl * cr.conjugate(),
                        kl + (Coherent(lcoh),),
                        kr + (Coherent(rcoh),),
                    )
                )

    add(abs(mu) ** 2 * t2, plus, ta, plus, ta)
    add(abs(mu) ** 2 * r2, vacuum, ta, vacuum, ta)
    add(t2 * deph * mu * nu.conjugate(), plus, ta, minus, -ta)
    add(t2 * deph * mu.conjugate() * nu, minus, -ta, plus, ta)
    add(abs(nu) ** 2 * t2, minus, -ta, minus, -ta)
    add(abs(nu) ** 2 * r2, vacuum, -ta, vacuum, -ta)
    return TermSum(lay, terms).canonicalized()


def _group_sums(alpha: float, t: float, angles: BlochAngles) -> tuple:
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
        den, num = _group_sums(alpha, t, BlochAngles(u, v))
        total += w * num / den
    return total


# Bloch inputs by height z along -x, the direction in which the success
# probability grows: n = +x at z = -1; +z and (0, +-sqrt(3)/2, -1/2), equally
# spaced on the circle x = 0, at z = 0; n = -x at z = 1
_AXIAL_INPUTS = (
    (BlochAngles(0.5 * math.pi, 0.0),),
    (BlochAngles(0.0, 0.0), BlochAngles(2.0 * math.pi / 3.0, 0.5 * math.pi),
     BlochAngles(2.0 * math.pi / 3.0, -0.5 * math.pi)),
    (BlochAngles(0.5 * math.pi, math.pi),),
)


def _axial_coefficients(alpha: float, t: float) -> np.ndarray:
    """Rows (c0, c1, c2) for sum_i p_i and sum_i p_i f_i: each averages to
    c0 + c1 z + c2 z^2 over the Bloch circle at height z along -x.

    Both sums are polynomials of degree <= 2 in the Bloch vector n (in
    p_5 f_5 group 5's normalizer cancels), so three equally spaced inputs
    average them exactly over a circle, and three heights fix the quadratic
    in z.  The probability sum is a + beta z, so its row reads (a, beta, 0).
    """
    low, mid, high = (np.mean([_group_sums(alpha, t, ang) for ang in circle], axis=0)
                      for circle in _AXIAL_INPUTS)
    return np.array([mid, 0.5 * (high - low), 0.5 * (high + low) - mid]).T


def group_sum_deviation(alpha: float, t: float) -> float:
    """|sphere average of the summed group probabilities - closed form|, exact."""
    p, _ = _axial_coefficients(alpha, t)
    return abs(axial_average(1.0, 0.0, p) - success_probability(HybridType.TYPE_II, alpha, t))
