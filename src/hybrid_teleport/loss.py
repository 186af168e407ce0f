"""Photon loss: a beam splitter onto an environment mode, and its oracles.

A lossy mode with transmission t (loss r, t^2 + r^2 = 1) meets a vacuum
environment mode on a beam splitter of mixing angle asin(r); tracing the
environment out gives the loss channel (its Stinespring dilation).
`dilate` is that beam splitter and keeps the state a ket; the
environment is traced inside `engine.Contraction`.

Two independent forms of the same channel serve as oracles.  On an
operator sum it acts on a coherent pair exactly as

    |g><d|  ->  exp[(1 - t^2)(g d* - |g|^2/2 - |d|^2/2)] |t g><t d|

and on Fock content through the Kraus operators

    E_k |n> = sqrt(C(n, k)) t^(n-k) r^k |n-k>,
    E_k |g> = ((r g)^k / sqrt(k!)) e^(-r^2 |g|^2 / 2) |t g>

(`damp_mode`).  Whenever one side of a term has bounded photon number the
Kraus sum is finite, so every action here is exact.  `decohered_channel`
is the closed-form damped channel state.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

from .engine import (
    Coherent,
    FockVector,
    KetSum,
    LocalKet,
    ModeLayout,
    Role,
    TermSum,
    apply_beam_splitter,
    fock,
)


@dataclass(frozen=True)
class LossParameter:
    """Beam-splitter loss with transmission t and reflection r.

    Constructed from r; t = sqrt(1 - r^2).  r = 1 (complete loss) is
    excluded: the damped logical basis degenerates there.
    """

    r: float

    def __post_init__(self):
        if not 0.0 <= self.r < 1.0:
            raise ValueError(f"loss r must lie in [0, 1), got {self.r}")

    @property
    def t(self) -> float:
        return math.sqrt(1.0 - self.r * self.r)


def dilate(state: KetSum, names, loss: LossParameter) -> KetSum:
    """Loss on the named modes of a ket, kept pure on a larger layout.

    Each named mode n gets its own vacuum environment mode "n~env" with
    the same cutoff (|0> as a coherent state for a coherent mode, the Fock
    vacuum for a photonic one) and meets it on a beam splitter of mixing
    angle asin(r): |g>|0> -> |t g>|-r g>.  Tracing the environment modes
    out gives damp_modes(state.dm(), names, loss).
    """
    lay = state.layout
    idx = [lay.index(n) for n in names]
    env_names = tuple(n + "~env" for n in names)
    vacua = tuple(
        Coherent(0.0) if lay.roles[i] is Role.COHERENT else fock(0) for i in idx
    )
    env = ModeLayout(
        env_names,
        tuple(lay.cutoffs[i] for i in idx),
        tuple(lay.roles[i] for i in idx),
    )
    out = state.tensor(KetSum(env, [(1.0, vacua)]))
    theta = math.asin(loss.r)
    for n, e in zip(names, env_names):
        out = apply_beam_splitter(out, n, e, theta)
    return out


def _kraus_on_ket(k: int, ket: LocalKet, t: float, r: float) -> tuple:
    """(scalar, LocalKet) for E_k |ket>, or None when it vanishes."""
    if isinstance(ket, Coherent):
        g = ket.amplitude
        if k == 0:
            s = math.exp(-0.5 * (r * abs(g)) ** 2)
        else:
            s = (r * g) ** k / math.sqrt(math.factorial(k)) * math.exp(
                -0.5 * (r * abs(g)) ** 2
            )
        if s == 0:
            return None
        return complex(s), Coherent(t * g)
    coeffs = ket.coeffs
    deg = ket.degree
    if deg < k:
        return None
    out = [0.0j] * (deg - k + 1)
    for n in range(k, deg + 1):
        c = coeffs[n]
        if c == 0:
            continue
        out[n - k] = c * math.sqrt(math.comb(n, k)) * t ** (n - k) * r**k
    if not any(abs(c) > 0 for c in out):
        return None
    return 1.0 + 0.0j, FockVector(tuple(out))


def _max_kraus_order(left: LocalKet, right: LocalKet) -> int:
    """Largest k with E_k |L><R| E_k^dag nonzero, or -1 if unbounded."""
    bound = -1
    for ket in (left, right):
        if isinstance(ket, FockVector):
            d = ket.degree
            if d < 0:
                return 0
            bound = d if bound < 0 else min(bound, d)
    return bound


def damp_mode(state: TermSum, name: str, loss: LossParameter) -> TermSum:
    """Amplitude damping on one mode of an operator sum, exactly."""
    t, r = loss.t, loss.r
    m = state.layout.index(name)
    terms = []
    for c, lefts, rights in state.terms:
        kl, kr = lefts[m], rights[m]
        if isinstance(kl, Coherent) and isinstance(kr, Coherent):
            g, d = kl.amplitude, kr.amplitude
            # one exponent: its real part, -r^2 |g - d|^2 / 2, never overflows
            z = r * r * (g * d.conjugate() - 0.5 * (abs(g) ** 2 + abs(d) ** 2))
            terms.append(
                (
                    c * cmath.exp(z),
                    lefts[:m] + (Coherent(t * g),) + lefts[m + 1 :],
                    rights[:m] + (Coherent(t * d),) + rights[m + 1 :],
                )
            )
            continue
        kmax = _max_kraus_order(kl, kr)
        if r == 0.0:
            kmax = 0
        for k in range(kmax + 1):
            pl = _kraus_on_ket(k, kl, t, r)
            if pl is None:
                continue
            pr = _kraus_on_ket(k, kr, t, r)
            if pr is None:
                continue
            sl, newl = pl
            sr, newr = pr
            terms.append(
                (
                    c * sl * sr.conjugate(),
                    lefts[:m] + (newl,) + lefts[m + 1 :],
                    rights[:m] + (newr,) + rights[m + 1 :],
                )
            )
    return TermSum(state.layout, terms)


def damp_modes(state: TermSum, names, loss: LossParameter) -> TermSum:
    """Amplitude damping with the same strength on several modes."""
    out = state
    for n in names:
        out = damp_mode(out, n, loss)
    return out


def pm_block(which: str, t: float, primed: bool = False) -> tuple:
    """Damped single-photon-part block of a type-II channel or output state.

    Returns (coefficient, left_sign, right_sign) entries over the |+>, |->
    basis for the four blocks that amplitude damping produces from
    |s><s'|.  The primed variants (appearing in outcome groups that needed
    a Z correction) flip the sign of the r^2/2 cross entries.
    """
    r2 = 1.0 - t * t
    cross = -0.5 * r2 if primed else 0.5 * r2
    if which == "++":
        return (
            (0.5 * (1.0 + t), 1, 1),
            (cross, 1, -1),
            (cross, -1, 1),
            (0.5 * (1.0 - t), -1, -1),
        )
    if which == "--":
        return (
            (0.5 * (1.0 - t), 1, 1),
            (cross, 1, -1),
            (cross, -1, 1),
            (0.5 * (1.0 + t), -1, -1),
        )
    if which == "+-":
        return ((0.5 * (t * t + t), 1, -1), (0.5 * (t * t - t), -1, 1))
    if which == "-+":
        return ((0.5 * (t * t + t), -1, 1), (0.5 * (t * t - t), 1, -1))
    raise ValueError(f"unknown block {which!r}")


def _qubit_block(hybrid, slot: str, alpha: float, loss: LossParameter, k: int, coh_scale: float) -> TermSum:
    """One damped-channel factor over a single qubit's modes.

    k indexes the four closed-form blocks: 1 and 4 are the diagonal
    (|g><g| and |-g><-g|) factors, 2 and 3 the dephased off-diagonal ones.
    """
    from .encoding import HybridType, qubit_layout, _plus_minus

    lay = qubit_layout(hybrid, slot, alpha, coh_scale)
    t, r = loss.t, loss.r
    g = t * alpha
    dephase = math.exp(-2.0 * alpha * alpha * r * r)
    coh = {
        1: (1.0, Coherent(g), Coherent(g)),
        2: (dephase, Coherent(g), Coherent(-g)),
        3: (dephase, Coherent(-g), Coherent(g)),
        4: (1.0, Coherent(-g), Coherent(-g)),
    }[k]
    cw, cl, cr = coh

    def pol_outer(ls: int, rs: int) -> list:
        out = []
        for a, ka in _plus_minus(hybrid, ls):
            for b, kb in _plus_minus(hybrid, rs):
                out.append((a * b, ka, kb))
        return out

    terms = []
    if hybrid is HybridType.TYPE_I:
        sign = {1: (1, 1), 2: (1, -1), 3: (-1, 1), 4: (-1, -1)}[k]
        weight = t * t * cw if k in (2, 3) else t * t
        for w, ka, kb in pol_outer(*sign):
            terms.append((weight * w, ka + (cl,), kb + (cr,)))
        if k in (1, 4):
            vac = (fock(0), fock(0))
            terms.append((r * r, vac + (cl,), vac + (cr,)))
    else:
        which = {1: "++", 2: "+-", 3: "-+", 4: "--"}[k]
        for w, ls, rs in pm_block(which, t):
            for wa, ka in _plus_minus(hybrid, ls):
                for wb, kb in _plus_minus(hybrid, rs):
                    terms.append((cw * w * wa * wb, ka + (cl,), kb + (cr,)))
    return TermSum(lay, terms)


def decohered_channel(hybrid, alpha: float, loss: LossParameter) -> TermSum:
    """Closed-form damped channel state over the b and c qubit pairs.

    Built directly from the analytic solution of the damping equation:
    half the sum over four blocks, each a same-block product between the
    sender and receiver halves.
    """
    out = None
    for k in (1, 2, 3, 4):
        piece = _qubit_block(hybrid, "b", alpha, loss, k, math.sqrt(2.0)).tensor(
            _qubit_block(hybrid, "c", alpha, loss, k, 1.0)
        )
        out = piece if out is None else out + piece
    return out.scaled(0.5).canonicalized()
