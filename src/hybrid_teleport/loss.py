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

import math

import numpy as np

from .encoding import LossParameter, _plus_minus, qubit_layout
from .engine import (
    Coherent,
    FockVector,
    KetSum,
    ModeLayout,
    Role,
    TermSum,
    _coherent_coeffs,
    apply_beam_splitter,
    fock,
)
from .measurement import HybridType


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


def _kraus_images(table, orders: int, t: float, r: float) -> tuple:
    """(scale, image, images) with E_k f = scale[f, k] images[image[f, k]], k < orders.

    table holds one column's distinct factors f, each mapped once per
    order; scale is 0 where E_k f vanishes.  A coherent factor maps to
    |t g> at every order.
    """
    scale = np.zeros((len(table), orders), dtype=complex)
    image = np.zeros((len(table), orders), dtype=np.int64)
    index = {}
    for f, ket in enumerate(table):
        if isinstance(ket, Coherent):
            # (r g)^k / sqrt(k!) exp(-r^2 |g|^2 / 2): the Fock coefficients of |r g>
            scale[f] = _coherent_coeffs(r * ket.amplitude, orders - 1)[0]
            image[f] = index.setdefault(Coherent(t * ket.amplitude), len(index))
            continue
        coeffs = np.array(ket.coeffs, dtype=complex)
        for k in range(min(orders, ket.degree + 1)):
            n = np.arange(k, len(coeffs))
            out = coeffs[k:] * np.sqrt([math.comb(j, k) for j in n.tolist()]) * t ** (n - k) * r**k
            nonzero = np.flatnonzero(out)
            if len(nonzero):
                scale[f, k] = 1.0
                image[f, k] = index.setdefault(FockVector(out[:nonzero[-1] + 1]), len(index))
    return scale, image, tuple(index)


def damp_mode(state: TermSum, name: str, loss: LossParameter) -> TermSum:
    """Amplitude damping on one mode of an operator sum, exactly.

    A term whose two factors on the mode are coherent takes the closed
    exponent; any other term becomes one term per Kraus order up to the
    smaller Fock degree of its sides (order 0 alone at r = 0).  Each
    distinct factor is mapped once per order (_kraus_images), and the
    terms are expanded as rows of factor ids, in order.  A row whose image
    vanishes has coefficient 0, and from_arrays drops it.
    """
    t, r = loss.t, loss.r
    m = state.layout.index(name)
    cols = (m, m + len(state.layout.names))
    unbounded = 1 << 30  # a coherent factor's Kraus order bound

    def per_term(c):
        # each term's factor in column c: coherent or not, its amplitude, its Kraus order bound
        table = state.factors[c]
        coh = np.array([isinstance(k, Coherent) for k in table], dtype=bool)
        amp = np.array([k.amplitude if is_c else 0.0 for k, is_c in zip(table, coh)], dtype=complex)
        deg = np.array([unbounded if is_c else k.degree for k, is_c in zip(table, coh)], dtype=int)
        return coh[state.ids[:, c]], amp[state.ids[:, c]], deg[state.ids[:, c]]

    (cl, g, dl), (cr, d, dr) = per_term(cols[0]), per_term(cols[1])
    both = cl & cr
    # the top order: the smaller Fock degree (a coherent side sets no bound), 0 at r = 0
    top = np.minimum(np.minimum(dl, dr), unbounded if r > 0.0 else 0)
    counts = np.where(both, 0, top) + 1
    rows = np.repeat(np.arange(len(counts)), counts)
    k = np.arange(len(rows)) - np.repeat(np.cumsum(counts) - counts, counts)
    # an operator's left and right tables are often equal (a dm()): map them once
    images = {table: _kraus_images(table, int(k.max(initial=0)) + 1, t, r)
              for table in dict.fromkeys(state.factors[c] for c in cols)}
    (sl, il, tl), (sr, ir, tr) = (images[state.factors[c]] for c in cols)
    li, ri, g, d = state.ids[rows, cols[0]], state.ids[rows, cols[1]], g[rows], d[rows]
    # a coherent pair takes one exponent, whose real part -r^2 |g - d|^2 / 2 never overflows
    closed = np.exp(r * r * (g * d.conj() - 0.5 * (np.abs(g) ** 2 + np.abs(d) ** 2)))
    coeffs = state.coeffs[rows] * np.where(both[rows], closed, sl[li, k] * sr[ri, k].conj())
    out = state.ids[rows]
    out[:, cols[0]], out[:, cols[1]] = il[li, k], ir[ri, k]
    factors = list(state.factors)
    factors[cols[0]], factors[cols[1]] = tl, tr
    return TermSum.from_arrays(state.layout, coeffs, out, factors)


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
    if which in ("++", "--"):
        up, down = 0.5 * (1.0 + t), 0.5 * (1.0 - t)
        first, last = (up, down) if which == "++" else (down, up)
        return ((first, 1, 1), (cross, 1, -1), (cross, -1, 1), (last, -1, -1))
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
    return TermSum.summed(
        _qubit_block(hybrid, "b", alpha, loss, k, math.sqrt(2.0)).tensor(
            _qubit_block(hybrid, "c", alpha, loss, k, 1.0))
        for k in (1, 2, 3, 4)
    ).scaled(0.5).canonicalized()
