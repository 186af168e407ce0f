"""Tuple-based reference implementations of the ket-sum operations.

States here are plain term lists, (c, kets) for kets and (c, lefts, rights)
for operators, and every operation is a loop over terms: the engine's form
before sums became factor-id arrays.  The array-backed engine must
reproduce these term for term.  The beam splitter rotates each photon-number
sector on its own, independently of the engine's batched rotation.  The
Pauli corrections are dense matrices.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from hybrid_teleport.encoding import (
    DynamicBasis,
    HybridType,
    coherent_mode,
    logical_ket,
    photonic_modes,
)
from hybrid_teleport.engine import (
    BS_THETA,
    COHERENT_TAIL_TOL,
    DROP_TOL,
    Coherent,
    CutoffInsufficientError,
    FockVector,
    ModeLayout,
    Role,
    _bs_sector_matrix,
    fock,
    ket_key,
    ket_vector,
    normalize_ket,
)
from hybrid_teleport.loss import LossParameter


def canonical_terms(terms: list) -> list:
    """Canonical form of (c, *factor_groups) terms.

    Every factor is normalized with its scale moved into c; the second
    group of an operator term holds bra factors, so its scales enter
    conjugated.  Terms whose factors agree to MERGE_DECIMALS (ket_key) are
    merged onto the factors of the last of them, sorted by that key, and
    dropped at or below DROP_TOL.  Each position then holds one factor per
    key: the least, by its exact coefficients, of those the kept terms use
    there.
    """
    factors = {}
    acc = {}
    groups_by_key = {}
    for c, *groups in terms:
        normed = []
        keys = []
        for pos, group in enumerate(groups):
            out = []
            group_keys = []
            for k in group:
                done = factors.get(k)
                if done is None:
                    s, nk = normalize_ket(k)
                    done = factors[k] = (s, nk, ket_key(nk))
                s, nk, kk = done
                c *= s.conjugate() if pos else s
                out.append(nk)
                group_keys.append(kk)
            normed.append(tuple(out))
            keys.append(tuple(group_keys))
        key = tuple(keys)
        acc[key] = acc.get(key, 0.0) + c
        groups_by_key[key] = normed
    kept = [(key, c) for key, c in sorted(acc.items(), key=lambda kv: kv[0]) if abs(c) > DROP_TOL]
    least = {}
    for key, _ in kept:
        for pos, (group, group_keys) in enumerate(zip(groups_by_key[key], key)):
            for m, (k, kk) in enumerate(zip(group, group_keys)):
                if (pos, m, kk) not in least or by_value(k) < by_value(least[pos, m, kk]):
                    least[pos, m, kk] = k
    return [(c, *(tuple(least[pos, m, kk] for m, kk in enumerate(group_keys))
                  for pos, group_keys in enumerate(key)))
            for key, c in kept]


def by_value(k) -> tuple:
    """A factor's exact coefficients, real and imaginary parts in turn."""
    values = (k.amplitude,) if isinstance(k, Coherent) else k.coeffs
    return tuple(part for z in values for part in (z.real, z.imag))


def bs_pair(ki, kj, ci: int, cj: int, theta: float = BS_THETA) -> list:
    """[(scalar, ket_i, ket_j)] for one two-mode product, sector by sector."""
    if isinstance(ki, Coherent) and isinstance(kj, Coherent):
        g, d = ki.amplitude, kj.amplitude
        c, s = math.cos(theta), math.sin(theta)
        return [(1.0 + 0.0j, Coherent(c * g + s * d), Coherent(c * d - s * g))]
    vi = ket_vector(ki, ci)
    vj = ket_vector(kj, cj)
    block = np.outer(vi, vj)
    out = np.zeros_like(block)
    lost = 0.0
    for k in range(len(vi) + len(vj) - 1):
        n_lo = max(0, k - cj)
        n_hi = min(ci, k)
        if n_lo > n_hi:
            continue
        full = np.zeros(k + 1, dtype=complex)
        for n in range(n_lo, n_hi + 1):
            full[n] = block[n, k - n]
        if not np.any(np.abs(full) > 0):
            continue
        res = _bs_sector_matrix(k, theta) @ full
        for n in range(k + 1):
            if n <= ci and k - n <= cj:
                out[n, k - n] += res[n]
            else:
                lost += abs(res[n]) ** 2
    if lost > COHERENT_TAIL_TOL:
        raise CutoffInsufficientError(f"clipped weight {lost:.2e}")
    return [
        (1.0 + 0.0j, fock(n), FockVector(tuple(row)))
        for n, row in enumerate(out)
        if np.any(np.abs(row) > DROP_TOL)
    ]


def beam_splitter_terms(layout: ModeLayout, terms: list, mode_i: str, mode_j: str,
                        theta: float = BS_THETA) -> list:
    """The beam splitter on (c, kets) terms: each term becomes its pair's pieces."""
    i, j = layout.index(mode_i), layout.index(mode_j)
    ci, cj = layout.cutoffs[i], layout.cutoffs[j]
    out = []
    for c, kets in terms:
        for s, ki, kj in bs_pair(kets[i], kets[j], ci, cj, theta):
            new = list(kets)
            new[i], new[j] = ki, kj
            if c * s != 0:
                out.append((c * s, tuple(new)))
    return out


def tensor_terms(left: list, right: list) -> list:
    return [(c1 * c2, k1 + k2) for c1, k1 in left for c2, k2 in right]


def protocol_state_terms(hybrid, alpha: float, r: float) -> list:
    """The pre-measurement terms of the logical inputs 0 and 1, built as
    protocol._protocol_states builds them, from term lists, and canonicalized
    together as the blocks R = |0> and R = |1> of one Choi ket are."""
    loss = LossParameter(r)
    basis, lossless = DynamicBasis(alpha, loss), DynamicBasis(alpha, LossParameter(0.0))
    scale = math.sqrt(2.0)
    # (|0_L>|0_L> + |1_L>|1_L>) / sqrt 2 over slots b and c
    halves = [(logical_ket(hybrid, bit, lossless, "b", coh_scale=scale),
               logical_ket(hybrid, bit, lossless, "c")) for bit in (0, 1)]
    lay = halves[0][0].layout.merge(halves[0][1].layout)
    channel = [
        (c * math.sqrt(0.5), kets)
        for b, c_ket in halves
        for c, kets in tensor_terms(b.terms, c_ket.terms)
    ]
    # loss: a vacuum environment mode per channel mode, on a beam splitter of angle asin(r)
    names = (photonic_modes(hybrid, "b") + (coherent_mode("b"),)
             + photonic_modes(hybrid, "c") + (coherent_mode("c"),))
    idx = [lay.index(n) for n in names]
    env = ModeLayout(tuple(n + "~env" for n in names), tuple(lay.cutoffs[i] for i in idx),
                     tuple(lay.roles[i] for i in idx))
    vacua = tuple(Coherent(0.0) if lay.roles[i] is Role.COHERENT else fock(0) for i in idx)
    channel = tensor_terms(channel, [(1.0, vacua)])
    lay = lay.merge(env)
    for n in names:
        channel = beam_splitter_terms(lay, channel, n, n + "~env", math.asin(r))
    choi = []
    for bit in (0, 1):
        first = logical_ket(hybrid, bit, basis, "a", coh_scale=scale)
        psi_lay = first.layout.merge(lay)
        psi = tensor_terms(first.terms, channel)
        for pm, am in zip(photonic_modes(hybrid, "b"), photonic_modes(hybrid, "a")):
            psi = beam_splitter_terms(psi_lay, psi, pm, am)
        psi = beam_splitter_terms(psi_lay, psi, "A", "B")
        choi += [(c, (fock(bit),) + kets) for c, kets in psi]
    choi = canonical_terms(choi)
    return [[(c, kets[1:]) for c, kets in choi if kets[0] == fock(bit)] for bit in (0, 1)]


def dense_correction(hybrid, pauli, layout) -> np.ndarray:
    """Dense Pauli correction on one qubit's modes (oracle).

    X: photon-number parity on the coherent mode and on the V rail (type I)
    or the photonic mode (type II).  Z: the H <-> V swap (type I) or the
    0 <-> 1 swap (type II) as a permutation.  XZ applies Z first.
    """
    dims = [cut + 1 for cut in layout.cutoffs]
    parity = [np.diag((-1.0) ** np.arange(d)) for d in dims]
    eye = [np.eye(d) for d in dims]
    if hybrid is HybridType.TYPE_I:
        dh, dv, _ = dims
        swap = np.zeros((dh * dv, dh * dv))
        for i, j in itertools.product(range(dh), range(dv)):
            swap[j * dv + i, i * dv + j] = 1.0
        x = np.kron(np.kron(eye[0], parity[1]), parity[2])
        z = np.kron(swap, eye[2])
    else:
        order = [1, 0] + list(range(2, dims[0]))
        x = np.kron(parity[0], parity[1])
        z = np.kron(eye[0][order], eye[1])
    return {"I": np.eye(len(x)), "X": x, "Z": z, "XZ": x @ z}[pauli]
