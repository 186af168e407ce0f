"""Scalar reference for engine.overlap_table: the per-pair overlap case ladders.

One function per case, evaluated pair by pair: the coherent backend's
closed forms for two coherent states, a finite sum over a Fock vector's
support against a coherent state (a running product of its coefficients),
a plain coefficient sum for two Fock vectors, and the truncated-Fock
backend's dense vectors.  The engine evaluates the same overlaps as whole
tables in one array routine and must agree with these pair by pair.
"""

from __future__ import annotations

import math

import numpy as np

from hybrid_teleport.engine import (
    COHERENT_ALGEBRA,
    Backend,
    Coherent,
    FockVector,
    LocalKet,
    NumberFilter,
    ket_vector,
)


def _fock_coh_overlap(bra: FockVector, amplitude: complex) -> complex:
    # <f|amp>: finite sum over the vector's support, exact.
    acc = 0.0 + 0.0j
    c = math.exp(-0.5 * abs(amplitude) ** 2)
    term = complex(c)
    for n, fc in enumerate(bra.coeffs):
        if n > 0:
            term = term * amplitude / math.sqrt(n)
        acc += fc.conjugate() * term
    return acc


def overlap(bra: LocalKet, ket: LocalKet, backend: Backend, cutoff: int) -> complex:
    """<bra|ket> for two local kets on a mode with the given cutoff."""
    if backend.kind == "fock":
        vb = ket_vector(bra, cutoff)
        vk = ket_vector(ket, cutoff)
        return complex(np.vdot(vb, vk))
    if isinstance(bra, Coherent) and isinstance(ket, Coherent):
        g, d = bra.amplitude, ket.amplitude
        return complex(
            np.exp(-0.5 * abs(g) ** 2 - 0.5 * abs(d) ** 2 + g.conjugate() * d)
        )
    if isinstance(bra, FockVector) and isinstance(ket, Coherent):
        return _fock_coh_overlap(bra, ket.amplitude)
    if isinstance(bra, Coherent) and isinstance(ket, FockVector):
        return _fock_coh_overlap(ket, bra.amplitude).conjugate()
    la, lb = len(bra.coeffs), len(ket.coeffs)
    return sum(
        bra.coeffs[n].conjugate() * ket.coeffs[n] for n in range(min(la, lb))
    )


def filtered_overlap(
    bra: LocalKet, filt: NumberFilter, ket: LocalKet, backend: Backend, cutoff: int
) -> complex:
    """<bra| F |ket> where F projects onto a photon-number class."""
    if filt.kind == "all":
        return overlap(bra, ket, backend, cutoff)
    if backend.kind == "fock":
        vb = ket_vector(bra, cutoff)
        vk = ket_vector(ket, cutoff)
        return complex(np.vdot(vb, filt.mask(cutoff + 1) * vk))
    if isinstance(bra, Coherent) and isinstance(ket, Coherent):
        g, d = bra.amplitude, ket.amplitude
        a = -0.5 * abs(g) ** 2 - 0.5 * abs(d) ** 2
        z = g.conjugate() * d
        if filt.kind == "n":
            return complex(np.exp(a) * z ** filt.n / math.factorial(filt.n))
        # sinh/cosh(z) overflow where exp(a) underflows; a +/- z cannot
        # (Re(a +/- z) = -|g -/+ d|^2 / 2 <= 0)
        if filt.kind == "odd":
            return complex(0.5 * (np.exp(a + z) - np.exp(a - z)))
        if filt.kind == "even_ge2":
            return complex(0.5 * (np.exp(a + z) + np.exp(a - z)) - np.exp(a))
        raise ValueError(f"unknown filter kind {filt.kind!r}")
    # a Fock side bounds the sum: mask its coefficients, evaluate exactly
    if isinstance(ket, FockVector):
        ket = FockVector(filt.mask(len(ket.coeffs)) * ket.coeffs)
    else:
        bra = FockVector(filt.mask(len(bra.coeffs)) * bra.coeffs)
    return overlap(bra, ket, COHERENT_ALGEBRA, cutoff)
