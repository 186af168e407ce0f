"""Reference implementation of amplitude damping on operator sums, term by term.

The library maps each distinct factor of a mode through the Kraus
operators once and expands the id rows by order.  This reference takes
the route before it: per term, a coherent pair through the closed
exponent, and otherwise every Kraus order up to the smaller Fock degree
of its two sides, each image built afresh and the result re-interned from
a term list.  The library's damping must match it as dense matrices.
"""

from __future__ import annotations

import cmath
import math

from hybrid_teleport.engine import Coherent, FockVector, TermSum


def kraus_on_ket(k: int, ket, t: float, r: float):
    """(scalar, local ket) for E_k |ket>, or None when it vanishes."""
    if isinstance(ket, Coherent):
        g = ket.amplitude
        s = (r * g) ** k / math.sqrt(math.factorial(k)) * math.exp(-0.5 * (r * abs(g)) ** 2)
        if s == 0:
            return None
        return complex(s), Coherent(t * g)
    deg = ket.degree
    if deg < k:
        return None
    out = [0.0j] * (deg - k + 1)
    for n in range(k, deg + 1):
        out[n - k] = ket.coeffs[n] * math.sqrt(math.comb(n, k)) * t ** (n - k) * r**k
    if not any(abs(c) > 0 for c in out):
        return None
    return 1.0 + 0.0j, FockVector(tuple(out))


def max_kraus_order(left, right) -> int:
    """Largest k with E_k |L><R| E_k^dag nonzero, or -1 if unbounded."""
    bound = -1
    for ket in (left, right):
        if isinstance(ket, FockVector):
            d = ket.degree
            if d < 0:
                return 0
            bound = d if bound < 0 else min(bound, d)
    return bound


def damp_mode(state: TermSum, name: str, loss) -> TermSum:
    """Amplitude damping on one mode of an operator sum, term by term."""
    t, r = loss.t, loss.r
    m = state.layout.index(name)
    terms = []
    for c, lefts, rights in state.terms:
        kl, kr = lefts[m], rights[m]
        if isinstance(kl, Coherent) and isinstance(kr, Coherent):
            g, d = kl.amplitude, kr.amplitude
            z = r * r * (g * d.conjugate() - 0.5 * (abs(g) ** 2 + abs(d) ** 2))
            terms.append((c * cmath.exp(z),
                          lefts[:m] + (Coherent(t * g),) + lefts[m + 1:],
                          rights[:m] + (Coherent(t * d),) + rights[m + 1:]))
            continue
        kmax = 0 if r == 0.0 else max_kraus_order(kl, kr)
        for k in range(kmax + 1):
            pl, pr = kraus_on_ket(k, kl, t, r), kraus_on_ket(k, kr, t, r)
            if pl is None or pr is None:
                continue
            terms.append((c * pl[0] * pr[0].conjugate(),
                          lefts[:m] + (pl[1],) + lefts[m + 1:],
                          rights[:m] + (pr[1],) + rights[m + 1:]))
    return TermSum(state.layout, terms)


def damp_modes(state: TermSum, names, loss) -> TermSum:
    """Amplitude damping with the same strength on several modes."""
    for n in names:
        state = damp_mode(state, n, loss)
    return state
