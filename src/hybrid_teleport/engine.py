"""Multimode bosonic states as weighted sums of product terms.

States live on a fixed tuple of named modes.  A ket sum holds terms
c * |k_1> x ... x |k_M|, an operator sum holds terms c * prod_m |L_m><R_m|.
Each per-mode factor is either an explicit Fock coefficient vector or an
exact coherent state.  Both sums are held as arrays: a coefficient vector,
a matrix of factor ids and one table of distinct factors per column (an
operator has a left and a right column per mode).  Sums keep their factors
as given; canonicalized() is the one place factors are normalized and
near-equal terms merged.
Contractions (overlaps, traces, projections) reduce to per-mode tables over
distinct factors, all from overlap_table, for either of two interchangeable
backends: exact coherent-state algebra, or truncated Fock sums at the
layout cutoffs.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from enum import Enum
from functools import cached_property, lru_cache
from itertools import accumulate
from typing import Iterable, NamedTuple, Union

import numpy as np

MERGE_DECIMALS = 12
DROP_TOL = 1e-14
COHERENT_TAIL_TOL = 1e-10


class CutoffInsufficientError(ValueError):
    """A Fock cutoff cannot hold the requested state to tolerance."""


class Role(Enum):
    PHOTONIC = "photonic"
    COHERENT = "coherent"


def default_cutoff(amplitude: float) -> int:
    """Fock cutoff ceil(a^2 + 7a + 10), a = |amplitude|: it keeps a coherent state's
    tail below COHERENT_TAIL_TOL at every amplitude (under 3e-11 up to a = 150)."""
    a = abs(amplitude)
    if a * a == math.inf:
        raise OverflowError(f"the Fock cutoff of amplitude {a:.3g} overflows")
    return math.ceil(a * a + 7.0 * a + 10.0)


@dataclass(frozen=True)
class ModeLayout:
    """Named modes with per-mode Fock cutoffs and physical roles."""

    names: tuple
    cutoffs: tuple
    roles: tuple

    def __post_init__(self):
        if len(set(self.names)) != len(self.names):
            raise ValueError("duplicate mode names")
        if not (len(self.names) == len(self.cutoffs) == len(self.roles)):
            raise ValueError("layout field lengths differ")
        for c, role in zip(self.cutoffs, self.roles):
            if role is Role.PHOTONIC and c < 2:
                raise ValueError("photonic modes need cutoff >= 2")
            if c < 1:
                raise ValueError("cutoffs must be >= 1")

    def index(self, name: str) -> int:
        return self.names.index(name)

    def subset(self, keep: Iterable[str]) -> "ModeLayout":
        keep = tuple(keep)
        idx = [self.index(n) for n in keep]
        return ModeLayout(
            names=keep,
            cutoffs=tuple(self.cutoffs[i] for i in idx),
            roles=tuple(self.roles[i] for i in idx),
        )

    def merge(self, other: "ModeLayout") -> "ModeLayout":
        if set(self.names) & set(other.names):
            raise ValueError("mode name collision in layout merge")
        return ModeLayout(
            self.names + other.names,
            self.cutoffs + other.cutoffs,
            self.roles + other.roles,
        )



@dataclass(frozen=True)
class Coherent:
    """Exact coherent state |amplitude>."""

    amplitude: complex

    def __post_init__(self):
        object.__setattr__(self, "amplitude", complex(self.amplitude))

    # factors are hashed per term wherever sums are interned: hash once
    @cached_property
    def _hash(self) -> int:
        return hash(self.amplitude)

    def __hash__(self):
        return self._hash


@dataclass(frozen=True)
class FockVector:
    """Ket with explicit photon-number coefficients, index = photon count."""

    coeffs: tuple

    def __post_init__(self):
        object.__setattr__(self, "coeffs", tuple(complex(c) for c in self.coeffs))

    @cached_property
    def _hash(self) -> int:
        return hash(self.coeffs)

    def __hash__(self):
        return self._hash

    @property
    def degree(self) -> int:
        deg = -1
        for n, c in enumerate(self.coeffs):
            if abs(c) > 0.0:
                deg = n
        return deg


LocalKet = Union[Coherent, FockVector]


@lru_cache(maxsize=256)
def fock(n: int) -> FockVector:
    return FockVector((0.0,) * n + (1.0,))


VACUUM = fock(0)


def _round_c(z: complex) -> tuple:
    return (round(z.real, MERGE_DECIMALS), round(z.imag, MERGE_DECIMALS))


def ket_key(k: LocalKet) -> tuple:
    if isinstance(k, Coherent):
        return ("c",) + _round_c(k.amplitude)
    coeffs = k.coeffs
    deg = k.degree
    return ("f",) + tuple(_round_c(c) for c in coeffs[: deg + 1])


def normalize_ket(k: LocalKet) -> tuple:
    """(scalar, unit ket) with the ket in a canonical representative form.

    Fock vectors are scaled to unit norm with their first nonzero
    coefficient real and positive so that proportional kets produced by
    different code paths merge under canonicalization.  A zero vector
    returns scalar 0.  Coherent kets pass through unchanged.
    """
    if isinstance(k, Coherent):
        return 1.0 + 0.0j, k
    norm2 = sum(abs(c) ** 2 for c in k.coeffs)
    if norm2 == 0.0:
        return 0.0 + 0.0j, k
    lead = next(c for c in k.coeffs if abs(c) > 0.0)
    scale = math.sqrt(norm2) * (lead / abs(lead))
    if scale == 1.0:
        return 1.0 + 0.0j, k
    return complex(scale), FockVector(tuple(c / scale for c in k.coeffs))


def _by_value(k: LocalKet) -> tuple:
    """A factor's exact coefficients: an order among factors that share a ket_key."""
    return tuple((c.real, c.imag) for c in ((k.amplitude,) if isinstance(k, Coherent) else k.coeffs))


@lru_cache(maxsize=4096)
def _normal_form(k: LocalKet) -> tuple:
    """(scale, unit ket, ket_key of it): normalize_ket and ket_key, once per distinct factor."""
    s, nk = normalize_ket(k)
    return s, nk, ket_key(nk)


# ---------------------------------------------------------------------------
# backends

@dataclass(frozen=True)
class Backend:
    """How per-mode contractions are evaluated.

    kind "coherent" keeps coherent states symbolic and uses exact
    exponential overlap formulas; kind "fock" expands every ket to a
    truncated Fock vector first.
    """

    kind: str

    def __post_init__(self):
        if self.kind not in ("coherent", "fock"):
            raise ValueError(f"unknown backend kind {self.kind!r}")


COHERENT_ALGEBRA = Backend("coherent")
TRUNCATED_FOCK = Backend("fock")


@lru_cache(maxsize=4096)
def _coherent_coeffs(amplitude: complex, cutoff: int) -> tuple:
    """Fock coefficients of |amplitude> up to the cutoff, plus tail weight.

    Magnitudes are exp(-|a|^2/2 + n log|a| - lgamma(n+1)/2), evaluated in
    log space: the direct recursion from exp(-|a|^2/2) underflows to zero
    for |a| above about 38.6.  The tail is the sum of the omitted weights
    |c_n|^2, n > cutoff, in the same log space (1 - sum |c_n|^2 would be
    rounding error once the tail is small).  It runs past the Poisson mean
    |a|^2 by 12 (|a| + 1) + 60, beyond which the weights are below e^-70.
    """
    out = np.zeros(cutoff + 1, dtype=complex)
    mag = abs(amplitude)
    if mag == 0.0:
        out[0] = 1.0
        return tuple(out), 0.0
    n = np.arange(cutoff + 1)
    lgam = np.array([math.lgamma(k + 1.0) for k in range(cutoff + 1)])
    # powers of the unit phase by repeated product, exact for real amplitudes
    phase = np.ones(cutoff + 1, dtype=complex)
    phase[1:] = np.cumprod(np.full(cutoff, amplitude / mag))
    out[:] = np.exp(-0.5 * mag * mag + n * math.log(mag) - 0.5 * lgam) * phase
    top = max(cutoff, math.ceil(mag * mag)) + math.ceil(12.0 * (mag + 1.0)) + 60
    omitted = np.arange(cutoff + 1, top + 1)
    log_w = (-mag * mag + 2.0 * omitted * math.log(mag)
             - np.array([math.lgamma(k + 1.0) for k in omitted.tolist()]))
    peak = float(log_w.max())
    tail = math.exp(peak) * float(np.sum(np.exp(log_w - peak)))
    return tuple(out), tail


def ket_vector(k: LocalKet, cutoff: int) -> np.ndarray:
    """Dense Fock coefficients of a local ket at the given cutoff."""
    if isinstance(k, Coherent):
        coeffs, tail = _coherent_coeffs(k.amplitude, cutoff)
        if tail > COHERENT_TAIL_TOL:
            raise CutoffInsufficientError(
                f"cutoff {cutoff} leaves tail {tail:.2e} for amplitude "
                f"{k.amplitude:.3f}"
            )
        return np.asarray(coeffs, dtype=complex)
    vec = np.zeros(cutoff + 1, dtype=complex)
    deg = k.degree
    if deg > cutoff:
        raise CutoffInsufficientError(
            f"Fock vector of degree {deg} exceeds cutoff {cutoff}"
        )
    vec[: min(len(k.coeffs), cutoff + 1)] = k.coeffs[: cutoff + 1]
    return vec


# ---------------------------------------------------------------------------
# photon-number filters

@dataclass(frozen=True)
class NumberFilter:
    """Projector onto a photon-number class of a single mode.

    kind "n" keeps exactly n photons, "odd" keeps odd counts, "even_ge2"
    keeps even counts of at least two, "all" is the identity.
    """

    kind: str
    n: int = 0

    def mask(self, dim: int) -> np.ndarray:
        idx = np.arange(dim)
        if self.kind == "n":
            return (idx == self.n).astype(float)
        if self.kind == "odd":
            return (idx % 2 == 1).astype(float)
        if self.kind == "even_ge2":
            return ((idx % 2 == 0) & (idx >= 2)).astype(float)
        if self.kind == "all":
            return np.ones(dim)
        raise ValueError(f"unknown filter kind {self.kind!r}")


FILTER_VACUUM = NumberFilter("n", 0)
FILTER_SINGLE = NumberFilter("n", 1)
FILTER_ODD = NumberFilter("odd")
FILTER_EVEN_GE2 = NumberFilter("even_ge2")
FILTER_ALL = NumberFilter("all")


def _coherent_pairs(g: np.ndarray, filt: NumberFilter, d: np.ndarray) -> np.ndarray:
    """<g|F|d> in closed form over broadcast amplitude arrays; |g|, |d| and conj(g) d in real
    arithmetic, rounded as for one complex pair (a + z cancels to ulps of |g|^2 near g = d)."""
    a = -0.5 * np.hypot(g.real, g.imag) ** 2 - 0.5 * np.hypot(d.real, d.imag) ** 2
    z = (g.real * d.real + g.imag * d.imag) + 1j * (g.real * d.imag - g.imag * d.real)
    if filt.kind == "all":
        return np.exp(a + z)
    if filt.kind == "n":
        return np.exp(a) * z ** filt.n / math.factorial(filt.n)
    # sinh/cosh(z) overflow where exp(a) underflows; a +/- z cannot
    # (Re(a +/- z) = -|g -/+ d|^2 / 2 <= 0)
    if filt.kind == "odd":
        return 0.5 * (np.exp(a + z) - np.exp(a - z))
    if filt.kind == "even_ge2":
        return 0.5 * (np.exp(a + z) + np.exp(a - z)) - np.exp(a)
    raise ValueError(f"unknown filter kind {filt.kind!r}")


@lru_cache(maxsize=1 << 12)
def overlap_table(bras: tuple, filt: NumberFilter, kets: tuple, backend: Backend,
                  cutoff: int) -> np.ndarray:
    """T[i, j] = <bras[i]| F |kets[j]> on a mode with the given cutoff; read-only, cached.

    The one place per-mode overlaps are evaluated: T = conj(B) (mask K)^T over Fock
    coefficients up to one top, the cutoff on the fock backend (ket_vector checks tails
    and degrees).  On the coherent backend top is the table's highest Fock degree, which
    bounds every sum with a Fock side exactly, and coherent pairs take closed forms.
    """
    factors, nb = bras + kets, len(bras)
    coh = [backend.kind == "coherent" and isinstance(k, Coherent) for k in factors]
    table = np.zeros((nb, len(kets)), dtype=complex)
    if not all(coh):
        if backend.kind == "fock":
            top, rows = cutoff, [ket_vector(k, cutoff) for k in factors]
        else:
            top = max([0] + [k.degree for k in factors if isinstance(k, FockVector)])
            rows = [_coherent_coeffs(k.amplitude, top)[0] if isinstance(k, Coherent)
                    else k.coeffs[: top + 1] + (0.0,) * (top + 1 - len(k.coeffs)) for k in factors]
        mat = np.array(rows, dtype=complex).reshape(len(factors), top + 1)
        table = mat[:nb].conj() @ (filt.mask(top + 1) * mat[nb:]).T
    if any(coh[:nb]) and any(coh[nb:]):
        amp = np.array([getattr(k, "amplitude", 0.0) for k in factors], dtype=complex)
        pairs = _coherent_pairs(amp[:nb, None], filt, amp[nb:])
        table = pairs if all(coh) else np.where(np.outer(coh[:nb], coh[nb:]), pairs, table)
    table.setflags(write=False)  # shared by every caller of the cache
    return table


# 1x1 views of overlap_table, cached so that perfbench/spans.py can read their cache_info()
@lru_cache(maxsize=256)
def overlap(bra: LocalKet, ket: LocalKet, backend: Backend, cutoff: int) -> complex:
    """<bra|ket> for two local kets on a mode with the given cutoff."""
    return complex(overlap_table((bra,), FILTER_ALL, (ket,), backend, cutoff)[0, 0])


@lru_cache(maxsize=256)
def filtered_overlap(bra: LocalKet, filt: NumberFilter, ket: LocalKet, backend: Backend,
                     cutoff: int) -> complex:
    """<bra| F |ket> where F projects onto a photon-number class."""
    return complex(overlap_table((bra,), filt, (ket,), backend, cutoff)[0, 0])


# ---------------------------------------------------------------------------
# beam splitter

BS_THETA = math.pi / 4.0


def _created(vec: np.ndarray, ket: np.ndarray, a: float, b: float) -> np.ndarray:
    """sum_n vec[n] (a a_i^dag + b a_j^dag)^n / sqrt(n!) |ket>, |ket> a square two-mode
    amplitude matrix, by Horner's rule: one photon at a time."""
    root = np.sqrt(np.arange(len(ket)))
    out = vec[-1] * ket
    for n in range(len(vec) - 2, -1, -1):
        up = np.zeros_like(out)
        up[1:] = a * root[1:, None] * out[:-1]
        up[:, 1:] += b * root[1:] * out[:, :-1]
        out = vec[n] * ket + up / math.sqrt(n + 1)
    return out


@lru_cache(maxsize=1024)
def _bs_pair(
    ki: LocalKet, kj: LocalKet, ci: int, cj: int, theta: float = BS_THETA
) -> tuple:
    """Transform a two-mode product ket; returns its pieces ((ket_i, ket_j), ...).

    Coherent pairs stay a single product via the closed-form rule
    |g>|d> -> |cos(theta) g + sin(theta) d>|cos(theta) d - sin(theta) g>.
    Fock content takes the closed form of the splitter's action on creation
    operators: |n>|m> = a_i^dag^n a_j^dag^m |0,0> / sqrt(n! m!) maps to
    (c a_i^dag - s a_j^dag)^n (s a_i^dag + c a_j^dag)^m |0,0> / sqrt(n! m!),
    c = cos(theta), s = sin(theta), applied one photon at a time.  Against a
    60-digit reference, amplitudes are exact to about 1e-16 up to four photons
    per side (the protocol sends at most one) and to 1e-14 at ten; the error
    then grows fast, worst at theta = pi/4: 2e-12 at |20,20>, 3e-6 at |40,40>.
    A coherent factor beside a Fock one is expanded at its cutoff.  Cached:
    across a sweep the 50:50 splitters meet the same photonic pairs at every
    point.
    """
    c, s = math.cos(theta), math.sin(theta)
    if isinstance(ki, Coherent) and isinstance(kj, Coherent):
        g, d = ki.amplitude, kj.amplitude
        return ((Coherent(c * g + s * d), Coherent(c * d - s * g)),)
    vi, vj = ket_vector(ki, ci), ket_vector(kj, cj)
    # photon numbers above each vector's last nonzero entry carry nothing
    ni, nj = (int(np.flatnonzero(v).max(initial=0)) for v in (vi, vj))
    vac = np.zeros((max(ci, cj, ni + nj) + 1,) * 2, dtype=complex)
    vac[0, 0] = 1.0
    res = _created(vj[: nj + 1], _created(vi[: ni + 1], vac, c, -s), s, c)
    lost = float(np.sum(np.abs(res[ci + 1:]) ** 2) + np.sum(np.abs(res[: ci + 1, cj + 1:]) ** 2))
    if lost > COHERENT_TAIL_TOL:
        raise CutoffInsufficientError(
            f"beam splitter output exceeds cutoffs ({ci}, {cj}); "
            f"clipped weight {lost:.2e}"
        )
    out = res[: ci + 1, : cj + 1]
    rows = np.flatnonzero(np.any(np.abs(out) > DROP_TOL, axis=1))
    return tuple((fock(r), FockVector(out[r].tolist())) for r in rows.tolist())


# ---------------------------------------------------------------------------
# sums of product terms

def _row_codes(mat: np.ndarray, sizes: list) -> tuple:
    """(codes, bound): one int64 below bound per row of mat, whose column m holds ids below sizes[m].

    Equal rows, and only they, share a code, and codes order as the rows
    do lexicographically: mixed-radix numbers while they fit in 62 bits,
    otherwise the rows' ranks.
    """
    bound, *radix = list(accumulate(reversed(sizes), operator.mul, initial=1))[::-1]
    if bound < 1 << 62:
        return mat @ np.array(radix, dtype=np.int64), bound
    return np.unique(mat, axis=0, return_inverse=True)[1].reshape(-1), len(mat)


def _groups(codes: np.ndarray, bound: int) -> tuple:
    """(each entry's group, groups numbered in code order; the number of groups).

    codes lie below bound.  A table over [0, bound) groups them when it is
    not much longer than codes (np.unique costs several times more on the
    short arrays a state has); np.unique groups codes spread wider.
    """
    if bound > 4 * len(codes) + 1024:
        distinct, group = np.unique(codes, return_inverse=True)
        return group.reshape(-1), len(distinct)
    present = np.zeros(bound, dtype=bool)
    present[codes] = True
    rank = np.cumsum(present)
    return rank[codes] - 1, int(rank[-1]) if bound else 0


def _intern(rows, width: int) -> tuple:
    """(ids, factors) of rows of factors: factors[m] holds the distinct factors
    (exact equality) of column m in first-seen order, and ids[t, m] indexes it."""
    index = [{} for _ in range(width)]
    ids = [[idx.setdefault(k, len(idx)) for idx, k in zip(index, row)] for row in rows]
    return np.array(ids, dtype=np.int64).reshape(len(ids), width), tuple(map(tuple, index))


def _factor_rows(ids: np.ndarray, factors: tuple) -> list:
    """Each row of ids as the tuple of the factors it names."""
    if not factors:
        return [()] * len(ids)
    return list(zip(*([table[i] for i in col] for table, col in zip(factors, ids.T.tolist()))))


class _ProductSum:
    """Sum of weighted product terms, held as arrays.

    Term t is coeffs[t] times the product over columns m of
    factors[m][ids[t, m]], where factors[m] holds column m's distinct
    factors (exact equality).  A sum has _sides blocks of one column per
    layout mode: a ket's factors, or an operator's left then right ones.
    Operations act on these arrays, and per-factor work runs once per
    distinct factor; terms lists the same sum as tuples, derived once.
    """

    __slots__ = ("layout", "coeffs", "ids", "factors", "_terms")
    _sides = 1

    def __init__(self, layout: ModeLayout, terms: Iterable):
        rows = [(c, sum(map(tuple, sides), ())) for c, *sides in terms if c != 0]
        ids, factors = _intern((row for _, row in rows), self._sides * len(layout.names))
        self._set(layout, np.array([c for c, _ in rows], dtype=complex), ids, factors)

    def _set(self, layout, coeffs, ids, factors):
        self.layout, self.coeffs, self.ids, self.factors = layout, coeffs, ids, tuple(factors)
        self._terms = None

    @classmethod
    def from_arrays(cls, layout: ModeLayout, coeffs: np.ndarray, ids: np.ndarray, factors):
        """sum_t coeffs[t] prod_m factors[m][ids[t, m]]; zero terms are dropped.

        factors[m] must hold distinct factors (exact equality).
        """
        if np.count_nonzero(coeffs) < len(coeffs):
            live = coeffs != 0
            coeffs, ids = coeffs[live], ids[live]
        out = cls.__new__(cls)
        out._set(layout, coeffs, ids, factors)
        return out

    @property
    def terms(self) -> list:
        """The terms as (c, kets) or (c, lefts, rights) tuples, derived once; read-only."""
        if self._terms is None:
            w = len(self.layout.names)
            self._terms = [(c,) + tuple(row[s * w:(s + 1) * w] for s in range(self._sides))
                           for c, row in zip(self.coeffs.tolist(), _factor_rows(self.ids, self.factors))]
        return self._terms

    def scaled(self, z: complex):
        return self.from_arrays(self.layout, self.coeffs * z, self.ids, self.factors)

    @classmethod
    def summed(cls, parts: Iterable):
        """The sum of parts on one layout: their terms in order, each column's tables
        merged in one dict pass into the distinct factors (exact equality), first seen first."""
        parts = list(parts)
        layout = parts[0].layout
        if any(p.layout.names != layout.names for p in parts):
            raise ValueError("layout mismatch")
        tables, columns = [], []
        for m, column in enumerate(zip(*(p.factors for p in parts))):
            index = {}
            remaps = [np.array([index.setdefault(k, len(index)) for k in table], dtype=np.int64)
                      for table in column]
            tables.append(tuple(index))
            columns.append(np.concatenate([remap[p.ids[:, m]] for remap, p in zip(remaps, parts)]))
        coeffs = np.concatenate([p.coeffs for p in parts])
        ids = np.array(columns, dtype=np.int64).T.reshape(len(coeffs), len(tables))
        return cls.from_arrays(layout, coeffs, ids, tables)

    def __add__(self, other):
        return self.summed((self, other))

    def tensor(self, other):
        """self x other on the merged layout, terms i over self then j over other."""
        s, w, v = self._sides, len(self.layout.names), len(other.layout.names)
        n, m = len(self.coeffs), len(other.coeffs)
        # per side, this sum's columns then the other's
        mine = np.broadcast_to(self.ids.reshape(n, 1, s, w), (n, m, s, w))
        theirs = np.broadcast_to(other.ids.reshape(1, m, s, v), (n, m, s, v))
        factors = [table for k in range(s)
                   for table in self.factors[k * w:(k + 1) * w] + other.factors[k * v:(k + 1) * v]]
        return self.from_arrays(self.layout.merge(other.layout),
                                np.outer(self.coeffs, other.coeffs).reshape(-1),
                                np.concatenate([mine, theirs], axis=3).reshape(n * m, s * (w + v)),
                                factors)

    def canonicalized(self):
        """The canonical form of the sum: the one place it is built.

        Each distinct factor is normalized (normalize_ket) and keyed (ket_key)
        once, with its scale moved into the coefficients; an operator's right
        (bra) factors' scales enter conjugated.  Terms whose factors agree to
        MERGE_DECIMALS are merged onto the factors of the last of them, sorted
        by key, and dropped at or below DROP_TOL.  The tables hold one factor
        per key the result uses, so its structure does not depend on rounding
        below MERGE_DECIMALS.
        """
        coeffs, ids, factors, width = self.coeffs, self.ids, self.factors, len(self.factors)
        bra_columns = (self._sides - 1) * len(self.layout.names)
        done = [[_normal_form(k) for k in table] for table in factors]
        scales, ranks, sizes = [], [], []
        for m, column in enumerate(done):
            rank = {key: n for n, key in enumerate(sorted({key for _, _, key in column}))}
            ranks += [rank[key] for _, _, key in column]
            sizes.append(len(rank))
            scales += [s.conjugate() if m >= width - bra_columns else s for s, _, _ in column]
        offsets = list(accumulate(map(len, factors), initial=0))
        glob = ids + np.array(offsets[:-1], dtype=np.int64)
        # column by column (a factor already in canonical form has scale exactly 1)
        for scale in np.array(scales, dtype=complex)[glob.T]:
            coeffs = coeffs * scale
        group, count = _groups(*_row_codes(np.array(ranks, dtype=np.int64)[glob], sizes))
        acc = np.zeros(count, dtype=complex)
        np.add.at(acc, group, coeffs)
        last = np.zeros(count, dtype=np.int64)
        np.maximum.at(last, group, np.arange(len(group)))
        live = np.abs(acc) > DROP_TOL
        kept = glob[last[live]]
        # per column, in key order, one normalized factor per key the kept terms use: the
        # least by value, so that no table or term order picks among factors equal to
        # MERGE_DECIMALS
        used = np.zeros(offsets[-1], dtype=bool)
        used[kept] = True
        flags, renumber, tables = used.tolist(), [], []
        for column, start, size in zip(done, offsets, sizes):
            least = [None] * size
            for (_, nk, _), r, u in zip(column, ranks[start:], flags[start:]):
                if u and (least[r] is None or _by_value(nk) < _by_value(least[r])):
                    least[r] = nk
            below = list(accumulate((k is not None for k in least), initial=0))
            renumber += [below[r] for r in ranks[start:start + len(column)]]
            tables.append(tuple(k for k in least if k is not None))
        return self.from_arrays(self.layout, acc[live], np.array(renumber, dtype=np.int64)[kept], tables)


class KetSum(_ProductSum):
    """Pure state: sum of weighted product kets over the layout's modes."""

    __slots__ = ("_structure",)

    def _set(self, layout, coeffs, ids, factors):
        super()._set(layout, coeffs, ids, factors)
        self._structure = None

    @property
    def structure(self) -> tuple:
        """(mode names, table sizes, term count, id bytes): all a plan reads of the sum; derived once."""
        if self._structure is None:
            self._structure = (self.layout.names, tuple(map(len, self.factors)), len(self.ids),
                               np.ascontiguousarray(self.ids, dtype=np.int64).tobytes())
        return self._structure

    def restricted(self, names) -> "KetSum":
        """The same terms and coefficients on the named modes alone."""
        names = tuple(names)
        idx = [self.layout.index(n) for n in names]
        return KetSum.from_arrays(self.layout.subset(names), self.coeffs, self.ids[:, idx],
                                  [self.factors[i] for i in idx])

    def braket(self, other: "KetSum", backend: Backend) -> complex:
        """<self|other>."""
        if other.layout.names != self.layout.names:
            raise ValueError("layout mismatch")
        return complex(other.coeffs @ term_overlaps(other, self, backend) @ self.coeffs.conj())

    def norm2(self, backend: Backend) -> float:
        return float(self.braket(self, backend).real)

    def dm(self) -> "TermSum":
        """Outer product |self><self|."""
        return self.outer(self)

    def outer(self, other: "KetSum") -> "TermSum":
        """|self><other|, terms i over self then j over other."""
        if other.layout.names != self.layout.names:
            raise ValueError("layout mismatch")
        return TermSum.from_pairs(self.layout, np.outer(self.coeffs, other.coeffs.conj()),
                                  self.ids, other.ids, self.factors + other.factors)


class TermSum(_ProductSum):
    """Operator: sum of weighted products of per-mode |L><R| factors.

    Held as a KetSum is, over twice the columns: the first one per mode
    holds the left (ket) factors, the second one the right (bra) factors.
    """

    __slots__ = ()
    _sides = 2

    @classmethod
    def from_pairs(cls, layout: ModeLayout, weights: np.ndarray, kets: np.ndarray,
                   bras: np.ndarray, factors) -> "TermSum":
        """sum_ab weights[a, b] |kets[a]><bras[b]| over the nonzero weights, a-major.

        kets and bras are rows of factor ids into the first and the second
        half of factors, each of which holds distinct factors per mode.
        """
        a, b = np.nonzero(weights)
        return cls.from_arrays(layout, weights[a, b], np.concatenate([kets[a], bras[b]], axis=1),
                               factors)

    def adjoint(self) -> "TermSum":
        w = len(self.layout.names)
        return TermSum.from_arrays(self.layout, self.coeffs.conj(),
                                   np.concatenate([self.ids[:, w:], self.ids[:, :w]], axis=1),
                                   self.factors[w:] + self.factors[:w])

    def _halves(self) -> tuple:
        """KetSums of the left products (with the coefficients) and of the right ones."""
        w = len(self.layout.names)
        return (
            KetSum.from_arrays(self.layout, self.coeffs, self.ids[:, :w], self.factors[:w]),
            KetSum.from_arrays(self.layout, np.ones(len(self.coeffs), dtype=complex),
                               self.ids[:, w:], self.factors[w:]),
        )

    def trace(self, backend: Backend) -> complex:
        """sum_t c_t <R_t|L_t>."""
        lefts, rights = self._halves()
        lk, rk, sums = product_sums(lefts, rights, self.layout.names, (NO_PROJECTOR,), backend)
        return complex(np.sum(lefts.coeffs * sums[0][lk, rk]))

    def matrix_element(self, bra: KetSum, ket: KetSum, backend: Backend) -> complex:
        """<bra| self |ket>, as sum_t c_t <bra|L_t> <R_t|ket>."""
        lefts, rights = self._halves()
        left = term_overlaps(lefts, bra, backend) @ bra.coeffs.conj()
        right = ket.coeffs @ term_overlaps(ket, rights, backend)
        return complex(np.sum(lefts.coeffs * left * right))


def apply_beam_splitter(
    state: KetSum, mode_i: str, mode_j: str, theta: float = BS_THETA
) -> KetSum:
    """Beam splitter of mixing angle theta on modes (i, j) of a KetSum.

    Convention: generator exp(theta (a_i^dag a_j - a_i a_j^dag)), i.e.
    a_i^dag -> cos(theta) a_i^dag - sin(theta) a_j^dag and
    a_j^dag -> sin(theta) a_i^dag + cos(theta) a_j^dag.  The default
    theta = pi/4 is the 50:50 splitter: coherent amplitudes map as
    |g>_i |d>_j -> |(g+d)/sqrt2>_i |(d-g)/sqrt2>_j and a lone photon in i
    exits as (|1,0> - |0,1>)/sqrt2.  With a vacuum in j, theta = asin(r)
    leaks the fraction r^2 of mode i's energy into j: photon loss.  Each
    distinct (ket_i, ket_j) pair is transformed once, and each term is
    replaced by its pair's pieces, in order.
    """
    lay = state.layout
    i, j = lay.index(mode_i), lay.index(mode_j)
    fi, fj = state.factors[i], state.factors[j]
    # the distinct (ket_i, ket_j) pairs, as codes into a len(fi) x len(fj) table
    codes = state.ids[:, i] * len(fj) + state.ids[:, j]
    pair, n_pairs = _groups(codes, len(fi) * len(fj))
    pair_codes = np.empty(n_pairs, dtype=np.int64)
    pair_codes[pair] = codes  # the terms of one pair all write its code
    new_i, new_j, counts, pieces = {}, {}, [], []
    for p in pair_codes.tolist():
        out = _bs_pair(fi[p // len(fj)], fj[p % len(fj)], lay.cutoffs[i], lay.cutoffs[j], theta)
        counts.append(len(out))
        pieces += [(new_i.setdefault(ki, len(new_i)), new_j.setdefault(kj, len(new_j)))
                   for ki, kj in out]
    piece_ids = np.array(pieces, dtype=np.int64).reshape(-1, 2)
    # each term becomes its pair's pieces, in order: row r of the output
    # is piece (first piece of the pair) + (r - first row of the term)
    counts = np.array(counts, dtype=np.int64)
    per_term = counts[pair]
    rows = np.repeat(np.arange(len(codes)), per_term)
    shift = (np.cumsum(counts) - counts)[pair] - (np.cumsum(per_term) - per_term)
    ids = state.ids[rows]
    ids[:, i], ids[:, j] = piece_ids[np.arange(len(rows)) + shift[rows]].T
    factors = list(state.factors)
    factors[i], factors[j] = tuple(new_i), tuple(new_j)
    return KetSum.from_arrays(lay, state.coeffs[rows], ids, factors)


# ---------------------------------------------------------------------------
# projectors and contraction

@dataclass(frozen=True)
class ModeProjector:
    """Sum of product projectors; each branch maps mode name -> NumberFilter.

    Branches must be mutually orthogonal, as every photon-counting outcome
    table is: Contraction relies on it.
    """

    branches: tuple  # tuple of tuples of (mode_name, NumberFilter)

    def __post_init__(self):
        if not self.branches:
            raise ValueError("a projector needs at least one branch")


# one branch that names no mode: the plain trace of every mode it covers
NO_PROJECTOR = ModeProjector(((),))


# a first-principles point builds six product-sum plans and one weights plan per
# Choi-ket structure; a full crossval run builds 61 product-sum plans in all
PLAN_CACHE_SIZE = 128


def _read_only(*arrays) -> tuple:
    for arr in arrays:
        arr.setflags(write=False)  # shared by every caller of the cache
    return arrays


def _tuples(structure: tuple, modes: tuple) -> tuple:
    """(distinct rows of factor ids on modes, in code order; each term's row) of a KetSum.structure."""
    names, sizes, n, raw = structure
    idx = [names.index(m) for m in modes]
    mat = np.frombuffer(raw, dtype=np.int64).reshape(n, len(sizes))[:, idx]
    row, count = _groups(*_row_codes(mat, [sizes[i] for i in idx]))
    rows = np.empty((count, len(idx)), dtype=np.int64)
    rows[row] = mat  # the terms of one row all write it
    return rows, row


class _SumPlan(NamedTuple):
    """All that product_sums reads of one (ket, bra, modes, family) but numbers.

    rows holds the ket's and the bra's distinct tuples of factor ids on the
    modes, ids each term's tuple.  tables[k] = (ket column, bra column,
    filter) names one mode's overlap table under one filter; branch i
    multiplies, over the modes, the entries gather[i, :, t, u] of those
    tables flattened and concatenated, and projector p sums its branches,
    starts[p] onward.
    """

    rows: tuple
    ids: tuple
    tables: tuple
    gather: np.ndarray
    starts: np.ndarray

    def evaluate(self, ket: KetSum, bra: KetSum, backend: Backend) -> np.ndarray:
        """S of product_sums for a ket and a bra of the planned structures."""
        values = np.concatenate([np.zeros(0, dtype=complex)] + [
            overlap_table(bra.factors[b], filt, ket.factors[k], backend, ket.layout.cutoffs[k])
            for k, b, filt in self.tables], axis=None)
        return np.add.reduceat(values[self.gather].prod(axis=1), self.starts, axis=0)


@lru_cache(maxsize=PLAN_CACHE_SIZE)
def _sum_plan(ket: tuple, bra: tuple, modes: tuple, family: tuple) -> _SumPlan:
    """The plan of product_sums for KetSum structures ket and bra; cached, read-only."""
    ket_rows, ket_ids = tuples = _tuples(ket, modes)
    bra_rows, bra_ids = tuples if bra == ket else _tuples(bra, modes)
    grids, branches, starts = {}, [], []
    for proj in family:
        starts.append(len(branches))
        for branch in proj.branches:
            filters = dict(branch)
            branches.append([grids.setdefault((pos, filters.get(mode, FILTER_ALL)), len(grids))
                             for pos, mode in enumerate(modes)])
    tables = tuple((ket[0].index(modes[pos]), bra[0].index(modes[pos]), filt) for pos, filt in grids)
    pos = np.array([pos for pos, _ in grids], dtype=np.intp)
    n_ket = np.array([ket[1][k] for k, _, _ in tables], dtype=np.int64)
    n_bra = np.array([bra[1][b] for _, b, _ in tables], dtype=np.int64)
    # grid k reads its table, <bra factor i|F|ket factor j> at [i, j] flattened
    # row-major, at [bra tuple u's factor, ket tuple t's factor] for every (t, u)
    start = np.cumsum(n_bra * n_ket) - n_bra * n_ket
    grid_at = ((ket_rows.T[pos] + start[:, None])[:, :, None]
               + (bra_rows.T[pos] * n_ket[:, None])[:, None, :])
    branches = np.array(branches, dtype=np.intp).reshape(len(branches), len(modes))
    arrays = _read_only(ket_rows, bra_rows, ket_ids, bra_ids, grid_at[branches],
                        np.array(starts, dtype=np.intp))
    return _SumPlan(arrays[:2], arrays[2:4], tables, *arrays[4:])


def product_sums(ket: KetSum, bra: KetSum, modes: tuple, family: tuple,
                 backend: Backend) -> tuple:
    """(ket tuple ids, bra tuple ids, S): the one product-sum overlap routine.

    S[i, t, u] sums, over the branches of projector family[i], the product
    over modes of <bra factor|filter|ket factor> on the t-th distinct ket
    and the u-th distinct bra tuple of factor ids on modes; a mode a branch
    leaves unnamed gets FILTER_ALL, so (NO_PROJECTOR,) gives plain overlaps.
    The tuples and the table entries each product reads come from a plan
    cached per structure (_sum_plan); per call, each mode's values are one
    overlap_table over its distinct factors per filter, gathered by the plan.
    """
    plan = _sum_plan(ket.structure, bra.structure, tuple(modes), tuple(family))
    return plan.ids + (plan.evaluate(ket, bra, backend),)


def term_overlaps(ket: KetSum, bra: KetSum, backend: Backend) -> np.ndarray:
    """G[i, j] = <bra term j|ket term i> over the ket's modes, coefficients left out."""
    ket_ids, bra_ids, sums = product_sums(ket, bra, ket.layout.names, (NO_PROJECTOR,), backend)
    return sums[0][ket_ids[:, None], bra_ids]


class _Cells(NamedTuple):
    """One side's cells in Contraction.weights, a cell being a (kept product, folded
    tuple, batched tuple): term t adds to item slot[t] of the flattened (cell,
    environment tuple) array of the given shape.  Cells are numbered key-major,
    a key being a (kept product, folded tuple) in code order: fold[key] is its
    folded tuple, and starts[a] kept product a's first key."""

    slot: np.ndarray
    shape: tuple
    fold: np.ndarray
    starts: np.ndarray

    def sum(self, coeffs: np.ndarray) -> np.ndarray:
        a = np.zeros(self.shape[0] * self.shape[1], dtype=complex)
        np.add.at(a, self.slot, coeffs)
        return a.reshape(self.shape)


def _cells(side: int, kept: _SumPlan, fold: _SumPlan, batch: _SumPlan, env: _SumPlan) -> _Cells:
    """The cells of side 0 (the ket) or 1 (the bra)."""
    (n_kept, n_fold, n_batch, n_env) = (len(p.rows[side]) for p in (kept, fold, batch, env))
    codes = kept.ids[side] * n_fold + fold.ids[side]
    key, n_keys = _groups(codes, n_kept * n_fold)
    key_codes = np.empty(n_keys, dtype=np.int64)
    key_codes[key] = codes
    slot, fold_of, starts = _read_only(
        (key * n_batch + batch.ids[side]) * n_env + env.ids[side], key_codes % n_fold,
        np.flatnonzero(np.diff(key_codes // n_fold, prepend=-1)))
    return _Cells(slot, (n_keys * n_batch, n_env), fold_of, starts)


class _WeightsPlan(NamedTuple):
    """All that Contraction.weights reads of one (ket, bra, keep, families) but numbers:
    the product-sum plans of the environment, of the first (batched) and of the
    second (folded) family, and each side's cells."""

    env: _SumPlan
    batch: _SumPlan
    fold: _SumPlan
    ket_cells: _Cells
    bra_cells: _Cells


@lru_cache(maxsize=PLAN_CACHE_SIZE)
def _weights_plan(ket: tuple, bra: tuple, keep: tuple, families: tuple) -> _WeightsPlan:
    """The plan of Contraction.weights for KetSum structures ket and bra; cached, read-only."""
    named = [tuple(sorted({n for proj in fam for br in proj.branches for n, _ in br}))
             for fam in families]
    if set(named[0]) & set(named[1]):
        raise ValueError("projector families must act on disjoint modes")
    env = _sum_plan(ket, bra, tuple(m for m in ket[0] if m not in keep + named[0] + named[1]),
                    (NO_PROJECTOR,))
    batch, fold = (_sum_plan(ket, bra, modes, fam) for modes, fam in zip(named, families))
    planned = (_sum_plan(ket, bra, keep, (NO_PROJECTOR,)), fold, batch, env)
    ket_cells = _cells(0, *planned)
    return _WeightsPlan(env, batch, fold, ket_cells,
                        ket_cells if bra == ket else _cells(1, *planned))


class Contraction:
    """Projected partial trace Tr_traced[P |ket><bra| P] of one ket pair, any P.

    Every mode outside keep is traced.  A traced mode that no projector
    names gets the plain trace (FILTER_ALL), so NO_PROJECTOR, or no
    projector at all, gives the partial trace itself; so do the environment
    modes a dilated loss channel leaks into.  Branches must be mutually
    orthogonal: the cross terms Tr[P_i rho P_j] then vanish, leaving the sum
    over i of Tr_traced[P_i rho].

    Per-mode values are taken once per distinct factor pair and combined
    on the distinct factor tuples of a mode set; no N_ket * N_bra-term
    operator is built.  What depends only on the kets' structures (factor
    ids, table sizes), keep and the projectors is planned once and cached
    (_sum_plan, _weights_plan); a contraction evaluates only numbers: the
    overlap tables, the coefficient sums and a few array products.
    Factors match exactly, so pass canonicalized kets: only canonicalized()
    turns proportional or near-equal factors into one.
    """

    def __init__(self, ket: KetSum, bra: KetSum, keep: Iterable[str], backend: Backend):
        if bra.layout.names != ket.layout.names:
            raise ValueError("layout mismatch")
        self.ket, self.bra, self.backend = ket, bra, backend
        self.keep = keep = tuple(keep)
        lay = ket.layout
        idx = [lay.index(m) for m in keep]
        self.keep_layout = lay.subset(keep)
        self.kept_factors = tuple(ket.factors[i] for i in idx) + tuple(bra.factors[i] for i in idx)
        # the distinct kept products, as rows of ket and bra factor ids; each term's kept product
        plan = _sum_plan(ket.structure, bra.structure, keep, (NO_PROJECTOR,))
        (self.kept_kets, self.kept_bras), (self.ket_kept, self.bra_kept) = plan.rows, plan.ids
        # Tr of |kept ket a><kept bra b|
        self.keep_trace = plan.evaluate(ket, bra, backend)[0]

    def weights(self, *families) -> tuple:
        """(prob, W) for every outcome pair of up to two projector families.

        A family is a sequence of projectors (outcomes) on one mode set, the
        families on disjoint modes; a bare ModeProjector is a family of one,
        a missing family (NO_PROJECTOR,).  prob[i, j] = Tr[P_i P'_j rho] and
        W[i, j, a, b] weighs |kept_kets[a]><kept_bras[b]| in that output.
        Each side's coefficients are summed onto (cell, environment tuple)
        pairs, a cell being a (kept product, folded tuple, batched tuple):
        A E B^dag, E the environment's plain-trace table, weighs every cell
        pair, and no N_ket x N_bra array is built.  The first family is
        batched and the second folded (callers pass the family with more
        distinct factor tuples first): each batched outcome is one
        contraction of the cell weights with its branch sums, over the tuple
        pairs some outcome reaches.  The structure of all this is planned
        once per (ket, bra, keep, families) structure (_weights_plan).
        """
        fams = [(f,) if isinstance(f, ModeProjector) else tuple(f) for f in families]
        if len(fams) > 2:
            raise ValueError("at most two projector families")
        fams += [(NO_PROJECTOR,)] * (2 - len(fams))
        ket, bra, backend = self.ket, self.bra, self.backend
        plan = _weights_plan(ket.structure, bra.structure, self.keep, tuple(fams))
        plain = plan.env.evaluate(ket, bra, backend)[0]
        batch, fold = plan.batch.evaluate(ket, bra, backend), plan.fold.evaluate(ket, bra, backend)
        a = plan.ket_cells.sum(ket.coeffs)
        b = a if bra is ket else plan.bra_cells.sum(bra.coeffs)
        ket_fold, bra_fold = plan.ket_cells.fold, plan.bra_cells.fold
        # staged[i, k, l] = sum_tu batch[i, t, u] (A E B^dag)[(k, t), (l, u)], over the tuple
        # pairs (t, u) that some batched outcome reaches (photon counts pair few of them)
        (n_out, n_ket, n_bra), n_env = batch.shape, plain.shape[1]
        t, u = np.nonzero(np.any(batch, axis=0))
        left = (a @ plain).reshape(len(ket_fold), n_ket, n_env)[:, t].transpose(1, 0, 2)
        right = b.conj().reshape(len(bra_fold), n_bra, n_env)[:, u].transpose(1, 2, 0)
        keys = len(ket_fold), len(bra_fold)
        staged = (batch[:, t, u] @ (left @ right).reshape(len(t), math.prod(keys))).reshape(
            n_out, *keys)
        # times each folded outcome's branch sum, summed onto the kept products
        w = staged[:, None] * fold[:, ket_fold[:, None], bra_fold]
        for axis, starts in ((2, plan.ket_cells.starts), (3, plan.bra_cells.starts)):
            w = np.add.reduceat(w, starts, axis=axis) if len(starts) else w
        return np.einsum("ijab,ab->ij", w, self.keep_trace), w

    def operator(self, weights: np.ndarray) -> TermSum:
        """sum_ab weights[a, b] |kept_kets[a]><kept_bras[b]| on the kept modes."""
        return TermSum.from_pairs(self.keep_layout, weights, self.kept_kets, self.kept_bras,
                                  self.kept_factors)

    def outcome(self, *projectors: ModeProjector) -> tuple:
        """(Tr[P rho], unnormalized TermSum on the kept modes), as weights()."""
        prob, weights = self.weights(*projectors)
        return complex(prob[0, 0]), self.operator(weights[0, 0])


def gram_eigvals(state: TermSum, backend: Backend) -> np.ndarray:
    """Eigenvalues of a Hermitian TermSum via the Gram matrix of its kets.

    Works without materializing the full dense operator, so it stays cheap
    even when the layout's product dimension is huge.  The state is
    canonicalized first: product kets then match exactly, and near-equal
    ones have already been merged.
    """
    state = state.canonicalized()
    if not len(state.coeffs):
        return np.zeros(0)
    # the terms' left products, then their right ones, on one table per mode; over the distinct
    # products, gram[i, j] = <kets[i]|kets[j]> and mat[i, j] weighs |kets[i]><kets[j]|
    prods = KetSum.summed(state._halves())
    ids, _, sums = product_sums(prods, prods, state.layout.names, (NO_PROJECTOR,), backend)
    mat = np.zeros(sums[0].shape, dtype=complex)
    np.add.at(mat, tuple(np.split(ids, 2)), state.coeffs)
    return operator_eigvals(sums[0].T, mat)


def operator_eigvals(gram: np.ndarray, mats: np.ndarray) -> np.ndarray:
    """Eigenvalues of each Hermitian sum_ij mats[..., i, j] |e_i><e_j|, gram[i, j] = <e_i|e_j>,
    in one orthonormal basis of the e_i's span (gram's directions below 1e-12 of its top go)."""
    lam, vec = np.linalg.eigh(gram)
    good = lam > max(1e-12 * max(lam.max(), 1.0), 1e-14)
    w = (vec[:, good] * np.sqrt(lam[good])).conj().T
    h = w @ mats @ w.conj().T
    return np.linalg.eigvalsh(0.5 * (h + h.conj().swapaxes(-1, -2)))


def trace_distance(a: TermSum, b: TermSum, backend: Backend) -> float:
    """(1/2)||a - b||_1 for Hermitian TermSums on the same layout."""
    diff = a + b.scaled(-1.0)
    lam = gram_eigvals(diff, backend)
    return 0.5 * float(np.sum(np.abs(lam)))
