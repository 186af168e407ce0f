"""Multimode bosonic states as weighted sums of product terms.

States live on a fixed tuple of named modes.  A ket sum holds terms
c * |k_1> x ... x |k_M|, an operator sum holds terms c * prod_m |L_m><R_m|.
Each per-mode factor is either an explicit Fock coefficient vector or an
exact coherent state.  Sums keep their factors as given; canonicalized()
is the one place factors are normalized and near-equal terms merged.
Contractions (overlaps, traces, projections) reduce to per-mode scalar
factors, evaluated by one of two interchangeable backends: exact
coherent-state algebra, or truncated Fock sums at the layout cutoffs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from typing import Iterable, Union

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


@dataclass(frozen=True)
class FockVector:
    """Ket with explicit photon-number coefficients, index = photon count."""

    coeffs: tuple

    def __post_init__(self):
        object.__setattr__(self, "coeffs", tuple(complex(c) for c in self.coeffs))

    @property
    def degree(self) -> int:
        deg = -1
        for n, c in enumerate(self.coeffs):
            if abs(c) > 0.0:
                deg = n
        return deg


LocalKet = Union[Coherent, FockVector]


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
    for |a| above about 38.6.
    """
    out = np.zeros(cutoff + 1, dtype=complex)
    mag = abs(amplitude)
    if mag == 0.0:
        out[0] = 1.0
    else:
        n = np.arange(cutoff + 1)
        lgam = np.array([math.lgamma(k + 1.0) for k in range(cutoff + 1)])
        # powers of the unit phase by repeated product, exact for real amplitudes
        phase = np.ones(cutoff + 1, dtype=complex)
        phase[1:] = np.cumprod(np.full(cutoff, amplitude / mag))
        out[:] = np.exp(-0.5 * mag * mag + n * math.log(mag) - 0.5 * lgam) * phase
    tail = 1.0 - float(np.sum(np.abs(out) ** 2))
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
    for n, c in enumerate(k.coeffs[: cutoff + 1]):
        vec[n] = c
    return vec


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


@lru_cache(maxsize=1 << 18)
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


@lru_cache(maxsize=65536)
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


# ---------------------------------------------------------------------------
# beam splitter

BS_THETA = math.pi / 4.0


@lru_cache(maxsize=256)
def _bs_sector_matrix(k: int, theta: float = BS_THETA) -> np.ndarray:
    """Rotation of the total-photon-number-k sector, basis |n>_i |k-n>_j.

    Generator theta (a_i^dag a_j - a_i a_j^dag); the sector matrix is the
    exact exponential (the generator conserves total photon number).
    """
    g = np.zeros((k + 1, k + 1))
    for n in range(k):
        val = theta * math.sqrt((n + 1) * (k - n))
        g[n + 1, n] = val
        g[n, n + 1] = -val
    lam, vec = np.linalg.eigh(1j * g)
    return (vec * np.exp(-1j * lam)) @ vec.conj().T


def _bs_pair(
    ki: LocalKet, kj: LocalKet, ci: int, cj: int, theta: float = BS_THETA
) -> list:
    """Transform a two-mode product ket; returns [(scalar, ket_i, ket_j)].

    Coherent pairs stay a single product via the closed-form rule
    |g>|d> -> |cos(theta) g + sin(theta) d>|cos(theta) d - sin(theta) g>;
    Fock content is rotated exactly within each total-photon-number sector.
    """
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
        rot = _bs_sector_matrix(k, theta)
        full = np.zeros(k + 1, dtype=complex)
        for n in range(n_lo, n_hi + 1):
            full[n] = block[n, k - n]
        if not np.any(np.abs(full) > 0):
            continue
        res = rot @ full
        for n in range(k + 1):
            if n <= ci and k - n <= cj:
                out[n, k - n] += res[n]
            else:
                lost += abs(res[n]) ** 2
    if lost > COHERENT_TAIL_TOL:
        raise CutoffInsufficientError(
            f"beam splitter output exceeds cutoffs ({ci}, {cj}); "
            f"clipped weight {lost:.2e}"
        )
    pieces = []
    for n in range(out.shape[0]):
        row = out[n]
        if np.any(np.abs(row) > DROP_TOL):
            pieces.append((1.0 + 0.0j, fock(n), FockVector(tuple(row))))
    return pieces


# ---------------------------------------------------------------------------
# sums of product terms

def _canonical_terms(terms: list) -> list:
    """Canonical form of (c, *factor_groups) terms: the one place it is built.

    Every factor is normalized (normalize_ket) with its scale moved into c;
    the second group of an operator term holds bra factors, so its scales
    enter conjugated.  Terms whose factors agree to MERGE_DECIMALS (ket_key)
    are merged, sorted by that key, and dropped below DROP_TOL.  Each
    distinct factor (exact equality) is normalized and keyed once.
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
    return [
        (c, *groups_by_key[key])
        for key, c in sorted(acc.items(), key=lambda kv: kv[0])
        if abs(c) > DROP_TOL
    ]


class KetSum:
    """Pure state: sum of weighted product kets over the layout's modes."""

    __slots__ = ("layout", "terms")

    def __init__(self, layout: ModeLayout, terms: Iterable):
        self.layout = layout
        self.terms = [(complex(c), tuple(kets)) for c, kets in terms if c != 0]

    def scaled(self, z: complex) -> "KetSum":
        return KetSum(self.layout, [(c * z, k) for c, k in self.terms])

    def __add__(self, other: "KetSum") -> "KetSum":
        if other.layout.names != self.layout.names:
            raise ValueError("layout mismatch")
        return KetSum(self.layout, self.terms + other.terms)

    def tensor(self, other: "KetSum") -> "KetSum":
        lay = self.layout.merge(other.layout)
        terms = [
            (c1 * c2, k1 + k2)
            for c1, k1 in self.terms
            for c2, k2 in other.terms
        ]
        return KetSum(lay, terms)

    def canonicalized(self) -> "KetSum":
        return KetSum(self.layout, _canonical_terms(self.terms))

    def braket(self, other: "KetSum", backend: Backend) -> complex:
        """<self|other>."""
        if other.layout.names != self.layout.names:
            raise ValueError("layout mismatch")
        ket, bra = FactorTables(other), FactorTables(self)
        return complex(ket.coeffs @ term_overlaps(ket, bra, backend) @ bra.coeffs.conj())

    def norm2(self, backend: Backend) -> float:
        return float(self.braket(self, backend).real)

    def dm(self) -> "TermSum":
        """Outer product |self><self|."""
        terms = [
            (cl * cr.conjugate(), kl, kr)
            for cl, kl in self.terms
            for cr, kr in self.terms
        ]
        return TermSum(self.layout, terms)

    def outer(self, other: "KetSum") -> "TermSum":
        """|self><other|."""
        if other.layout.names != self.layout.names:
            raise ValueError("layout mismatch")
        terms = [
            (cl * cr.conjugate(), kl, kr)
            for cl, kl in self.terms
            for cr, kr in other.terms
        ]
        return TermSum(self.layout, terms)



class TermSum:
    """Operator: sum of weighted products of per-mode |L><R| factors."""

    __slots__ = ("layout", "terms")

    def __init__(self, layout: ModeLayout, terms: Iterable):
        self.layout = layout
        self.terms = [
            (complex(c), tuple(lefts), tuple(rights))
            for c, lefts, rights in terms
            if c != 0
        ]

    def scaled(self, z: complex) -> "TermSum":
        return TermSum(self.layout, [(c * z, l, r) for c, l, r in self.terms])

    def __add__(self, other: "TermSum") -> "TermSum":
        if other.layout.names != self.layout.names:
            raise ValueError("layout mismatch")
        return TermSum(self.layout, self.terms + other.terms)

    def tensor(self, other: "TermSum") -> "TermSum":
        lay = self.layout.merge(other.layout)
        terms = [
            (c1 * c2, l1 + l2, r1 + r2)
            for c1, l1, r1 in self.terms
            for c2, l2, r2 in other.terms
        ]
        return TermSum(lay, terms)

    def adjoint(self) -> "TermSum":
        return TermSum(
            self.layout, [(c.conjugate(), r, l) for c, l, r in self.terms]
        )

    def canonicalized(self) -> "TermSum":
        return TermSum(self.layout, _canonical_terms(self.terms))

    def _sides(self) -> tuple:
        """FactorTables of the left products (with the coefficients) and of the right ones."""
        return (
            FactorTables(KetSum(self.layout, [(c, l) for c, l, _ in self.terms])),
            FactorTables(KetSum(self.layout, [(1.0, r) for _, _, r in self.terms])),
        )

    def trace(self, backend: Backend) -> complex:
        """sum_t c_t <R_t|L_t>."""
        lefts, rights = self._sides()
        lk, rk, sums = product_sums(lefts, rights, self.layout.names, (NO_PROJECTOR,), backend)
        return complex(np.sum(lefts.coeffs * sums[0][lk, rk]))

    def matrix_element(self, bra: KetSum, ket: KetSum, backend: Backend) -> complex:
        """<bra| self |ket>, as sum_t c_t <bra|L_t> <R_t|ket>."""
        lefts, rights = self._sides()
        bra, ket = FactorTables(bra), FactorTables(ket)
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
    distinct (ket_i, ket_j) pair (exact equality) is transformed once.
    """
    lay = state.layout
    i, j = lay.index(mode_i), lay.index(mode_j)
    ci, cj = lay.cutoffs[i], lay.cutoffs[j]
    pairs = {}
    terms = []
    for c, kets in state.terms:
        pair = kets[i], kets[j]
        pieces = pairs.get(pair)
        if pieces is None:
            pieces = pairs[pair] = _bs_pair(*pair, ci, cj, theta)
        for s, ki, kj in pieces:
            new = list(kets)
            new[i], new[j] = ki, kj
            terms.append((c * s, tuple(new)))
    return KetSum(lay, terms)


# ---------------------------------------------------------------------------
# projectors and contraction

@dataclass(frozen=True)
class ModeProjector:
    """Sum of product projectors; each branch maps mode name -> NumberFilter.

    Branches must be mutually orthogonal, as every photon-counting outcome
    table is: Contraction relies on it.
    """

    branches: tuple  # tuple of tuples of (mode_name, NumberFilter)


# one branch that names no mode: the plain trace of every mode it covers
NO_PROJECTOR = ModeProjector(((),))


def _distinct(items: list) -> tuple:
    """(distinct items in first-seen order, each item's index).

    Items (factors or tuples of factors) match by exact equality, the
    identity the overlap caches use; only canonicalized() merges factors
    that agree to rounding.
    """
    index = {}
    firsts = []
    ids = np.empty(len(items), dtype=np.int64)
    for num, item in enumerate(items):
        pos = index.get(item)
        if pos is None:
            pos = index[item] = len(firsts)
            firsts.append(item)
        ids[num] = pos
    return firsts, ids


class FactorTables:
    """Contraction input built once per ket: coefficients, per mode (factors, term ids)."""

    def __init__(self, ket: KetSum):
        self.layout = ket.layout
        self.coeffs = np.array([c for c, _ in ket.terms], dtype=complex)
        self.modes = {
            name: _distinct([kets[i] for _, kets in ket.terms])
            for i, name in enumerate(ket.layout.names)
        }
        self._tuples = {}

    def tuples(self, modes) -> tuple:
        """(distinct tuples of factor ids on modes, as array rows; each term's row); cached."""
        modes = tuple(modes)
        if modes not in self._tuples:
            rows = list(zip(*(self.modes[m][1].tolist() for m in modes))) or [()] * len(self.coeffs)
            firsts, ids = _distinct(rows)
            firsts = np.array(firsts, dtype=np.int64).reshape(len(firsts), len(modes))
            self._tuples[modes] = firsts, ids
        return self._tuples[modes]


def product_sums(ket: FactorTables, bra: FactorTables, modes: tuple, family: tuple,
                 backend: Backend) -> tuple:
    """(ket tuple ids, bra tuple ids, S): the one product-sum overlap routine.

    S[i, t, u] sums, over the branches of projector family[i], the product
    over modes of <bra factor|filter|ket factor> on the t-th distinct ket
    and the u-th distinct bra tuple of factor ids on modes; a mode a branch
    leaves unnamed gets FILTER_ALL, so (NO_PROJECTOR,) gives plain overlaps.
    Each mode's values are one table over its distinct factors, taken once
    per filter and gathered onto the tuples by factor ids; plain overlaps
    come from overlap's cache alone, so filtered_overlap does not copy them.
    """
    (ket_rows, ket_ids), (bra_rows, bra_ids) = ket.tuples(modes), bra.tuples(modes)
    lay = ket.layout
    grids = {}
    sums = np.zeros((len(family), len(ket_rows), len(bra_rows)), dtype=complex)
    for total, proj in zip(sums, family):
        for branch in proj.branches:
            filters = dict(branch)
            acc = np.ones(total.shape, dtype=complex)
            for pos, mode in enumerate(modes):
                filt = filters.get(mode, FILTER_ALL)
                grid = grids.get((mode, filt))
                if grid is None:
                    kets, bras = ket.modes[mode][0], bra.modes[mode][0]
                    cut = lay.cutoffs[lay.index(mode)]
                    if filt == FILTER_ALL:
                        vals = [[overlap(b, k, backend, cut) for b in bras] for k in kets]
                    else:
                        vals = [[filtered_overlap(b, filt, k, backend, cut) for b in bras] for k in kets]
                    vals = np.array(vals, dtype=complex).reshape(len(kets), len(bras))
                    grid = grids[mode, filt] = vals[ket_rows[:, pos, None], bra_rows[:, pos]]
                acc = acc * grid
            total += acc
    return ket_ids, bra_ids, sums


def term_overlaps(ket: FactorTables, bra: FactorTables, backend: Backend) -> np.ndarray:
    """G[i, j] = <bra term j|ket term i> over the ket's modes, coefficients left out."""
    ket_ids, bra_ids, sums = product_sums(ket, bra, ket.layout.names, (NO_PROJECTOR,), backend)
    return sums[0][ket_ids[:, None], bra_ids]


@dataclass(frozen=True)
class KeptProducts:
    """The distinct kept-mode products: W[a, b] weighs |kets[a]><bras[b]|."""

    layout: ModeLayout
    kets: tuple
    bras: tuple

    def operator(self, weights: np.ndarray) -> TermSum:
        terms = [
            (weights[p, q], self.kets[p], self.bras[q])
            for p, q in zip(*np.nonzero(np.abs(weights) > 1e-16))
        ]
        return TermSum(self.layout, terms)


class Contraction:
    """Projected partial trace Tr_traced[P |ket><bra| P] of one ket pair, any P.

    Every mode outside keep is traced.  A traced mode that no projector
    names gets the plain trace (FILTER_ALL), so NO_PROJECTOR, or no
    projector at all, gives the partial trace itself; so do the environment
    modes a dilated loss channel leaks into.  Branches must be mutually
    orthogonal: the cross terms Tr[P_i rho P_j] then vanish, leaving the sum
    over i of Tr_traced[P_i rho].

    ket and bra are KetSums or their FactorTables.  Per-mode values are
    taken once per distinct factor pair and combined on the distinct
    factor tuples of a mode set; no N_ket * N_bra-term operator is built.
    Factors match exactly, so pass canonicalized kets: only canonicalized()
    turns proportional or near-equal factors into one.
    """

    def __init__(self, ket, bra, keep: Iterable[str], backend: Backend):
        if bra.layout.names != ket.layout.names:
            raise ValueError("layout mismatch")
        self.ket, self.bra = (
            side if isinstance(side, FactorTables) else FactorTables(side)
            for side in (ket, bra)
        )
        keep = tuple(keep)
        lay = ket.layout
        self.backend = backend
        self.traced = tuple(n for n in lay.names if n not in keep)
        kept = [
            [tuple(side.modes[m][0][i] for m, i in zip(keep, t)) for t in side.tuples(keep)[0]]
            for side in (self.ket, self.bra)
        ]
        self.kept = KeptProducts(lay.subset(keep), *map(tuple, kept))
        # Tr of |kept ket a><kept bra b|, and each term's kept product
        self.ket_kept, self.bra_kept, trace = product_sums(self.ket, self.bra, keep,
                                                           (NO_PROJECTOR,), backend)
        self.keep_trace = trace[0]

    def weights(self, *families) -> tuple:
        """(prob, W) for every outcome pair of up to two projector families.

        A family is a sequence of projectors (outcomes) on one mode set, the
        families on disjoint modes; a bare ModeProjector is a family of one,
        a missing family (NO_PROJECTOR,).  prob[i, j] = Tr[P_i P'_j rho] and
        W[i, j, a, b] weighs |kept.kets[a]><kept.bras[b]| in that output.
        Q, the coefficients times the environment's plain trace, is summed
        once onto (kept product, folded tuple, batched tuple) pairs: the
        family with fewer distinct factor tuples is folded, and each outcome
        of the other is one contraction of those sums with its branch sums.
        """
        fams = [(f,) if isinstance(f, ModeProjector) else tuple(f) for f in families]
        if len(fams) > 2:
            raise ValueError("at most two projector families")
        fams += [(NO_PROJECTOR,)] * (2 - len(fams))
        named = [sorted({n for proj in fam for br in proj.branches for n, _ in br}) for fam in fams]
        if set(named[0]) & set(named[1]):
            raise ValueError("projector families must act on disjoint modes")
        env = tuple(m for m in self.traced if m not in named[0] + named[1])
        env_k, env_b, plain = product_sums(self.ket, self.bra, env, (NO_PROJECTOR,), self.backend)
        q = np.outer(self.ket.coeffs, self.bra.coeffs.conj()) * plain[0][env_k[:, None], env_b]
        sums = [product_sums(self.ket, self.bra, modes, fam, self.backend)
                for modes, fam in zip(named, fams)]
        swap = sums[0][2][0].size < sums[1][2][0].size
        (batch_k, batch_b, batch), (fold_k, fold_b, fold) = sums[::-1] if swap else sums
        # keys (kept product, folded tuple), and each term's key
        (ket_keys, ket_cells), (bra_keys, bra_cells) = (
            _distinct(list(zip(kept.tolist(), ids.tolist())))
            for kept, ids in ((self.ket_kept, fold_k), (self.bra_kept, fold_b))
        )
        ket_keys, bra_keys = (np.array(k, dtype=np.int64).reshape(-1, 2) for k in (ket_keys, bra_keys))
        # Q summed onto (key, batched tuple) pairs: no N_ket x N_bra array per outcome
        _, tk, tb = batch.shape
        rows = np.eye(len(ket_keys) * tk)[ket_cells * tk + batch_k]
        cols = np.eye(len(bra_keys) * tb)[bra_cells * tb + batch_b]
        pairs = (rows.T @ q @ cols).reshape(len(ket_keys), tk, len(bra_keys), tb)
        staged = np.einsum("ktlu,itu->ikl", pairs, batch)
        # times each folded outcome's branch sum, summed onto the kept products
        folded = staged[:, None] * fold[:, ket_keys[:, 1]][:, :, bra_keys[:, 1]]
        w = np.eye(len(self.kept.kets))[ket_keys[:, 0]].T @ folded
        w = w @ np.eye(len(self.kept.bras))[bra_keys[:, 0]]
        if swap:
            w = w.swapaxes(0, 1)
        return np.einsum("ijab,ab->ij", w, self.keep_trace), w

    def outcome(self, *projectors: ModeProjector) -> tuple:
        """(Tr[P rho], unnormalized TermSum on the kept modes), as weights()."""
        prob, weights = self.weights(*projectors)
        return complex(prob[0, 0]), self.kept.operator(weights[0, 0])

    def kept_overlaps(self, kets) -> tuple:
        """(A, B) with A[p, a] = <kets[p]|kept.kets[a]>, B[b, q] = <kept.bras[b]|kets[q]>.

        kets are KetSums on the kept modes: <kets[p]|kept.operator(W)|kets[q]>
        is then (A @ W @ B)[p, q] for every W from weights().
        """
        reads = FactorTables(KetSum(self.kept.layout, [t for psi in kets for t in psi.terms]))
        owner = np.repeat(np.arange(len(kets)), [len(psi.terms) for psi in kets])
        # mix[p, j]: read term j's coefficient if it belongs to kets[p]
        mix = np.eye(len(kets))[owner].T * reads.coeffs

        def brakets(side):
            # rows of S are side's distinct kept tuples: the order of kept.kets/bras
            _, ids, sums = product_sums(side, reads, reads.layout.names, (NO_PROJECTOR,),
                                        self.backend)
            return mix.conj() @ sums[0][:, ids].T

        return brakets(self.ket), brakets(self.bra).conj().T


def gram_eigvals(state: TermSum, backend: Backend) -> np.ndarray:
    """Eigenvalues of a Hermitian TermSum via the Gram matrix of its kets.

    Works without materializing the full dense operator, so it stays cheap
    even when the layout's product dimension is huge.  The state is
    canonicalized first: product kets then match exactly, and near-equal
    ones have already been merged.
    """
    st = state.canonicalized()
    # ids alternate left, right per term
    kets, ids = _distinct(
        [prod for _, lefts, rights in st.terms for prod in (lefts, rights)]
    )
    n = len(kets)
    if n == 0:
        return np.zeros(0)
    mat = np.zeros((n, n), dtype=complex)
    np.add.at(mat, (ids[0::2], ids[1::2]), [c for c, _, _ in st.terms])
    prods = FactorTables(KetSum(st.layout, [(1.0, prod) for prod in kets]))
    # gram[i, j] = <kets[i]|kets[j]>
    lam, vec = np.linalg.eigh(term_overlaps(prods, prods, backend).T)
    good = lam > max(1e-12 * max(lam.max(), 1.0), 1e-14)
    w = (vec[:, good] * np.sqrt(lam[good])).conj().T
    h = w @ mat @ w.conj().T
    return np.linalg.eigvalsh(0.5 * (h + h.conj().T))


def trace_distance(a: TermSum, b: TermSum, backend: Backend) -> float:
    """(1/2)||a - b||_1 for Hermitian TermSums on the same layout."""
    diff = a + b.scaled(-1.0)
    lam = gram_eigvals(diff, backend)
    return 0.5 * float(np.sum(np.abs(lam)))
