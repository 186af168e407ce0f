"""State-engine unit tests: kets, overlaps, beam splitter, contractions.

Expected values are produced by independent oracles: dense truncated-Fock
vectors for overlaps and projections, and a dense two-mode matrix
exponential (scipy) for the beam splitter.
"""

import itertools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from hybrid_teleport import engine
from hybrid_teleport.engine import (
    BS_THETA,
    COHERENT_ALGEBRA,
    COHERENT_TAIL_TOL,
    TRUNCATED_FOCK,
    Coherent,
    Contraction,
    CutoffInsufficientError,
    FockVector,
    FILTER_ALL,
    FILTER_EVEN_GE2,
    FILTER_ODD,
    FILTER_SINGLE,
    FILTER_VACUUM,
    KetSum,
    ModeLayout,
    ModeProjector,
    NO_PROJECTOR,
    PLAN_CACHE_SIZE,
    NumberFilter,
    Role,
    TermSum,
    _coherent_coeffs,
    apply_beam_splitter,
    default_cutoff,
    filtered_overlap,
    fock,
    gram_eigvals,
    ket_vector,
    normalize_ket,
    overlap,
    overlap_table,
    product_sums,
    term_overlaps,
    trace_distance,
)
from hybrid_teleport.measurement import FILTER_DOUBLE

import overlap_oracle
from protocol_oracle import dense_weights

BACKENDS = (COHERENT_ALGEBRA, TRUNCATED_FOCK)
TRACE = ModeProjector(((),))  # one empty branch: the plain partial trace


def dense_bs(cutoff: int, theta: float = BS_THETA) -> np.ndarray:
    """Dense two-mode beam splitter via matrix exponential (oracle), 50:50 by default."""
    dim = cutoff + 1
    a = np.diag(np.sqrt(np.arange(1, dim)), k=1)
    adag = a.T.conj()
    eye = np.eye(dim)
    gen = np.kron(adag, eye) @ np.kron(eye, a) - np.kron(a, eye) @ np.kron(eye, adag)
    return expm(theta * gen)


def two_mode_vector(kets, cutoff: int) -> np.ndarray:
    return np.kron(ket_vector(kets[0], cutoff), ket_vector(kets[1], cutoff))


def ketsum_two_mode_vector(state: KetSum, cutoff: int) -> np.ndarray:
    vec = np.zeros((cutoff + 1) ** 2, dtype=complex)
    for c, kets in state.terms:
        vec += c * two_mode_vector(kets, cutoff)
    return vec


class TestLocalKets:
    def test_fock_vector_coerces_complex(self):
        k = FockVector((1, 0.5))
        assert all(isinstance(c, complex) for c in k.coeffs)

    def test_ket_vector_fock(self):
        v = ket_vector(FockVector((0.6, 0.8)), 3)
        assert np.allclose(v, [0.6, 0.8, 0.0, 0.0])

    def test_ket_vector_coherent_matches_series(self):
        g = 0.7
        v = ket_vector(Coherent(g), 25)
        ref = np.array(
            [math.exp(-0.5 * g * g) * g**n / math.sqrt(math.factorial(n)) for n in range(26)]
        )
        assert np.allclose(v, ref, atol=1e-12)

    def test_ket_vector_cutoff_guard(self):
        with pytest.raises(CutoffInsufficientError):
            ket_vector(Coherent(3.0), 4)

    def test_ket_vector_coherent_large_amplitude(self):
        # exp(-|a|^2/2) underflows here; the log-space series must not
        vec = ket_vector(Coherent(40.0), default_cutoff(40.0) + 150)
        assert abs(np.vdot(vec, vec).real - 1.0) < 1e-10

    @given(st.floats(0.0, 150.0))
    @example(0.5)
    @example(2.83)
    @example(12.0)
    @example(14.15)
    @example(20.0)
    @example(42.43)
    @example(80.0)
    @example(150.0)
    @settings(max_examples=30, deadline=None)
    def test_default_cutoff_tail(self, g):
        # ket_vector raises CutoffInsufficientError above COHERENT_TAIL_TOL
        vec = ket_vector(Coherent(g), default_cutoff(g))
        assert 1.0 - np.vdot(vec, vec).real < COHERENT_TAIL_TOL

    @pytest.mark.parametrize("a", [38.6, 60.0, 100.0, 150.0])
    def test_coherent_tail_is_the_omitted_weight(self, a):
        # the tail is the weight past the cutoff, not 1 - sum |c_n|^2, which
        # is rounding error at these amplitudes (negative at a = 100)
        cutoff = default_cutoff(a)
        _, tail = _coherent_coeffs(complex(a), cutoff)
        weights, n = [], cutoff + 1
        while not weights or weights[-1] > 1e-40:  # past the cutoff they only fall
            weights.append(math.exp(-a * a + 2.0 * n * math.log(a) - math.lgamma(n + 1.0)))
            n += 1
        assert 0.0 <= tail < COHERENT_TAIL_TOL
        assert math.isclose(tail, math.fsum(weights), rel_tol=1e-3)

    def test_normalize_ket_unit_norm_and_phase(self):
        s, k = normalize_ket(FockVector((0.0, -2.0j, 1.0j)))
        coeffs = np.array(k.coeffs)
        assert math.isclose(np.linalg.norm(coeffs), 1.0, abs_tol=1e-12)
        first = coeffs[np.flatnonzero(np.abs(coeffs) > 0)[0]]
        assert abs(first.imag) < 1e-12 and first.real > 0
        rebuilt = s * coeffs
        assert np.allclose(rebuilt, [0.0, -2.0j, 1.0j])

    def test_normalize_ket_zero_vector(self):
        s, _ = normalize_ket(FockVector((0.0, 0.0)))
        assert s == 0

    @given(st.lists(st.complex_numbers(max_magnitude=3, allow_nan=False,
                                       allow_infinity=False), min_size=1, max_size=5))
    def test_normalize_ket_reconstructs(self, coeffs):
        s, k = normalize_ket(FockVector(tuple(coeffs)))
        rebuilt = s * np.array(k.coeffs) if s != 0 else np.zeros(len(k.coeffs))
        padded = np.zeros(len(k.coeffs), dtype=complex)
        padded[: len(coeffs)] = coeffs
        assert np.allclose(rebuilt, padded, atol=1e-9)


class TestOverlap:
    def test_coherent_coherent_closed_form(self):
        g, d = 1.3, -0.4
        got = overlap(Coherent(g), Coherent(d), COHERENT_ALGEBRA, 0)
        want = math.exp(-0.5 * (g * g + d * d) + g * d)
        assert abs(got - want) < 1e-14

    @given(
        st.floats(-2.0, 2.0),
        st.floats(-2.0, 2.0),
    )
    @settings(max_examples=40)
    def test_backends_agree_coherent(self, g, d):
        cut = max(default_cutoff(g), default_cutoff(d))
        a = overlap(Coherent(g), Coherent(d), COHERENT_ALGEBRA, cut)
        b = overlap(Coherent(g), Coherent(d), TRUNCATED_FOCK, cut)
        assert abs(a - b) < 1e-8

    def test_fock_coherent(self):
        g = 0.9
        got = overlap(fock(2), Coherent(g), COHERENT_ALGEBRA, 20)
        want = math.exp(-0.5 * g * g) * g**2 / math.sqrt(2.0)
        assert abs(got - want) < 1e-14

    def test_conjugation_order(self):
        bra = FockVector((0.6, 0.8j))
        ket = Coherent(0.5)
        cut = default_cutoff(0.5)
        direct = overlap(bra, ket, COHERENT_ALGEBRA, cut)
        dense = np.vdot(ket_vector(bra, cut), ket_vector(ket, cut))
        assert abs(direct - dense) < 1e-12


class TestFilters:
    # (bra, ket) per kind: coherent states, or Fock vectors with support
    # above and below the filters' thresholds
    KETS = {
        "coherent": (Coherent(1.1), Coherent(-0.8 + 0.3j)),
        "fock": (FockVector((0.3, -0.5j, 0.8, 0.1)), FockVector((0.2, 0.4, 0.0, -0.6, 0.5j))),
    }

    @pytest.mark.parametrize(
        "kinds", ["coherent,coherent", "fock,coherent", "coherent,fock", "fock,fock"]
    )
    @pytest.mark.parametrize("backend", BACKENDS, ids=lambda b: b.kind)
    def test_filtered_overlap_matches_masked_vector(self, backend, kinds):
        bra_kind, ket_kind = kinds.split(",")
        bra, ket = self.KETS[bra_kind][0], self.KETS[ket_kind][1]
        cut = default_cutoff(1.1)
        vb, vk = ket_vector(bra, cut), ket_vector(ket, cut)
        filters = (FILTER_VACUUM, FILTER_SINGLE, NumberFilter("n", 3), FILTER_ODD,
                   FILTER_EVEN_GE2, FILTER_ALL)
        for filt in filters:
            want = np.vdot(vb, filt.mask(cut + 1) * vk)
            got = filtered_overlap(bra, filt, ket, backend, cut)
            assert abs(got - want) < 1e-10, filt

    def test_filters_partition_identity(self):
        g, d = 0.9, 1.4
        cut = max(default_cutoff(g), default_cutoff(d))
        parts = sum(
            filtered_overlap(Coherent(g), f, Coherent(d), COHERENT_ALGEBRA, cut)
            for f in (FILTER_VACUUM, FILTER_SINGLE, FILTER_ODD, FILTER_EVEN_GE2)
        )
        # vacuum + single + odd + even_ge2 double-counts n=1 (odd includes it)
        extra = filtered_overlap(Coherent(g), FILTER_SINGLE, Coherent(d), COHERENT_ALGEBRA, cut)
        full = overlap(Coherent(g), Coherent(d), COHERENT_ALGEBRA, cut)
        assert abs(parts - extra - full) < 1e-10

    def test_number_filter_rejects_unknown_kind(self):
        with pytest.raises(ValueError):
            NumberFilter("bogus").mask(4)


# coherent factors up to |amplitude| 40, with 0 and +-1e-16 drawn often;
# Fock factors of degree 0-6, zero vectors, and trailing zeros
coherent_factors = st.one_of(
    st.sampled_from([0.0, 1e-16, -1e-16, 1e-16j]),
    st.builds(lambda mag, phase: mag * complex(math.cos(phase), math.sin(phase)),
              st.floats(0.0, 40.0), st.floats(-math.pi, math.pi)),
).map(Coherent)
fock_coeffs = st.complex_numbers(max_magnitude=2.0, allow_nan=False, allow_infinity=False)
fock_factors = st.one_of(
    st.integers(1, 3).map(lambda n: FockVector((0.0,) * n)),
    st.builds(lambda cs, zeros: FockVector(tuple(cs) + (0.0,) * zeros),
              st.lists(fock_coeffs, min_size=1, max_size=7), st.integers(0, 2)),
)
factor_tables = st.lists(st.one_of(coherent_factors, fock_factors), min_size=1, max_size=4).map(tuple)
ALL_FILTERS = (FILTER_ALL, FILTER_VACUUM, FILTER_SINGLE, FILTER_DOUBLE, NumberFilter("n", 5),
               FILTER_ODD, FILTER_EVEN_GE2)


class TestOverlapTable:
    @given(factor_tables, factor_tables, st.sampled_from(BACKENDS))
    @example((Coherent(40.0), FockVector((0.0,))), (Coherent(-40.0), fock(6), Coherent(1e-16)),
             COHERENT_ALGEBRA)
    @example((Coherent(1e-16), FockVector((0.5, 0.0, 0.0))), (Coherent(-1e-16), Coherent(0.0)),
             TRUNCATED_FOCK)
    @settings(max_examples=60, deadline=None)
    def test_matches_scalar_oracle(self, bras, kets, backend):
        # every entry is the per-pair case ladder's value, under every filter
        cut = max([default_cutoff(k.amplitude) for k in bras + kets if isinstance(k, Coherent)]
                  + [len(k.coeffs) for k in bras + kets if isinstance(k, FockVector)])
        for filt in ALL_FILTERS:
            table = overlap_table(bras, filt, kets, backend, cut)
            assert table.shape == (len(bras), len(kets)) and not table.flags.writeable
            want = [[overlap_oracle.filtered_overlap(b, filt, k, backend, cut) for k in kets]
                    for b in bras]
            assert np.max(np.abs(table - np.array(want))) <= 1e-12, filt

    def test_fock_backend_rejects_a_degree_above_the_cutoff(self):
        with pytest.raises(CutoffInsufficientError):
            overlap_table((fock(4),), FILTER_ALL, (Coherent(0.5),), TRUNCATED_FOCK, 3)
        with pytest.raises(CutoffInsufficientError):
            overlap_table((fock(0),), FILTER_ODD, (FockVector((0.0,) * 5 + (1.0,)),), TRUNCATED_FOCK, 4)
        # the coherent backend bounds its sums by the degrees in the table instead
        assert overlap_table((fock(4),), FILTER_ALL, (fock(4),), COHERENT_ALGEBRA, 3)[0, 0] == 1.0


class TestBeamSplitter:
    def test_single_photon_split_signs(self):
        lay = ModeLayout(("p", "q"), (3, 3), (Role.PHOTONIC, Role.PHOTONIC))
        state = KetSum(lay, [(1.0, (fock(1), fock(0)))])
        out = apply_beam_splitter(state, "p", "q").canonicalized()
        vec = ketsum_two_mode_vector(out, 3)
        want = np.zeros(16, dtype=complex)
        want[1 * 4 + 0] = 1 / math.sqrt(2)   # |1,0>
        want[0 * 4 + 1] = -1 / math.sqrt(2)  # |0,1>
        assert np.allclose(vec, want, atol=1e-12)

    def test_coherent_pair_rule(self):
        lay = ModeLayout(("p", "q"), (40, 40), (Role.COHERENT, Role.COHERENT))
        g, d = 1.1, -0.3
        state = KetSum(lay, [(1.0, (Coherent(g), Coherent(d)))])
        out = apply_beam_splitter(state, "p", "q")
        assert len(out.terms) == 1
        _, kets = out.terms[0]
        assert isinstance(kets[0], Coherent) and isinstance(kets[1], Coherent)
        assert abs(kets[0].amplitude - (g + d) / math.sqrt(2)) < 1e-12
        assert abs(kets[1].amplitude - (d - g) / math.sqrt(2)) < 1e-12

    @given(
        st.integers(0, 2),
        st.integers(0, 2),
        # the 50:50 splitter and loss splitters asin(r)
        st.sampled_from([BS_THETA, math.asin(0.02), math.asin(0.3), math.asin(0.98)]),
    )
    @settings(max_examples=36, deadline=None)
    def test_fock_pair_matches_dense_exponential(self, n, m, theta):
        cutoff = max(n + m, 2)
        lay = ModeLayout(("p", "q"), (cutoff, cutoff), (Role.PHOTONIC, Role.PHOTONIC))
        state = KetSum(lay, [(1.0, (fock(n), fock(m)))])
        out = apply_beam_splitter(state, "p", "q", theta).canonicalized()
        got = ketsum_two_mode_vector(out, cutoff)
        want = dense_bs(cutoff, theta) @ two_mode_vector((fock(n), fock(m)), cutoff)
        assert np.allclose(got, want, atol=1e-12)

    def test_clipped_weight_guard(self):
        # |2,2> at 50:50 puts 3/8 on each of |4,0> and |0,4>, beyond cutoffs (2, 2)
        lay = ModeLayout(("p", "q"), (2, 2), (Role.PHOTONIC, Role.PHOTONIC))
        with pytest.raises(CutoffInsufficientError, match=r"clipped weight 7\.50e-01"):
            apply_beam_splitter(KetSum(lay, [(1.0, (fock(2), fock(2)))]), "p", "q")
        out = apply_beam_splitter(KetSum(lay, [(1.0, (fock(1), fock(1)))]), "p", "q")
        want = dense_bs(2) @ two_mode_vector((fock(1), fock(1)), 2)
        assert np.allclose(ketsum_two_mode_vector(out, 2), want, atol=1e-15)

    @pytest.mark.parametrize("case", ["single", "repeated-pair"])
    def test_mixed_fock_coherent_matches_dense(self, case):
        # "repeated-pair": terms that share one (p, q) pair, with different
        # coefficients and other-mode factors, beside pairs that differ from
        # it in q or in both modes
        g = 0.8
        cutoff = 22
        lay = ModeLayout(
            ("p", "q", "o"), (cutoff, cutoff, 2),
            (Role.PHOTONIC, Role.COHERENT, Role.PHOTONIC),
        )
        terms = [(1.0, (fock(1), Coherent(g), fock(0)))]
        if case == "repeated-pair":
            terms += [
                (0.5j, (fock(1), Coherent(g), fock(1))),
                (-0.3, (fock(1), Coherent(g), FockVector((0.6, 0.0, 0.8)))),
                (0.7, (fock(0), Coherent(-g), fock(2))),
                (0.4, (fock(1), Coherent(-g), fock(0))),
                (0.2, (fock(1), Coherent(g), fock(2))),
            ]
        state = KetSum(lay, terms)
        out = apply_beam_splitter(state, "p", "q")
        got = dense_ket(out)
        want = np.kron(dense_bs(cutoff), np.eye(3)) @ dense_ket(state)
        assert np.allclose(got, want, atol=1e-8)
        by_term = sum(
            (apply_beam_splitter(KetSum(lay, [t]), "p", "q") for t in terms),
            KetSum(lay, []),
        )
        assert np.allclose(got, dense_ket(by_term), rtol=0, atol=1e-14)

    @given(st.floats(-1.5, 1.5), st.floats(-1.5, 1.5))
    @settings(max_examples=20, deadline=None)
    def test_preserves_norm(self, x, y):
        lay = ModeLayout(("p", "q"), (30, 30), (Role.COHERENT, Role.COHERENT))
        state = KetSum(
            lay,
            [
                (0.8, (Coherent(x), Coherent(y))),
                (0.2, (Coherent(-x), Coherent(y))),
            ],
        )
        out = apply_beam_splitter(state, "p", "q")
        assert math.isclose(
            out.norm2(COHERENT_ALGEBRA).real,
            state.norm2(COHERENT_ALGEBRA).real,
            rel_tol=1e-10,
        )


class TestSums:
    def _qubit_pair(self):
        lay = ModeLayout(("p", "C"), (2, 20), (Role.PHOTONIC, Role.COHERENT))
        plus = KetSum(lay, [(1.0, (FockVector((1.0, 1.0)), Coherent(0.9)))])
        minus = KetSum(lay, [(1.0, (FockVector((1.0, -1.0)), Coherent(-0.9)))])
        return lay, plus, minus

    def test_ketsum_normalizes_factor_scalars(self):
        # sums store factors as given; canonicalized() moves each factor's
        # scale into the coefficient, conjugated for a bra factor
        lay = ModeLayout(("p",), (3,), (Role.PHOTONIC,))
        a = KetSum(lay, [(1.0, (FockVector((0.0, 2.0j)),))])
        b = KetSum(lay, [(2.0j, (fock(1),))])
        assert a.terms[0][1] != b.terms[0][1]
        ca, cb = a.canonicalized(), b.canonicalized()
        assert ca.terms[0][1] == cb.terms[0][1] == (fock(1),)
        assert abs(ca.terms[0][0] - 2.0j) < 1e-12
        assert abs(cb.terms[0][0] - 2.0j) < 1e-12
        (c, _), = (a + b).canonicalized().terms
        assert abs(c - 4.0j) < 1e-12
        op = TermSum(lay, [(1.0, (fock(1),), (FockVector((0.0, 2.0j)),))])
        (c, lefts, rights), = op.canonicalized().terms
        assert lefts == rights == (fock(1),)
        assert abs(c + 2.0j) < 1e-12
        (c, _, _), = op.adjoint().canonicalized().terms
        assert abs(c - 2.0j) < 1e-12

    def test_canonicalized_merges(self):
        lay = ModeLayout(("p",), (3,), (Role.PHOTONIC,))
        s = KetSum(lay, [(0.5, (fock(1),)), (0.5, (fock(1),)), (1.0, (fock(0),))])
        merged = s.canonicalized()
        assert len(merged.terms) == 2

    def test_dm_and_trace(self):
        _, plus, _ = self._qubit_pair()
        rho = plus.dm()
        n2 = plus.norm2(COHERENT_ALGEBRA).real
        assert math.isclose(rho.trace(COHERENT_ALGEBRA).real, n2, rel_tol=1e-12)

    def test_matrix_element_conjugation(self):
        _, plus, minus = self._qubit_pair()
        rho = plus.outer(minus)
        m1 = rho.matrix_element(plus, minus, COHERENT_ALGEBRA)
        np_plus = plus.norm2(COHERENT_ALGEBRA).real
        np_minus = minus.norm2(COHERENT_ALGEBRA).real
        assert math.isclose(m1.real, np_plus * np_minus, rel_tol=1e-12)

    def test_adjoint_involution(self):
        _, plus, minus = self._qubit_pair()
        rho = plus.outer(minus)
        again = rho.adjoint().adjoint().canonicalized()
        base = rho.canonicalized()
        assert trace_distance(again, base, COHERENT_ALGEBRA) < 1e-12

    def test_partial_trace_reduces(self):
        lay, plus, minus = self._qubit_pair()
        rho = plus.dm().scaled(0.25) + minus.dm().scaled(0.25)
        # the mixture's contraction is the sum of its components', by linearity
        (p_plus, red_plus), (p_minus, red_minus) = (
            Contraction(psi, psi, ("p",), COHERENT_ALGEBRA).outcome(TRACE)
            for psi in (plus.scaled(0.5), minus.scaled(0.5))
        )
        prob, red = p_plus + p_minus, red_plus + red_minus
        assert red.layout.names == ("p",)
        total = rho.trace(COHERENT_ALGEBRA)
        assert math.isclose(red.trace(COHERENT_ALGEBRA).real, total.real, rel_tol=1e-12)
        assert math.isclose(prob.real, total.real, rel_tol=1e-12)

    def test_trace_distance_metric_properties(self):
        _, plus, minus = self._qubit_pair()
        a = plus.dm().scaled(1.0 / plus.norm2(COHERENT_ALGEBRA).real)
        b = minus.dm().scaled(1.0 / minus.norm2(COHERENT_ALGEBRA).real)
        assert trace_distance(a, a, COHERENT_ALGEBRA) < 1e-12
        dab = trace_distance(a, b, COHERENT_ALGEBRA)
        dba = trace_distance(b, a, COHERENT_ALGEBRA)
        assert math.isclose(dab, dba, rel_tol=1e-10)
        assert 0.0 < dab <= 1.0 + 1e-12


def dense_product(kets, cuts) -> np.ndarray:
    """Kronecker product of per-mode truncated-Fock vectors (oracle)."""
    out = np.ones(1, dtype=complex)
    for k, cut in zip(kets, cuts):
        out = np.kron(out, ket_vector(k, cut))
    return out


def dense_ket(state: KetSum) -> np.ndarray:
    """Dense truncated-Fock vector of a ket sum (oracle)."""
    cuts = state.layout.cutoffs
    return sum(c * dense_product(kets, cuts) for c, kets in state.terms)


def dense_operator(state: TermSum) -> np.ndarray:
    """Dense truncated-Fock matrix of an operator sum (oracle)."""
    cuts = state.layout.cutoffs
    return sum(
        c * np.outer(dense_product(l, cuts), dense_product(r, cuts).conj())
        for c, l, r in state.terms
    )


def dense_projector(layout: ModeLayout, proj: ModeProjector) -> np.ndarray:
    """Dense sum over branches of the filters' Kronecker product (oracle)."""
    total = 0.0
    for branch in proj.branches:
        filters = dict(branch)
        op = np.ones((1, 1))
        for name, cut in zip(layout.names, layout.cutoffs):
            filt = filters.get(name, FILTER_ALL)
            op = np.kron(op, np.diag(filt.mask(cut + 1)))
        total = total + op
    return total


class TestContraction:
    """Contraction against dense P rho P with the traced modes summed out."""

    # p is kept; q and C are traced
    LAYOUT = ModeLayout(
        ("p", "q", "C"), (2, 2, 20), (Role.PHOTONIC, Role.PHOTONIC, Role.COHERENT)
    )

    # name -> branch tables of the projectors passed together to outcome()
    PROJECTORS = {
        # every branch names every traced mode
        "full": (
            (
                (("q", FILTER_SINGLE), ("C", FILTER_ODD)),
                (("q", FILTER_VACUUM), ("C", FILTER_EVEN_GE2)),
            ),
        ),
        # the first branch leaves C to the plain trace
        "partial": (
            (
                (("q", FILTER_SINGLE),),
                (("q", FILTER_VACUUM), ("C", FILTER_ODD)),
            ),
        ),
        "trace": (((),),),
        # two multi-branch projectors, one per traced mode: their product is
        # the Cartesian product of the branches
        "pair": (
            ((("q", FILTER_SINGLE),), (("q", FILTER_VACUUM),)),
            ((("C", FILTER_ODD),), (("C", FILTER_VACUUM),)),
        ),
        "pair2": (
            ((("q", FILTER_SINGLE),), (("q", NumberFilter("n", 2)),)),
            ((("C", FILTER_EVEN_GE2),), (("C", FILTER_ODD),)),
        ),
        "pair3": (
            ((("q", FILTER_VACUUM),), (("q", NumberFilter("n", 2)),)),
            ((("C", FILTER_EVEN_GE2),), (("C", FILTER_ODD),)),
        ),
    }

    # q's catch-all {vacuum, two photons} is one outcome of two branches
    Q_FAMILY = (
        ((("q", FILTER_SINGLE),),),
        ((("q", FILTER_VACUUM),), (("q", NumberFilter("n", 2)),)),
    )
    C_FAMILY = (
        ((("C", FILTER_ODD),),),
        ((("C", FILTER_EVEN_GE2),),),
        ((("C", FILTER_VACUUM),),),
    )

    # name -> families passed together to weights(), each a tuple of branch
    # tables (its outcomes); every PROJECTORS case is a set of families of one
    FAMILIES = {
        "families": (Q_FAMILY, C_FAMILY),
        # C is left to the plain trace, as an environment mode
        "family": (Q_FAMILY,),
    }

    def _psi(self):
        return KetSum(
            self.LAYOUT,
            [
                (0.6, (FockVector((1.0, 1.0)), fock(1), Coherent(0.9))),
                (0.5, (fock(0), FockVector((0.3, 0.7)), Coherent(-0.9))),
                (0.4j, (fock(1), fock(0), Coherent(0.4 + 0.3j))),
                (0.3, (fock(1), fock(2), Coherent(0.2))),
            ],
        )

    def _phi(self):
        # a different ket: |psi><phi| has the shape of basis pair (0, 1)
        return KetSum(
            self.LAYOUT,
            [
                (0.5, (FockVector((1.0, 0.8)), fock(1), Coherent(0.8))),
                (0.6, (fock(0), FockVector((0.4, 0.6)), Coherent(-0.9))),
                (0.3, (fock(1), fock(0), Coherent(0.4 - 0.2j))),
                (0.2, (fock(0), fock(2), Coherent(0.1j))),
            ],
        )

    def _scaled(self):
        # proportional but unequal factors (FockVector((0, 2)) beside fock(1)
        # on p, fock(1) beside FockVector((0, -1j)) on q): exact matching keeps
        # them apart, and the contraction must still agree with the oracle;
        # the second and last terms are one term once canonicalized
        return KetSum(
            self.LAYOUT,
            [
                (0.6, (FockVector((1.0, 1.0)), fock(1), Coherent(0.9))),
                (0.25, (FockVector((0.0, 2.0)), FockVector((0.0, -1.0j)), Coherent(-0.9))),
                (0.5j, (fock(1), fock(0), Coherent(0.9))),
                (0.2, (FockVector((2.0, 2.0)), FockVector((0.0, 0.0, 3.0)), Coherent(0.2))),
                (0.1, (fock(1), fock(1), Coherent(-0.9))),
            ],
        )

    def _oracle(self, rho, proj):
        dp, dq, dc = (c + 1 for c in self.LAYOUT.cutoffs)
        proj_d = dense_projector(self.LAYOUT, proj)
        full = proj_d @ dense_operator(rho) @ proj_d
        prob = np.trace(full)
        reduced = np.einsum("iabjab->ij", full.reshape(dp, dq, dc, dp, dq, dc))
        return prob, reduced

    @pytest.mark.parametrize("backend", BACKENDS, ids=lambda b: b.kind)
    @pytest.mark.parametrize(
        "case",
        [name + pair for name in list(PROJECTORS) + list(FAMILIES)
         for pair in ("", "-cross", "-scaled")],
    )
    def test_matches_dense_oracle(self, backend, case):
        # "-cross" cases contract |psi><phi| with phi != psi; "-scaled" ones
        # a ket whose terms carry proportional but unequal factors.  Every
        # outcome pair of the batched weights() call must match both the
        # family-of-one call and the dense oracle of the joint projector.
        name, _, pair = case.partition("-")
        families = self.FAMILIES.get(name) or tuple((t,) for t in self.PROJECTORS[name])
        families = [[ModeProjector(table) for table in fam] for fam in families]
        ket = self._scaled() if pair == "scaled" else self._psi()
        bra = self._phi() if pair == "cross" else ket
        rho = ket.outer(bra)
        contraction = Contraction(ket, bra, ("p",), backend)
        probs, weights = contraction.weights(*families)
        assert probs.shape == tuple(map(len, families)) + (1,) * (2 - len(families))
        if len(families) == 2:
            # the folded and the batched family trade places
            swapped = contraction.weights(*families[::-1])
            assert np.allclose(swapped[0], probs.T, rtol=0.0, atol=1e-14)
            assert np.allclose(swapped[1], weights.swapaxes(0, 1), rtol=0.0, atol=1e-14)
        kept = contraction.keep_layout
        reads = [
            KetSum(kept, [(0.6, (fock(0),)), (0.8j, (FockVector((0.0, 2.0)),))]),
            KetSum(kept, [(1.0, (FockVector((0.3, -0.4)),))]),
        ]
        vecs = np.array([dense_ket(k) for k in reads])
        for cell in np.ndindex(probs.shape):
            projs = [fam[i] for fam, i in zip(families, cell)]
            one_prob, one_weights = contraction.weights(*projs)
            assert abs(probs[cell] - one_prob[0, 0]) < 1e-14
            assert np.allclose(weights[cell], one_weights[0, 0], rtol=0.0, atol=1e-14)
            prob, reduced = contraction.outcome(*projs)
            joint = ModeProjector(
                tuple(sum(bs, ()) for bs in itertools.product(*(p.branches for p in projs)))
            )
            want_prob, want_reduced = self._oracle(rho, joint)
            assert reduced.layout.names == ("p",)
            assert abs(prob - want_prob) < 1e-10
            if pair == "cross":
                # a cross term Tr[P |psi><phi|] has no fixed sign
                assert abs(prob) > 0.0
            else:
                assert 0.0 < prob.real
            assert np.allclose(dense_operator(reduced), want_reduced, atol=1e-10)
            # matrix elements of the weights' operator, between multi-term kept kets
            want = vecs.conj() @ want_reduced @ vecs.T
            got = [[contraction.operator(weights[cell]).matrix_element(p, q, backend) for q in reads]
                   for p in reads]
            assert np.allclose(got, want, atol=1e-10)

    # small factor pools, so that drawn terms share kept products, branch
    # tuples and environment tuples
    TERMS = st.lists(
        st.tuples(
            st.builds(complex, st.floats(-1, 1), st.floats(-1, 1)),
            st.tuples(
                st.sampled_from([fock(0), fock(1), FockVector((0.6, 0.8)), FockVector((1.0, -1j))]),
                st.sampled_from([fock(0), fock(1), fock(2), FockVector((0.3, 0.4j, 0.5))]),
                st.sampled_from([Coherent(0.9), Coherent(-0.9), Coherent(0.4 + 0.3j)]),
            ),
        ),
        min_size=1, max_size=12,
    )

    @given(TERMS, TERMS, st.booleans(), st.sampled_from(["families", "family", "pair", "partial"]))
    @settings(max_examples=40, deadline=None)
    def test_cell_pairs_match_dense_q(self, ket_terms, bra_terms, same, name):
        # weights() sums each side's coefficients onto (cell, environment
        # tuple) pairs and takes A E B^dag; the reference sums the dense
        # terms x terms array Q onto the cells through one-hot matrices
        ket = KetSum(self.LAYOUT, ket_terms)
        bra = ket if same else KetSum(self.LAYOUT, bra_terms)
        families = self.FAMILIES.get(name) or tuple((t,) for t in self.PROJECTORS[name])
        families = [[ModeProjector(table) for table in fam] for fam in families]
        contraction = Contraction(ket, bra, ("p",), COHERENT_ALGEBRA)
        probs, weights = contraction.weights(*families)
        want_probs, want_weights = dense_weights(contraction, *families)
        assert np.allclose(probs, want_probs, rtol=0.0, atol=1e-13)
        assert np.allclose(weights, want_weights, rtol=0.0, atol=1e-13)

    def test_empty_ket_contracts_to_zero(self):
        # a ket whose terms all cancelled still contracts, to nothing
        empty = KetSum(self.LAYOUT, [])
        contraction = Contraction(empty, self._psi(), ("p",), COHERENT_ALGEBRA)
        probs, weights = contraction.weights([ModeProjector(t) for t in self.Q_FAMILY])
        assert probs.shape == (2, 1) and not np.any(probs)
        assert weights.size == 0
        assert contraction.outcome()[1].terms == []

    def test_rejects_overlapping_projectors(self):
        psi = self._psi()
        on_q = ModeProjector(((("q", FILTER_SINGLE),),))
        on_q_and_c = ModeProjector(((("q", FILTER_VACUUM), ("C", FILTER_ODD)),))
        contraction = Contraction(psi, psi, ("p",), COHERENT_ALGEBRA)
        with pytest.raises(ValueError, match="disjoint"):
            contraction.outcome(on_q, on_q_and_c)
        # families: only the second family's last outcome reaches into q
        on_q = [ModeProjector(table) for table in self.Q_FAMILY]
        on_c = [ModeProjector(table) for table in self.C_FAMILY]
        with pytest.raises(ValueError, match="disjoint"):
            contraction.weights(on_q, on_c + [on_q_and_c])

    @pytest.mark.parametrize("canonical", [False, True], ids=["as-given", "canonical"])
    @pytest.mark.parametrize("backend", BACKENDS, ids=lambda b: b.kind)
    def test_sum_overlaps_match_dense_oracle(self, backend, canonical):
        # braket, trace and matrix_element on multi-term kets, bra != ket;
        # canonicalized() must keep every vector and operator unchanged
        psi, phi = self._psi(), self._phi()
        op = psi.outer(phi) + phi.outer(psi).scaled(0.3j) + self._scaled().dm()
        vpsi, vphi, dense = dense_ket(psi), dense_ket(phi), dense_operator(op)
        if canonical:
            psi, phi, op = psi.canonicalized(), phi.canonicalized(), op.canonicalized()
            assert len(op.terms) < 16 + 16 + 25
            assert np.allclose(dense_ket(psi), vpsi, atol=1e-12)
            assert np.allclose(dense_ket(phi), vphi, atol=1e-12)
            assert np.allclose(dense_operator(op), dense, atol=1e-12)
        assert abs(phi.braket(psi, backend) - np.vdot(vphi, vpsi)) < 1e-10
        assert abs(op.trace(backend) - np.trace(dense)) < 1e-10
        want = np.vdot(vphi, dense @ vpsi)
        assert abs(op.matrix_element(phi, psi, backend) - want) < 1e-10

    @pytest.mark.parametrize("backend", BACKENDS, ids=lambda b: b.kind)
    def test_gram_eigvals_match_dense_oracle(self, backend):
        # a Hermitian operator whose product kets repeat across its terms and
        # overlap without being orthogonal (coherent factors, proportional and
        # superposed Fock factors), against the dense spectrum
        psi, phi, scaled = self._psi(), self._phi(), self._scaled()
        op = (
            psi.dm().scaled(0.7)
            + phi.dm().scaled(-0.4)
            + psi.outer(phi).scaled(0.2j)
            + phi.outer(psi).scaled(-0.2j)
            + scaled.dm().scaled(0.1)
        )
        dense = dense_operator(op)
        got = gram_eigvals(op, backend)
        assert 0 < len(got) < dense.shape[0]
        # the eigenvalues outside the products' span are zero
        padded = np.sort(np.concatenate([got, np.zeros(dense.shape[0] - len(got))]))
        assert np.allclose(padded, np.linalg.eigvalsh(dense), rtol=0.0, atol=1e-10)
        other = phi.dm() + scaled.dm().scaled(0.3)
        want = 0.5 * np.sum(np.abs(np.linalg.eigvalsh(dense - dense_operator(other))))
        assert abs(trace_distance(op, other, backend) - want) < 1e-10


def plan_arrays(plan) -> list:
    """Every array a plan holds, through its nested plans, tuples and cells."""
    if isinstance(plan, np.ndarray):
        return [plan]
    if isinstance(plan, (tuple, list)):
        return [arr for item in plan for arr in plan_arrays(item)]
    return []


class TestPlans:
    """The structure-only plans behind product_sums and Contraction.weights."""

    def test_plan_caches_are_bounded(self):
        for cache in (engine._sum_plan, engine._weights_plan):
            assert cache.cache_info().maxsize == PLAN_CACHE_SIZE
        # one structure per term count: the cache keeps the most recent PLAN_CACHE_SIZE
        lay = ModeLayout(("p",), (3,), (Role.PHOTONIC,))
        engine._sum_plan.cache_clear()
        for n in range(1, PLAN_CACHE_SIZE + 6):
            psi = KetSum(lay, [(1.0, (fock(k % 3),)) for k in range(n)])
            term_overlaps(psi, psi, COHERENT_ALGEBRA)
        info = engine._sum_plan.cache_info()
        assert info.misses == PLAN_CACHE_SIZE + 5 and info.currsize == PLAN_CACHE_SIZE

    def test_plan_arrays_are_read_only(self):
        # plans are shared by every contraction of their structure, as
        # overlap_table's tables are by every caller
        case = TestContraction()
        psi, phi = case._psi(), case._phi()
        families = [[ModeProjector(table) for table in fam] for fam in case.FAMILIES["families"]]
        Contraction(psi, phi, ("p",), COHERENT_ALGEBRA).weights(*families)
        ket_ids, bra_ids, _ = product_sums(psi, phi, ("q", "C"), families[0], COHERENT_ALGEBRA)
        plans = [engine._sum_plan(psi.structure, phi.structure, ("q", "C"), tuple(families[0])),
                 engine._weights_plan(psi.structure, phi.structure, ("p",),
                                      tuple(map(tuple, families)))]
        arrays = [ket_ids, bra_ids] + plan_arrays(plans)
        assert len(arrays) > 20
        for arr in arrays:
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[...] = 0

    def test_plan_reads_only_structure(self):
        # two kets with the same factor ids and table sizes but other factors
        # and coefficients share one plan, and each gets its own numbers
        case = TestContraction()
        psi = case._psi()
        phi = KetSum(case.LAYOUT, [
            (0.2, (FockVector((0.5, 1.0)), fock(0), Coherent(0.3))),
            (0.7j, (fock(1), FockVector((0.6, 0.8)), Coherent(-1.1))),
            (0.4, (fock(0), fock(1), Coherent(0.5j))),
            (-0.3, (fock(0), fock(2), Coherent(0.7))),
        ])
        assert psi.structure == phi.structure
        engine._weights_plan.cache_clear()
        for ket in (psi, phi, psi):
            got = Contraction(ket, ket, ("p",), COHERENT_ALGEBRA).weights(TRACE)
            want = dense_weights(Contraction(ket, ket, ("p",), COHERENT_ALGEBRA), TRACE)
            assert np.allclose(got[0], want[0], rtol=0.0, atol=1e-14)
            assert np.allclose(got[1], want[1], rtol=0.0, atol=1e-14)
        assert engine._weights_plan.cache_info().misses == 1

    def test_projector_needs_a_branch(self):
        with pytest.raises(ValueError, match="branch"):
            ModeProjector(())
        assert NO_PROJECTOR.branches == ((),)
