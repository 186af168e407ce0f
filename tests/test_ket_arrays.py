"""The factor-id array form of KetSum and TermSum against term-list oracles.

Each R-block of the protocol's Choi state must match the tuple-based
reference pipeline in ket_oracle term for term, random small sums must agree with dense
truncated-Fock vectors through tensor products, beam splitters and
canonicalization, and random operators with dense matrices through outer
products, tensor products, adjoints, sums, scaling and Pauli corrections.
"""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from hybrid_teleport import protocol
from hybrid_teleport.encoding import HybridType, apply_correction, qubit_layout
from hybrid_teleport.engine import (
    DROP_TOL,
    Coherent,
    FockVector,
    KetSum,
    ModeLayout,
    Role,
    TermSum,
    apply_beam_splitter,
    fock,
    ket_key,
    ket_vector,
    normalize_ket,
)

from ket_oracle import (
    beam_splitter_terms,
    canonical_terms,
    dense_correction,
    protocol_state_terms,
)

PROBES = [(1.0, 0.0), (1.0, 0.3), (2.0, 0.6), (1.0, 0.9), (22.42, 0.22), (5.0, 0.98)]


def assert_same_terms(got: list, want: list, tol: float = 1e-15):
    """Same length and order; factors within tol, coefficients within tol (relative above 1)."""
    assert len(got) == len(want)
    for (c, kets), (c_ref, kets_ref) in zip(got, want):
        assert abs(c - c_ref) <= tol * max(1.0, abs(c_ref))
        assert len(kets) == len(kets_ref)
        for k, k_ref in zip(kets, kets_ref):
            assert type(k) is type(k_ref)
            if isinstance(k, Coherent):
                assert abs(k.amplitude - k_ref.amplitude) <= tol
            else:
                assert len(k.coeffs) == len(k_ref.coeffs)
                assert np.max(np.abs(np.subtract(k.coeffs, k_ref.coeffs))) <= tol


@pytest.mark.parametrize("hybrid", [HybridType.TYPE_I, HybridType.TYPE_II])
@pytest.mark.parametrize("alpha, r", PROBES)
def test_protocol_states_match_term_lists(hybrid, alpha, r):
    # the Choi ket's block of R = |x> is the reference Psi_x term for term
    choi = protocol._protocol_states(hybrid, alpha, r)
    want = protocol_state_terms(hybrid, alpha, r)
    assert choi.layout.names[0] == "R"
    assert len(choi.terms) == sum(map(len, want))
    for x, terms in enumerate(want):
        assert_same_terms([(c, kets[1:]) for c, kets in choi.terms if kets[0] == fock(x)], terms)
    if hybrid is HybridType.TYPE_I:
        # every environment factor is the vacuum at r = 0
        assert len(want[0]) == (24 if r == 0.0 else 112)


@given(st.sampled_from([HybridType.TYPE_I, HybridType.TYPE_II]), st.floats(0.1, 30.0),
       st.floats(1e-5, 0.98))
@example(HybridType.TYPE_I, 1.0, 0.98)
@example(HybridType.TYPE_II, 27.7, 0.02)
@settings(max_examples=30, deadline=None)
def test_choi_ket_has_one_structure_per_type(hybrid, alpha, r):
    # canonical tables hold one factor per key, so rounding below MERGE_DECIMALS
    # cannot split a factor in two: at r > 0 only the numbers change.  Below
    # r of about 7e-7, r^2 rounds to 0 at MERGE_DECIMALS and the structure
    # moves toward the one at r = 0.
    ref = protocol._protocol_states(hybrid, 1.0, 0.5)
    got = protocol._protocol_states(hybrid, alpha, r)
    assert tuple(map(len, got.factors)) == tuple(map(len, ref.factors))
    assert np.array_equal(got.ids, ref.ids)


def test_factor_tables_hold_distinct_used_factors():
    state = protocol._protocol_states(HybridType.TYPE_I, 2.0, 0.3)
    assert set(state.factors[0]) == {fock(0), fock(1)}
    for m, table in enumerate(state.factors):
        assert len(set(table)) == len(table)
        assert sorted(set(state.ids[:, m].tolist())) == list(range(len(table)))


def test_sum_keeps_terms_when_a_table_holds_a_factor_twice():
    # fock(0) == FockVector((1.0,)): the factors a sum adds must not take
    # an index of the table that is already in use
    lay = ModeLayout(("m",), (2,), (Role.PHOTONIC,))
    twice = KetSum.from_arrays(lay, np.array([1.0, 2.0], dtype=complex), np.array([[0], [1]]),
                               [(fock(0), FockVector((1.0,)))])
    other = KetSum(lay, [(3.0, (fock(1),))])
    total = twice + other
    assert total.terms == [(1, (fock(0),)), (2, (fock(0),)), (3, (fock(1),))]
    assert np.allclose(dense(total), dense(twice) + dense(other))


# ---------------------------------------------------------------------------
# random small sums against dense vectors

# two photonic modes whose Fock content stays inside the cutoffs through a
# beam splitter, and two coherent modes (|amplitude| <= 0.3 after splitting)
# whose truncated tails are below 1e-16
LAYOUT = ModeLayout(("p", "q", "c", "d"), (4, 4, 16, 16),
                    (Role.PHOTONIC, Role.PHOTONIC, Role.COHERENT, Role.COHERENT))
PAIRS = {"photonic": ("p", "q"), "coherent": ("c", "d")}

# values on a coarse grid, so that a 1e-15 nudge never crosses a rounding
# boundary of MERGE_DECIMALS and near-equal factors always merge
grid = st.sampled_from([-0.75, -0.5, -0.25, 0.0, 0.25, 0.5, 0.75])
complex_grid = st.builds(complex, grid, grid)
fock_factor = st.lists(complex_grid, min_size=1, max_size=3).filter(
    lambda cs: any(c != 0 for c in cs)).map(lambda cs: FockVector(tuple(cs)))
coherent_factor = st.builds(
    lambda x, y: Coherent(complex(x, y) * 0.3),
    st.sampled_from([-0.5, 0.0, 0.5]), st.sampled_from([-0.5, 0.0, 0.5]))
term = st.tuples(complex_grid.filter(lambda c: c != 0),
                 st.tuples(fock_factor, fock_factor, coherent_factor, coherent_factor))


def nudged(k):
    """A factor equal to k to 1e-15: a different object that canonicalization merges."""
    if isinstance(k, Coherent):
        return Coherent(k.amplitude + 1e-15)
    return FockVector(tuple(c + 1e-15 for c in k.coeffs))


def dense(state: KetSum) -> np.ndarray:
    cuts = state.layout.cutoffs
    out = np.zeros(math.prod(c + 1 for c in cuts), dtype=complex)
    for c, kets in state.terms:
        vec = np.ones(1, dtype=complex)
        for k, cut in zip(kets, cuts):
            vec = np.kron(vec, ket_vector(k, cut))
        out += c * vec
    return out


def dense_beam_splitter(vec: np.ndarray, layout: ModeLayout, pair: tuple, theta: float):
    """exp(theta (a_i^dag a_j - a_i a_j^dag)) on two modes of a dense vector (scipy expm)."""
    i, j = (layout.index(n) for n in pair)
    dim = layout.cutoffs[i] + 1  # the pair shares its cutoff
    a = np.diag(np.sqrt(np.arange(1, dim)), k=1)
    eye = np.eye(dim)
    gen = np.kron(a.T, eye) @ np.kron(eye, a) - np.kron(a, eye) @ np.kron(eye, a.T)
    u = expm(theta * gen).reshape(dim, dim, dim, dim)
    modes = np.moveaxis(vec.reshape([c + 1 for c in layout.cutoffs]), (i, j), (0, 1))
    out = np.tensordot(u, modes, axes=([2, 3], [0, 1]))
    return np.moveaxis(out, (0, 1), (i, j)).reshape(-1)


@given(st.lists(term, min_size=1, max_size=4), st.lists(term, min_size=1, max_size=2),
       st.data())
@settings(max_examples=40, deadline=None)
def test_random_sums_match_dense(terms, more, data):
    # near-equal copies of some terms, and a term below DROP_TOL
    copies = data.draw(st.lists(st.sampled_from(terms), max_size=2))
    terms = terms + [(c, tuple(nudged(k) for k in kets)) for c, kets in copies]
    terms.append((DROP_TOL / 10, more[0][1]))
    state = KetSum(LAYOUT, terms)
    vec = dense(state)

    # tensor product with a sum on two more modes
    other_lay = ModeLayout(("e", "f"), (3, 3), (Role.PHOTONIC, Role.PHOTONIC))
    other = KetSum(other_lay, [(c, kets[:2]) for c, kets in more])
    assert np.allclose(dense(state.tensor(other)), np.kron(vec, dense(other)), atol=1e-13)

    # a beam splitter at a random angle, photonic or coherent pair
    pair = PAIRS[data.draw(st.sampled_from(sorted(PAIRS)))]
    theta = data.draw(st.floats(-math.pi, math.pi))
    split = apply_beam_splitter(state, *pair, theta)
    assert np.allclose(dense(split), dense_beam_splitter(vec, LAYOUT, pair, theta), atol=1e-12)
    assert_same_terms(split.terms, beam_splitter_terms(LAYOUT, state.terms, *pair, theta))

    # canonicalization: the same vector, merged near-equal terms, nothing at or below DROP_TOL
    for before in (state, split):
        canon = before.canonicalized()
        assert np.allclose(dense(canon), dense(before), atol=1e-10)
        assert_same_terms(canon.terms, canonical_terms(before.terms))
        assert all(abs(c) > DROP_TOL for c in canon.coeffs)


def test_near_equal_terms_merge_and_small_ones_drop():
    lay = ModeLayout(("p", "c"), (2, 8), (Role.PHOTONIC, Role.COHERENT))
    kets = (FockVector((0.6, 0.8j)), Coherent(0.3))
    state = KetSum(lay, [(0.5, kets), (0.25, tuple(nudged(k) for k in kets)),
                         (DROP_TOL / 10, (FockVector((0.0, 1.0)), Coherent(0.3)))])
    (c, got), = state.canonicalized().terms
    assert abs(c - 0.75) < 1e-14
    # the factors of the last merged term, normalized
    assert got == tuple(normalize_ket(nudged(k))[1] for k in kets)
    assert got != tuple(normalize_ket(k)[1] for k in kets)


@given(st.lists(term, min_size=1, max_size=4))
# numpy's and Python's complex products differ by an ulp: 1.26e-15 on 7.36+3.68j here
@example([((-0.75 - 0.75j), (FockVector((-0.75 + 0.5j, -0.75 - 0.75j)),
                             FockVector((-0.75 - 0.75j,) * 3),
                             Coherent(complex(-0.5, -0.5) * 0.3),
                             Coherent(complex(-0.5, -0.5) * 0.3)))])
@settings(max_examples=20, deadline=None)
def test_operator_canonical_form_matches_term_lists(terms):
    # TermSum.canonicalized shares KetSum's routine: right factors are bra columns
    kets = KetSum(LAYOUT, terms)
    op = kets.outer(KetSum(LAYOUT, terms[::-1])) + kets.dm().scaled(0.5j)
    canon = op.canonicalized()
    want = canonical_terms(op.terms)
    assert len(canon.terms) == len(want)
    for (c, l, r), (c_ref, l_ref, r_ref) in zip(canon.terms, want):
        assert abs(c - c_ref) <= 1e-15 * max(1.0, abs(c_ref))
        assert l == l_ref and r == r_ref
    assert isinstance(canon, TermSum)


# ---------------------------------------------------------------------------
# random operators against dense matrices

def dense_operator(op: TermSum) -> np.ndarray:
    """Dense truncated-Fock matrix of an operator, built from its term list."""
    cuts = op.layout.cutoffs

    def vec(kets):
        out = np.ones(1, dtype=complex)
        for k, cut in zip(kets, cuts):
            out = np.kron(out, ket_vector(k, cut))
        return out

    dim = math.prod(c + 1 for c in cuts)
    return sum((c * np.outer(vec(l), vec(r).conj()) for c, l, r in op.terms),
               np.zeros((dim, dim), dtype=complex))


def qubit_terms(hybrid):
    """Terms on one qubit's modes: Fock factors on the photonic ones, a coherent one last."""
    n_phot = 2 if hybrid is HybridType.TYPE_I else 1
    factors = st.tuples(*[fock_factor] * n_phot, coherent_factor)
    return st.lists(st.tuples(complex_grid.filter(lambda c: c != 0), factors),
                    min_size=1, max_size=3)


EXTRA = ModeLayout(("e",), (2,), (Role.PHOTONIC,))


@pytest.mark.parametrize("hybrid", [HybridType.TYPE_I, HybridType.TYPE_II])
@given(data=st.data())
@settings(max_examples=15, deadline=None)
def test_random_operators_match_dense(hybrid, data):
    lay = qubit_layout(hybrid, "c", 0.0)
    psi, phi = (KetSum(lay, data.draw(qubit_terms(hybrid))) for _ in range(2))
    vpsi, vphi = dense(psi), dense(phi)
    z = data.draw(complex_grid.filter(lambda c: c != 0))

    op = psi.outer(phi) + phi.dm().scaled(z)
    want = np.outer(vpsi, vphi.conj()) + z * np.outer(vphi, vphi.conj())
    assert np.allclose(dense_operator(op), want, rtol=0.0, atol=1e-13)
    assert np.allclose(dense_operator(op.adjoint()), want.conj().T, rtol=0.0, atol=1e-13)

    chi = KetSum(EXTRA, [(0.6, (fock(0),)), (0.8j, (fock(1),)), (0.5, (FockVector((0.6, 0.0, 0.8)),))])
    vchi = dense(chi)
    extra = chi.outer(chi.scaled(1j)) + chi.dm()
    dense_extra = (1 - 1j) * np.outer(vchi, vchi.conj())
    assert np.allclose(dense_operator(op.tensor(extra)), np.kron(want, dense_extra), rtol=0.0, atol=1e-13)
    assert np.allclose(dense_operator(extra.tensor(op)), np.kron(dense_extra, want), rtol=0.0, atol=1e-13)
    for pauli in ("I", "X", "Z", "XZ"):
        c = dense_correction(hybrid, pauli, lay)
        got = dense_operator(apply_correction(op, hybrid, pauli))
        assert np.allclose(got, c @ want @ c.conj().T, rtol=0.0, atol=1e-13)

    # the arrays and the term list describe one operator
    again = TermSum.from_arrays(op.layout, op.coeffs, op.ids, op.factors)
    assert again.terms == op.terms
    assert TermSum(op.layout, op.terms).terms == op.terms


def test_type_ii_z_keeps_tables_distinct():
    # Z swaps |0> and |1> on the photonic mode: (1,) and (1, 0) both become (0, 1), one factor
    lay = qubit_layout(HybridType.TYPE_II, "c", 1.0)
    psi = KetSum(lay, [(0.6, (fock(0), Coherent(1.0))), (0.8, (FockVector((1.0, 0.0)), Coherent(-1.0)))])
    op = psi.dm()
    got = apply_correction(op, HybridType.TYPE_II, "Z")
    for table in got.factors:
        assert len(set(table)) == len(table)
    assert got.factors[0] == (FockVector((0.0, 1.0)),)
    c = dense_correction(HybridType.TYPE_II, "Z", lay)
    assert np.allclose(dense_operator(got), c @ dense_operator(op) @ c.conj().T, rtol=0.0, atol=1e-13)


# values near a half-way point of the 12th decimal, where rounding x * 1e12 in floating point
# can pick the other side, and values too large to carry a 12th decimal
def _near_half(k: int, step: int) -> float:
    x = (k + 0.5) * 1e-12
    return float(np.nextafter(x, step * math.inf)) if step else x


near_half = st.builds(_near_half, st.integers(-10**12, 10**12), st.sampled_from([-1, 0, 1]))
merge_floats = st.one_of(near_half, st.floats(-2.0, 2.0), st.floats(-1e6, 1e6))


@given(merge_floats, merge_floats)
@settings(max_examples=200, deadline=None)
def test_merge_keys_round_as_python_round(x, y):
    # the key oracle: Python's round() to MERGE_DECIMALS, the rounding canonical forms merge by
    assert ket_key(Coherent(complex(x, y))) == ("c", round(x, 12), round(y, 12))
    assert ket_key(FockVector((complex(x, y), 1.0))) == ("f", (round(x, 12), round(y, 12)), (1.0, 0.0))


# ---------------------------------------------------------------------------
# the factor tables against the factors they were built from

# Fock factors of degree 0-6, zero vectors, trailing zeros and -0.0, and coherent factors
boundary_coeffs = st.sampled_from([0.0, -0.0, 1.0, -0.5, 0.25j, complex(-0.0, 0.5), 1e-300])
boundary_fock = st.one_of(
    st.integers(1, 4).map(lambda n: FockVector((0.0,) * n)),
    st.builds(lambda cs, zeros: FockVector(tuple(cs) + (0.0,) * zeros),
              st.lists(boundary_coeffs, min_size=1, max_size=7), st.integers(0, 2)),
)
boundary_factor = st.one_of(boundary_fock, st.sampled_from([0.0, -0.0, 0.5, -0.5j]).map(Coherent))


@given(st.integers(1, 3), st.data())
@settings(max_examples=60, deadline=None)
def test_tables_hold_the_input_factors(width, data):
    # columns mix Coherent and FockVector factors, repeated ones included
    pool = data.draw(st.lists(st.lists(boundary_factor, min_size=1, max_size=3),
                              min_size=2 * width, max_size=2 * width))
    def term(sides):
        return data.draw(st.tuples(st.sampled_from([1.0, -0.5j]), *[
            st.tuples(*[st.sampled_from(pool[s * width + m]) for m in range(width)])
            for s in range(sides)]))
    lay = ModeLayout(tuple(f"m{m}" for m in range(width)), (8,) * width, (Role.PHOTONIC,) * width)
    for cls, sides in ((KetSum, 1), (TermSum, 2)):
        terms = [term(sides) for _ in range(data.draw(st.integers(1, 5)))]
        built = cls(lay, terms)
        assert len(built.terms) == len(terms)
        for (c, *got), (c_ref, *want) in zip(built.terms, terms):
            assert c == c_ref
            for kets, kets_ref in zip(got, want):
                assert kets == kets_ref  # exact, lengths included
                assert all(len(getattr(k, "coeffs", ())) == len(getattr(r, "coeffs", ()))
                           for k, r in zip(kets, kets_ref))
        for m, table in enumerate(built.factors):
            used = {k for _, *sides in terms for kets in [sum(sides, ())] for k in [kets[m]]}
            assert set(table) == used and len(set(table)) == len(table)
