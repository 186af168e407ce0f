"""Photon-loss channel tests against a dense Kraus-operator oracle."""

import math
from functools import reduce

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hybrid_teleport.encoding import HybridType, ideal_channel
from hybrid_teleport.engine import (
    COHERENT_ALGEBRA,
    Coherent,
    Contraction,
    FockVector,
    KetSum,
    ModeLayout,
    ModeProjector,
    Role,
    TermSum,
    default_cutoff,
    fock,
    ket_vector,
    trace_distance,
)
from hybrid_teleport.loss import (
    LossParameter,
    damp_mode,
    damp_modes,
    decohered_channel,
    dilate,
    pm_block,
)

import kraus_oracle


def kraus_ops(t: float, dim: int) -> list:
    """Dense amplitude-damping Kraus operators at transmission t (oracle)."""
    a = np.diag(np.sqrt(np.arange(1, dim)), k=1)
    n = np.arange(dim)
    t_half_n = np.diag(t**n)
    ops = []
    ak = np.eye(dim)
    r2 = 1.0 - t * t
    for k in range(dim):
        coeff = math.sqrt(r2**k / math.factorial(k))
        ops.append(coeff * t_half_n @ ak)
        ak = a @ ak
    return ops


def dense_single_mode(state: TermSum, cutoff: int) -> np.ndarray:
    """One-mode operator sum as a dense matrix."""
    dim = cutoff + 1
    out = np.zeros((dim, dim), dtype=complex)
    for c, lefts, rights in state.terms:
        out += c * np.outer(ket_vector(lefts[0], cutoff), ket_vector(rights[0], cutoff).conj())
    return out


class TestLossParameter:
    def test_t_r_relation(self):
        p = LossParameter(0.6)
        assert math.isclose(p.t, 0.8, rel_tol=1e-15)

    def test_bounds(self):
        LossParameter(0.0)
        with pytest.raises(ValueError):
            LossParameter(1.0)
        with pytest.raises(ValueError):
            LossParameter(-0.1)

    @given(st.floats(0.0, 0.999))
    def test_pythagorean(self, r):
        p = LossParameter(r)
        assert math.isclose(p.t * p.t + p.r * p.r, 1.0, rel_tol=1e-12)


class TestDampMode:
    def dense_damped(self, state: TermSum, cutoff: int, t: float) -> np.ndarray:
        rho = dense_single_mode(state, cutoff)
        return sum(k @ rho @ k.conj().T for k in kraus_ops(t, cutoff + 1))

    @pytest.mark.parametrize("r", [0.0, 0.3, 0.7])
    def test_fock_superposition_matches_kraus(self, r):
        lay = ModeLayout(("m",), (4,), (Role.PHOTONIC,))
        psi = KetSum(lay, [(1.0, (FockVector((0.5, 0.5, 0.0, 0.5, 0.5)),))])
        rho = psi.dm()
        loss = LossParameter(r)
        got = dense_single_mode(damp_mode(rho, "m", loss), 4)
        want = self.dense_damped(rho, 4, loss.t)
        assert np.allclose(got, want, atol=1e-12)

    @pytest.mark.parametrize("r", [0.2, 0.6])
    def test_coherent_matches_kraus(self, r):
        # engine damping of coherent labels is exact; render both sides on a
        # grid well past the default cutoff so the oracle's truncation tail
        # stays below tolerance
        g = 1.2
        cut = default_cutoff(g) + 12
        lay = ModeLayout(("m",), (cut,), (Role.COHERENT,))
        psi = KetSum(lay, [(1.0, (Coherent(g),)), (0.5, (Coherent(-g),))])
        rho = psi.dm()
        loss = LossParameter(r)
        got = dense_single_mode(damp_mode(rho, "m", loss), cut)
        want = self.dense_damped(rho, cut, loss.t)
        assert np.allclose(got, want, atol=1e-10)

    def test_coherent_cross_term_closed_form(self):
        # damping |g><d| multiplies by <d|g>^(r^2) ... exactly:
        # exp(-(r^2/2)(|g|^2+|d|^2-2 d* g)) with amplitudes scaled by t.
        g, d = 1.1, -0.7
        loss = LossParameter(0.5)
        cut = default_cutoff(g)
        lay = ModeLayout(("m",), (cut,), (Role.COHERENT,))
        cross = KetSum(lay, [(1.0, (Coherent(g),))]).outer(
            KetSum(lay, [(1.0, (Coherent(d),))])
        )
        out = damp_mode(cross, "m", loss)
        assert len(out.terms) == 1
        c, lefts, rights = out.terms[0]
        r2 = loss.r**2
        want = math.exp(-0.5 * r2 * (g * g + d * d - 2 * d * g))
        assert abs(c - want) < 1e-12
        assert abs(lefts[0].amplitude - loss.t * g) < 1e-12
        assert abs(rights[0].amplitude - loss.t * d) < 1e-12

    @given(st.floats(0.0, 0.9), st.floats(-1.5, 1.5))
    @settings(max_examples=25, deadline=None)
    def test_preserves_trace(self, r, g):
        cut = max(default_cutoff(g), 2)
        lay = ModeLayout(("m",), (cut,), (Role.COHERENT,))
        psi = KetSum(lay, [(0.8, (Coherent(g),)), (0.6, (Coherent(-g),))])
        rho = psi.dm()
        loss = LossParameter(r)
        before = rho.trace(COHERENT_ALGEBRA).real
        after = damp_mode(rho, "m", loss).trace(COHERENT_ALGEBRA).real
        assert math.isclose(before, after, rel_tol=1e-10)

    def test_identity_at_zero_loss(self):
        lay = ModeLayout(("m",), (3,), (Role.PHOTONIC,))
        rho = KetSum(lay, [(1.0, (FockVector((0.6, 0.0, 0.8)),))]).dm()
        out = damp_mode(rho, "m", LossParameter(0.0))
        assert trace_distance(out, rho, COHERENT_ALGEBRA) < 1e-12


class TestDampModes:
    def test_two_modes_match_sequential(self):
        lay = ModeLayout(("p", "C"), (2, 20), (Role.PHOTONIC, Role.COHERENT))
        psi = KetSum(
            lay,
            [
                (1.0, (FockVector((1.0, 1.0)), Coherent(0.9))),
                (0.5, (FockVector((1.0, -1.0)), Coherent(-0.9))),
            ],
        )
        rho = psi.dm()
        loss = LossParameter(0.4)
        joint = damp_modes(rho, ("p", "C"), loss)
        seq = damp_mode(damp_mode(rho, "p", loss), "C", loss)
        assert trace_distance(joint, seq, COHERENT_ALGEBRA) < 1e-12

    def test_order_independent(self):
        lay = ModeLayout(("p", "C"), (2, 20), (Role.PHOTONIC, Role.COHERENT))
        rho = KetSum(lay, [(1.0, (FockVector((0.8, 0.6)), Coherent(1.1)))]).dm()
        loss = LossParameter(0.55)
        ab = damp_modes(rho, ("p", "C"), loss)
        ba = damp_modes(rho, ("C", "p"), loss)
        assert trace_distance(ab, ba, COHERENT_ALGEBRA) < 1e-12


def dense_operator(state: TermSum) -> np.ndarray:
    """Operator sum on any layout as a dense matrix over the cutoffs."""
    def vec(kets):
        return reduce(np.kron, [ket_vector(k, cut) for k, cut in zip(kets, state.layout.cutoffs)])

    return sum(c * np.outer(vec(lefts), vec(rights).conj()) for c, lefts, rights in state.terms)


# two modes at the default cutoff of the largest amplitude drawn
KRAUS_LAYOUT = ModeLayout(("p", "C"), (default_cutoff(0.7),) * 2, (Role.PHOTONIC, Role.COHERENT))
factors = st.one_of(
    st.complex_numbers(max_magnitude=0.7, allow_nan=False, allow_infinity=False).map(Coherent),
    # Fock vectors of degree up to 3, trailing zeros and the zero vector included
    st.lists(st.sampled_from([0.0, 1.0, -0.6, 0.5j, 0.8 - 0.3j]), min_size=1, max_size=4).map(FockVector),
)
operator_terms = st.lists(
    st.tuples(st.complex_numbers(min_magnitude=0.1, max_magnitude=1.0, allow_nan=False,
                                 allow_infinity=False),
              st.tuples(factors, factors), st.tuples(factors, factors)),
    min_size=1, max_size=5,
)
losses = st.one_of(st.just(0.0), st.floats(0.0, 0.95))


class TestKrausArrays:
    @given(operator_terms, losses, st.sampled_from([("p",), ("C",), ("p", "C"), ("C", "p")]))
    @example([(1.0, (fock(3), Coherent(0.5)), (fock(1), fock(2))),
              (0.5, (fock(1), fock(0)), (fock(3), Coherent(-0.5)))], 0.4, ("p", "C"))
    @settings(max_examples=60, deadline=None)
    def test_matches_term_by_term_oracle(self, terms, r, names):
        # the array map against the per-term Kraus loop, as dense matrices
        rho = TermSum(KRAUS_LAYOUT, terms)
        loss = LossParameter(r)
        got = dense_operator(damp_modes(rho, names, loss))
        want = dense_operator(kraus_oracle.damp_modes(rho, names, loss))
        assert np.allclose(got, want, rtol=0.0, atol=1e-12)

    @pytest.mark.parametrize("r", [0.0, 0.5])
    def test_vanishing_images_leave_no_terms(self, r):
        # E_k |0_coh> = 0 for k >= 1, so a Coherent(0) x Fock term keeps order 0 alone:
        # the same term count as the oracle, which skips vanishing images
        rho = TermSum(KRAUS_LAYOUT, [(1.0, (Coherent(0.0), fock(3)), (fock(2), Coherent(0.3))),
                                     (0.5, (fock(1), Coherent(0.0)), (Coherent(0.0), fock(0)))])
        loss = LossParameter(r)
        got = damp_modes(rho, ("p", "C"), loss)
        assert len(got.coeffs) == len(kraus_oracle.damp_modes(rho, ("p", "C"), loss).terms)
        assert np.count_nonzero(got.coeffs) == len(got.coeffs)


class TestDilation:
    @pytest.mark.parametrize("r", [0.0, 0.3, 0.9])
    @pytest.mark.parametrize("alpha", [0.5, 2.0])
    @pytest.mark.parametrize("hybrid", [HybridType.TYPE_I, HybridType.TYPE_II])
    def test_beam_splitter_loss_matches_channel_oracles(self, hybrid, alpha, r):
        # tracing the environment out of the dilated ket is the loss channel:
        # compare with the Kraus sum and with the closed-form damped channel
        loss = LossParameter(r)
        psi = ideal_channel(hybrid, alpha)
        names = psi.layout.names
        wide = dilate(psi, names, loss)
        _, rho = Contraction(wide, wide, names, COHERENT_ALGEBRA).outcome(
            ModeProjector(((),))
        )
        kraus = damp_modes(psi.dm(), names, loss)
        closed = decohered_channel(hybrid, alpha, loss)
        assert trace_distance(rho, kraus, COHERENT_ALGEBRA) < 1e-10
        assert trace_distance(rho, closed, COHERENT_ALGEBRA) < 1e-10


class TestPmBlock:
    @pytest.mark.parametrize("primed", [False, True])
    @pytest.mark.parametrize("which", ["++", "--", "+-", "-+"])
    def test_trace_rule(self, which, primed):
        t = 0.8
        entries = pm_block(which, t, primed)
        diag = sum(w for w, s1, s2 in entries if s1 == s2)
        off = sum(w for w, s1, s2 in entries if s1 != s2)
        if which in ("++", "--"):
            assert math.isclose(diag, 1.0, rel_tol=1e-12)
        else:
            assert diag == 0.0
            assert math.isclose(off, t * t, rel_tol=1e-12)

    def test_population_block_weights(self):
        t = 0.6
        r2 = 1.0 - t * t
        got = {(s1, s2): w for w, s1, s2 in pm_block("++", t, primed=False)}
        assert math.isclose(got[(1, 1)], (1 + t) / 2, rel_tol=1e-12)
        assert math.isclose(got[(-1, -1)], (1 - t) / 2, rel_tol=1e-12)
        assert math.isclose(got[(1, -1)], r2 / 2, rel_tol=1e-12)
        assert math.isclose(got[(-1, 1)], r2 / 2, rel_tol=1e-12)

    def test_primed_flips_cross_sign(self):
        t = 0.6
        plain = {(s1, s2): w for w, s1, s2 in pm_block("++", t, primed=False)}
        primed = {(s1, s2): w for w, s1, s2 in pm_block("++", t, primed=True)}
        assert math.isclose(primed[(1, -1)], -plain[(1, -1)], rel_tol=1e-12)
        assert math.isclose(primed[(1, 1)], plain[(1, 1)], rel_tol=1e-12)

    def test_coherence_blocks_mirror(self):
        t = 0.45
        pm = {(s1, s2): w for w, s1, s2 in pm_block("+-", t)}
        mp = {(s1, s2): w for w, s1, s2 in pm_block("-+", t)}
        assert math.isclose(pm[(1, -1)], mp[(-1, 1)], rel_tol=1e-12)
        assert math.isclose(pm[(-1, 1)], mp[(1, -1)], rel_tol=1e-12)
        assert math.isclose(pm[(1, -1)], (t * t + t) / 2, rel_tol=1e-12)
        assert math.isclose(pm[(-1, 1)], (t * t - t) / 2, rel_tol=1e-12)

    @given(st.floats(0.05, 1.0))
    def test_single_photon_damping_oracle(self, t):
        # A |1><1| population damps to t^2 |1><1| + (1-t^2) |0><0|; in the
        # +/- single-photon basis that is exactly the four "++" weights.
        entries = pm_block("++", t, primed=False)
        vec = {1: np.array([1.0, 1.0]) / math.sqrt(2), -1: np.array([1.0, -1.0]) / math.sqrt(2)}
        rho = sum(w * np.outer(vec[s1], vec[s2]) for w, s1, s2 in entries)
        n1 = np.array([0.0, 1.0])
        n0 = np.array([1.0, 0.0])
        want = 0.5 * (
            np.outer(n0, n0)
            + t * t * np.outer(n1, n1)
            + (1 - t * t) * np.outer(n0, n0)
            + t * (np.outer(n0, n1) + np.outer(n1, n0))
        )
        assert np.allclose(rho, want, atol=1e-12)
