"""Logical encodings, entangled channel states, and Bell structure."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hybrid_teleport.encoding import (
    LOGICAL_PAULI,
    _partial_inner,
    BlochAngles,
    DynamicBasis,
    HybridType,
    apply_correction,
    bell_decomposition_check,
    bell_decomposition_table,
    coherent_mode,
    correction_is_relabel,
    ideal_channel,
    input_state,
    logical_ket,
    photonic_modes,
    protocol_layout,
    qubit_layout,
)
from hybrid_teleport.engine import (
    COHERENT_ALGEBRA,
    TRUNCATED_FOCK,
    Coherent,
    Contraction,
    FockVector,
    KetSum,
    ModeLayout,
    ModeProjector,
    Role,
    fock,
    ket_vector,
    trace_distance,
)
from hybrid_teleport.loss import LossParameter

from bell_oracle import bell_details
from ket_oracle import dense_correction

HYBRIDS = (HybridType.TYPE_I, HybridType.TYPE_II)

angle_values = st.floats(0.0, math.pi)
phase_values = st.floats(0.0, 2.0 * math.pi)


def lossless_basis(alpha: float) -> DynamicBasis:
    return DynamicBasis(alpha, LossParameter(0.0))


class TestBlochAngles:
    def test_amplitudes(self):
        ang = BlochAngles(math.pi / 3, math.pi / 5)
        assert math.isclose(abs(ang.mu) ** 2 + abs(ang.nu) ** 2, 1.0, rel_tol=1e-14)
        assert math.isclose(ang.mu.real, math.cos(math.pi / 6), rel_tol=1e-14)
        assert math.isclose(abs(ang.nu), math.sin(math.pi / 6), rel_tol=1e-14)
        assert math.isclose(math.atan2(ang.nu.imag, ang.nu.real), math.pi / 5, rel_tol=1e-12)

    @given(angle_values, phase_values)
    def test_normalized(self, u, v):
        ang = BlochAngles(u, v)
        assert math.isclose(abs(ang.mu) ** 2 + abs(ang.nu) ** 2, 1.0, abs_tol=1e-12)


class TestLayouts:
    def test_protocol_mode_counts(self):
        lay1 = protocol_layout(HybridType.TYPE_I, 1.0)
        lay2 = protocol_layout(HybridType.TYPE_II, 1.0)
        assert len(lay1.names) == 9
        assert len(lay2.names) == 6

    def test_qubit_layout_slots(self):
        lay = qubit_layout(HybridType.TYPE_II, "c", 1.0)
        assert lay.names == ("c", "C")
        lay1 = qubit_layout(HybridType.TYPE_I, "b", 1.0)
        assert lay1.names == ("bH", "bV", "B")

    def test_mode_name_helpers(self):
        assert coherent_mode("a") == "A"
        assert photonic_modes(HybridType.TYPE_I, "a") == ("aH", "aV")
        assert photonic_modes(HybridType.TYPE_II, "b") == ("b",)


class TestLogicalKets:
    @pytest.mark.parametrize("hybrid", HYBRIDS)
    @pytest.mark.parametrize("alpha", [0.7, 1.0, 2.0])
    def test_lossless_normalized(self, hybrid, alpha):
        basis = lossless_basis(alpha)
        for bit in (0, 1):
            k = logical_ket(hybrid, bit, basis)
            assert math.isclose(k.norm2(COHERENT_ALGEBRA), 1.0, rel_tol=1e-12)

    @pytest.mark.parametrize("hybrid", HYBRIDS)
    def test_lossless_orthogonal(self, hybrid):
        basis = lossless_basis(1.0)
        k0 = logical_ket(hybrid, 0, basis)
        k1 = logical_ket(hybrid, 1, basis)
        assert abs(k0.braket(k1, COHERENT_ALGEBRA)) < 1e-12

    @pytest.mark.parametrize("hybrid", HYBRIDS)
    def test_damped_basis_still_orthonormal(self, hybrid):
        # the qubit-half overlap <+|-> vanishes even though the damped
        # coherent halves overlap, so the damped basis stays orthonormal
        basis = DynamicBasis(1.0, LossParameter(0.6))
        k0 = logical_ket(hybrid, 0, basis)
        k1 = logical_ket(hybrid, 1, basis)
        assert math.isclose(k0.norm2(COHERENT_ALGEBRA), 1.0, rel_tol=1e-12)
        assert math.isclose(k1.norm2(COHERENT_ALGEBRA), 1.0, rel_tol=1e-12)
        assert abs(k0.braket(k1, COHERENT_ALGEBRA)) < 1e-12

    def test_coherent_amplitude_tracks_damping(self):
        basis = DynamicBasis(1.5, LossParameter(0.8))
        k0 = logical_ket(HybridType.TYPE_II, 0, basis)
        amps = {k.amplitude for _, kets in k0.terms for k in kets if hasattr(k, "amplitude")}
        assert len(amps) == 1
        assert amps.pop() == pytest.approx(basis.damped)

    def test_coh_scale_only_inflates_cutoff(self):
        # coh_scale is headroom for post-interference amplitudes; it must not
        # change the encoded amplitude itself
        basis = lossless_basis(1.0)
        plain = logical_ket(HybridType.TYPE_II, 0, basis, slot="a")
        wide = logical_ket(HybridType.TYPE_II, 0, basis, slot="a", coh_scale=math.sqrt(2.0))
        amp = lambda k: {x.amplitude for _, kets in k.terms for x in kets if hasattr(x, "amplitude")}
        assert amp(plain) == amp(wide)
        i = wide.layout.names.index("A")
        assert wide.layout.cutoffs[i] > plain.layout.cutoffs[i]


class TestInputState:
    @given(angle_values, phase_values)
    @settings(max_examples=20, deadline=None)
    def test_normalized(self, u, v):
        basis = lossless_basis(1.0)
        psi = input_state(HybridType.TYPE_II, BlochAngles(u, v), basis)
        assert math.isclose(psi.norm2(COHERENT_ALGEBRA), 1.0, abs_tol=1e-10)

    def test_poles_reduce_to_logical_kets(self):
        basis = lossless_basis(1.0)
        north = input_state(HybridType.TYPE_I, BlochAngles(0.0, 0.3), basis, slot="a")
        k0 = logical_ket(HybridType.TYPE_I, 0, basis, slot="a")
        assert trace_distance(north.dm(), k0.dm(), COHERENT_ALGEBRA) < 1e-12


class TestIdealChannel:
    @pytest.mark.parametrize("hybrid", HYBRIDS)
    @pytest.mark.parametrize("alpha", [0.7, 1.3])
    def test_normalized(self, hybrid, alpha):
        psi = ideal_channel(hybrid, alpha)
        assert math.isclose(psi.norm2(COHERENT_ALGEBRA), 1.0, rel_tol=1e-12)

    @pytest.mark.parametrize("hybrid", HYBRIDS)
    def test_marginal_is_maximally_mixed_on_logical_space(self, hybrid, alpha=1.1):
        # tracing Bob's half against the two logical kets gives weight 1/2 each
        psi = ideal_channel(hybrid, alpha)
        basis = lossless_basis(alpha)
        for bit in (0, 1):
            bob = logical_ket(hybrid, bit, basis, slot="c")
            other = logical_ket(hybrid, 1 - bit, basis, slot="c")
            # <bit| Tr_b rho |bit> = 1/2, cross terms vanish
            val = _bob_sandwich(psi, bob, bob)
            cross = _bob_sandwich(psi, bob, other)
            assert math.isclose(val.real, 0.5, rel_tol=1e-12)
            assert abs(cross) < 1e-12


def _bob_sandwich(psi, left, right):
    """<left| Tr_sender(|psi><psi|) |right>."""
    trace = ModeProjector(((),))
    _, reduced = Contraction(psi, psi, left.layout.names, COHERENT_ALGEBRA).outcome(trace)
    return reduced.matrix_element(left, right, COHERENT_ALGEBRA)


class TestCorrections:
    def test_relabel_table(self):
        assert not correction_is_relabel(HybridType.TYPE_I, "Z")
        assert not correction_is_relabel(HybridType.TYPE_II, "I")
        assert not correction_is_relabel(HybridType.TYPE_II, "X")
        assert correction_is_relabel(HybridType.TYPE_II, "Z")
        assert correction_is_relabel(HybridType.TYPE_II, "XZ")

    @pytest.mark.parametrize("hybrid", HYBRIDS)
    @pytest.mark.parametrize("pauli", ["I", "X", "Z", "XZ"])
    def test_corrections_permute_logical_kets(self, hybrid, pauli):
        # X swaps the logical kets; Z flips the relative sign; both are
        # involutions on the lossless code space
        basis = lossless_basis(1.0)
        ang = BlochAngles(1.0, 0.7)
        psi = input_state(hybrid, ang, basis, slot="c")
        rho = psi.dm()
        once = apply_correction(rho, hybrid, pauli)
        twice = apply_correction(once, hybrid, pauli)
        assert trace_distance(twice.canonicalized(), rho.canonicalized(), COHERENT_ALGEBRA) < 1e-10

    def test_x_swaps_poles(self):
        basis = lossless_basis(1.0)
        k0 = logical_ket(HybridType.TYPE_II, 0, basis).dm()
        k1 = logical_ket(HybridType.TYPE_II, 1, basis).dm()
        assert trace_distance(apply_correction(k0, HybridType.TYPE_II, "X"), k1,
                              COHERENT_ALGEBRA) < 1e-12


def dense_operator(state) -> np.ndarray:
    """Dense truncated-Fock matrix of an operator sum (oracle)."""
    cuts = state.layout.cutoffs

    def vec(kets):
        out = np.ones(1, dtype=complex)
        for k, cut in zip(kets, cuts):
            out = np.kron(out, ket_vector(k, cut))
        return out

    return sum(c * np.outer(vec(l), vec(r).conj()) for c, l, r in state.terms)


class TestCorrectionOracles:
    @pytest.mark.parametrize("hybrid", HYBRIDS)
    @pytest.mark.parametrize("pauli", ["I", "X", "Z", "XZ"])
    def test_apply_correction_matches_dense(self, hybrid, pauli):
        basis = DynamicBasis(1.0, LossParameter(0.5))
        psi = input_state(hybrid, BlochAngles(1.0, 0.7), basis, slot="c")
        lay = psi.layout
        n_phot = len(photonic_modes(hybrid, "c"))
        # the photon lost to the environment, and a two-photon admixture
        lost = (fock(0),) * n_phot + (Coherent(-basis.damped),)
        two = (FockVector((0.2, 0.5, 0.6)),) + (fock(1),) * (n_phot - 1)
        phi = KetSum(lay, [(0.4, lost), (0.3j, two + (Coherent(0.2 + 0.1j),))])
        rho = (psi + phi).dm() + phi.outer(psi).scaled(0.5j)
        c = dense_correction(hybrid, pauli, lay)
        got = dense_operator(apply_correction(rho, hybrid, pauli))
        want = c @ dense_operator(rho) @ c.conj().T
        assert np.allclose(got, want, rtol=0.0, atol=1e-12)

    @pytest.mark.parametrize("hybrid", HYBRIDS)
    @pytest.mark.parametrize("alpha", [0.5, 2.0])
    @pytest.mark.parametrize("r", [0.0, 0.3, 0.9])
    def test_logical_pauli_matches_physical_map(self, hybrid, alpha, r):
        # <p_L| C |q_L><q'_L| C^dag |p'_L> = (U E_qq' U^dag)[p, p']
        basis = DynamicBasis(alpha, LossParameter(r))
        kets = [logical_ket(hybrid, bit, basis) for bit in (0, 1)]
        for pauli, u in LOGICAL_PAULI.items():
            for q, q2 in itertools.product((0, 1), repeat=2):
                corrected = apply_correction(kets[q].outer(kets[q2]), hybrid, pauli)
                unit = np.zeros((2, 2))
                unit[q, q2] = 1.0
                want = u @ unit @ u.conj().T
                got = np.array(
                    [
                        [corrected.matrix_element(kets[p], kets[p2], COHERENT_ALGEBRA)
                         for p2 in (0, 1)]
                        for p in (0, 1)
                    ]
                )
                assert np.allclose(got, want, rtol=0.0, atol=1e-12), (pauli, q, q2)


class TestBellDecomposition:
    @pytest.mark.parametrize("hybrid", HYBRIDS)
    @pytest.mark.parametrize("alpha", [0.5, 1.0, 2.0])
    def test_residual_small(self, hybrid, alpha):
        res = bell_decomposition_check(hybrid, alpha, BlochAngles(1.1, 2.3))
        assert res < 1e-8

    @given(angle_values, phase_values)
    @settings(max_examples=6, deadline=None)
    def test_residual_small_random_angles(self, u, v):
        res = bell_decomposition_check(HybridType.TYPE_II, 1.0, BlochAngles(u, v))
        assert res < 1e-8


class TestBellTable:
    GRID = [BlochAngles(math.pi * (iu + 0.5) / 3, 2.0 * math.pi * iv / 3 + 0.3)
            for iu in range(3) for iv in range(3)]

    @pytest.mark.parametrize("hybrid", HYBRIDS)
    @pytest.mark.parametrize("alpha", [0.5, 1.0, 2.0])
    def test_matches_per_input_oracle(self, hybrid, alpha):
        # one Choi run per Bell bra against one run per input and Bell bra
        table = bell_decomposition_table(hybrid, alpha, self.GRID)
        assert len(table) == len(self.GRID)
        for angles, got in zip(self.GRID, table):
            want = bell_details(hybrid, alpha, angles)
            assert got.keys() == want.keys()
            for combo, (prob, dev) in want.items():
                assert (got[combo][1] is None) == (dev is None), combo
                assert abs(got[combo][0] - prob) < 1e-12, combo
                if dev is not None:
                    assert abs(got[combo][1] - dev) < 1e-12, combo

    def test_one_input_reads_as_in_a_longer_table(self):
        angles = self.GRID[4]
        want = bell_decomposition_table(HybridType.TYPE_I, 1.0, [self.GRID[0], angles])[1]
        got, = bell_decomposition_table(HybridType.TYPE_I, 1.0, [angles])
        assert got.keys() == want.keys()
        for combo, (prob, dev) in want.items():
            assert abs(got[combo][0] - prob) < 1e-14
            assert (dev is None) == (got[combo][1] is None)


class TestPartialInner:
    # the bra covers q and A, out of layout order; p and B remain
    LAYOUT = ModeLayout(
        ("p", "A", "q", "B"), (2, 12, 2, 12),
        (Role.PHOTONIC, Role.COHERENT, Role.PHOTONIC, Role.COHERENT),
    )

    @pytest.mark.parametrize("backend", (COHERENT_ALGEBRA, TRUNCATED_FOCK), ids=lambda b: b.kind)
    def test_matches_dense_oracle(self, backend):
        psi = KetSum(self.LAYOUT, [
            (0.6, (fock(1), Coherent(0.8), FockVector((0.6, 0.8)), Coherent(-0.5))),
            (0.5j, (fock(0), Coherent(-0.8), fock(1), Coherent(0.3j))),
            (0.3, (FockVector((1.0, 1.0)), Coherent(0.8), fock(0), Coherent(-0.5))),
            (-0.2, (fock(1), Coherent(0.2 + 0.4j), fock(1), Coherent(0.3j))),
        ])
        # bra terms that are not orthogonal to each other
        bra = KetSum(self.LAYOUT.subset(("q", "A")), [
            (0.7, (fock(1), Coherent(0.8))),
            (0.4 - 0.2j, (FockVector((0.6, -0.8)), Coherent(-0.8))),
            (0.5, (fock(0), Coherent(0.1))),
        ])
        (got,) = _partial_inner([bra], psi, backend)
        assert got.layout.names == ("p", "B")
        assert len(got.terms) <= len(psi.terms)
        dims = [cut + 1 for cut in self.LAYOUT.cutoffs]
        psi_d = dense_vector(psi).reshape(dims)
        bra_d = dense_vector(bra).reshape(dims[2], dims[1])
        want = np.einsum("paqb,qa->pb", psi_d, bra_d.conj()).reshape(-1)
        assert np.allclose(dense_vector(got), want, rtol=0.0, atol=1e-10)


def dense_vector(state: KetSum) -> np.ndarray:
    """Dense truncated-Fock vector of a ket sum (oracle)."""
    def vec(kets):
        out = np.ones(1, dtype=complex)
        for k, cut in zip(kets, state.layout.cutoffs):
            out = np.kron(out, ket_vector(k, cut))
        return out

    return sum(c * vec(kets) for c, kets in state.terms)
