"""Closed-form probabilities, fidelities, and conditional states.

Frozen reference numbers were computed with the first-principles protocol
simulation (multimode interference, exact loss channel, projector algebra),
which shares no code path with the closed forms under test.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import formulas_oracle
from hybrid_teleport import crossval, formulas
from hybrid_teleport.encoding import BlochAngles, DynamicBasis, HybridType, logical_ket
from hybrid_teleport.engine import (
    COHERENT_ALGEBRA,
    Coherent,
    KetSum,
    ModeLayout,
    Role,
    overlap,
    trace_distance,
)
from hybrid_teleport.loss import LossParameter, damp_mode
from hybrid_teleport.measurement import FAIL, correction_lookup, enumerate_outcomes
from hybrid_teleport.protocol import DEFAULT_QUADRATURE, SphereQuadrature

ANGLES = BlochAngles(1.1, 2.3)

# first-principles protocol values at alpha=1, r=0.3, angles (1.1, 2.3):
# group index -> (probability, fidelity)
PROTOCOL_GROUP_STATS = {
    1: (0.2418734561207539, 0.8312404875910894),
    2: (0.1771136684123059, 0.8398993233200169),
    3: (0.17555021052448166, 0.8198938922279159),
    4: (0.24343691400857814, 0.8285527279568431),
    5: (0.08534229333140395, 0.8131370190801014),
}

# first-principles lossless group probabilities, alpha=1, angles (1.1, 2.3)
PROTOCOL_GROUP_PROBS_LOSSLESS = {
    1: 0.24542109027781653,
    2: 0.18691126810387720,
    3: 0.18691126810387726,
    4: 0.24542109027781658,
    5: 0.06766764161830632,
}

# first-principles sphere averages at alpha=1
PROTOCOL_F_I_R03 = 0.8182951522415465
PROTOCOL_P_I_R03 = 0.8362782833250813
PROTOCOL_F_II_R03 = 0.852871704564465
PROTOCOL_P_II_R03 = 0.9189871245330598
PROTOCOL_P_LOSSLESS = 0.9323323583816964

angle_strategy = st.tuples(st.floats(0.0, math.pi), st.floats(0.0, 2.0 * math.pi))
t_strategy = st.floats(0.2, 1.0)
alpha_strategy = st.floats(0.3, 2.0)


class TestEnvelopes:
    def test_damped_overlap_is_coherent_overlap(self):
        alpha, t = 1.3, 0.8
        got = formulas.damped_overlap(alpha, t)
        direct = overlap(Coherent(t * alpha), Coherent(-t * alpha), COHERENT_ALGEBRA, 0)
        assert math.isclose(got, direct.real, rel_tol=1e-14)

    def test_cross_dephasing_is_loss_cross_damping(self):
        # the doubled-amplitude cross term |g><-g| with g = sqrt(2) alpha
        # damps by exactly this envelope
        alpha, r = 1.1, 0.6
        g = math.sqrt(2.0) * alpha
        loss = LossParameter(r)
        lay = ModeLayout(("m",), (30,), (Role.COHERENT,))
        cross = KetSum(lay, [(1.0, (Coherent(g),))]).outer(
            KetSum(lay, [(1.0, (Coherent(-g),))])
        )
        out = damp_mode(cross, "m", loss)
        (c, _, _) = out.terms[0]
        assert math.isclose(c.real, formulas.cross_dephasing(alpha, loss.t), rel_tol=1e-13)

    @given(alpha_strategy, t_strategy)
    def test_envelopes_in_unit_interval(self, alpha, t):
        assert 0.0 < formulas.damped_overlap(alpha, t) <= 1.0
        assert 0.0 < formulas.cross_dephasing(alpha, t) <= 1.0


class TestAverages:
    def test_success_probability_lossless(self):
        got = formulas.success_probability(HybridType.TYPE_II, 1.0, 1.0)
        assert math.isclose(got, PROTOCOL_P_LOSSLESS, abs_tol=1e-12)
        assert math.isclose(got, 1.0 - 0.5 * math.exp(-2.0), rel_tol=1e-14)

    def test_type_i_success_carries_transmission_squared(self):
        alpha, t = 1.0, 0.8
        p1 = formulas.success_probability(HybridType.TYPE_I, alpha, t)
        p2 = formulas.success_probability(HybridType.TYPE_II, alpha, t)
        assert math.isclose(p1, t * t * p2, rel_tol=1e-14)

    def test_type_i_average_fidelity_r03(self):
        t = math.sqrt(1.0 - 0.09)
        got = formulas.average_fidelity(HybridType.TYPE_I, 1.0, t)
        assert math.isclose(got, PROTOCOL_F_I_R03, abs_tol=1e-12)

    def test_type_i_success_r03(self):
        t = math.sqrt(1.0 - 0.09)
        got = formulas.success_probability(HybridType.TYPE_I, 1.0, t)
        assert math.isclose(got, PROTOCOL_P_I_R03, abs_tol=1e-12)

    def test_type_ii_average_fidelity_r03(self):
        t = math.sqrt(1.0 - 0.09)
        got = formulas.average_fidelity(HybridType.TYPE_II, 1.0, t)
        assert math.isclose(got, PROTOCOL_F_II_R03, abs_tol=1e-12)

    def test_type_ii_success_r03(self):
        t = math.sqrt(1.0 - 0.09)
        got = formulas.success_probability(HybridType.TYPE_II, 1.0, t)
        assert math.isclose(got, PROTOCOL_P_II_R03, abs_tol=1e-12)

    @pytest.mark.parametrize("hybrid", [HybridType.TYPE_I, HybridType.TYPE_II])
    def test_lossless_fidelity_is_one(self, hybrid):
        for alpha in (0.5, 1.0, 2.0):
            assert math.isclose(
                formulas.average_fidelity(hybrid, alpha, 1.0), 1.0, abs_tol=1e-10
            )

    @given(alpha_strategy, st.floats(0.3, 0.99))
    @settings(max_examples=15, deadline=None)
    def test_type_ii_dominates_type_i(self, alpha, t):
        f1 = formulas.average_fidelity(HybridType.TYPE_I, alpha, t)
        f2 = formulas.average_fidelity(HybridType.TYPE_II, alpha, t)
        p1 = formulas.success_probability(HybridType.TYPE_I, alpha, t)
        p2 = formulas.success_probability(HybridType.TYPE_II, alpha, t)
        assert f2 >= f1 - 1e-12
        assert p2 >= p1 - 1e-12


class TestGroups:
    def test_groups_partition_success_outcomes(self):
        members = [
            (m.s_outcome, m.alpha_outcome)
            for g in formulas.OUTCOME_GROUPS
            for m in g.members
        ]
        succ = [(o.s_outcome, o.alpha_outcome) for o in enumerate_outcomes(HybridType.TYPE_II)
                if correction_lookup(HybridType.TYPE_II, o) != FAIL]
        assert sorted(members) == sorted(succ)
        assert len(members) == 14

    def test_group_sizes(self):
        sizes = {g.index: len(g.members) for g in formulas.OUTCOME_GROUPS}
        assert sizes == {1: 4, 2: 4, 3: 2, 4: 2, 5: 2}

    @pytest.mark.parametrize("i", [1, 2, 3, 4, 5])
    def test_probability_matches_protocol(self, i):
        t = math.sqrt(1.0 - 0.09)
        got = formulas.group_probability(i, 1.0, t, ANGLES)
        assert math.isclose(got, PROTOCOL_GROUP_STATS[i][0], abs_tol=1e-12)

    @pytest.mark.parametrize("i", [1, 2, 3, 4, 5])
    def test_fidelity_matches_protocol(self, i):
        t = math.sqrt(1.0 - 0.09)
        got = formulas.group_fidelity(i, 1.0, t, ANGLES)
        assert math.isclose(got, PROTOCOL_GROUP_STATS[i][1], abs_tol=1e-12)

    @pytest.mark.parametrize("i", [1, 2, 3, 4, 5])
    def test_probability_lossless(self, i):
        got = formulas.group_probability(i, 1.0, 1.0, ANGLES)
        assert math.isclose(got, PROTOCOL_GROUP_PROBS_LOSSLESS[i], abs_tol=1e-12)

    def test_lossless_closed_values(self):
        # with E = exp(-2 alpha^2): quarter (1-E)(1+E) and half E
        e = math.exp(-2.0)
        assert math.isclose(
            formulas.group_probability(1, 1.0, 1.0, ANGLES),
            0.25 * (1.0 - e) * (1.0 + e),
            rel_tol=1e-14,
        )
        assert math.isclose(
            formulas.group_probability(3, 1.0, 1.0, ANGLES),
            0.25 * (1.0 - e) ** 2,
            rel_tol=1e-14,
        )
        p5 = formulas.group_probability(5, 1.0, 1.0, BlochAngles(math.pi / 2, 0.0))
        assert math.isclose(p5, 0.5 * e * (1.0 - 0.0), rel_tol=1e-14)

    def test_fidelity_pole_limit(self):
        # at the logical-0 pole only the population-flip channel hurts group 1
        for t in (0.6, 0.8, 1.0):
            got = formulas.group_fidelity(1, 1.0, t, BlochAngles(0.0, 0.0))
            assert math.isclose(got, (1.0 + t) / 2.0, rel_tol=1e-13)

    @given(angle_strategy, t_strategy)
    @settings(max_examples=40, deadline=None)
    def test_fidelities_in_unit_interval(self, uv, t):
        ang = BlochAngles(*uv)
        for i in range(1, 6):
            f = formulas.group_fidelity(i, 1.0, t, ang)
            assert -1e-12 <= f <= 1.0 + 1e-12

    @given(angle_strategy, t_strategy, alpha_strategy)
    @settings(max_examples=40, deadline=None)
    def test_probabilities_normalized(self, uv, t, alpha):
        ang = BlochAngles(*uv)
        ps = [formulas.group_probability(i, alpha, t, ang) for i in range(1, 6)]
        assert all(p >= -1e-12 for p in ps)
        assert sum(ps) <= 1.0 + 1e-12

    @pytest.mark.parametrize("i", [1, 2, 3, 4, 5])
    def test_state_reproduces_fidelity(self, i):
        # expectation of the closed-form conditional state in the target ket
        # must equal the closed-form fidelity
        alpha, t = 1.0, math.sqrt(1.0 - 0.36)
        state = formulas.group_state(i, alpha, t, ANGLES)
        basis = DynamicBasis(alpha, LossParameter(math.sqrt(1 - t * t)))
        phi = logical_ket(HybridType.TYPE_II, 0, basis).scaled(ANGLES.mu) + logical_ket(
            HybridType.TYPE_II, 1, basis
        ).scaled(ANGLES.nu)
        got = state.matrix_element(phi, phi, COHERENT_ALGEBRA).real
        want = formulas.group_fidelity(i, alpha, t, ANGLES)
        assert math.isclose(got, want, abs_tol=1e-12)

    @given(angle_strategy)
    @settings(max_examples=15, deadline=None)
    def test_states_unit_trace_hermitian(self, uv):
        ang = BlochAngles(*uv)
        alpha, t = 1.0, 0.8
        for i in range(1, 6):
            rho = formulas.group_state(i, alpha, t, ang)
            assert math.isclose(rho.trace(COHERENT_ALGEBRA).real, 1.0, abs_tol=1e-10)
            assert trace_distance(rho, rho.adjoint(), COHERENT_ALGEBRA) < 1e-10


class TestGroupSumIdentity:
    @pytest.mark.parametrize("alpha", [0.5, 1.0, 2.0])
    @pytest.mark.parametrize("r", [0.0, 0.3, 0.6, 0.9])
    def test_sphere_average_matches_success_probability(self, alpha, r):
        t = math.sqrt(1.0 - r * r)
        dev = formulas.group_sum_deviation(alpha, t)
        assert dev < 1e-10

    def test_quadrature_average_consistent(self):
        alpha, t = 1.0, math.sqrt(1.0 - 0.09)
        via_quad = formulas.average_fidelity_quadrature(alpha, t)
        via_api = formulas.average_fidelity(HybridType.TYPE_II, alpha, t, DEFAULT_QUADRATURE)
        assert math.isclose(via_quad, via_api, rel_tol=1e-14)


class TestMatchesPerGroupOracle:
    """One evaluation of all five groups per input keeps every expression and
    summation order of the per-group evaluation: values are equal, not close."""

    @given(st.floats(0.05, 20.0), st.floats(0.02, 1.0),
           st.floats(-10.0, 10.0), st.floats(-10.0, 10.0))
    @settings(max_examples=200, deadline=None)
    def test_groups_and_sums(self, alpha, t, u, v):
        ang = BlochAngles(u, v)
        for i in range(1, 6):
            assert (formulas.group_probability(i, alpha, t, ang)
                    == formulas_oracle.group_probability(i, alpha, t, ang))
            assert (formulas.group_fidelity(i, alpha, t, ang)
                    == formulas_oracle.group_fidelity(i, alpha, t, ang))
        assert (formulas._group_sums(formulas.loss_factors(alpha, t), ang)
                == formulas_oracle.group_sums(alpha, t, ang))

    # a reassociated product moves a fidelity's last bit at only about 1% of
    # inputs, mostly at small alpha, so every node of a rule is compared too
    @pytest.mark.parametrize("alpha", [0.05, 0.3, 1.0, 2.5])
    @pytest.mark.parametrize("t", [0.1, 0.6, 0.95])
    def test_groups_at_every_node(self, alpha, t):
        for u, v, _ in SphereQuadrature(16, 32).nodes():
            ang = BlochAngles(u, v)
            assert (formulas._group_sums(formulas.loss_factors(alpha, t), ang)
                    == formulas_oracle.group_sums(alpha, t, ang))
            for i in range(1, 6):
                assert (formulas.group_fidelity(i, alpha, t, ang)
                        == formulas_oracle.group_fidelity(i, alpha, t, ang))

    @pytest.mark.parametrize("quad", [SphereQuadrature(4, 8), DEFAULT_QUADRATURE],
                             ids=["4x8", "default"])
    @pytest.mark.parametrize("alpha, r", [(0.05, 0.0), (1.0, 0.3), (5.0, 0.98), (20.0, 0.5)])
    def test_quadrature_average(self, quad, alpha, r):
        t = math.sqrt(1.0 - r * r)
        want = formulas_oracle.average_fidelity_quadrature(alpha, t, quad)
        assert formulas.average_fidelity_quadrature(alpha, t, quad) == want
        assert formulas.average_fidelity(HybridType.TYPE_II, alpha, t, quad) == want


def axial_rule_average(alpha, t, n):
    """Type-II sphere average of sum p_i f_i / sum p_i on n Gauss-Legendre
    heights z along -x times four azimuths: the 2-D oracle.

    The sum of probabilities depends on n_x alone and the numerator is a
    polynomial of degree 2 in n, so four azimuths are exact on each circle;
    the heights resolve a pole of the ratio just beyond z = -1.
    """
    z, w = np.polynomial.legendre.leggauss(n)
    total = 0.0
    for zi, wi in zip(z, w):
        s = math.sqrt(1.0 - zi * zi)
        for k in range(4):
            phi = 0.5 * math.pi * k + 0.3
            ang = BlochAngles(math.acos(s * math.sin(phi)), math.atan2(s * math.cos(phi), -zi))
            probs = [formulas.group_probability(i, alpha, t, ang) for i in range(1, 6)]
            num = sum(p * formulas.group_fidelity(i, alpha, t, ang)
                      for i, p in enumerate(probs, start=1))
            total += 0.125 * wi * num / sum(probs)
    return total


class TestExactSphereAverage:
    @given(st.floats(0.1, 5.0), st.floats(0.0, 0.9))
    @settings(max_examples=20, deadline=None)
    def test_matches_default_rule(self, alpha, r):
        t = math.sqrt(1.0 - r * r)
        exact = formulas.average_fidelity(HybridType.TYPE_II, alpha, t)
        rule = formulas.average_fidelity(HybridType.TYPE_II, alpha, t, DEFAULT_QUADRATURE)
        assert abs(exact - rule) <= 1e-12

    @pytest.mark.parametrize("alpha", [0.1, 1.0])
    @pytest.mark.parametrize("r", [0.99, 0.999])
    def test_matches_dense_rule_near_the_pole(self, alpha, r):
        # the default rule is 6.9e-8 off at (0.1, 0.999)
        t = math.sqrt(1.0 - r * r)
        exact = formulas.average_fidelity(HybridType.TYPE_II, alpha, t)
        assert abs(exact - axial_rule_average(alpha, t, 400)) <= 1e-12

    def test_closed_route_reads_no_sphere_grid(self, monkeypatch):
        def refuse(self):
            raise AssertionError("sphere grid read")

        monkeypatch.setattr(SphereQuadrature, "nodes", refuse)
        monkeypatch.setattr(SphereQuadrature, "mu_nu_grid", refuse)
        formulas.average_fidelity(HybridType.TYPE_II, 1.3, 0.8)
        formulas.group_sum_deviation(1.3, 0.8)
        assert crossval.check_group_sum_identity().passed
        assert crossval.check_closed_vs_simulated().passed


class TestUniformTeleportedState:
    @pytest.mark.parametrize("r", [0.2, 0.5, 0.8])
    def test_unit_trace_hermitian(self, r):
        t = math.sqrt(1.0 - r * r)
        rho = formulas.uniform_teleported_state(1.0, t, ANGLES)
        assert math.isclose(rho.trace(COHERENT_ALGEBRA).real, 1.0, abs_tol=1e-12)
        assert trace_distance(rho, rho.adjoint(), COHERENT_ALGEBRA) < 1e-12

    def test_lossless_is_input_projector(self):
        rho = formulas.uniform_teleported_state(1.0, 1.0, ANGLES)
        basis = DynamicBasis(1.0, LossParameter(0.0))
        phi = logical_ket(HybridType.TYPE_I, 0, basis).scaled(ANGLES.mu) + logical_ket(
            HybridType.TYPE_I, 1, basis
        ).scaled(ANGLES.nu)
        assert trace_distance(rho, phi.dm(), COHERENT_ALGEBRA) < 1e-12
