"""First-principles protocol simulation: reports, averages, invariants."""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hybrid_teleport import engine, formulas, protocol
from hybrid_teleport.encoding import (
    LOGICAL_PAULI,
    BlochAngles,
    DynamicBasis,
    HybridType,
    input_state,
    logical_ket,
)
from hybrid_teleport.engine import (
    COHERENT_ALGEBRA,
    TRUNCATED_FOCK,
    Contraction,
    trace_distance,
)
from hybrid_teleport.loss import LossParameter
from hybrid_teleport.measurement import FAIL, correction_lookup, enumerate_outcomes
from hybrid_teleport.protocol import (
    NonFiniteError,
    SphereQuadrature,
    average_fidelity,
    average_success,
    group_statistics,
    outcome_tensors,
    teleport_once,
)

import protocol_oracle

ANGLES = BlochAngles(1.1, 2.3)
HYBRIDS = (HybridType.TYPE_I, HybridType.TYPE_II)
# input weights w[x, y] that pick one basis pair: state(w) is rho_xy
UNIT_WEIGHTS = {(x, y): np.outer(np.eye(2)[x], np.eye(2)[y]) for x in (0, 1) for y in (0, 1)}


class TestSphereQuadrature:
    def test_weights_sum_to_one(self):
        for quad in (SphereQuadrature(8, 16), SphereQuadrature()):
            total = sum(w for _, _, w in quad.nodes())
            assert math.isclose(total, 1.0, rel_tol=1e-13)

    def test_fourth_moment(self):
        # sphere average of |mu|^4 = integral of cos^4(u/2) over the sphere,
        # which is 1/3; Gauss-Legendre in cos u is exact for it
        m, w = SphereQuadrature(8, 8).mu_nu_grid()
        got = float(np.dot(w, np.abs(m[:, 0]) ** 4))
        assert math.isclose(got, 1.0 / 3.0, rel_tol=1e-12)

    def test_cross_moment(self):
        # average of |mu nu|^2 = 1/6; average of mu nu* = 0 by phase symmetry
        m, w = SphereQuadrature(8, 8).mu_nu_grid()
        cross = float(np.dot(w, (np.abs(m[:, 0]) * np.abs(m[:, 1])) ** 2))
        assert math.isclose(cross, 1.0 / 6.0, rel_tol=1e-12)
        phase = np.dot(w, m[:, 0] * m[:, 1].conj())
        assert abs(phase) < 1e-14

    def test_validation(self):
        with pytest.raises(ValueError):
            SphereQuadrature(0, 4)

    @pytest.mark.parametrize("quad", [SphereQuadrature(8, 16), SphereQuadrature()])
    def test_grid_matches_bloch_angles(self, quad):
        # M is built from the nodes with numpy; each entry is within 1 ulp of
        # BlochAngles' mu and nu at that node, and the weights are the nodes'
        m, w = quad.mu_nu_grid()
        nodes = quad.nodes()
        want = np.array([[BlochAngles(u, v).mu, BlochAngles(u, v).nu] for u, v, _ in nodes])
        np.testing.assert_array_max_ulp(m.real, want.real, maxulp=1)
        np.testing.assert_array_max_ulp(m.imag, want.imag, maxulp=1)
        assert np.array_equal(w, [wt for _, _, wt in nodes])

    def test_grid_is_read_only(self):
        quad = SphereQuadrature(4, 8)
        m, w = quad.mu_nu_grid()
        with pytest.raises(ValueError):
            m[0, 0] = 2.0
        with pytest.raises(ValueError):
            w[0] = 2.0
        m2, w2 = SphereQuadrature(4, 8).mu_nu_grid()
        assert np.array_equal(m, m2) and np.array_equal(w, w2)


class TestLossless:
    @pytest.mark.parametrize("hybrid", HYBRIDS)
    def test_success_outcomes_teleport_perfectly(self, hybrid):
        report = teleport_once(hybrid, 1.0, LossParameter(0.0), ANGLES)
        succ = {lab for lab in enumerate_outcomes(hybrid) if correction_lookup(hybrid, lab) != FAIL}
        for e in report.entries:
            if e.label in succ and e.probability > 1e-12:
                assert abs(e.fidelity - 1.0) < 1e-10, e.label

    @pytest.mark.parametrize("hybrid", HYBRIDS)
    def test_total_success_probability(self, hybrid):
        report = teleport_once(hybrid, 1.0, LossParameter(0.0), ANGLES)
        want = 1.0 - 0.5 * math.exp(-2.0)
        assert math.isclose(report.success_probability, want, abs_tol=1e-12)

    @pytest.mark.parametrize("hybrid", HYBRIDS)
    def test_probabilities_sum_to_one(self, hybrid):
        report = teleport_once(hybrid, 1.0, LossParameter(0.0), ANGLES)
        total = sum(e.probability for e in report.entries)
        assert math.isclose(total, 1.0, abs_tol=1e-10)

    def test_specific_outcome_probabilities(self):
        # frozen from an independent run of this engine, angles (pi/3, pi/5);
        # the three distinct nonzero success weights and the double-vacuum
        report = teleport_once(
            HybridType.TYPE_II, 1.0, LossParameter(0.0),
            BlochAngles(math.pi / 3, math.pi / 5),
        )
        assert report.entry("1", "1").probability == pytest.approx(
            0.0934556340519386, abs=1e-12)
        assert report.entry("1", "2").probability == pytest.approx(
            0.12271054513890826, abs=1e-12)
        assert report.entry("1", "e").probability == pytest.approx(
            0.03383382080915316, abs=1e-12)
        assert report.entry("e", "e").probability == pytest.approx(
            0.06766764161830638, abs=1e-12)


class TestLossyInvariants:
    @pytest.mark.parametrize("hybrid", HYBRIDS)
    @pytest.mark.parametrize("r", [0.3, 0.7])
    def test_probabilities_sum_to_one(self, hybrid, r):
        report = teleport_once(hybrid, 1.0, LossParameter(r), ANGLES)
        total = sum(e.probability for e in report.entries)
        assert math.isclose(total, 1.0, abs_tol=1e-10)

    def test_type_i_excluded_outcomes_stay_empty(self):
        # patterns inconsistent with photon-number conservation of the
        # type-I dual-rail circuit never fire, with or without loss
        excluded = [("1", "3"), ("1", "4"), ("2", "1"), ("2", "2")]
        report = teleport_once(HybridType.TYPE_I, 1.0, LossParameter(0.3), ANGLES)
        for s, a in excluded:
            assert report.entry(s, a).probability < 1e-12
        for s in ("1", "2", "e", "other"):
            assert report.entry(s, "both").probability < 1e-12

    @pytest.mark.parametrize("hybrid", HYBRIDS)
    def test_states_normalized_and_hermitian(self, hybrid):
        report = teleport_once(hybrid, 1.0, LossParameter(0.4), ANGLES)
        for e in report.entries:
            if e.correction == FAIL or e.probability < 1e-9:
                assert e.state is None or e.correction == FAIL
                continue
            tr = e.state.trace(COHERENT_ALGEBRA)
            assert math.isclose(tr.real, 1.0, abs_tol=1e-9), e.label
            assert trace_distance(e.state, e.state.adjoint(), COHERENT_ALGEBRA) < 1e-9

    @pytest.mark.parametrize("hybrid, alpha, r, outcome", [
        (HybridType.TYPE_II, 3.6, 0.02, ("1", "e")),
        (HybridType.TYPE_I, 1.0, 0.4, ("1", "1")),
    ])
    def test_states_keep_every_weight(self, hybrid, alpha, r, outcome):
        # type II at (3.6, 0.02) gives ("1", "e") p = 1.4e-12, just above
        # PROB_FLOOR: its state keeps weights far below any absolute cut, so
        # it is normalized and its overlap with the input is the fidelity
        loss = LossParameter(r)
        report = teleport_once(hybrid, alpha, loss, ANGLES)
        psi = input_state(hybrid, ANGLES, DynamicBasis(alpha, loss), "c")
        assert report.entry(*outcome).fidelity is not None
        for e in report.entries:
            if e.fidelity is None:
                continue
            assert abs(e.state.trace(COHERENT_ALGEBRA) - 1.0) <= 1e-12, e.label
            fid = e.state.matrix_element(psi, psi, COHERENT_ALGEBRA)
            assert abs(fid - e.fidelity) <= 1e-12, e.label

    def test_report_entry_lookup(self):
        report = teleport_once(HybridType.TYPE_II, 1.0, LossParameter(0.2), ANGLES)
        assert report.entry("1", "2").correction == "I"
        with pytest.raises(KeyError):
            report.entry("1", "5")

    def test_relabel_flags(self):
        report = teleport_once(HybridType.TYPE_II, 1.0, LossParameter(0.2), ANGLES)
        assert report.entry("1", "1").relabel  # Z correction
        assert not report.entry("1", "2").relabel  # identity
        report1 = teleport_once(HybridType.TYPE_I, 1.0, LossParameter(0.2), ANGLES)
        assert not report1.entry("1", "1").relabel  # type-I Z is physical


class TestAverages:
    # first-principles averages are exact; here the closed type-II average
    # takes the default 32 x 64 sphere rule
    @pytest.mark.parametrize("hybrid", HYBRIDS)
    def test_agree_with_closed_forms(self, hybrid):
        loss = LossParameter(0.3)
        t = loss.t
        f_sim = average_fidelity(hybrid, 1.0, loss)
        p_sim = average_success(hybrid, 1.0, loss)
        f_closed = (
            formulas.average_fidelity(hybrid, 1.0, t)
            if hybrid is HybridType.TYPE_I
            else formulas.average_fidelity_quadrature(1.0, t)
        )
        p_closed = formulas.success_probability(hybrid, 1.0, t)
        assert abs(f_sim - f_closed) < 1e-8
        assert abs(p_sim - p_closed) < 1e-8

    @pytest.mark.parametrize("hybrid", HYBRIDS)
    @given(
        st.floats(math.log(0.1), math.log(50.0)).map(math.exp),
        st.floats(0.0, 0.98),
    )
    @example(20.0, 0.3)
    @example(21.3, 0.3)
    @example(50.0, 0.98)
    @settings(max_examples=20, deadline=None)
    def test_agrees_with_closed_forms_over_cli_range(self, hybrid, alpha, r):
        # at large alpha the contraction and loss factors pair an underflowing
        # Gaussian with an overflowing sinh/cosh/exp unless they share one
        # exponent
        loss = LossParameter(r)
        f_sim = average_fidelity(hybrid, alpha, loss)
        p_sim = average_success(hybrid, alpha, loss)
        f_closed = formulas.average_fidelity(hybrid, alpha, loss.t)
        p_closed = formulas.success_probability(hybrid, alpha, loss.t)
        assert abs(f_sim - f_closed) < 1e-6
        assert abs(p_sim - p_closed) < 1e-6

    def test_success_average_is_angle_weighted(self):
        # the sphere average must lie between the per-angle extremes
        loss = LossParameter(0.4)
        avg = average_success(HybridType.TYPE_II, 1.0, loss)
        per_angle = [
            teleport_once(HybridType.TYPE_II, 1.0, loss, BlochAngles(u, v)).success_probability
            for u, v, _ in SphereQuadrature(3, 4).nodes()
        ]
        assert min(per_angle) - 1e-12 <= avg <= max(per_angle) + 1e-12


class TestGroupStatistics:
    def test_matches_formulas(self):
        loss = LossParameter(0.6)
        groups = {
            g.index: [(m.s_outcome, m.alpha_outcome) for m in g.members]
            for g in formulas.OUTCOME_GROUPS
        }
        stats = group_statistics(HybridType.TYPE_II, 1.0, loss, ANGLES, groups)
        for i, (p, f, state) in stats.items():
            assert math.isclose(
                p, formulas.group_probability(i, 1.0, loss.t, ANGLES), abs_tol=1e-10
            )
            assert math.isclose(
                f, formulas.group_fidelity(i, 1.0, loss.t, ANGLES), abs_tol=1e-10
            )
            closed = formulas.group_state(i, 1.0, loss.t, ANGLES)
            assert trace_distance(state, closed, COHERENT_ALGEBRA) < 1e-10

    def test_rejects_failure_members(self):
        with pytest.raises(ValueError):
            group_statistics(
                HybridType.TYPE_II, 1.0, LossParameter(0.2), ANGLES,
                {"bad": [("e", "e")]},
            )


class TestBackends:
    def test_fock_backend_matches_coherent(self):
        loss = LossParameter(0.3)
        rc = teleport_once(HybridType.TYPE_II, 1.0, loss, ANGLES, backend=COHERENT_ALGEBRA)
        rf = teleport_once(HybridType.TYPE_II, 1.0, loss, ANGLES, backend=TRUNCATED_FOCK)
        assert math.isclose(rc.success_probability, rf.success_probability,
                            abs_tol=1e-8)
        assert math.isclose(rc.conditional_fidelity, rf.conditional_fidelity,
                            abs_tol=1e-8)
        for ec, ef in zip(rc.entries, rf.entries):
            assert abs(ec.probability - ef.probability) < 1e-8

    @given(st.sampled_from(HYBRIDS), st.floats(0.1, 30.0), st.floats(0.0, 0.98))
    @example(HybridType.TYPE_I, 10.0, 0.0)
    @example(HybridType.TYPE_II, 30.0, 0.0)
    @settings(max_examples=12, deadline=None)
    def test_backends_agree_over_cli_range(self, hybrid, alpha, r):
        # r = 0 puts the largest amplitude, sqrt(2) alpha, on the input mode
        loss = LossParameter(r)
        for average in (average_fidelity, average_success):
            coherent = average(hybrid, alpha, loss, backend=COHERENT_ALGEBRA)
            fock = average(hybrid, alpha, loss, backend=TRUNCATED_FOCK)
            assert abs(fock - coherent) < 1e-9


class TestLogicalRead:
    @pytest.mark.parametrize("backend", (COHERENT_ALGEBRA, TRUNCATED_FOCK), ids=lambda b: b.kind)
    @pytest.mark.parametrize("alpha, r", [(1.0, 0.3), (2.0, 0.6), (1.0, 0.9)])
    @pytest.mark.parametrize("hybrid", HYBRIDS)
    def test_fid_matches_matrix_elements_of_states(self, hybrid, alpha, r, backend):
        # oracle: L[p, q] = <p_L|rho_xy|q_L> on the returned kept-mode states,
        # then fid = U L U^dag
        basis = DynamicBasis(alpha, LossParameter(r))
        kets = [logical_ket(hybrid, bit, basis, "c") for bit in (0, 1)]
        for data in outcome_tensors(hybrid, alpha, r, backend):
            if data.correction == FAIL:
                continue
            u = LOGICAL_PAULI[data.correction]
            for (x, y), e_xy in UNIT_WEIGHTS.items():
                rho = data.state(e_xy)
                logical = np.array(
                    [[rho.matrix_element(bra, ket, backend) for ket in kets] for bra in kets]
                )
                want = u @ logical @ u.conj().T
                assert np.allclose(data.fid[x, y], want, rtol=0.0, atol=1e-14)


# both types; both backends at small alpha, the coherent one across the CLI range
ORACLE_PROBES = [
    (hybrid, backend, alpha, r)
    for hybrid in HYBRIDS
    for backend, points in [
        (TRUNCATED_FOCK, [(1.0, 0.0), (1.0, 0.3), (2.0, 0.6), (1.0, 0.9)]),
        (COHERENT_ALGEBRA, [(1.0, 0.0), (1.0, 0.3), (2.0, 0.6), (1.0, 0.9),
                            (22.42, 0.22), (5.0, 0.98), (10.0, 0.0)]),
    ]
    for alpha, r in points
]


class TestChoiContraction:
    @pytest.mark.parametrize(
        "hybrid, backend, alpha, r", ORACLE_PROBES,
        ids=lambda v: getattr(v, "kind", getattr(v, "value", str(v))))
    def test_matches_three_contraction_oracle(self, hybrid, backend, alpha, r):
        # the Choi contraction against one contraction per basis pair, with
        # the dense terms x terms Q, and the pair (1, 0) as the adjoint of (0, 1)
        want = protocol_oracle.outcome_tensors(hybrid, alpha, r, backend)
        for data, (prob, fid, rhos) in zip(outcome_tensors(hybrid, alpha, r, backend), want):
            assert np.max(np.abs(data.prob - prob)) <= 1e-15
            if fid is None:
                assert data.fid is None and data.state(UNIT_WEIGHTS[0, 0]) is None
                continue
            assert np.max(np.abs(data.fid - fid)) <= 1e-15
            assert rhos.keys() == UNIT_WEIGHTS.keys()
            for xy, rho in rhos.items():
                # per product pair (exactly equal factors), coefficients within
                # 1e-15; a pair one side lacks has coefficient 0 there
                terms = data.state(UNIT_WEIGHTS[xy]).terms
                got = {(l, r): c for c, l, r in terms}
                ref = {(l, r): c for c, l, r in rho.terms}
                assert len(got) == len(terms)
                assert max((abs(got.get(k, 0.0) - ref.get(k, 0.0)) for k in got.keys() | ref.keys()),
                           default=0.0) <= 1e-15

    @pytest.mark.parametrize("hybrid", HYBRIDS)
    def test_one_contraction_and_weights_call_per_point(self, hybrid, monkeypatch):
        # every basis pair and both analyzers' outcome families go through one
        # contraction of the Choi state and one weights() call
        calls = []
        init, weights = Contraction.__init__, Contraction.weights

        def counted_init(self, *args):
            calls.append("contraction")
            init(self, *args)

        def counted(self, *families):
            calls.append(len(families))
            return weights(self, *families)

        monkeypatch.setattr(Contraction, "__init__", counted_init)
        monkeypatch.setattr(Contraction, "weights", counted)
        # __wrapped__ bypasses the lru cache: the call is always cold
        outcome_tensors.__wrapped__(hybrid, 2.0, 0.5, COHERENT_ALGEBRA)
        assert calls == ["contraction", 2]

    def test_averages_read_no_sphere_grid(self, monkeypatch):
        def refuse(self):
            raise AssertionError("sphere grid read")

        monkeypatch.setattr(SphereQuadrature, "nodes", refuse)
        monkeypatch.setattr(SphereQuadrature, "mu_nu_grid", refuse)
        for hybrid in HYBRIDS:
            average_fidelity(hybrid, 1.3, LossParameter(0.45))
            average_success(hybrid, 1.3, LossParameter(0.45))


def clear_caches():
    """Empty every lru cache of engine and protocol: the next point is built from scratch."""
    for module in (engine, protocol):
        for value in vars(module).values():
            if hasattr(value, "cache_clear"):
                value.cache_clear()


def tensor_bytes(tensors) -> list:
    return [(data.prob.tobytes(), None if data.fid is None else data.fid.tobytes())
            for data in tensors]


# below r of about 7e-7 the Choi ket passes through intermediate structures on
# its way to the r = 0 one
TINY_R = (0.0, 1e-13, 1e-9, 2.5e-7, 5e-7, 7.5e-7, 1e-6, 1e-5)


class TestContractionPlan:
    @given(st.sampled_from(HYBRIDS), st.floats(0.1, 30.0), st.floats(1e-5, 0.98))
    @example(HybridType.TYPE_I, 30.0, 0.98)
    @example(HybridType.TYPE_II, 0.1, 1e-5)
    @settings(max_examples=20, deadline=None)
    def test_reused_plan_matches_fresh_build(self, hybrid, alpha, r):
        # every r > 0 has its type's one structure: the plans built at
        # (1, 0.5) serve the point, which then evaluates only numbers, bit for
        # bit as a point built with every cache empty
        outcome_tensors(hybrid, 1.0, 0.5, COHERENT_ALGEBRA)
        built = engine._sum_plan.cache_info().misses, engine._weights_plan.cache_info().misses
        warm = tensor_bytes(outcome_tensors.__wrapped__(hybrid, alpha, r, COHERENT_ALGEBRA))
        assert (engine._sum_plan.cache_info().misses,
                engine._weights_plan.cache_info().misses) == built
        clear_caches()
        assert tensor_bytes(outcome_tensors(hybrid, alpha, r, COHERENT_ALGEBRA)) == warm

    @pytest.mark.parametrize("backend", [COHERENT_ALGEBRA, TRUNCATED_FOCK], ids=lambda b: b.kind)
    def test_plans_never_cross_structures(self, backend):
        # 48 points of 9 structures, run in one pass with warm caches: each
        # structure builds its own plan once, and every point matches its
        # value from a fresh build
        points = [(hybrid, alpha, r) for hybrid in HYBRIDS for alpha in (0.1, 1.0, 30.0)
                  for r in TINY_R]
        fresh = []
        for point in points:
            clear_caches()
            fresh.append(tensor_bytes(outcome_tensors(*point, backend)))
        clear_caches()
        assert [tensor_bytes(outcome_tensors(*point, backend)) for point in points] == fresh
        structures = {protocol._protocol_states(*point).structure for point in points}
        assert len(structures) == 9
        assert engine._weights_plan.cache_info().misses == len(structures)


def grid_averages(p_sum, f_sum, quad):
    """(fidelity, success) averaged on the nodes of a sphere rule: the 2-D oracle."""
    m, w = quad.mu_nu_grid()
    num = np.real(np.einsum("nx,ny,np,nq,xypq->n", m, m.conj(), m.conj(), m, f_sum))
    den = np.real(np.einsum("nx,ny,xy->n", m, m.conj(), p_sum))
    return float(np.dot(w, num / den)), float(np.dot(w, den))


def exact_and_grid(hybrid, alpha, r, quad):
    loss = LossParameter(r)
    exact = average_fidelity(hybrid, alpha, loss), average_success(hybrid, alpha, loss)
    sums = protocol._success_sums(outcome_tensors(hybrid, alpha, r, COHERENT_ALGEBRA))
    return exact, grid_averages(*sums, quad)


def eps(hybrid, alpha, r):
    """|b| / a of the summed success probability P = a + b . n."""
    p_sum, _ = protocol._success_sums(outcome_tensors(hybrid, alpha, r, COHERENT_ALGEBRA))
    p = np.real(np.einsum("kxy,xy->k", protocol.SIGMA, p_sum))
    return np.linalg.norm(p[1:]) / p[0]


# a rule dense enough for the averages near r = 1, where P(n) nearly vanishes
# for some input (|b| / a up to 0.998, b off the z axis for type II)
DENSE = SphereQuadrature(512, 512)


class TestExactSphereAverage:
    @given(st.sampled_from(HYBRIDS), st.floats(0.1, 5.0), st.floats(0.0, 0.9))
    @settings(max_examples=25, deadline=None)
    def test_matches_default_rule(self, hybrid, alpha, r):
        exact, grid = exact_and_grid(hybrid, alpha, r, SphereQuadrature())
        assert np.max(np.abs(np.subtract(exact, grid))) <= 1e-12

    @given(st.sampled_from(HYBRIDS), st.floats(0.1, 5.0), st.floats(0.0, 0.999))
    @example(HybridType.TYPE_I, 1.0, 0.0)  # |b| = 0
    @example(HybridType.TYPE_II, 1.0, 0.6)  # series branch
    @example(HybridType.TYPE_II, 1.0, 0.98)  # atanh branch
    @example(HybridType.TYPE_II, 0.1, 0.999)
    @settings(max_examples=15, deadline=None)
    def test_matches_dense_rule(self, hybrid, alpha, r):
        exact, grid = exact_and_grid(hybrid, alpha, r, DENSE)
        assert np.max(np.abs(np.subtract(exact, grid))) <= 1e-12

    def test_examples_reach_both_branches(self):
        # type I's P(n) does not depend on the input at r = 0; an equal summation order
        # can leave ulps of it (the exact beta == 0 fallback: test_tilted_success_axis[0.0])
        assert eps(HybridType.TYPE_I, 1.0, 0.0) <= 1e-15
        assert 0.0 < eps(HybridType.TYPE_II, 1.0, 0.6) < 0.5
        assert 0.5 <= eps(HybridType.TYPE_II, 1.0, 0.98) < 1.0

    @pytest.mark.parametrize("ratio", [0.0, 0.3, 0.7, 0.95])
    def test_tilted_success_axis(self, ratio):
        # synthetic tensors whose P(n) = a + b . n has b off the z axis, and a
        # numerator with every linear and quadratic term
        rng = np.random.default_rng(7)
        b = ratio * np.array([0.6, -0.48, 0.64])
        p_sum = protocol.SIGMA[0] + np.einsum("k,kxy->xy", b, protocol.SIGMA[1:].conj())
        f_sum = rng.normal(size=(2, 2, 2, 2)) + 1j * rng.normal(size=(2, 2, 2, 2))
        f_sum = f_sum + f_sum.transpose(1, 0, 3, 2).conj()
        want, _ = grid_averages(p_sum, f_sum, SphereQuadrature(512, 256))
        assert abs(protocol._sphere_average(p_sum, f_sum) - want) <= 1e-12


def poisoned_tensors(hybrid, alpha, r, field="prob"):
    """The point's outcome tensors with every probability (or fid) array set to NaN."""
    real = outcome_tensors(hybrid, alpha, r, COHERENT_ALGEBRA)
    return tuple(
        data if getattr(data, field) is None
        else replace(data, **{field: np.full(getattr(data, field).shape, np.nan)})
        for data in real
    )


class TestNonFiniteGuard:
    @pytest.mark.parametrize("average", [average_fidelity, average_success])
    def test_names_stage_and_point(self, average, monkeypatch):
        poisoned = poisoned_tensors(HybridType.TYPE_II, 1.5, 0.3)
        monkeypatch.setattr(protocol, "outcome_tensors", lambda *args: poisoned)
        with pytest.raises(NonFiniteError) as info:
            average(HybridType.TYPE_II, 1.5, LossParameter(0.3))
        assert str(info.value) == (
            f"{average.__name__} at type=II alpha=1.5 r=0.3: non-finite value nan"
        )
        assert info.value.stage == average.__name__

    @pytest.mark.parametrize("diagonal", [(0.1, -0.1), (0.2, 0.0)], ids=["a<|b|", "a=|b|"])
    def test_non_positive_success_names_stage_and_point(self, diagonal, monkeypatch):
        # P(n) = a + b . n with a <= |b|: some input would never succeed, and
        # the exact average has no finite value
        real = outcome_tensors(HybridType.TYPE_II, 1.5, 0.3, COHERENT_ALGEBRA)
        tilted = tuple(
            data if data.fid is None else replace(data, prob=np.diag(diagonal).astype(complex))
            for data in real
        )
        monkeypatch.setattr(protocol, "outcome_tensors", lambda *args: tilted)
        with pytest.raises(NonFiniteError) as info:
            average_fidelity(HybridType.TYPE_II, 1.5, LossParameter(0.3))
        assert str(info.value) == (
            "average_fidelity at type=II alpha=1.5 r=0.3: non-finite value nan"
        )

    @pytest.mark.parametrize(
        "field, stage", [("prob", "success probability"), ("fid", "conditional fidelity")]
    )
    def test_teleport_once_names_stage_and_point(self, field, stage, monkeypatch):
        poisoned = poisoned_tensors(HybridType.TYPE_II, 1.5, 0.3, field)
        monkeypatch.setattr(protocol, "outcome_tensors", lambda *args: poisoned)
        with pytest.raises(NonFiniteError) as info:
            teleport_once(HybridType.TYPE_II, 1.5, LossParameter(0.3), ANGLES)
        assert str(info.value) == (
            f"teleport_once {stage} at type=II alpha=1.5 r=0.3: non-finite value nan"
        )


class TestTypeIOutcomeIndependence:
    @pytest.mark.parametrize("r", [0.2, 0.8])
    def test_all_success_states_identical(self, r):
        report = teleport_once(HybridType.TYPE_I, 1.0, LossParameter(r), ANGLES)
        states = [
            e.state for e in report.entries
            if e.correction != FAIL and e.probability > 1e-12
        ]
        assert len(states) == 10
        base = states[0]
        for s in states[1:]:
            assert trace_distance(base, s, COHERENT_ALGEBRA) < 1e-10
