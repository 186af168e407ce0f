"""Measurement outcome tables, projector completeness, correction lookup."""

import math

import pytest

from hybrid_teleport.encoding import LOGICAL_PAULI, HybridType, correction_is_relabel
from hybrid_teleport.engine import (
    COHERENT_ALGEBRA,
    Coherent,
    Contraction,
    KetSum,
    ModeLayout,
    Role,
    default_cutoff,
    fock,
)
from hybrid_teleport.measurement import (
    ALPHA_OUTCOME_ORDER,
    FAIL,
    MeasurementFamily,
    OutcomeLabel,
    ProjectorSpec,
    S_OUTCOME_ORDER,
    correction_lookup,
    enumerate_outcomes,
    projector,
    s_family,
)

HYBRIDS = (HybridType.TYPE_I, HybridType.TYPE_II)


def successes(hybrid):
    """The outcomes with a correction, in enumeration order."""
    return [lab for lab in enumerate_outcomes(hybrid) if correction_lookup(hybrid, lab) != FAIL]


class TestLabels:
    def test_label_validation(self):
        OutcomeLabel("1", "e")
        with pytest.raises(ValueError):
            OutcomeLabel("5", "1")
        with pytest.raises(ValueError):
            OutcomeLabel("1", "x")

    def test_projector_spec_validation(self):
        ProjectorSpec(MeasurementFamily.B_ALPHA, "both")
        with pytest.raises(ValueError):
            ProjectorSpec(MeasurementFamily.B_ALPHA, "other")
        with pytest.raises(ValueError):
            ProjectorSpec(MeasurementFamily.BS_TYPE_I, "3")

    @pytest.mark.parametrize("hybrid", HYBRIDS)
    def test_enumeration_order_and_count(self, hybrid):
        outs = enumerate_outcomes(hybrid)
        assert len(outs) == len(S_OUTCOME_ORDER) * len(ALPHA_OUTCOME_ORDER) == 24
        want = [
            (s, a) for s in S_OUTCOME_ORDER for a in ALPHA_OUTCOME_ORDER
        ]
        assert [(o.s_outcome, o.alpha_outcome) for o in outs] == want


class TestCorrectionTables:
    def test_success_counts(self):
        assert len(successes(HybridType.TYPE_I)) == 10
        assert len(successes(HybridType.TYPE_II)) == 14

    @pytest.mark.parametrize("hybrid", HYBRIDS)
    def test_fail_complement(self, hybrid):
        # every outcome is either a failure or corrected by a logical Pauli
        corrections = {correction_lookup(hybrid, lab) for lab in enumerate_outcomes(hybrid)}
        assert corrections == {FAIL} | set(LOGICAL_PAULI)

    @pytest.mark.parametrize("hybrid", HYBRIDS)
    def test_paulis_balanced(self, hybrid):
        # each Pauli sector must be reachable, with I/Z and X/XZ splitting
        # the successes evenly
        counts = {"I": 0, "X": 0, "Z": 0, "XZ": 0}
        for lab in successes(hybrid):
            counts[correction_lookup(hybrid, lab)] += 1
        assert counts["I"] + counts["Z"] == counts["X"] + counts["XZ"]
        assert all(v > 0 for v in counts.values())

    def test_ambiguous_outcomes_fail(self):
        # "other" photon patterns and double-sided coherent clicks carry no
        # decodable Bell information
        for hybrid in HYBRIDS:
            for s in S_OUTCOME_ORDER:
                assert correction_lookup(hybrid, OutcomeLabel(s, "both")) == FAIL
            for a in ALPHA_OUTCOME_ORDER:
                assert correction_lookup(hybrid, OutcomeLabel("other", a)) == FAIL

    def test_double_vacuum_fails(self):
        for hybrid in HYBRIDS:
            assert correction_lookup(hybrid, OutcomeLabel("e", "e")) == FAIL

    def test_type_i_single_side_constraints(self):
        # type-I photon detection distinguishes fewer patterns, so the
        # coherent side must disambiguate: s=1 pairs only with {1,2,e},
        # s=2 only with {3,4,e}
        for a in ("3", "4"):
            assert correction_lookup(HybridType.TYPE_I, OutcomeLabel("1", a)) == FAIL
        for a in ("1", "2"):
            assert correction_lookup(HybridType.TYPE_I, OutcomeLabel("2", a)) == FAIL

    def test_relabel_flags_match_corrections(self):
        for hybrid in HYBRIDS:
            for lab in successes(hybrid):
                corr = correction_lookup(hybrid, lab)
                flag = correction_is_relabel(hybrid, corr)
                assert flag == (hybrid is HybridType.TYPE_II and "Z" in corr)


def outcome_probability(psi, proj):
    """Tr[P |psi><psi|] with every mode traced out."""
    return Contraction(psi, psi, (), COHERENT_ALGEBRA).outcome(proj)[0].real


class TestProjectors:
    def _balpha_layout(self, cut):
        return ModeLayout(("A", "B"), (cut, cut), (Role.COHERENT, Role.COHERENT))

    def test_balpha_partition_of_identity(self):
        # the six coherent-side outcomes partition the two-mode space
        g = 1.3
        cut = default_cutoff(g) + 6
        lay = self._balpha_layout(cut)
        psi = KetSum(
            lay,
            [
                (0.8, (Coherent(g), Coherent(-0.4))),
                (0.6, (Coherent(-g), Coherent(0.9))),
            ],
        )
        total = sum(
            outcome_probability(
                psi, projector(ProjectorSpec(MeasurementFamily.B_ALPHA, o))
            )
            for o in ALPHA_OUTCOME_ORDER
        )
        assert math.isclose(total, psi.dm().trace(COHERENT_ALGEBRA).real, rel_tol=1e-10)

    @pytest.mark.parametrize("hybrid", HYBRIDS)
    def test_s_family_partition_of_identity(self, hybrid):
        fam = s_family(hybrid)
        if hybrid is HybridType.TYPE_II:
            lay = ModeLayout(("a", "b"), (3, 3), (Role.PHOTONIC, Role.PHOTONIC))
            psi = KetSum(
                lay,
                [
                    (0.5, (fock(0), fock(1))),
                    (0.5, (fock(1), fock(0))),
                    (0.5, (fock(1), fock(1))),
                    (0.5, (fock(0), fock(0))),
                ],
            )
        else:
            names = ("aH", "aV", "bH", "bV")
            lay = ModeLayout(names, (2, 2, 2, 2), (Role.PHOTONIC,) * 4)
            psi = KetSum(
                lay,
                [
                    (0.5, (fock(1), fock(0), fock(0), fock(1))),
                    (0.5, (fock(0), fock(1), fock(1), fock(0))),
                    (0.5, (fock(1), fock(0), fock(1), fock(0))),
                    (0.5, (fock(0), fock(1), fock(0), fock(1))),
                ],
            )
        outcomes = {"1", "2", "e", "other"}
        total = sum(
            outcome_probability(psi, projector(ProjectorSpec(fam, o)))
            for o in outcomes
        )
        assert math.isclose(total, psi.dm().trace(COHERENT_ALGEBRA).real, rel_tol=1e-10)

    def test_type_ii_bell_clicks(self):
        # the two decodable photon outcomes flag exactly one photon total
        lay = ModeLayout(("a", "b"), (3, 3), (Role.PHOTONIC, Role.PHOTONIC))
        fam = MeasurementFamily.BS_TYPE_II
        one_zero = KetSum(lay, [(1.0, (fock(1), fock(0)))])
        zero_one = KetSum(lay, [(1.0, (fock(0), fock(1)))])
        both = KetSum(lay, [(1.0, (fock(1), fock(1)))])
        p1 = projector(ProjectorSpec(fam, "1"))
        p2 = projector(ProjectorSpec(fam, "2"))
        po = projector(ProjectorSpec(fam, "other"))
        assert math.isclose(
            outcome_probability(one_zero, p1)
            + outcome_probability(one_zero, p2),
            1.0,
            rel_tol=1e-12,
        )
        assert math.isclose(
            outcome_probability(zero_one, p1)
            + outcome_probability(zero_one, p2),
            1.0,
            rel_tol=1e-12,
        )
        assert outcome_probability(both, po) == pytest.approx(1.0)

    def test_balpha_vacuum_discrimination(self):
        # outcome "e" is the double-vacuum record; a vacuum pair hits it
        # with certainty
        lay = self._balpha_layout(6)
        vac = KetSum(lay, [(1.0, (Coherent(0.0), Coherent(0.0)))])
        pe = projector(ProjectorSpec(MeasurementFamily.B_ALPHA, "e"))
        assert outcome_probability(vac, pe) == pytest.approx(1.0)

