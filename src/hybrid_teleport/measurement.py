"""Projective measurement families for the two Bell-state analyzers.

The coherent-state analyzer (applied after the beam splitter on modes A, B)
resolves photon-number parity: outcomes o1..o4 tag the four coherent Bell
states, oe is the all-vacuum failure, oboth (both detectors firing) never
occurs for the states this protocol produces.  The single-photon-side
analyzer has type-specific outcomes: m1/m2/me for dual-rail polarization
patterns, e1/e2/ee for vacuum/single-photon patterns; mother/eother are
catch-all patterns that appear only under loss and always mean failure.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .engine import (
    FILTER_EVEN_GE2,
    FILTER_ODD,
    FILTER_SINGLE,
    FILTER_VACUUM,
    ModeProjector,
    NumberFilter,
)

FILTER_DOUBLE = NumberFilter("n", 2)


class HybridType(Enum):
    """Hybrid qubit encoding; it selects the single-photon-side analyzer.

    Defined here, below encoding, so that encoding can use the analyzer
    tables; encoding re-exports it.
    """

    TYPE_I = "I"
    TYPE_II = "II"


class MeasurementFamily(Enum):
    B_ALPHA = "balpha"
    BS_TYPE_I = "bs1"
    BS_TYPE_II = "bs2"


@dataclass(frozen=True)
class ProjectorSpec:
    """One outcome of one measurement family."""

    family: MeasurementFamily
    outcome: str

    def __post_init__(self):
        valid = _FAMILY_OUTCOMES[self.family]
        if self.outcome not in valid:
            raise ValueError(
                f"outcome {self.outcome!r} invalid for {self.family.value}; "
                f"expected one of {sorted(valid)}"
            )


_FAMILY_OUTCOMES = {
    MeasurementFamily.B_ALPHA: {"1", "2", "3", "4", "e", "both"},
    MeasurementFamily.BS_TYPE_I: {"1", "2", "e", "other"},
    MeasurementFamily.BS_TYPE_II: {"1", "2", "e", "other"},
}


def _patterns(mode_names, occupations) -> ModeProjector:
    filters = {0: FILTER_VACUUM, 1: FILTER_SINGLE, 2: FILTER_DOUBLE}
    branches = tuple(
        tuple((name, filters[n]) for name, n in zip(mode_names, occ))
        for occ in occupations
    )
    return ModeProjector(branches)


_S_MODES = ("aH", "aV", "bH", "bV")

_BS1_TABLE = {
    "1": ((1, 1, 0, 0), (0, 0, 1, 1)),
    "2": ((1, 0, 0, 1), (0, 1, 1, 0)),
    "e": ((2, 0, 0, 0), (0, 2, 0, 0), (0, 0, 2, 0), (0, 0, 0, 2)),
    # every remaining pattern reachable with at most two photons total
    "other": (
        (0, 0, 0, 0),
        (1, 0, 0, 0),
        (0, 1, 0, 0),
        (0, 0, 1, 0),
        (0, 0, 0, 1),
        (1, 0, 1, 0),
        (0, 1, 0, 1),
    ),
}

_BS2_TABLE = {
    "1": ((0, 1),),
    "2": ((1, 0),),
    "e": ((0, 0), (0, 2), (2, 0)),
    "other": ((1, 1),),
}


def projector(spec: ProjectorSpec) -> ModeProjector:
    """Branch table consumable by the state engine's Contraction."""
    fam = spec.family
    if fam is MeasurementFamily.BS_TYPE_I:
        return _patterns(_S_MODES, _BS1_TABLE[spec.outcome])
    if fam is MeasurementFamily.BS_TYPE_II:
        return _patterns(("a", "b"), _BS2_TABLE[spec.outcome])
    if spec.outcome == "1":
        return ModeProjector(((("A", FILTER_EVEN_GE2), ("B", FILTER_VACUUM)),))
    if spec.outcome == "2":
        return ModeProjector(((("A", FILTER_ODD), ("B", FILTER_VACUUM)),))
    if spec.outcome == "3":
        return ModeProjector(((("A", FILTER_VACUUM), ("B", FILTER_EVEN_GE2)),))
    if spec.outcome == "4":
        return ModeProjector(((("A", FILTER_VACUUM), ("B", FILTER_ODD)),))
    if spec.outcome == "e":
        return ModeProjector(((("A", FILTER_VACUUM), ("B", FILTER_VACUUM)),))
    return ModeProjector(
        tuple(
            (("A", fa), ("B", fb))
            for fa in (FILTER_ODD, FILTER_EVEN_GE2)
            for fb in (FILTER_ODD, FILTER_EVEN_GE2)
        )
    )


def s_family(hybrid: HybridType) -> MeasurementFamily:
    if hybrid is HybridType.TYPE_I:
        return MeasurementFamily.BS_TYPE_I
    return MeasurementFamily.BS_TYPE_II


@dataclass(frozen=True)
class OutcomeLabel:
    """Joint result (single-photon-side, coherent-side)."""

    s_outcome: str
    alpha_outcome: str

    def __post_init__(self):
        if self.s_outcome not in _FAMILY_OUTCOMES[MeasurementFamily.BS_TYPE_I]:
            raise ValueError(f"bad s outcome {self.s_outcome!r}")
        if self.alpha_outcome not in _FAMILY_OUTCOMES[MeasurementFamily.B_ALPHA]:
            raise ValueError(f"bad alpha outcome {self.alpha_outcome!r}")


S_OUTCOME_ORDER = ("1", "2", "e", "other")
ALPHA_OUTCOME_ORDER = ("1", "2", "3", "4", "e", "both")


def enumerate_outcomes(hybrid: HybridType) -> tuple:
    """All joint outcomes in the fixed (s-major, alpha-minor) order."""
    return tuple(
        OutcomeLabel(s, a) for s in S_OUTCOME_ORDER for a in ALPHA_OUTCOME_ORDER
    )


FAIL = "FAIL"

_TYPE_I_CORRECTIONS = {
    ("1", "2"): "I",
    ("e", "1"): "I",
    ("1", "1"): "Z",
    ("1", "e"): "Z",
    ("e", "2"): "Z",
    ("2", "4"): "X",
    ("e", "3"): "X",
    ("2", "3"): "XZ",
    ("2", "e"): "XZ",
    ("e", "4"): "XZ",
}

_TYPE_II_CORRECTIONS = {
    ("1", "2"): "I",
    ("2", "1"): "I",
    ("e", "1"): "I",
    ("1", "1"): "Z",
    ("2", "2"): "Z",
    ("e", "2"): "Z",
    ("1", "e"): "Z",
    ("1", "3"): "X",
    ("2", "4"): "X",
    ("e", "3"): "X",
    ("1", "4"): "XZ",
    ("2", "3"): "XZ",
    ("e", "4"): "XZ",
    ("2", "e"): "XZ",
}


def correction_lookup(hybrid: HybridType, outcome: OutcomeLabel) -> str:
    """Pauli correction for a joint outcome, or FAIL."""
    table = (
        _TYPE_I_CORRECTIONS
        if hybrid is HybridType.TYPE_I
        else _TYPE_II_CORRECTIONS
    )
    return table.get((outcome.s_outcome, outcome.alpha_outcome), FAIL)
