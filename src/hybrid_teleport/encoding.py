"""Hybrid logical qubits, channel states, Bell families, and Pauli corrections.

Two encodings are supported.  A type-I qubit entangles a dual-rail
polarization photon with a coherent state; a type-II qubit entangles a
vacuum/single-photon mode with a coherent state.  Logical kets live in the
loss-adapted dynamic basis |0_L> = |+>|t a>, |1_L> = |->|-t a>, which keeps
the basis orthonormal at every loss value.

Mode naming convention: qubit slot "a" (the unknown input), "b" (the
sender's half of the channel), "c" (the receiver's half).  Photonic modes
are "aH"/"aV" (type-I) or "a" (type-II); the coherent mode is the slot
letter uppercased.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .engine import (
    COHERENT_ALGEBRA,
    Backend,
    Coherent,
    Contraction,
    FockVector,
    KetSum,
    ModeLayout,
    Role,
    TermSum,
    apply_beam_splitter,
    default_cutoff,
    fock,
    term_overlaps,
    trace_distance,
)
from .loss import LossParameter
from .measurement import HybridType, MeasurementFamily, ProjectorSpec, projector

SQRT_HALF = math.sqrt(0.5)


@dataclass(frozen=True)
class BlochAngles:
    """Bloch-sphere coordinates of the logical input state."""

    u: float
    v: float

    @property
    def mu(self) -> complex:
        return complex(math.cos(self.u / 2.0))

    @property
    def nu(self) -> complex:
        return complex(
            math.sin(self.u / 2.0) * math.cos(self.v),
            math.sin(self.u / 2.0) * math.sin(self.v),
        )


@dataclass(frozen=True)
class DynamicBasis:
    """Loss-adapted logical basis with damped coherent amplitude t*alpha."""

    alpha: float
    loss: LossParameter

    @property
    def damped(self) -> float:
        return self.loss.t * self.alpha


def photonic_modes(hybrid: HybridType, slot: str) -> tuple:
    if hybrid is HybridType.TYPE_I:
        return (slot + "H", slot + "V")
    return (slot,)


def coherent_mode(slot: str) -> str:
    return slot.upper()


def qubit_layout(hybrid: HybridType, slot: str, alpha: float, coh_scale: float = 1.0) -> ModeLayout:
    """Layout of one hybrid qubit's modes.

    coh_scale inflates the coherent-mode cutoff; the measured pair A, B
    holds amplitudes up to sqrt(2)*alpha after beam splitting.
    """
    phot = photonic_modes(hybrid, slot)
    names = phot + (coherent_mode(slot),)
    cutoffs = (2,) * len(phot) + (default_cutoff(coh_scale * alpha),)
    roles = (Role.PHOTONIC,) * len(phot) + (Role.COHERENT,)
    return ModeLayout(names, cutoffs, roles)


def protocol_layout(hybrid: HybridType, alpha: float) -> ModeLayout:
    """All modes of the teleportation circuit, input then channel halves."""
    scale = math.sqrt(2.0)
    lay = qubit_layout(hybrid, "a", alpha, coh_scale=scale)
    lay = lay.merge(qubit_layout(hybrid, "b", alpha, coh_scale=scale))
    return lay.merge(qubit_layout(hybrid, "c", alpha))


def _plus_minus(hybrid: HybridType, sign: int) -> list:
    """The |+> or |-> single-photon part as (coeff, kets-tuple) pieces."""
    if hybrid is HybridType.TYPE_I:
        return [
            (SQRT_HALF, (fock(1), fock(0))),
            (sign * SQRT_HALF, (fock(0), fock(1))),
        ]
    return [(1.0, (FockVector((SQRT_HALF, sign * SQRT_HALF)),))]


def logical_ket(
    hybrid: HybridType,
    bit: int,
    basis: DynamicBasis,
    slot: str = "c",
    coh_scale: float = 1.0,
) -> KetSum:
    """|bit_L(tau)> over one qubit's modes in the dynamic basis."""
    if bit not in (0, 1):
        raise ValueError("bit must be 0 or 1")
    lay = qubit_layout(hybrid, slot, basis.alpha, coh_scale)
    sign = 1 if bit == 0 else -1
    amp = Coherent(sign * basis.damped)
    return KetSum(lay, [(c, kets + (amp,)) for c, kets in _plus_minus(hybrid, sign)])


def input_state(
    hybrid: HybridType,
    angles: BlochAngles,
    basis: DynamicBasis,
    slot: str = "a",
    coh_scale: float = 1.0,
) -> KetSum:
    """mu |0_L(tau)> + nu |1_L(tau)>."""
    zero = logical_ket(hybrid, 0, basis, slot, coh_scale)
    one = logical_ket(hybrid, 1, basis, slot, coh_scale)
    return zero.scaled(angles.mu) + one.scaled(angles.nu)


def ideal_channel(hybrid: HybridType, alpha: float) -> KetSum:
    """(|0_L>|0_L> + |1_L>|1_L>)/sqrt(2) over slots b and c, no loss."""
    basis = DynamicBasis(alpha, LossParameter(0.0))
    scale = math.sqrt(2.0)
    out = None
    for bit in (0, 1):
        half = logical_ket(hybrid, bit, basis, "b", coh_scale=scale).tensor(
            logical_ket(hybrid, bit, basis, "c")
        )
        out = half if out is None else out + half
    return out.scaled(SQRT_HALF)


# ---------------------------------------------------------------------------
# Bell families

def photonic_bell(hybrid: HybridType, kind: str, sign: int, layout: ModeLayout) -> KetSum:
    """Single-photon-part Bell state on the a/b photonic modes.

    Type-I states pair the dual-rail patterns (phi: HH +/- VV, psi: HV +/- VH)
    over modes (aH, aV, bH, bV); type-II states pair photon-number patterns
    (phi: 00 +/- 11, psi: 01 +/- 10) over modes (a, b).
    """
    if hybrid is HybridType.TYPE_I:
        sub = layout.subset(("aH", "aV", "bH", "bV"))
        if kind == "phi":
            terms = [
                (SQRT_HALF, (fock(1), fock(0), fock(1), fock(0))),
                (sign * SQRT_HALF, (fock(0), fock(1), fock(0), fock(1))),
            ]
        else:
            terms = [
                (SQRT_HALF, (fock(1), fock(0), fock(0), fock(1))),
                (sign * SQRT_HALF, (fock(0), fock(1), fock(1), fock(0))),
            ]
    else:
        sub = layout.subset(("a", "b"))
        if kind == "phi":
            terms = [
                (SQRT_HALF, (fock(0), fock(0))),
                (sign * SQRT_HALF, (fock(1), fock(1))),
            ]
        else:
            terms = [
                (SQRT_HALF, (fock(0), fock(1))),
                (sign * SQRT_HALF, (fock(1), fock(0))),
            ]
    return KetSum(sub, terms)


# ---------------------------------------------------------------------------
# Pauli corrections

# C|q_L> = sum_p U[p, q] |p_L> for the physical correction C, both types,
# every loss value: each Pauli maps the logical kets onto +/- each other
LOGICAL_PAULI = {
    "I": np.eye(2),
    "X": np.array([[0.0, 1.0], [1.0, 0.0]]),
    "Z": np.diag([1.0, -1.0]),
    "XZ": np.array([[0.0, -1.0], [1.0, 0.0]]),
}


def _parity_flip(ket):
    """(-1)^n on a single mode; sends |g> to |-g>."""
    if isinstance(ket, Coherent):
        return Coherent(-ket.amplitude)
    return FockVector(tuple(c if n % 2 == 0 else -c for n, c in enumerate(ket.coeffs)))


def _swap01(ket):
    """Exchange the photon-number-0 and -1 amplitudes; identity above."""
    if isinstance(ket, Coherent):
        raise ValueError("swap01 is defined on photonic modes only")
    coeffs = ket.coeffs + (0.0,) * max(0, 2 - len(ket.coeffs))
    return FockVector((coeffs[1], coeffs[0]) + coeffs[2:])


def apply_correction(
    state: TermSum, hybrid: HybridType, pauli: str, slot: str = "c"
) -> TermSum:
    """Apply a logical Pauli correction to one qubit's modes of an operator.

    X is the physical unitary: pi phase shift on the coherent mode together
    with the single-photon-part flip |+> <-> |-> (a sign on the V rail for
    type-I, photon-number parity for type-II).  Z for type-I is the
    polarization swap H <-> V; for type-II it is the mathematical relabel
    |0> <-> |1> on the photonic mode (see correction_is_relabel).  XZ is Z
    followed by X.  Each one sends a product ket to one product ket, so
    rho -> C rho C^dag maps every term's left and right product on its own.
    """
    if pauli not in LOGICAL_PAULI:
        raise ValueError(f"unknown Pauli label {pauli!r}")
    lay, width = state.layout, len(state.layout.names)
    coh = lay.index(coherent_mode(slot))
    phot = [lay.index(n) for n in photonic_modes(hybrid, slot)]
    flip = phot[-1]  # the V rail (type-I) or the photonic mode (type-II)
    ids, factors = state.ids.copy(), list(state.factors)
    maps = []
    if "Z" in pauli:
        if hybrid is HybridType.TYPE_I:
            for m in (0, width):  # left and right columns
                i, j = phot[0] + m, phot[1] + m
                ids[:, [i, j]] = ids[:, [j, i]]
                factors[i], factors[j] = factors[j], factors[i]
        else:
            maps.append((flip, _swap01))
    if "X" in pauli:
        maps += [(coh, _parity_flip), (flip, _parity_flip)]
    # each distinct factor of a column is mapped once; tables stay distinct
    for col, fn in maps:
        for m in (col, col + width):
            index = {}
            remap = [index.setdefault(fn(k), len(index)) for k in factors[m]]
            factors[m] = tuple(index)
            ids[:, m] = np.array(remap, dtype=np.int64)[ids[:, m]]
    return TermSum.from_arrays(lay, state.coeffs, ids, factors)


def correction_is_relabel(hybrid: HybridType, pauli: str) -> bool:
    """Whether the correction involves the type-II classical relabeling."""
    return hybrid is HybridType.TYPE_II and pauli in ("Z", "XZ")


# ---------------------------------------------------------------------------
# product-state Bell decomposition check

_SUPPORTED_COMBOS = {
    ("phi", 1, "o1"): "I",
    ("phi", 1, "o2"): "Z",
    ("psi", 1, "o1"): "Z",
    ("psi", 1, "o2"): "I",
    ("phi", -1, "o3"): "X",
    ("phi", -1, "o4"): "XZ",
    ("psi", -1, "o3"): "XZ",
    ("psi", -1, "o4"): "X",
}


def bell_decomposition_details(
    hybrid: HybridType,
    alpha: float,
    angles: BlochAngles,
    backend: Backend = COHERENT_ALGEBRA,
) -> dict:
    """Per Bell-pair combination: (probability, corrected-state deviation).

    Expands the lossless product of input and channel, removes the
    single-photon-part Bell component with an exact bra, runs the coherent
    pair through the beam splitter, and projects onto the detection sector
    that tags each coherent Bell state.  Supported combinations must return
    the input state after correction; the rest must carry zero probability.
    """
    basis = DynamicBasis(alpha, LossParameter(0.0))
    lay = protocol_layout(hybrid, alpha)
    phi_in = input_state(hybrid, angles, basis, "a", coh_scale=math.sqrt(2.0))
    total = phi_in.tensor(ideal_channel(hybrid, alpha))
    if total.layout.names != lay.names:
        raise AssertionError("unexpected mode ordering")

    bob_modes = photonic_modes(hybrid, "c") + (coherent_mode("c"),)
    target = input_state(hybrid, angles, basis, "c").dm()

    out = {}
    bells = [(kind, sign) for kind in ("phi", "psi") for sign in (1, -1)]
    bras = [photonic_bell(hybrid, kind, sign, lay) for kind, sign in bells]
    for (kind, sign), reduced in zip(bells, _partial_inner(bras, total, backend)):
        split = apply_beam_splitter(reduced, "A", "B").canonicalized()
        contraction = Contraction(split, split, bob_modes, backend)
        specs = [ProjectorSpec(MeasurementFamily.B_ALPHA, o) for o in "1234"]
        probs, weights = contraction.weights([projector(spec) for spec in specs])
        for spec, p, w in zip(specs, probs[:, 0], weights[:, 0]):
            bob = contraction.operator(w)
            prob = float(p.real)
            combo = (kind, sign, "o" + spec.outcome)
            pauli = _SUPPORTED_COMBOS.get(combo)
            if pauli is None or prob < 1e-14:
                out[combo] = (prob, None)
                continue
            corrected = apply_correction(bob, hybrid, pauli, "c")
            dev = trace_distance(
                corrected.scaled(1.0 / prob), target, backend
            )
            out[combo] = (prob, dev)
    return out


def bell_decomposition_check(
    hybrid: HybridType,
    alpha: float,
    angles: BlochAngles,
    backend: Backend = COHERENT_ALGEBRA,
) -> float:
    """Max residual of the product-state Bell decomposition (0 iff it holds).

    Supported combinations contribute their corrected-state deviation from
    the input; combinations outside the decomposition contribute their
    (should-be-zero) probability.
    """
    residual = 0.0
    for combo, (prob, dev) in bell_decomposition_details(
        hybrid, alpha, angles, backend
    ).items():
        if combo in _SUPPORTED_COMBOS and dev is not None:
            residual = max(residual, dev)
        elif combo not in _SUPPORTED_COMBOS:
            residual = max(residual, prob)
    return residual


def _partial_inner(bras: list, psi: KetSum, backend: Backend) -> list:
    """Per bra, <bra| psi> contracted over the bra's modes, a ket on the rest: one term
    per psi term.  The bras share their modes, so psi's tables on them are built once."""
    names = bras[0].layout.names
    # psi's terms on the bras' modes, and on the rest
    met = psi.restricted(names)
    rest = psi.restricted(n for n in psi.layout.names if n not in names)
    out = []
    for bra in bras:
        coeffs = met.coeffs * (term_overlaps(met, bra, backend) @ bra.coeffs.conj())
        out.append(KetSum.from_arrays(rest.layout, coeffs, rest.ids, rest.factors))
    return out
