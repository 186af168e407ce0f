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
    NO_PROJECTOR,
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
    operator_eigvals,
    product_sums,
    term_overlaps,
)
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
class LossParameter:
    """Beam-splitter loss with transmission t and reflection r.

    Constructed from r; t = sqrt(1 - r^2).  r = 1 (complete loss) is
    excluded: the damped logical basis degenerates there.
    """

    r: float

    def __post_init__(self):
        if not 0.0 <= self.r < 1.0:
            raise ValueError(f"loss r must lie in [0, 1), got {self.r}")

    @property
    def t(self) -> float:
        return math.sqrt(1.0 - self.r * self.r)


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


# the reference mode of a Choi ket: |x>_R marks the logical input |x_L>
R_LAYOUT = ModeLayout(("R",), (2,), (Role.PHOTONIC,))
R_FACTORS = (fock(0), fock(1))
R_KETS = tuple(KetSum(R_LAYOUT, [(1.0, (k,))]) for k in R_FACTORS)


def choi_ket(hybrid: HybridType, basis: DynamicBasis, slot: str, coh_scale: float = 1.0) -> KetSum:
    """sum_x |x>_R |x_L>: one slot's qubit entangled with the reference mode R."""
    return KetSum.summed(ref.tensor(logical_ket(hybrid, bit, basis, slot, coh_scale))
                         for bit, ref in enumerate(R_KETS))


def ideal_channel(hybrid: HybridType, alpha: float) -> KetSum:
    """(|0_L>|0_L> + |1_L>|1_L>)/sqrt(2) over slots b and c, no loss."""
    basis = DynamicBasis(alpha, LossParameter(0.0))
    scale = math.sqrt(2.0)
    return KetSum.summed(
        logical_ket(hybrid, bit, basis, "b", coh_scale=scale).tensor(logical_ket(hybrid, bit, basis, "c"))
        for bit in (0, 1)
    ).scaled(SQRT_HALF)


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


def bell_decomposition_table(hybrid: HybridType, alpha: float, angles,
                             backend: Backend = COHERENT_ALGEBRA) -> list:
    """bell_decomposition_details for each input of angles, from one run per Bell bra.

    The input slot holds a Choi ket, so one run serves every input: per Bell
    bra, one beam splitter and one contraction keeping R and Bob's modes
    give each detection outcome's operator at Choi level, corrected once
    (one outside the decomposition is read uncorrected); input m = (mu, nu)
    reads sum_xy m_x m_y^* of its R-blocks (x, y), and so does the target
    |m_L><m_L| from the slot-c Choi ket.  All are read in one basis, the
    distinct Bob products of their terms, with one Gram matrix.
    """
    basis = DynamicBasis(alpha, LossParameter(0.0))
    total = choi_ket(hybrid, basis, "a", math.sqrt(2.0)).tensor(ideal_channel(hybrid, alpha))
    target = choi_ket(hybrid, basis, "c").dm()
    bob = photonic_modes(hybrid, "c") + (coherent_mode("c"),)
    specs = [ProjectorSpec(MeasurementFamily.B_ALPHA, o) for o in "1234"]
    bells = [(kind, sign) for kind in ("phi", "psi") for sign in (1, -1)]
    bras = [photonic_bell(hybrid, kind, sign, total.layout) for kind, sign in bells]
    combos, ops = [], []
    for (kind, sign), reduced in zip(bells, _partial_inner(bras, total, backend)):
        split = apply_beam_splitter(reduced, "A", "B").canonicalized()
        contraction = Contraction(split, split, ("R",) + bob, backend)
        if contraction.keep_layout != target.layout:
            raise ValueError("unexpected mode ordering")
        _, weights = contraction.weights([projector(spec) for spec in specs])
        for spec, w in zip(specs, weights[:, 0]):
            combos.append((kind, sign, "o" + spec.outcome))
            pauli = _SUPPORTED_COMBOS.get(combos[-1], "I")
            ops.append(apply_correction(contraction.operator(w), hybrid, pauli, "c"))
    ops.append(target)
    # every term's left products (R and Bob's modes), then its right ones: Bob's index the basis
    width, lay = 1 + len(bob), target.layout
    prods = KetSum.summed(KetSum.from_arrays(lay, np.ones(len(op.coeffs), dtype=complex),
                                             op.ids[:, s:s + width], op.factors[s:s + width])
                          for s in (0, width) for op in ops)
    ids, _, sums = product_sums(prods, prods, bob, (NO_PROJECTOR,), backend)
    x, y = np.split(np.array([R_FACTORS.index(k) for k in prods.factors[0]])[prods.ids[:, 0]], 2)
    m = np.array([[a.mu, a.nu] for a in angles])
    # mats[o, k]: operator o for input k, sum_ij mats[o, k, i, j] |e_i><e_j|
    mats = np.zeros((len(ops),) + sums.shape[1:] + (len(m),), dtype=complex)
    owner = np.repeat(np.arange(len(ops)), [len(op.coeffs) for op in ops])
    np.add.at(mats, (owner, *np.split(ids, 2)),
              (np.concatenate([op.coeffs for op in ops]) * m[:, x] * m[:, y].conj()).T)
    mats = mats.transpose(0, 3, 1, 2)
    # its trace: sum_ij M_ij <e_j|e_i>, and sums[0][i, j] = <e_j|e_i>
    prob = np.einsum("okij,ij->ok", mats[:-1], sums[0]).real
    live = np.array([c in _SUPPORTED_COMBOS for c in combos])[:, None] & (prob >= 1e-14)
    diff = mats[:-1] / np.where(live, prob, 1.0)[..., None, None] - mats[-1]
    dev = 0.5 * np.abs(operator_eigvals(sums[0].T, diff)).sum(axis=-1)
    return [{c: (float(p), float(d) if ok else None)
             for c, p, d, ok in zip(combos, prob[:, k], dev[:, k], live[:, k])}
            for k in range(len(m))]


def bell_decomposition_details(hybrid: HybridType, alpha: float, angles: BlochAngles,
                               backend: Backend = COHERENT_ALGEBRA) -> dict:
    """Per Bell-pair combination: (probability, corrected-state deviation) for one input.

    Supported combinations must return the input state after correction;
    the rest must carry zero probability, and their deviation is None, as
    it is below probability 1e-14."""
    return bell_decomposition_table(hybrid, alpha, [angles], backend)[0]


def bell_residual(details: dict) -> float:
    """Max residual of one input's Bell details (0 iff the decomposition holds): the
    supported combinations' deviations and the other ones' (should-be-zero) probabilities."""
    return max([0.0] + [dev if combo in _SUPPORTED_COMBOS else prob
                        for combo, (prob, dev) in details.items()
                        if dev is not None or combo not in _SUPPORTED_COMBOS])


def bell_decomposition_check(hybrid: HybridType, alpha: float, angles: BlochAngles,
                             backend: Backend = COHERENT_ALGEBRA) -> float:
    """bell_residual of one input's bell_decomposition_details."""
    return bell_residual(bell_decomposition_details(hybrid, alpha, angles, backend))


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
