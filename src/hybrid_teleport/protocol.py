"""End-to-end teleportation runs from first principles.

The pipeline builds the input qubit (pure, in the dynamic basis) and the
channel, leaks each channel mode into its own environment mode on a beam
splitter (photon loss), interferes the matching halves on 50:50 beam
splitters, and resolves every joint detector outcome with the environment
traced out.  Expensive work is organized around the bilinearity of the
protocol in the input state: one run per logical basis pair |x_L><y_L|
yields outcome tensors from which any Bloch input, any sphere average,
and any conditional state follow by cheap contraction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .encoding import (
    BlochAngles,
    DynamicBasis,
    HybridType,
    apply_correction,
    coherent_mode,
    correction_is_relabel,
    ideal_channel,
    logical_ket,
    photonic_modes,
)
from .engine import (
    COHERENT_ALGEBRA,
    Backend,
    Contraction,
    ModeProjector,
    TermSum,
    apply_beam_splitter,
)
from .loss import LossParameter, dilate
from .measurement import (
    FAIL,
    OutcomeLabel,
    ProjectorSpec,
    MeasurementFamily,
    correction_lookup,
    enumerate_outcomes,
    projector,
    s_family,
)

PROB_FLOOR = 1e-12


@dataclass(frozen=True)
class SphereQuadrature:
    """Bloch-sphere average rule: Gauss-Legendre in cos(u), uniform in v."""

    n_u: int = 32
    n_v: int = 64

    def __post_init__(self):
        if self.n_u < 1 or self.n_v < 1:
            raise ValueError("quadrature sizes must be positive")

    def nodes(self) -> tuple:
        """(u, v, weight) triples; weights sum to 1 for the sphere measure."""
        x, w = np.polynomial.legendre.leggauss(self.n_u)
        out = []
        for xi, wi in zip(x, w):
            u = math.acos(float(np.clip(xi, -1.0, 1.0)))
            for k in range(self.n_v):
                v = 2.0 * math.pi * k / self.n_v
                out.append((u, v, 0.5 * wi / self.n_v))
        return tuple(out)

    def mu_nu_grid(self) -> tuple:
        """(M, weights): M[n] = (mu, nu) per node, weights[n] the measure."""
        nodes = self.nodes()
        m = np.empty((len(nodes), 2), dtype=complex)
        w = np.empty(len(nodes))
        for i, (u, v, wt) in enumerate(nodes):
            ang = BlochAngles(u, v)
            m[i, 0] = ang.mu
            m[i, 1] = ang.nu
            w[i] = wt
        return m, w


DEFAULT_QUADRATURE = SphereQuadrature()


def _bob_modes(hybrid: HybridType) -> tuple:
    return photonic_modes(hybrid, "c") + (coherent_mode("c"),)


@lru_cache(maxsize=64)
def _protocol_states(hybrid: HybridType, alpha: float, r: float) -> tuple:
    """Pre-measurement kets Psi_0, Psi_1 for the logical inputs |0_L>, |1_L>.

    Loss is a beam splitter onto one vacuum environment mode per channel
    mode, so each state stays a ket; the environment is traced out by the
    contraction.  The result is exact and backend-free: beam splitting
    acts through structural identities (coherent pairs stay coherent;
    photonic pairs are rotated within photon-number sectors).
    """
    loss = LossParameter(r)
    basis = DynamicBasis(alpha, loss)
    scale = math.sqrt(2.0)
    ch_modes = (
        photonic_modes(hybrid, "b")
        + (coherent_mode("b"),)
        + photonic_modes(hybrid, "c")
        + (coherent_mode("c"),)
    )
    channel = dilate(ideal_channel(hybrid, alpha), ch_modes, loss)
    out = []
    for bit in (0, 1):
        psi = logical_ket(hybrid, bit, basis, "a", coh_scale=scale).tensor(channel)
        for pm, am in zip(photonic_modes(hybrid, "b"), photonic_modes(hybrid, "a")):
            psi = apply_beam_splitter(psi, pm, am)
        psi = apply_beam_splitter(psi, "A", "B")
        out.append(psi.canonicalized())
    return tuple(out)


def _joint_projector(hybrid: HybridType, label: OutcomeLabel):
    """Single ModeProjector covering both analyzers' modes."""
    s_proj = projector(ProjectorSpec(s_family(hybrid), label.s_outcome))
    a_proj = projector(ProjectorSpec(MeasurementFamily.B_ALPHA, label.alpha_outcome))
    branches = tuple(
        sb + ab for sb in s_proj.branches for ab in a_proj.branches
    )
    return ModeProjector(branches)


@dataclass(frozen=True)
class OutcomeTensors:
    """Basis-pair-resolved data for one joint outcome.

    prob[x, y] is the unnormalized weight of the outcome for the input
    operator |x_L><y_L|; states maps (x, y) to the corrected (still
    unnormalized) receiver operator; fid[x, y, p, q] = <p_L| state_xy |q_L>.
    Failure outcomes carry probabilities only.
    """

    label: OutcomeLabel
    correction: str
    prob: tuple
    states: tuple
    fid: tuple

    def prob_array(self) -> np.ndarray:
        return np.array(self.prob, dtype=complex)

    def fid_array(self):
        return None if self.fid is None else np.array(self.fid, dtype=complex)

    def state(self, x: int, y: int) -> TermSum:
        return self.states[x][y] if self.states is not None else None


@lru_cache(maxsize=256)
def outcome_tensors(
    hybrid: HybridType, alpha: float, r: float, backend: Backend
) -> tuple:
    """All joint-outcome tensors for one parameter point, outcome-ordered."""
    bob = _bob_modes(hybrid)
    psi = _protocol_states(hybrid, alpha, r)
    contractions = {
        (x, y): Contraction(psi[x], psi[y], bob, backend)
        for x, y in ((0, 0), (0, 1), (1, 1))
    }
    basis = DynamicBasis(alpha, LossParameter(r))
    bob_kets = {bit: logical_ket(hybrid, bit, basis, "c") for bit in (0, 1)}

    out = []
    for label in enumerate_outcomes(hybrid):
        proj = _joint_projector(hybrid, label)
        correction = correction_lookup(hybrid, label)
        prob = np.zeros((2, 2), dtype=complex)
        raw = {}
        for (x, y), contraction in contractions.items():
            p, ts = contraction.outcome(proj)
            prob[x, y] = p
            raw[(x, y)] = ts
        prob[1, 0] = np.conj(prob[0, 1])
        raw[(1, 0)] = raw[(0, 1)].adjoint()
        if correction == FAIL:
            out.append(
                OutcomeTensors(
                    label,
                    correction,
                    tuple(map(tuple, prob)),
                    None,
                    None,
                )
            )
            continue
        corrected = {}
        for xy, ts in raw.items():
            corrected[xy] = apply_correction(ts, hybrid, correction).canonicalized()
        fid = np.zeros((2, 2, 2, 2), dtype=complex)
        for (x, y), ts in corrected.items():
            for p in (0, 1):
                for q in (0, 1):
                    fid[x, y, p, q] = ts.matrix_element(
                        bob_kets[p], bob_kets[q], backend
                    )
        out.append(
            OutcomeTensors(
                label,
                correction,
                tuple(map(tuple, prob)),
                (
                    (corrected[(0, 0)], corrected[(0, 1)]),
                    (corrected[(1, 0)], corrected[(1, 1)]),
                ),
                tuple(
                    tuple(
                        tuple(tuple(fid[x, y, p, q] for q in (0, 1)) for p in (0, 1))
                        for y in (0, 1)
                    )
                    for x in (0, 1)
                ),
            )
        )
    return tuple(out)


@dataclass(frozen=True)
class OutcomeRecord:
    """One joint outcome of a specific teleportation run."""

    label: OutcomeLabel
    correction: str
    probability: float
    state: TermSum
    fidelity: float
    relabel: bool


@dataclass(frozen=True)
class TeleportReport:
    """Per-outcome results and totals for one (type, alpha, loss, input)."""

    hybrid: HybridType
    alpha: float
    loss: LossParameter
    angles: BlochAngles
    entries: tuple
    success_probability: float
    conditional_fidelity: float

    def entry(self, s_outcome: str, alpha_outcome: str) -> OutcomeRecord:
        for e in self.entries:
            if (
                e.label.s_outcome == s_outcome
                and e.label.alpha_outcome == alpha_outcome
            ):
                return e
        raise KeyError((s_outcome, alpha_outcome))


def _weight_matrix(angles: BlochAngles) -> np.ndarray:
    m = np.array([angles.mu, angles.nu], dtype=complex)
    return np.outer(m, m.conj())


def teleport_once(
    hybrid: HybridType,
    alpha: float,
    loss: LossParameter,
    angles: BlochAngles,
    backend: Backend = COHERENT_ALGEBRA,
    include_states: bool = True,
) -> TeleportReport:
    """Run the protocol for one Bloch input and resolve every outcome."""
    tensors = outcome_tensors(hybrid, alpha, loss.r, backend)
    w = _weight_matrix(angles)
    m = np.array([angles.mu, angles.nu], dtype=complex)
    entries = []
    p_success = 0.0
    pf_success = 0.0
    for data in tensors:
        p = float(np.real(np.sum(w * data.prob_array())))
        success = data.correction != FAIL
        state = None
        fidelity = None
        if success and p > PROB_FLOOR:
            fid = data.fid_array()
            num = float(
                np.real(np.einsum("xy,pq,xypq->", w, np.outer(m.conj(), m), fid))
            )
            fidelity = num / p
            if include_states:
                acc = None
                for x in (0, 1):
                    for y in (0, 1):
                        piece = data.state(x, y).scaled(w[x, y])
                        acc = piece if acc is None else acc + piece
                state = acc.scaled(1.0 / p).canonicalized()
            p_success += p
            pf_success += num
        elif success:
            p_success += max(p, 0.0)
        entries.append(
            OutcomeRecord(
                label=data.label,
                correction=data.correction,
                probability=p,
                state=state,
                fidelity=fidelity,
                relabel=success and correction_is_relabel(hybrid, data.correction),
            )
        )
    cond_fid = pf_success / p_success if p_success > PROB_FLOOR else 0.0
    return TeleportReport(
        hybrid=hybrid,
        alpha=alpha,
        loss=loss,
        angles=angles,
        entries=tuple(entries),
        success_probability=p_success,
        conditional_fidelity=cond_fid,
    )


def _success_sums(tensors) -> tuple:
    """(summed probability tensor, summed fidelity tensor) over successes."""
    p_sum = np.zeros((2, 2), dtype=complex)
    f_sum = np.zeros((2, 2, 2, 2), dtype=complex)
    for data in tensors:
        if data.correction == FAIL:
            continue
        p_sum += data.prob_array()
        f_sum += data.fid_array()
    return p_sum, f_sum


def average_success(
    hybrid: HybridType,
    alpha: float,
    loss: LossParameter,
    quad: SphereQuadrature = DEFAULT_QUADRATURE,
    backend: Backend = COHERENT_ALGEBRA,
) -> float:
    """Sphere-averaged total success probability."""
    tensors = outcome_tensors(hybrid, alpha, loss.r, backend)
    p_sum, _ = _success_sums(tensors)
    m, w = quad.mu_nu_grid()
    p_nodes = np.real(np.einsum("nx,ny,xy->n", m, m.conj(), p_sum))
    return float(np.dot(w, p_nodes))


def average_fidelity(
    hybrid: HybridType,
    alpha: float,
    loss: LossParameter,
    quad: SphereQuadrature = DEFAULT_QUADRATURE,
    backend: Backend = COHERENT_ALGEBRA,
) -> float:
    """Success-conditioned average fidelity over the Bloch sphere."""
    tensors = outcome_tensors(hybrid, alpha, loss.r, backend)
    p_sum, f_sum = _success_sums(tensors)
    m, w = quad.mu_nu_grid()
    num = np.real(
        np.einsum("nx,ny,np,nq,xypq->n", m, m.conj(), m.conj(), m, f_sum)
    )
    den = np.real(np.einsum("nx,ny,xy->n", m, m.conj(), p_sum))
    return float(np.dot(w, num / den))


def group_statistics(
    hybrid: HybridType,
    alpha: float,
    loss: LossParameter,
    angles: BlochAngles,
    groups: dict,
    backend: Backend = COHERENT_ALGEBRA,
) -> dict:
    """Aggregate outcome statistics over named outcome groups.

    groups maps a key to a collection of (s_outcome, alpha_outcome) pairs;
    the result maps the key to (probability, fidelity, normalized state).
    """
    report = teleport_once(hybrid, alpha, loss, angles, backend)
    out = {}
    for key, members in groups.items():
        p_tot = 0.0
        acc = None
        for s, a in members:
            rec = report.entry(s, a)
            if rec.correction == FAIL:
                raise ValueError(f"group {key} contains failure outcome {s},{a}")
            p_tot += rec.probability
            if rec.state is not None:
                piece = rec.state.scaled(rec.probability)
                acc = piece if acc is None else acc + piece
        state = acc.scaled(1.0 / p_tot).canonicalized() if p_tot > PROB_FLOOR else None
        fid = None
        if state is not None:
            basis = DynamicBasis(alpha, loss)
            phi = None
            for bit, amp in ((0, angles.mu), (1, angles.nu)):
                piece = logical_ket(hybrid, bit, basis, "c").scaled(amp)
                phi = piece if phi is None else phi + piece
            fid = float(state.expectation(phi, backend).real)
        out[key] = (p_tot, fid, state)
    return out
