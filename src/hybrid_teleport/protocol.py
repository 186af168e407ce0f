"""End-to-end teleportation runs from first principles.

The pipeline builds the input qubit (pure, in the dynamic basis) and the
channel, leaks each channel mode into its own environment mode on a beam
splitter (photon loss), interferes the matching halves on 50:50 beam
splitters, and resolves every joint detector outcome with the environment
traced out.  Expensive work is organized around the linearity of the
protocol in the input state: one run of the Choi state, the input entangled
with a reference mode, yields outcome tensors from which any Bloch input,
the exact sphere average and any conditional state follow cheaply.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property, lru_cache

import numpy as np

from .encoding import (
    LOGICAL_PAULI,
    R_FACTORS,
    BlochAngles,
    DynamicBasis,
    HybridType,
    apply_correction,
    choi_ket,
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
    KetSum,
    TermSum,
    apply_beam_splitter,
    term_overlaps,
)
from .loss import LossParameter, dilate
from .measurement import (
    ALPHA_OUTCOME_ORDER,
    FAIL,
    S_OUTCOME_ORDER,
    MeasurementFamily,
    OutcomeLabel,
    ProjectorSpec,
    correction_lookup,
    enumerate_outcomes,
    projector,
    s_family,
)

PROB_FLOOR = 1e-12


class NonFiniteError(ArithmeticError):
    """A first-principles result came out non-finite; names stage and point."""

    def __init__(self, stage: str, hybrid: HybridType, alpha: float, r: float, value: float):
        where = f"type={hybrid.value} alpha={alpha:g} r={r:g}"
        super().__init__(f"{stage} at {where}: non-finite value {value}")
        self.stage, self.value = stage, value


# numpy's Gauss-Legendre rule takes the eigenvalues of a dense n_u x n_u
# matrix, and the rule holds its n_u n_v nodes as Python tuples
MAX_GAUSS_LEGENDRE = 1024
MAX_NODES = 2**20


@dataclass(frozen=True)
class SphereQuadrature:
    """Bloch-sphere average rule: Gauss-Legendre in cos(u), uniform in v.
    Sizes are checked here; the nodes are built at their first use."""

    n_u: int = 32
    n_v: int = 64

    def __post_init__(self):
        if self.n_u < 1 or self.n_v < 1:
            raise ValueError("quadrature sizes must be positive")
        if self.n_u > MAX_GAUSS_LEGENDRE:
            raise ValueError(f"quadrature asks for {self.n_u} Gauss-Legendre points in u, "
                             f"more than {MAX_GAUSS_LEGENDRE}")
        if self.n_u * self.n_v > MAX_NODES:
            raise ValueError(f"quadrature asks for {self.n_u * self.n_v} nodes, more than {MAX_NODES}")

    @lru_cache(maxsize=8)
    def nodes(self) -> tuple:
        """(u, v, weight) triples; weights sum to 1 for the sphere measure.  Built
        once per rule: the closed sweep asks for an equal rule at every point."""
        x, w = np.polynomial.legendre.leggauss(self.n_u)
        out = []
        for xi, wi in zip(x, w):
            u = math.acos(float(np.clip(xi, -1.0, 1.0)))
            for k in range(self.n_v):
                v = 2.0 * math.pi * k / self.n_v
                out.append((u, v, 0.5 * wi / self.n_v))
        return tuple(out)

    @lru_cache(maxsize=8)
    def mu_nu_grid(self) -> tuple:
        """(M, weights): M[n] = (mu, nu) per node, weights[n] the measure.

        mu = cos(u/2) and nu = sin(u/2) (cos v + i sin v), as BlochAngles
        gives them.  Built once per rule; the arrays are read-only.
        """
        u, v, w = np.array(self.nodes()).T
        m = np.empty((len(w), 2), dtype=complex)
        m[:, 0] = np.cos(u / 2.0)
        m[:, 1].real = np.sin(u / 2.0) * np.cos(v)
        m[:, 1].imag = np.sin(u / 2.0) * np.sin(v)
        w = np.ascontiguousarray(w)
        m.setflags(write=False)
        w.setflags(write=False)
        return m, w


DEFAULT_QUADRATURE = SphereQuadrature()


@lru_cache(maxsize=64)
def _protocol_states(hybrid: HybridType, alpha: float, r: float) -> KetSum:
    """Pre-measurement Choi ket sum_x |x>_R Psi_x, Psi_x that of the input |x_L>.

    R comes first, so each R-block is the canonical Psi_x term for term.
    Loss is a beam splitter onto one vacuum environment mode per channel
    mode, so the state stays a ket; the environment is traced out by the
    contraction.  The result is exact and backend-free: beam splitting
    acts through structural identities (coherent pairs stay coherent;
    photonic pairs take the splitter's closed form on creation operators).
    """
    loss = LossParameter(r)
    basis = DynamicBasis(alpha, loss)
    ch_modes = (
        photonic_modes(hybrid, "b")
        + (coherent_mode("b"),)
        + photonic_modes(hybrid, "c")
        + (coherent_mode("c"),)
    )
    channel = dilate(ideal_channel(hybrid, alpha), ch_modes, loss)
    psi = choi_ket(hybrid, basis, "a", math.sqrt(2.0)).tensor(channel)
    for pm, am in zip(photonic_modes(hybrid, "b"), photonic_modes(hybrid, "a")):
        psi = apply_beam_splitter(psi, pm, am)
    return apply_beam_splitter(psi, "A", "B").canonicalized()


@dataclass(frozen=True, eq=False)
class OutcomeTensors:
    """Basis-pair-resolved data for one joint outcome, in the logical basis.

    prob[x, y] is the unnormalized weight of the outcome for the input
    operator |x_L><y_L|, rho_xy the uncorrected (still unnormalized)
    receiver operator, and fid[x, y, p, q] = <p_L| C rho_xy C^dag |q_L>
    for the outcome's correction C.  choi = (W, x, Bob's layout, id rows,
    factor tables) holds the outcome's Choi-level kept-mode weights W[a, b]
    and, per kept product a = |x[a]>_R |Bob product a>, its R value and
    Bob's factor ids: state(w) reads any mix of the rho_xy from them.
    Failure outcomes carry probabilities only.  The arrays are read-only.
    """

    label: OutcomeLabel
    correction: str
    prob: np.ndarray
    fid: np.ndarray
    choi: tuple = field(repr=False)

    def state(self, w: np.ndarray) -> TermSum:
        """sum_xy w[x, y] rho_xy on Bob's modes; None for a failure outcome."""
        if self.choi is None:
            return None
        weights, r_value, bob, products, tables = self.choi
        return TermSum.from_pairs(bob, weights * w[r_value[:, None], r_value], products,
                                  products, tables + tables)


@lru_cache(maxsize=2)
def _analyzers(hybrid: HybridType) -> tuple:
    """(labels, corrections, the two analyzers' projector families, success indices, their
    stacked LOGICAL_PAULI corrections): the constants of outcome_tensors, once per type."""
    labels = enumerate_outcomes(hybrid)
    corrections = tuple(correction_lookup(hybrid, label) for label in labels)
    families = (
        tuple(projector(ProjectorSpec(s_family(hybrid), s)) for s in S_OUTCOME_ORDER),
        tuple(projector(ProjectorSpec(MeasurementFamily.B_ALPHA, a)) for a in ALPHA_OUTCOME_ORDER),
    )
    success = [n for n, correction in enumerate(corrections) if correction != FAIL]
    paulis = np.array([LOGICAL_PAULI[corrections[n]] for n in success])
    paulis.setflags(write=False)
    return labels, corrections, families, success, paulis


@lru_cache(maxsize=256)
def outcome_tensors(
    hybrid: HybridType, alpha: float, r: float, backend: Backend
) -> tuple:
    """All joint-outcome tensors for one parameter point, outcome-ordered.

    One contraction of the Choi state (_protocol_states) with itself that
    keeps R and Bob's modes, and one weights() call, resolve every basis
    pair and both analyzers' outcome families: rho_xy is the R-block (x, y)
    of the kept-mode weights W.  Every Pauli correction C maps Bob's logical
    kets onto +/- each other (LOGICAL_PAULI), so fid = U L U^dag with L[x,
    y, p, q] = <x|_R <p_L| W |y>_R |q_L> read as A W A^dag, for every success
    at once; no correction is applied here.  prob[x, y] is rho_xy's trace,
    from W and Bob's Gram matrix.  The contraction's plans are built at the
    first point of a structure and reused after (engine._sum_plan).
    """
    labels, corrections, families, success, paulis = _analyzers(hybrid)
    choi = _protocol_states(hybrid, alpha, r)
    basis = DynamicBasis(alpha, LossParameter(r))
    bob_kets = [logical_ket(hybrid, bit, basis, "c") for bit in (0, 1)]
    bob = bob_kets[0].layout
    contraction = Contraction(choi, choi, ("R",) + bob.names, backend)
    _, weights = contraction.weights(*families)
    # labels are s-major, alpha-minor: outcome pair (i, j) is label i * n_alpha + j
    weights = weights.reshape(len(labels), *weights.shape[2:])
    # the Choi state meets itself, so the kept kets and bras are the same
    # products; each is |x>_R times a Bob product, and rho_xy is the R-block
    # (x, y) of W: read on Bob's modes, with R's column dropped
    products = contraction.kept_kets
    r_value = np.array([R_FACTORS.index(k) for k in contraction.kept_factors[0]])[products[:, 0]]
    bob_rows, bob_tables = products[:, 1:], contraction.kept_factors[1:1 + len(bob.names)]
    in_block = (r_value == np.arange(2)[:, None]).astype(float)
    bobs = KetSum.from_arrays(bob, np.ones(len(products), dtype=complex), bob_rows, bob_tables)
    # read[p, a] = <p_L|Bob product a>, summed over the terms of p_L
    reads = KetSum.summed(bob_kets)
    mix = np.repeat(np.eye(2), [len(ket.coeffs) for ket in bob_kets], axis=1) * reads.coeffs
    read = mix.conj() @ term_overlaps(bobs, reads, backend).T
    # left[(x, p), a] = <x|_R <p_L| kept product a>, so that
    # (left W left^dag)[(x, p), (y, q)] = <x|_R <p_L| rho |y>_R |q_L>
    left = (in_block[:, None] * read).reshape(4, len(products))
    logical = (left @ weights[success] @ left.conj().T).reshape(len(success), 2, 2, 2, 2)
    fids = np.einsum("npr,nxyrs,nqs->nxypq", paulis, logical.swapaxes(2, 3), paulis.conj())
    fids.setflags(write=False)
    prob = in_block @ (weights * term_overlaps(bobs, bobs, backend)) @ in_block.T
    prob.setflags(write=False)

    out, fids = [], iter(fids)
    for n, (label, correction) in enumerate(zip(labels, corrections)):
        if correction == FAIL:
            out.append(OutcomeTensors(label, correction, prob[n], None, None))
            continue
        w_n = weights[n].copy()  # a copy, so that the other outcomes' weights are freed
        w_n.setflags(write=False)
        out.append(OutcomeTensors(label, correction, prob[n], next(fids),
                                  (w_n, r_value, bob, bob_rows, bob_tables)))
    return tuple(out)


@dataclass(frozen=True)
class OutcomeRecord:
    """One joint outcome of a specific teleportation run.

    state, the corrected normalized receiver state, is built on first read
    from source = (hybrid type, OutcomeTensors, input weights w[x, y]); it
    is None where fidelity is (a failure, or probability <= PROB_FLOOR).
    """

    label: OutcomeLabel
    correction: str
    probability: float
    fidelity: float
    relabel: bool
    source: tuple = field(repr=False, compare=False)

    @cached_property
    def state(self) -> TermSum:
        if self.fidelity is None:
            return None
        hybrid, data, w = self.source
        rho = data.state(w / self.probability)
        return apply_correction(rho, hybrid, data.correction).canonicalized()


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


def teleport_once(
    hybrid: HybridType,
    alpha: float,
    loss: LossParameter,
    angles: BlochAngles,
    backend: Backend = COHERENT_ALGEBRA,
) -> TeleportReport:
    """Run the protocol for one Bloch input and resolve every outcome."""
    tensors = outcome_tensors(hybrid, alpha, loss.r, backend)
    m = np.array([angles.mu, angles.nu], dtype=complex)
    w = np.outer(m, m.conj())
    entries = []
    p_success = 0.0
    pf_success = 0.0
    for data in tensors:
        p = float(np.real(np.sum(w * data.prob)))
        success = data.correction != FAIL
        fidelity = None
        if success and p > PROB_FLOOR:
            num = float(
                np.real(np.einsum("xy,pq,xypq->", w, np.outer(m.conj(), m), data.fid))
            )
            fidelity = num / p
            p_success += p
            pf_success += num
        elif success:
            p_success += max(p, 0.0)
        entries.append(
            OutcomeRecord(
                label=data.label,
                correction=data.correction,
                probability=p,
                fidelity=fidelity,
                relabel=success and correction_is_relabel(hybrid, data.correction),
                source=(hybrid, data, w),
            )
        )
    cond_fid = pf_success / p_success if p_success > PROB_FLOOR else 0.0
    for stage, value in (("success probability", p_success), ("conditional fidelity", cond_fid)):
        if not math.isfinite(value):
            raise NonFiniteError(f"teleport_once {stage}", hybrid, alpha, loss.r, value)
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
    wins = [data for data in tensors if data.correction != FAIL]
    return sum(data.prob for data in wins), sum(data.fid for data in wins)


# identity and Pauli X, Y, Z: the input of Bloch vector n is (SIGMA[0] + n . SIGMA[1:]) / 2
SIGMA = np.array([[[1, 0], [0, 1]], [[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]])


def _sphere_average(p_sum: np.ndarray, f_sum: np.ndarray) -> float:
    """Exact Bloch-sphere average of N(n) / P(n); nan if a coefficient is not
    finite or a <= |b|, where some input would have no success probability.

    P = a + b . n and N = (1, n) S (1, n)^T are affine and quadratic in n.
    At height z along b, uniform on [-1, 1], N averages to c0 + c1 z + c2 z^2,
    which axial_average integrates.
    """
    p = 0.5 * np.real(np.einsum("kxy,xy->k", SIGMA, p_sum))
    t = np.einsum("kxy,lqp,xypq->kl", SIGMA, SIGMA, f_sum)
    s = 0.125 * np.real(t + t.T)
    a, beta = p[0], float(np.linalg.norm(p[1:]))
    if not (np.all(np.isfinite(s)) and a > beta):
        return math.nan
    axis = p[1:] / beta if beta > 0.0 else np.array([0.0, 0.0, 1.0])
    along, trace = axis @ s[1:, 1:] @ axis, np.trace(s[1:, 1:])
    c = (s[0, 0] + 0.5 * (trace - along), 2.0 * s[0, 1:] @ axis, 1.5 * along - 0.5 * trace)
    return axial_average(a, beta, c)


def axial_average(a: float, beta: float, c) -> float:
    """(1/2) int (c0 + c1 z + c2 z^2) / (a + beta z) dz over [-1, 1], |beta| < a.

    The Bloch-sphere average of N(n) / P(n) when P = a + beta z is affine in
    the height z along one axis (z is uniform on [-1, 1] over the sphere) and
    N averages to c0 + c1 z + c2 z^2 over the circle at height z: a series in
    eps = beta / a below 1/2, through atanh(eps) above.
    """
    # j[k] = int z^k / (1 + eps z) dz over [-1, 1]
    eps = beta / a
    if eps < 0.5:
        n, k = np.arange(64), np.arange(3)[:, None]
        j = np.sum((-eps) ** n * ((k + n) % 2 == 0) * 2.0 / (k + n + 1), axis=1)
    else:
        j0 = 2.0 * math.atanh(eps) / eps
        j = (j0, (2.0 - j0) / eps, (j0 - 2.0) / eps ** 2)
    return float(np.dot(c, j)) / (2.0 * a)


def average_success(
    hybrid: HybridType,
    alpha: float,
    loss: LossParameter,
    backend: Backend = COHERENT_ALGEBRA,
) -> float:
    """Sphere-averaged total success probability, exact: half the trace of p_sum."""
    p_sum, _ = _success_sums(outcome_tensors(hybrid, alpha, loss.r, backend))
    value = 0.5 * float(np.real(np.trace(p_sum)))
    if not math.isfinite(value):
        raise NonFiniteError("average_success", hybrid, alpha, loss.r, value)
    return value


def average_fidelity(
    hybrid: HybridType,
    alpha: float,
    loss: LossParameter,
    backend: Backend = COHERENT_ALGEBRA,
) -> float:
    """Success-conditioned average fidelity over the Bloch sphere, exact."""
    value = _sphere_average(*_success_sums(outcome_tensors(hybrid, alpha, loss.r, backend)))
    if not math.isfinite(value):
        raise NonFiniteError("average_fidelity", hybrid, alpha, loss.r, value)
    return value


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
    The fidelity is sum_m p_m F_m / sum_m p_m over the members' records.
    """
    report = teleport_once(hybrid, alpha, loss, angles, backend)
    out = {}
    for key, members in groups.items():
        records = [report.entry(s, a) for s, a in members]
        for rec in records:
            if rec.correction == FAIL:
                raise ValueError(f"group {key} contains failure outcome {rec.label}")
        p_tot = sum(rec.probability for rec in records)
        live = [rec for rec in records if rec.fidelity is not None]
        if p_tot <= PROB_FLOOR or not live:
            out[key] = (p_tot, None, None)
            continue
        acc = TermSum.summed(rec.state.scaled(rec.probability) for rec in live)
        fid = sum(rec.probability * rec.fidelity for rec in live) / p_tot
        out[key] = (p_tot, fid, acc.scaled(1.0 / p_tot).canonicalized())
    return out
