"""Reference implementations of the first-principles outcome tensors.

The engine contracts one Choi state, the input entangled with a reference
mode R, with itself.  These references take the route before it: one
pre-measurement ket per logical input, one contraction per basis pair
(0, 0), (0, 1), (1, 1), and the pair (1, 0) by conjugation.  Their
contraction weights sum the dense terms x terms array
Q = c_ket c_bra^* <environment overlap> onto the cells through one-hot
matrices.  The engine's results must match these to rounding.
"""

from __future__ import annotations

import math

import numpy as np

from hybrid_teleport.encoding import (
    LOGICAL_PAULI,
    DynamicBasis,
    coherent_mode,
    ideal_channel,
    logical_ket,
    photonic_modes,
)
from hybrid_teleport.engine import (
    NO_PROJECTOR,
    Contraction,
    ModeProjector,
    apply_beam_splitter,
    product_sums,
)
from hybrid_teleport.loss import LossParameter, dilate
from hybrid_teleport.measurement import (
    ALPHA_OUTCOME_ORDER,
    FAIL,
    S_OUTCOME_ORDER,
    MeasurementFamily,
    ProjectorSpec,
    correction_lookup,
    enumerate_outcomes,
    projector,
    s_family,
)


def protocol_states(hybrid, alpha: float, r: float) -> tuple:
    """Pre-measurement kets Psi_0, Psi_1 for the logical inputs |0_L>, |1_L>."""
    loss = LossParameter(r)
    basis = DynamicBasis(alpha, loss)
    ch_modes = (photonic_modes(hybrid, "b") + (coherent_mode("b"),)
                + photonic_modes(hybrid, "c") + (coherent_mode("c"),))
    channel = dilate(ideal_channel(hybrid, alpha), ch_modes, loss)
    out = []
    for bit in (0, 1):
        psi = logical_ket(hybrid, bit, basis, "a", coh_scale=math.sqrt(2.0)).tensor(channel)
        for pm, am in zip(photonic_modes(hybrid, "b"), photonic_modes(hybrid, "a")):
            psi = apply_beam_splitter(psi, pm, am)
        psi = apply_beam_splitter(psi, "A", "B")
        out.append(psi.canonicalized())
    return tuple(out)


def dense_weights(contraction: Contraction, *families) -> tuple:
    """(prob, W) as Contraction.weights, from the dense terms x terms array Q."""
    fams = [(f,) if isinstance(f, ModeProjector) else tuple(f) for f in families]
    fams += [(NO_PROJECTOR,)] * (2 - len(fams))
    named = [sorted({n for proj in fam for br in proj.branches for n, _ in br}) for fam in fams]
    ket, bra, backend = contraction.ket, contraction.bra, contraction.backend
    env = tuple(m for m in ket.layout.names
                if m not in contraction.keep and m not in named[0] + named[1])
    env_k, env_b, plain = product_sums(ket, bra, env, (NO_PROJECTOR,), backend)
    q = np.outer(ket.coeffs, bra.coeffs.conj()) * plain[0][env_k[:, None], env_b]
    # the first family is batched, the second folded
    (batch_k, batch_b, batch), (fold_k, fold_b, fold) = (
        product_sums(ket, bra, modes, fam, backend) for modes, fam in zip(named, fams))

    def keyed(kept, ids):
        # the distinct (kept product, folded tuple) keys, and each term's key
        keys, cells = np.unique(np.stack([kept, ids], axis=1), axis=0, return_inverse=True)
        return keys, cells.reshape(-1)

    ket_keys, ket_cells = keyed(contraction.ket_kept, fold_k)
    bra_keys, bra_cells = keyed(contraction.bra_kept, fold_b)
    _, tk, tb = batch.shape
    rows = np.eye(len(ket_keys) * tk)[ket_cells * tk + batch_k]
    cols = np.eye(len(bra_keys) * tb)[bra_cells * tb + batch_b]
    pairs = (rows.T @ q @ cols).reshape(len(ket_keys), tk, len(bra_keys), tb)
    staged = np.einsum("ktlu,itu->ikl", pairs, batch)
    folded = staged[:, None] * fold[:, ket_keys[:, 1]][:, :, bra_keys[:, 1]]
    w = np.eye(len(contraction.kept_kets))[ket_keys[:, 0]].T @ folded
    w = w @ np.eye(len(contraction.kept_bras))[bra_keys[:, 0]]
    return np.einsum("ijab,ab->ij", w, contraction.keep_trace), w


def outcome_tensors(hybrid, alpha: float, r: float, backend) -> list:
    """Per joint outcome (prob, fid, states): states maps every (x, y) to rho_xy."""
    labels = enumerate_outcomes(hybrid)
    families = (
        [projector(ProjectorSpec(s_family(hybrid), s)) for s in S_OUTCOME_ORDER],
        [projector(ProjectorSpec(MeasurementFamily.B_ALPHA, a)) for a in ALPHA_OUTCOME_ORDER],
    )
    basis = DynamicBasis(alpha, LossParameter(r))
    bob_kets = [logical_ket(hybrid, bit, basis, "c") for bit in (0, 1)]
    states = protocol_states(hybrid, alpha, r)
    prob = np.zeros((len(labels), 2, 2), dtype=complex)
    logical = np.zeros((len(labels), 2, 2, 2, 2), dtype=complex)
    rhos = [{} for _ in labels]
    for x, y in ((0, 0), (0, 1), (1, 1)):
        contraction = Contraction(states[x], states[y], bob_kets[0].layout.names, backend)
        probs, weights = dense_weights(contraction, *families)
        prob[:, x, y] = probs.reshape(-1)
        for n, w in enumerate(weights.reshape(len(labels), *weights.shape[2:])):
            rhos[n][x, y] = rho = contraction.operator(w)
            logical[n, x, y] = [[rho.matrix_element(p, q, backend) for q in bob_kets] for p in bob_kets]
    # rho_10 = rho_01^dag
    prob[:, 1, 0] = prob[:, 0, 1].conj()
    logical[:, 1, 0] = logical[:, 0, 1].conj().swapaxes(-1, -2)
    out = []
    for n, label in enumerate(labels):
        correction = correction_lookup(hybrid, label)
        if correction == FAIL:
            out.append((prob[n], None, None))
            continue
        u = LOGICAL_PAULI[correction]
        fid = np.einsum("pr,xyrs,qs->xypq", u, logical[n], u.conj())
        rhos[n][1, 0] = rhos[n][0, 1].adjoint()
        out.append((prob[n], fid, rhos[n]))
    return out
