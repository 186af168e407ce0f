"""Cross-validation between closed forms and the first-principles engine.

Each check computes a worst-case deviation over a parameter grid and
compares it against a stated tolerance.  The checks are independent and
side-effect free; `run_all_checks` collects them for the CLI and for the
acceptance tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import formulas
from .encoding import (
    BlochAngles,
    HybridType,
    bell_decomposition_table,
    bell_residual,
    ideal_channel,
)
from .engine import (
    COHERENT_ALGEBRA,
    TRUNCATED_FOCK,
    Coherent,
    Contraction,
    ModeLayout,
    Role,
    TermSum,
    fock,
    trace_distance,
)
from .loss import LossParameter, damp_mode, damp_modes, decohered_channel, dilate
from .protocol import (
    average_fidelity,
    average_success,
    group_statistics,
    teleport_once,
)

DEFAULT_ANGLES = BlochAngles(1.1, 2.3)


@dataclass(frozen=True)
class CheckResult:
    """Outcome of one cross-validation check."""

    name: str
    worst: float
    tolerance: float

    def __post_init__(self):
        # checks reduce with max() over numpy scalars; keep passed a plain bool
        object.__setattr__(self, "worst", float(self.worst))

    @property
    def passed(self) -> bool:
        return self.worst < self.tolerance

    def line(self) -> str:
        mark = "PASS" if self.passed else "FAIL"
        return f"{mark} {self.name}: worst {self.worst:.3e} (tol {self.tolerance:.1e})"


def check_bell_support(
    alphas=(0.5, 1.0, 2.0), n_angles: int = 3, tolerance: float = 1e-8
) -> CheckResult:
    """Lossless analyzer-outcome support and correction-table consistency, per
    (type, alpha) one Bell table over the n_angles x n_angles input grid."""
    grid = [BlochAngles(math.pi * (iu + 0.5) / n_angles, 2.0 * math.pi * iv / n_angles + 0.3)
            for iu in range(n_angles) for iv in range(n_angles)]
    worst = max(bell_residual(details) for hybrid in HybridType for alpha in alphas
                for details in bell_decomposition_table(hybrid, alpha, grid))
    return CheckResult("bell-state support table", worst, tolerance)


def check_kraus_completeness(
    rs=(0.2, 0.5, 0.8), cutoff: int = 12, amplitude: float = 1.5,
    tolerance: float = 1e-10,
) -> CheckResult:
    """Trace preservation of the damping channel on Fock and coherent states."""
    worst = 0.0
    for r in rs:
        loss = LossParameter(r)
        lay_f = ModeLayout(("m",), (cutoff,), (Role.PHOTONIC,))
        for n in range(cutoff + 1):
            rho = TermSum(lay_f, [(1.0, (fock(n),), (fock(n),))])
            worst = max(worst, abs(damp_mode(rho, "m", loss).trace(COHERENT_ALGEBRA) - 1.0))
        lay_c = ModeLayout(("m",), (40,), (Role.COHERENT,))
        rho = TermSum(
            lay_c, [(1.0, (Coherent(amplitude),), (Coherent(amplitude),))]
        )
        worst = max(worst, abs(damp_mode(rho, "m", loss).trace(COHERENT_ALGEBRA) - 1.0))
        cat = TermSum(
            lay_c,
            [
                (0.6, (Coherent(amplitude),), (Coherent(amplitude),)),
                (0.2, (Coherent(amplitude),), (Coherent(-amplitude),)),
                (0.2, (Coherent(-amplitude),), (Coherent(amplitude),)),
                (0.4, (Coherent(-amplitude),), (Coherent(-amplitude),)),
            ],
        )
        worst = max(
            worst, abs(damp_mode(cat, "m", loss).trace(COHERENT_ALGEBRA) - cat.trace(COHERENT_ALGEBRA))
        )
    return CheckResult("damping-channel completeness", worst, tolerance)


def check_channel_closed_form(
    alphas=(1.0,), rs=(0.2, 0.5, 0.8), tolerance: float = 1e-8
) -> CheckResult:
    """Closed-form damped channel vs Kraus damping and the beam-splitter loss.

    The ideal channel is damped mode by mode (Kraus sum) and, as production
    runs do, dilated onto environment modes that a contraction traces out.
    """
    worst = 0.0
    for hybrid in HybridType:
        for alpha in alphas:
            for r in rs:
                loss = LossParameter(r)
                closed = decohered_channel(hybrid, alpha, loss)
                names = closed.layout.names
                ideal = ideal_channel(hybrid, alpha)
                damped = damp_modes(ideal.dm(), names, loss)
                wide = dilate(ideal, names, loss)
                _, traced = Contraction(wide, wide, names, COHERENT_ALGEBRA).outcome()
                worst = max(
                    worst,
                    trace_distance(closed, damped, COHERENT_ALGEBRA),
                    trace_distance(closed, traced, COHERENT_ALGEBRA),
                )
    return CheckResult("damped-channel closed form", worst, tolerance)


def check_outcome_independence(
    alpha: float = 1.0, rs=(0.2, 0.5, 0.8), tolerance: float = 1e-8
) -> CheckResult:
    """All dual-rail success outcomes yield one conditional state."""
    worst = 0.0
    for r in rs:
        loss = LossParameter(r)
        rep = teleport_once(HybridType.TYPE_I, alpha, loss, DEFAULT_ANGLES)
        ref = formulas.uniform_teleported_state(alpha, loss.t, DEFAULT_ANGLES)
        for e in rep.entries:
            if e.state is not None:
                worst = max(worst, trace_distance(e.state, ref, COHERENT_ALGEBRA))
    return CheckResult("dual-rail outcome independence", worst, tolerance)


def check_group_formulas(
    alpha: float = 1.0, rs=(0.3, 0.6), tolerance: float = 1e-6
) -> CheckResult:
    """Outcome-group probabilities, fidelities, states vs first principles."""
    worst = 0.0
    groups = {
        g.index: [(m.s_outcome, m.alpha_outcome) for m in g.members]
        for g in formulas.OUTCOME_GROUPS
    }
    for r in rs:
        loss = LossParameter(r)
        t = loss.t
        stats = group_statistics(
            HybridType.TYPE_II, alpha, loss, DEFAULT_ANGLES, groups
        )
        for i in range(1, 6):
            p_sim, f_sim, st_sim = stats[i]
            worst = max(
                worst,
                abs(p_sim - formulas.group_probability(i, alpha, t, DEFAULT_ANGLES)),
                abs(f_sim - formulas.group_fidelity(i, alpha, t, DEFAULT_ANGLES)),
                trace_distance(
                    st_sim,
                    formulas.group_state(i, alpha, t, DEFAULT_ANGLES),
                    COHERENT_ALGEBRA,
                ),
            )
    return CheckResult("outcome-group closed forms", worst, tolerance)


def check_group_sum_identity(
    alphas=(0.5, 1.0, 2.0), rs=(0.0, 0.3, 0.6, 0.9), tolerance: float = 1e-10
) -> CheckResult:
    """Sphere-averaged group probabilities sum to the closed-form total."""
    worst = 0.0
    for alpha in alphas:
        for r in rs:
            t = math.sqrt(1.0 - r * r)
            worst = max(worst, formulas.group_sum_deviation(alpha, t))
    return CheckResult("group probability sum identity", worst, tolerance)


def check_closed_vs_simulated(
    alphas=(1.0, 2.0),
    rs=tuple(round(0.1 * k, 1) for k in range(10)),
    tolerance: float = 1e-6,
) -> CheckResult:
    """Averaged fidelity and success: exact closed forms vs the exact protocol engine."""
    worst = 0.0
    for alpha in alphas:
        for r in rs:
            loss = LossParameter(r)
            t = loss.t
            for hybrid in HybridType:
                worst = max(
                    worst,
                    abs(
                        average_fidelity(hybrid, alpha, loss)
                        - formulas.average_fidelity(hybrid, alpha, t)
                    ),
                    abs(
                        average_success(hybrid, alpha, loss)
                        - formulas.success_probability(hybrid, alpha, t)
                    ),
                )
    return CheckResult("closed forms vs first principles", worst, tolerance)


def check_backend_equivalence(
    alphas=(1.0, 2.0), rs=(0.3, 0.6), tolerance: float = 1e-6
) -> CheckResult:
    """Coherent-algebra and truncated-Fock backends agree pointwise."""
    worst = 0.0
    for hybrid in HybridType:
        for alpha in alphas:
            for r in rs:
                loss = LossParameter(r)
                rep_c = teleport_once(hybrid, alpha, loss, DEFAULT_ANGLES, COHERENT_ALGEBRA)
                rep_f = teleport_once(hybrid, alpha, loss, DEFAULT_ANGLES, TRUNCATED_FOCK)
                for ec, ef in zip(rep_c.entries, rep_f.entries):
                    worst = max(worst, abs(ec.probability - ef.probability))
                    if ec.fidelity is not None and ef.fidelity is not None:
                        worst = max(worst, abs(ec.fidelity - ef.fidelity))
                worst = max(
                    worst,
                    abs(rep_c.success_probability - rep_f.success_probability),
                    abs(rep_c.conditional_fidelity - rep_f.conditional_fidelity),
                )
    return CheckResult("backend equivalence", worst, tolerance)


def run_all_checks(fast: bool = False) -> tuple:
    """Run every cross-validation check; `fast` thins the heavy grids."""
    results = [
        check_bell_support(n_angles=2 if fast else 3),
        check_kraus_completeness(),
        check_channel_closed_form(),
        check_outcome_independence(),
        check_group_formulas(),
        check_group_sum_identity(),
        check_closed_vs_simulated(
            alphas=(1.0,) if fast else (1.0, 2.0),
            rs=(0.0, 0.3, 0.6, 0.9) if fast else tuple(round(0.1 * k, 1) for k in range(10)),
        ),
        check_backend_equivalence(alphas=(1.0,)) if fast else check_backend_equivalence(
            alphas=(1.0, 2.0, 10.0, 20.0), rs=(0.0, 0.3, 0.6, 0.98)),
    ]
    return tuple(results)
