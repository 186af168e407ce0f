"""Acceptance gate: ten primary criteria, one printed verdict line each.

Each test prints `[criterion NN] PASS/FAIL <what>: worst <x> (tol <y>)`
outside pytest's capture so the lines appear under a plain `pytest -v` run,
then asserts. Tolerances are pinned here and must not be loosened.
"""

import math
import time

from hybrid_teleport import formulas
from hybrid_teleport.cli import SweepConfig, run_sweep
from hybrid_teleport.crossval import (
    check_backend_equivalence,
    check_bell_support,
    check_channel_closed_form,
    check_closed_vs_simulated,
    check_group_formulas,
    check_group_sum_identity,
    check_kraus_completeness,
    check_outcome_independence,
)
from hybrid_teleport.encoding import BlochAngles, HybridType
from hybrid_teleport.loss import LossParameter
from hybrid_teleport.measurement import FAIL
from hybrid_teleport.protocol import average_success, teleport_once

CLASSICAL_LIMIT = 2.0 / 3.0


def report(capsys, index: int, ok: bool, what: str, worst: float, tol: float):
    with capsys.disabled():
        mark = "PASS" if ok else "FAIL"
        print(f"\n[criterion {index:02d}] {mark} {what}: worst {worst:.3e} (tol {tol:.0e})")


def test_criterion_01_closed_form_reproduction(capsys):
    # type-I fidelity (t^2/3)(2+exp(-4 a^2 r^2)) and success t^2(1-exp(-2 a^2 t^2)/2),
    # plus the type-II counterparts, vs the multimode engine
    tol = 1e-6
    start = time.monotonic()
    res = check_closed_vs_simulated(alphas=(1.0, 2.0))
    elapsed = time.monotonic() - start
    ok = res.worst < tol and elapsed < 600.0
    report(capsys, 1, ok, "closed-form F/P vs first principles (a=1,2; r=0..0.9)",
           res.worst, tol)
    assert res.worst < tol
    assert elapsed < 600.0, f"runtime budget exceeded: {elapsed:.1f}s"


def test_criterion_02_success_probability_identity(capsys):
    # sphere-averaged sum of the five outcome-group probabilities collapses
    # to the closed success probability
    tol_formula = 1e-10
    tol_sim = 1e-6
    worst_formula = 0.0
    for alpha in (0.5, 1.0, 2.0, 5.0):
        for r in (0.0, 0.3, 0.6, 0.9):
            t = math.sqrt(1.0 - r * r)
            worst_formula = max(worst_formula, formulas.group_sum_deviation(alpha, t))
    worst_sim = 0.0
    for alpha in (1.0, 2.0):
        for r in (0.0, 0.3, 0.6, 0.9):
            loss = LossParameter(r)
            worst_sim = max(
                worst_sim,
                abs(
                    average_success(HybridType.TYPE_II, alpha, loss)
                    - formulas.success_probability(HybridType.TYPE_II, alpha, loss.t)
                ),
            )
    ok = worst_formula < tol_formula and worst_sim < tol_sim
    report(capsys, 2, ok,
           f"success-probability identity (formula worst {worst_formula:.1e})",
           worst_sim, tol_sim)
    assert worst_formula < tol_formula
    assert worst_sim < tol_sim


def test_criterion_03_sweep_qualitative_shape(capsys):
    # emitted sweep keeps type II above type I everywhere, starts at fidelity
    # one, and at a=5 both types dive under the classical limit at small r
    slack = 1e-9
    cfg = SweepConfig(
        types=(HybridType.TYPE_I, HybridType.TYPE_II),
        alphas=(1.0, 2.0, 5.0),
    )
    rows = run_sweep(cfg)
    by_key = {(row["type"], row["alpha"], row["r"]): row for row in rows}
    alphas = (1.0, 2.0, 5.0)
    rs = sorted({row["r"] for row in rows})
    worst = 0.0
    for alpha in alphas:
        for r in rs:
            one = by_key[("I", alpha, r)]
            two = by_key[("II", alpha, r)]
            worst = max(worst, one["avg_fidelity"] - two["avg_fidelity"],
                        one["avg_success"] - two["avg_success"])
    ordering_ok = worst <= slack
    start_ok = all(
        abs(by_key[(ty, alpha, 0.0)]["avg_fidelity"] - 1.0) <= slack
        for ty in ("I", "II")
        for alpha in alphas
    )
    def first_r_below(ty):
        for r in rs:
            if by_key[(ty, 5.0, r)]["avg_fidelity"] < CLASSICAL_LIMIT - slack:
                return r
        return None

    dip_i, dip_ii = first_r_below("I"), first_r_below("II")
    dip_ok = dip_i is not None and dip_ii is not None and max(dip_i, dip_ii) <= 0.3
    ok = ordering_ok and start_ok and dip_ok
    report(capsys, 3, ok,
           f"sweep shape: II>=I, F(0)=1, a=5 dips below 2/3 by r={max(dip_i or 1, dip_ii or 1):g}",
           max(worst, 0.0), slack)
    assert ordering_ok
    assert start_ok
    assert dip_ok


def test_criterion_04_lossless_sanity(capsys):
    tol_f = 1e-8
    tol_p = 1e-10
    worst_f = 0.0
    worst_p = 0.0
    angles = (BlochAngles(1.1, 2.3), BlochAngles(math.pi / 2, 0.7), BlochAngles(0.0, 0.0))
    for hybrid in HybridType:
        for alpha in (0.5, 1.0, 2.0):
            for ang in angles:
                rep = teleport_once(hybrid, alpha, LossParameter(0.0), ang)
                want_p = 1.0 - 0.5 * math.exp(-2.0 * alpha * alpha)
                worst_p = max(worst_p, abs(rep.success_probability - want_p))
                for e in rep.entries:
                    if e.correction != FAIL and e.probability > 1e-12:
                        worst_f = max(worst_f, abs(e.fidelity - 1.0))
    ok = worst_f < tol_f and worst_p < tol_p
    report(capsys, 4, ok,
           f"lossless: unit fidelity on every success outcome (P worst {worst_p:.1e})",
           worst_f, tol_f)
    assert worst_f < tol_f
    assert worst_p < tol_p


def test_criterion_05_bell_decomposition(capsys):
    tol = 1e-8
    res = check_bell_support(alphas=(0.5, 1.0, 2.0), n_angles=3)
    ok = res.worst < tol
    report(capsys, 5, ok, "entangled-resource decomposition residual (3x3 angles)",
           res.worst, tol)
    assert ok


def test_criterion_06_type_i_outcome_independence(capsys):
    tol = 1e-8
    res = check_outcome_independence(alpha=1.0, rs=(0.2, 0.5, 0.8))
    ok = res.worst < tol
    report(capsys, 6, ok, "type-I corrected state identical across outcomes",
           res.worst, tol)
    assert ok


def test_criterion_07_channel_physics(capsys):
    tol_kraus = 1e-10
    tol_channel = 1e-8
    res_k = check_kraus_completeness()
    res_c = check_channel_closed_form()
    ok = res_k.worst < tol_kraus and res_c.worst < tol_channel
    report(capsys, 7, ok,
           f"loss-channel physics (Kraus completeness worst {res_k.worst:.1e})",
           res_c.worst, tol_channel)
    assert res_k.worst < tol_kraus
    assert res_c.worst < tol_channel


def test_criterion_08_outcome_group_equivalence(capsys):
    tol = 1e-6
    res = check_group_formulas(alpha=1.0, rs=(0.3, 0.6))
    ok = res.worst < tol
    report(capsys, 8, ok,
           "per-group probability/fidelity/state closed forms vs engine",
           res.worst, tol)
    assert ok


def test_criterion_09_probability_bookkeeping(capsys):
    tol = 1e-8
    worst_sum = 0.0
    worst_excluded = 0.0
    excluded = [("1", "3"), ("1", "4"), ("2", "1"), ("2", "2")]
    for hybrid in HybridType:
        for r in (0.0, 0.3, 0.6, 0.9):
            rep = teleport_once(hybrid, 1.0, LossParameter(r), BlochAngles(1.1, 2.3))
            total = sum(e.probability for e in rep.entries)
            worst_sum = max(worst_sum, abs(total - 1.0))
            if hybrid is HybridType.TYPE_I:
                for s, a in excluded:
                    worst_excluded = max(worst_excluded, rep.entry(s, a).probability)
                for s in ("1", "2", "e", "other"):
                    worst_excluded = max(
                        worst_excluded, rep.entry(s, "both").probability
                    )
    ok = worst_sum < tol and worst_excluded < tol
    report(capsys, 9, ok,
           f"probabilities sum to one (excluded-outcome worst {worst_excluded:.1e})",
           worst_sum, tol)
    assert worst_sum < tol
    assert worst_excluded < tol


def test_criterion_10_backend_equivalence(capsys):
    tol = 1e-6
    res = check_backend_equivalence(alphas=(1.0, 2.0))
    ok = res.worst < tol
    report(capsys, 10, ok,
           "truncated-Fock vs coherent-algebra backends (a<=2)",
           res.worst, tol)
    assert ok


def test_group_sum_identity_supplement(capsys):
    # supporting identity for criterion 2 at the documented strictness
    res = check_group_sum_identity()
    assert res.worst < 1e-10
