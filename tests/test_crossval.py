"""Cross-validation harness: result formatting and the fast sweep."""

import re

from hybrid_teleport import crossval, encoding
from hybrid_teleport.crossval import CheckResult, run_all_checks
from hybrid_teleport.loss import LossParameter, dilate


class TestCheckResult:
    def test_pass_boundary_is_strict(self):
        assert CheckResult("x", 0.0, 1e-8).passed
        assert CheckResult("x", 9.9e-9, 1e-8).passed
        assert not CheckResult("x", 1e-8, 1e-8).passed
        assert not CheckResult("x", 2e-8, 1e-8).passed

    def test_line_format(self):
        line = CheckResult("group-formulas", 4.0e-16, 1e-6).line()
        assert line == "PASS group-formulas: worst 4.000e-16 (tol 1.0e-06)"
        line = CheckResult("group-formulas", 3.1e-3, 1e-6).line()
        assert line.startswith("FAIL group-formulas")


class TestRunAllChecks:
    def test_fast_suite_passes(self):
        results = run_all_checks(fast=True)
        assert len(results) == 8
        names = [res.name for res in results]
        assert len(set(names)) == 8
        failing = [res.line() for res in results if not res.passed]
        assert not failing, failing
        # every line is machine-parseable
        pat = re.compile(r"^(PASS|FAIL) [a-z\- ]+: worst \d\.\d{3}e[+-]\d+ \(tol \d\.\de[+-]\d+\)$")
        for res in results:
            assert pat.match(res.line()), res.line()


class TestChannelClosedForm:
    def test_covers_the_dilated_loss(self, monkeypatch):
        # a dilation at the wrong loss must fail the check that the Kraus
        # oracle alone would pass
        def wrong_dilate(state, names, loss):
            return dilate(state, names, LossParameter(0.5 * loss.r))

        assert crossval.check_channel_closed_form().passed
        monkeypatch.setattr(crossval, "dilate", wrong_dilate)
        assert not crossval.check_channel_closed_form().passed


class TestBellSupport:
    def test_fails_on_a_swapped_correction(self, monkeypatch):
        # the check reads the correction table: one wrong entry must fail it
        assert crossval.check_bell_support(n_angles=2).passed
        monkeypatch.setitem(encoding._SUPPORTED_COMBOS, ("phi", -1, "o3"), "XZ")
        res = crossval.check_bell_support(n_angles=2)
        assert not res.passed
        assert res.worst > 0.5
