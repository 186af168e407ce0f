"""Command-line interface: flags, config files, formats, exit codes."""

import json
import math
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from hybrid_teleport import cli, protocol
from hybrid_teleport.cli import (
    CSV_HEADER,
    ConfigError,
    EXIT_CHECK,
    EXIT_CONFIG,
    EXIT_NUMERIC,
    EXIT_OK,
    SweepConfig,
    config_from_sources,
    format_csv,
    format_json,
    main,
    parse_config_file,
    run_sweep,
)
from hybrid_teleport.crossval import CheckResult
from hybrid_teleport.encoding import HybridType
from hybrid_teleport.engine import COHERENT_ALGEBRA

BOTH = (HybridType.TYPE_I, HybridType.TYPE_II)
# the default sweep's CSV, as committed for the benchmark
REFERENCE_CSV = (
    Path(__file__).resolve().parent.parent / "perfbench" / "reference" / "closed_sweep.csv"
)
# committed first-principles sweeps: file name -> argv that prints it
FP_REFERENCES = {
    "fp_coherent_default.csv": ["--engine", "first-principles-coherent"],
    "fp_fock_alpha_1_2.csv": ["--engine", "first-principles-fock", "--alpha", "1", "2",
                              "--r-step", "0.1"],
}
FP_REFERENCE_DIR = Path(__file__).resolve().parent / "reference"


def small_config(**kw):
    base = dict(types=BOTH, alphas=(1.0,), r_min=0.0, r_max=0.3, r_step=0.3)
    base.update(kw)
    return SweepConfig(**base)


class TestConfigValidation:
    def test_defaults_valid(self):
        cfg = SweepConfig()
        cfg.validate()
        rs = cfg.r_values()
        assert rs[0] == 0.0 and rs[-1] == pytest.approx(0.98)
        assert len(rs) == 50

    def test_r_grid_rounding(self):
        cfg = small_config(r_min=0.1, r_max=0.7, r_step=0.2)
        assert cfg.r_values() == (0.1, 0.3, 0.5, 0.7)

    def test_bad_r_range(self):
        with pytest.raises(ConfigError):
            small_config(r_max=1.0).validate()
        with pytest.raises(ConfigError):
            small_config(r_min=0.5, r_max=0.2).validate()
        with pytest.raises(ConfigError):
            small_config(r_step=0.0).validate()

    def test_bad_alpha(self):
        with pytest.raises(ConfigError):
            small_config(alphas=(0.0,)).validate()

    def test_fock_accepts_large_alpha(self):
        cfg = small_config(engine="first-principles-fock", alphas=(2.0, 40.0))
        assert cfg.validate() is cfg

    def test_unknown_engine(self):
        with pytest.raises(ConfigError):
            small_config(engine="magic").validate()

    def test_bad_format(self):
        with pytest.raises(ConfigError):
            small_config(fmt="yaml").validate()

    def test_r_grid_size_is_bounded(self):
        # the count is checked without building the grid; the limit itself is accepted
        with pytest.raises(ConfigError, match=r"about 9\.8e\+11 values, more than 1000000"):
            small_config(r_max=0.98, r_step=1e-12).validate()
        with pytest.raises(ConfigError, match="about inf values"):
            small_config(r_max=0.98, r_step=5e-324).validate()
        step = 0.5 / (cli.MAX_R_VALUES - 1)  # a grid of MAX_R_VALUES values
        assert small_config(r_max=0.5, r_step=step).validate().r_step == step

    @pytest.mark.parametrize("quad_u, quad_v, message", [
        (0, 8, "quadrature sizes must be positive"),
        (1025, 1, "quadrature asks for 1025 Gauss-Legendre points in u, more than 1024"),
        (2, 2**19 + 1, "quadrature asks for 1048578 nodes, more than 1048576"),
        (10**9, 10**9, "quadrature asks for 1000000000 Gauss-Legendre points"),
    ])
    def test_sphere_rule_size_is_bounded(self, quad_u, quad_v, message):
        # validate checks the sizes without building the rule
        with pytest.raises(ConfigError, match=message):
            small_config(quad_u=quad_u, quad_v=quad_v).validate()
        assert small_config(quad_u=512, quad_v=512).validate().quad_v == 512


class TestConfigFile:
    def test_parse_and_precedence(self, tmp_path):
        cfg_file = tmp_path / "sweep.cfg"
        cfg_file.write_text(
            "# comment line\n"
            "type = I\n"
            "alpha = 1, 2\n"
            "r-max = 0.5\n"
            "r-step = 0.25\n"
            "format = json\n"
        )
        parsed = parse_config_file(str(cfg_file))
        assert parsed["type"] == "I"

        args = cli.build_parser().parse_args(
            ["--config", str(cfg_file), "--format", "csv"]
        )
        cfg = config_from_sources(args)
        assert cfg.types == (HybridType.TYPE_I,)
        assert cfg.alphas == (1.0, 2.0)
        assert cfg.r_max == 0.5
        assert cfg.fmt == "csv"  # CLI flag beats file value

    # config key: (file value, flag argv, field value the flag sets)
    FLAG_OVER_FILE = {
        "type": ("I", ["--type", "II"], (HybridType.TYPE_II,)),
        "alpha": ("1, 2", ["--alpha", "0.5", "1.5"], (0.5, 1.5)),
        "r-min": ("0.1", ["--r-min", "0.2"], 0.2),
        "r-max": ("0.5", ["--r-max", "0.4"], 0.4),
        "r-step": ("0.1", ["--r-step", "0.05"], 0.05),
        "engine": ("first-principles-coherent", ["--engine", "closed-form"], "closed-form"),
        "quad-u": ("4", ["--quad-u", "8"], 8),
        "quad-v": ("4", ["--quad-v", "8"], 8),
        "out": ("file.csv", ["--out", "flag.csv"], "flag.csv"),
        "format": ("json", ["--format", "csv"], "csv"),
        "crossval": ("false", ["--crossval"], True),
        "tolerance": ("1e-3", ["--tolerance", "1e-6"], 1e-6),
    }

    @pytest.mark.parametrize("key", list(FLAG_OVER_FILE))
    def test_flag_beats_file_value(self, tmp_path, key):
        file_value, flag, want = self.FLAG_OVER_FILE[key]
        cfg_file = tmp_path / "sweep.cfg"
        cfg_file.write_text(f"{key} = {file_value}\n")
        parser = cli.build_parser()
        from_file = config_from_sources(parser.parse_args(["--config", str(cfg_file)]))
        got = config_from_sources(parser.parse_args(["--config", str(cfg_file)] + flag))
        field_name = cli._FILE_KEYS[key][0]
        assert getattr(from_file, field_name) != want
        # the flag changes its own field, to the flag's value and type, and nothing else
        assert got == replace(from_file, **{field_name: want})
        assert type(getattr(got, field_name)) is type(want)

    def test_unknown_key_rejected(self, tmp_path):
        cfg_file = tmp_path / "sweep.cfg"
        cfg_file.write_text("frobnicate = 3\n")
        args = cli.build_parser().parse_args(["--config", str(cfg_file)])
        with pytest.raises(ConfigError):
            config_from_sources(args)

    @pytest.mark.parametrize("lines", ["r-step = 1e-12\n", "r-min = 0.1\nr-max = 0.9\nr-step = 1e-9\n"])
    def test_r_grid_size_is_bounded_in_file(self, tmp_path, lines):
        cfg_file = tmp_path / "sweep.cfg"
        cfg_file.write_text(lines)
        args = cli.build_parser().parse_args(["--config", str(cfg_file)])
        with pytest.raises(ConfigError, match=f"more than {cli.MAX_R_VALUES}"):
            config_from_sources(args)
        # a flag that shrinks the grid back under the limit is accepted
        args = cli.build_parser().parse_args(["--config", str(cfg_file), "--r-step", "0.1"])
        assert config_from_sources(args).r_step == 0.1

    def test_missing_file_is_config_error(self):
        args = cli.build_parser().parse_args(["--config", "/nonexistent/x.cfg"])
        with pytest.raises(ConfigError):
            config_from_sources(args)


class TestSweepOutput:
    EXPECTED = (
        "type,alpha,r,t,avg_fidelity,avg_success,classical_limit,engine\n"
        "I,1,0,1.000000,1.000000,0.932332,0.666667,closed-form\n"
        "I,1,0.3,0.953939,0.818295,0.836278,0.666667,closed-form\n"
        "II,1,0,1.000000,1.000000,0.932332,0.666667,closed-form\n"
        "II,1,0.3,0.953939,0.852872,0.918987,0.666667,closed-form\n"
    )

    def test_header_exact(self):
        assert CSV_HEADER == "type,alpha,r,t,avg_fidelity,avg_success,classical_limit,engine"

    def test_reference_rows(self):
        got = format_csv(run_sweep(small_config()))
        assert got == self.EXPECTED

    def test_reruns_byte_identical(self, tmp_path):
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        argv = ["--type", "both", "--alpha", "1", "--r-max", "0.3",
                "--r-step", "0.3"]
        assert main(argv + ["--out", str(out1)]) == EXIT_OK
        assert main(argv + ["--out", str(out2)]) == EXIT_OK
        assert out1.read_bytes() == out2.read_bytes()
        assert out1.read_text() == self.EXPECTED

    def test_json_full_precision(self):
        rows = run_sweep(small_config(types=(HybridType.TYPE_II,)))
        payload = json.loads(format_json(rows))
        row = payload[-1]
        assert row["type"] == "II"
        assert row["r"] == 0.3
        # JSON keeps the full float, not the 6-decimal CSV rendering
        assert abs(row["avg_success"] - 0.9189871245330598) < 1e-12
        assert row["classical_limit"] == pytest.approx(2.0 / 3.0, rel=1e-15)

    def test_first_principles_matches_closed_form(self):
        closed = run_sweep(small_config(types=(HybridType.TYPE_II,),
                                        r_min=0.3, r_max=0.3))
        simulated = run_sweep(small_config(types=(HybridType.TYPE_II,),
                                           r_min=0.3, r_max=0.3,
                                           engine="first-principles-coherent"))
        for a, b in zip(closed, simulated):
            assert abs(a["avg_fidelity"] - b["avg_fidelity"]) < 1e-6
            assert abs(a["avg_success"] - b["avg_success"]) < 1e-6

    def test_default_sweep_matches_reference(self, tmp_path):
        out = tmp_path / "default.csv"
        assert main(["--out", str(out)]) == EXIT_OK
        assert out.read_bytes() == REFERENCE_CSV.read_bytes()

    @pytest.mark.parametrize("name", sorted(FP_REFERENCES))
    def test_first_principles_sweep_matches_reference(self, name, tmp_path):
        # the first-principles route keeps its bytes: a digit that moves must be re-pinned on purpose
        out = tmp_path / name
        assert main(FP_REFERENCES[name] + ["--out", str(out)]) == EXIT_OK
        assert out.read_bytes() == (FP_REFERENCE_DIR / name).read_bytes()

    def test_t_column_consistent(self):
        for row in run_sweep(small_config()):
            assert math.isclose(row["t"], math.sqrt(1.0 - row["r"] ** 2),
                                rel_tol=1e-12)


class TestExitCodes:
    def test_ok(self, tmp_path):
        out = tmp_path / "x.csv"
        code = main(["--type", "I", "--alpha", "1", "--r-max", "0",
                     "--r-step", "0.5", "--out", str(out)])
        assert code == EXIT_OK
        assert out.read_text().startswith(CSV_HEADER)

    def test_config_error(self, capsys):
        code = main(["--type", "I", "--alpha", "0"])
        assert code == EXIT_CONFIG
        assert "config error" in capsys.readouterr().err

    # non-finite or overflowing values end in a config or a numeric error, not a traceback
    @pytest.mark.parametrize("argv, code, message", [
        (["--alpha", "inf", "--engine", "first-principles-coherent"], EXIT_CONFIG,
         "config error: alpha values must be positive and finite\n"),
        (["--r-step", "nan"], EXIT_CONFIG, "config error: r-step must be positive and finite\n"),
        (["--r-step", "inf"], EXIT_CONFIG, "config error: r-step must be positive and finite\n"),
        (["--tolerance", "nan", "--crossval"], EXIT_CONFIG,
         "config error: tolerance must be nonnegative and finite\n"),
        (["--alpha", "1e200"], EXIT_NUMERIC,
         "numeric error: numeric failure in closed-form at type=I alpha=1e+200 r=0: "),
    ], ids=["alpha-inf", "r-step-nan", "r-step-inf", "tolerance-nan", "alpha-1e200"])
    def test_non_finite_or_overflowing_flag(self, argv, code, message, capsys):
        assert main(argv) == code
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(message)
        assert "Traceback" not in captured.err

    # an overflow names the quantity that overflowed, on every engine; both types
    # stop at type I, so type II runs alone to reach the closed form's sphere rule
    @pytest.mark.parametrize("engine, hybrid, quantity", [
        ("closed-form", "both", "damped overlap exp(-2(alpha t)^2) overflows at alpha t = 1e+200"),
        ("closed-form", "II", "damped overlap exp(-2(alpha t)^2) overflows at alpha t = 1e+200"),
        ("first-principles-coherent", "both", "the Fock cutoff of amplitude 1.41e+200 overflows"),
        ("first-principles-fock", "both", "the Fock cutoff of amplitude 1.41e+200 overflows"),
    ], ids=["closed-form", "closed-form-type-II", "first-principles-coherent",
            "first-principles-fock"])
    def test_overflow_names_its_quantity(self, engine, hybrid, quantity, capsys):
        argv = ["--alpha", "1e200", "--r-max", "0", "--engine", engine, "--type", hybrid]
        assert main(argv) == EXIT_NUMERIC
        captured = capsys.readouterr()
        first = "II" if hybrid == "II" else "I"
        assert captured.err == (f"numeric error: numeric failure in {engine} "
                                f"at type={first} alpha=1e+200 r=0: {quantity}\n")

    @pytest.mark.parametrize("line, message", [
        ("alpha = 1, nan", "alpha values must be positive and finite"),
        ("r-step = inf", "r-step must be positive and finite"),
        ("tolerance = nan\ncrossval = true", "tolerance must be nonnegative and finite"),
    ], ids=["alpha", "r-step", "tolerance"])
    def test_non_finite_config_file_value(self, line, message, tmp_path, capsys):
        cfg_file = tmp_path / "sweep.cfg"
        cfg_file.write_text(line + "\n")
        assert main(["--config", str(cfg_file)]) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"config error: {message}\n"

    # type I never reads the sphere rule, so a broken guard would build none here
    @pytest.mark.parametrize("source", ["flags", "config-file"])
    def test_oversize_sphere_rule_is_config_error(self, source, tmp_path, capsys):
        argv = ["--type", "I"]
        if source == "flags":
            argv += ["--quad-u", "2", "--quad-v", "524289"]
        else:
            cfg_file = tmp_path / "sweep.cfg"
            cfg_file.write_text("quad-u = 2\nquad-v = 524289\n")
            argv += ["--config", str(cfg_file)]
        assert main(argv) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "config error: quadrature asks for 1048578 nodes, more than 1048576\n"

    def test_fock_large_alpha_matches_coherent(self, capsys):
        # r = 0 puts sqrt(2) alpha on the input mode, the largest amplitude of the sweep
        rows = {}
        for engine in ("first-principles-fock", "first-principles-coherent"):
            code = main(["--engine", engine, "--alpha", "10", "20", "--r-max", "0.98",
                         "--r-step", "0.49", "--format", "json"])
            assert code == EXIT_OK
            rows[engine] = json.loads(capsys.readouterr().out)
        fock, coherent = rows["first-principles-fock"], rows["first-principles-coherent"]
        assert len(fock) == len(coherent) == 12
        for rf, rc in zip(fock, coherent):
            assert (rf["type"], rf["alpha"], rf["r"]) == (rc["type"], rc["alpha"], rc["r"])
            for key in ("avg_fidelity", "avg_success"):
                assert abs(rf[key] - rc[key]) < 1e-9

    def test_crossval_pass_and_fail(self, monkeypatch, capsys):
        fake = (
            CheckResult("bell-support", 5.0e-15, 1.0e-8),
            CheckResult("group-formulas", 2.0e-9, 1.0e-6),
        )
        monkeypatch.setattr(cli, "run_all_checks", lambda: fake)
        assert main(["--crossval"]) == EXIT_OK
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 2
        assert lines[0].startswith("PASS bell-support")
        # a stricter tolerance flips the verdict and the exit code
        assert main(["--crossval", "--tolerance", "1e-18"]) == EXIT_CHECK
        lines = capsys.readouterr().out.strip().splitlines()
        assert all(line.startswith("FAIL") for line in lines)

    def test_crossval_json(self, monkeypatch, capsys):
        # checks reduce with max() over numpy scalars, so worst can arrive
        # as np.float64; the report must still serialize
        fake = (CheckResult("bell-support", np.float64(5.0e-15), 1.0e-8),)
        monkeypatch.setattr(cli, "run_all_checks", lambda: fake)
        assert main(["--crossval", "--format", "json"]) == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert payload["passed"] is True
        assert payload["checks"][0]["name"] == "bell-support"

    def test_numeric_error(self, monkeypatch, capsys):
        def boom(config):
            raise RuntimeError("numeric failure at type=II alpha=2 r=0.5: cutoff")

        monkeypatch.setattr(cli, "run_sweep", boom)
        code = main(["--type", "II", "--alpha", "2"])
        assert code == EXIT_NUMERIC
        assert "numeric error" in capsys.readouterr().err

    def test_non_finite_result_is_numeric_error(self, monkeypatch, capsys):
        monkeypatch.setattr(protocol, "average_fidelity", lambda *a, **k: math.nan)
        code = main(["--type", "II", "--alpha", "1.5", "--r-min", "0.3",
                     "--r-max", "0.3", "--engine", "first-principles-coherent"])
        captured = capsys.readouterr()
        assert code == EXIT_NUMERIC
        assert captured.out == ""
        assert "avg_fidelity" in captured.err
        assert "type=II alpha=1.5 r=0.3" in captured.err

    @pytest.mark.parametrize("stage", ["avg_fidelity", "avg_success"])
    def test_library_guard_is_numeric_error(self, stage, monkeypatch, capsys):
        # the library raises on a non-finite average; the CLI reports it as
        # its own check does
        real = protocol.outcome_tensors(HybridType.TYPE_II, 1.5, 0.3, COHERENT_ALGEBRA)
        poisoned = tuple(replace(data, prob=np.full((2, 2), np.nan)) for data in real)
        monkeypatch.setattr(protocol, "outcome_tensors", lambda *args: poisoned)
        if stage == "avg_success":
            monkeypatch.setattr(protocol, "average_fidelity", lambda *a, **k: 0.9)
        code = main(["--type", "II", "--alpha", "1.5", "--r-min", "0.3",
                     "--r-max", "0.3", "--engine", "first-principles-coherent"])
        captured = capsys.readouterr()
        assert code == EXIT_NUMERIC
        assert captured.out == ""
        assert captured.err == (
            f"numeric error: numeric failure in {stage} (first-principles-coherent) "
            "at type=II alpha=1.5 r=0.3: non-finite value nan\n"
        )



class TestEntryPoint:
    def test_console_script(self):
        # a small grid through argv; the full default sweep is pinned byte for
        # byte in-process by test_default_sweep_matches_reference
        proc = subprocess.run(
            [sys.executable, "-c",
             "import sys; from hybrid_teleport.cli import main; sys.exit(main())",
             "--alpha", "1", "--r-max", "0.04"],
            input="",
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert proc.returncode == EXIT_OK
        assert proc.stdout.startswith(CSV_HEADER)
        n_rows = len(proc.stdout.strip().splitlines()) - 1
        assert n_rows == 2 * 1 * 3  # both types, one alpha, r in {0, 0.02, 0.04}
