"""Command-line sweeps, cross-validation runs, and CSV/JSON emission."""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass, replace

from . import formulas, protocol
from .crossval import run_all_checks
from .encoding import HybridType
from .engine import COHERENT_ALGEBRA, TRUNCATED_FOCK, CutoffInsufficientError
from .loss import LossParameter
from .protocol import SphereQuadrature

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_CHECK = 2
EXIT_NUMERIC = 3

ENGINES = ("closed-form", "first-principles-coherent", "first-principles-fock")
CSV_HEADER = "type,alpha,r,t,avg_fidelity,avg_success,classical_limit,engine"
CLASSICAL_LIMIT = 2.0 / 3.0
MAX_R_VALUES = 10**6  # the most r values one sweep may ask for; more is a mistyped r-step


class ConfigError(ValueError, argparse.ArgumentTypeError):
    """Invalid sweep configuration; argparse prints it for a bad flag value."""


@dataclass(frozen=True)
class SweepConfig:
    """Validated parameters of one CLI invocation."""

    types: tuple = (HybridType.TYPE_I, HybridType.TYPE_II)
    alphas: tuple = (1.0, 2.0, 5.0)
    r_min: float = 0.0
    r_max: float = 0.98
    r_step: float = 0.02
    engine: str = "closed-form"
    quad_u: int = 32
    quad_v: int = 64
    out: str = ""
    fmt: str = "csv"
    crossval: bool = False
    tolerance: float = 0.0

    def __post_init__(self):
        # --alpha arrives as a list (nargs="+"); the field stays a tuple
        object.__setattr__(self, "alphas", tuple(self.alphas))

    def validate(self) -> "SweepConfig":
        if not self.types:
            raise ConfigError("no hybrid type selected")
        if not self.alphas or not all(0 < a < math.inf for a in self.alphas):
            raise ConfigError("alpha values must be positive and finite")
        if not 0.0 <= self.r_min < 1.0 or not 0.0 <= self.r_max < 1.0:
            raise ConfigError("r grid must lie in [0, 1)")
        if self.r_max < self.r_min:
            raise ConfigError("r-max is below r-min")
        if not 0 < self.r_step < math.inf:
            raise ConfigError("r-step must be positive and finite")
        steps = (self.r_max - self.r_min) / self.r_step  # counted without building the grid
        if steps >= MAX_R_VALUES:
            raise ConfigError(f"r grid asks for about {steps:.3g} values, more than {MAX_R_VALUES}")
        if self.engine not in ENGINES:
            raise ConfigError(f"unknown engine {self.engine!r}")
        if self.quad_u < 1 or self.quad_v < 1:
            raise ConfigError("quadrature sizes must be positive")
        if self.fmt not in ("csv", "json"):
            raise ConfigError(f"unknown format {self.fmt!r}")
        if not 0 <= self.tolerance < math.inf:
            raise ConfigError("tolerance must be nonnegative and finite")
        return self

    def quadrature(self) -> SphereQuadrature:
        return SphereQuadrature(self.quad_u, self.quad_v)

    def r_values(self) -> tuple:
        n = int(math.floor((self.r_max - self.r_min) / self.r_step + 1e-9)) + 1
        return tuple(round(self.r_min + k * self.r_step, 10) for k in range(n))


def _parse_types(text: str) -> tuple:
    key = text.strip()
    if key == "both":
        return (HybridType.TYPE_I, HybridType.TYPE_II)
    for hy in HybridType:
        if key == hy.value:
            return (hy,)
    raise ConfigError(f"unknown hybrid type {text!r} (choose I, II, or both)")


def _parse_bool(text: str) -> bool:
    key = text.strip().lower()
    if key in ("1", "true", "yes", "on"):
        return True
    if key in ("0", "false", "no", "off"):
        return False
    raise ConfigError(f"expected a boolean, got {text!r}")


def parse_config_file(path: str) -> dict:
    """Flat key=value file mirroring the CLI flags; '#' starts a comment."""
    values = {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise ConfigError(f"cannot read config file: {exc}") from exc
    for lineno, raw in enumerate(lines, 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected key=value")
        key, _, val = line.partition("=")
        values[key.strip()] = val.strip()
    return values


_FILE_KEYS = {
    "type": ("types", _parse_types),
    "alpha": ("alphas", lambda s: tuple(float(x) for x in s.replace(",", " ").split())),
    "r-min": ("r_min", float),
    "r-max": ("r_max", float),
    "r-step": ("r_step", float),
    "engine": ("engine", str),
    "quad-u": ("quad_u", int),
    "quad-v": ("quad_v", int),
    "out": ("out", str),
    "format": ("fmt", str),
    "crossval": ("crossval", _parse_bool),
    "tolerance": ("tolerance", float),
}


def config_from_sources(args: argparse.Namespace) -> SweepConfig:
    """Defaults, then the config file, then explicit CLI flags."""
    config = SweepConfig()
    if args.config:
        for key, text in parse_config_file(args.config).items():
            if key not in _FILE_KEYS:
                raise ConfigError(f"unknown config key {key!r}")
            field_name, parse = _FILE_KEYS[key]
            try:
                config = replace(config, **{field_name: parse(text)})
            except ConfigError:
                raise
            except ValueError as exc:
                raise ConfigError(f"bad value for {key!r}: {exc}") from exc
    # every flag defaults to None, meaning "not given"
    overrides = {}
    for key, (field_name, _) in _FILE_KEYS.items():
        value = getattr(args, key.replace("-", "_"))
        if value is not None:
            overrides[field_name] = value
    return replace(config, **overrides).validate()


def _sweep_point(hybrid: HybridType, alpha: float, r: float, config: SweepConfig):
    """(avg_fidelity, avg_success) for one grid point with the chosen engine."""
    t = math.sqrt(1.0 - r * r)
    if config.engine == "closed-form":
        return (
            formulas.average_fidelity(hybrid, alpha, t, config.quadrature()),
            formulas.success_probability(hybrid, alpha, t),
        )
    backend = (
        COHERENT_ALGEBRA
        if config.engine == "first-principles-coherent"
        else TRUNCATED_FOCK
    )
    loss = LossParameter(r)
    return (
        protocol.average_fidelity(hybrid, alpha, loss, backend),
        protocol.average_success(hybrid, alpha, loss, backend),
    )


def run_sweep(config: SweepConfig) -> list:
    """One row dict per (type, alpha, r), in config order."""
    rows = []
    for hybrid in config.types:
        for alpha in config.alphas:
            for r in config.r_values():
                where = f"type={hybrid.value} alpha={alpha:g} r={r:g}"
                try:
                    fid, suc = _sweep_point(hybrid, alpha, r, config)
                except (CutoffInsufficientError, OverflowError) as exc:
                    raise RuntimeError(
                        f"numeric failure in {config.engine} at {where}: {exc}"
                    ) from exc
                except protocol.NonFiniteError as exc:
                    # the library's guard: the check below reports its stage
                    bad_fid = exc.stage == "average_fidelity"
                    fid, suc = (exc.value, 0.0) if bad_fid else (0.0, exc.value)
                for stage, value in (("avg_fidelity", fid), ("avg_success", suc)):
                    if not math.isfinite(value):
                        raise RuntimeError(
                            f"numeric failure in {stage} ({config.engine}) "
                            f"at {where}: non-finite value {value}"
                        )
                rows.append(
                    {
                        "type": hybrid.value,
                        "alpha": alpha,
                        "r": r,
                        "t": math.sqrt(1.0 - r * r),
                        "avg_fidelity": fid,
                        "avg_success": suc,
                        "classical_limit": CLASSICAL_LIMIT,
                        "engine": config.engine,
                    }
                )
    return rows


def format_csv(rows: list) -> str:
    lines = [CSV_HEADER]
    for row in rows:
        lines.append(
            ",".join(
                (
                    row["type"],
                    f"{row['alpha']:g}",
                    f"{row['r']:g}",
                    f"{row['t']:.6f}",
                    f"{row['avg_fidelity']:.6f}",
                    f"{row['avg_success']:.6f}",
                    f"{row['classical_limit']:.6f}",
                    row["engine"],
                )
            )
        )
    return "\n".join(lines) + "\n"


def format_json(rows: list) -> str:
    return json.dumps(rows, indent=2) + "\n"


def run_crossval(config: SweepConfig) -> tuple:
    """(report rows, all passed) for the cross-validation suite."""
    results = run_all_checks()
    if config.tolerance > 0:
        results = tuple(replace(res, tolerance=config.tolerance) for res in results)
    return results, all(res.passed for res in results)


def _emit(text: str, out_path: str) -> None:
    if out_path:
        with open(out_path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hybrid-teleport",
        description=(
            "Sweep loss-aware teleportation fidelities and success "
            "probabilities for optical hybrid qubits, or cross-validate "
            "the closed forms against the first-principles engine."
        ),
    )
    parser.add_argument("--type", type=_parse_types, default=None,
                        metavar="{I,II,both}",
                        help="hybrid type to sweep (default both)")
    parser.add_argument("--alpha", type=float, nargs="+", default=None,
                        metavar="A", help="coherent amplitudes (default 1 2 5)")
    parser.add_argument("--r-min", type=float, default=None, metavar="R")
    parser.add_argument("--r-max", type=float, default=None, metavar="R")
    parser.add_argument("--r-step", type=float, default=None, metavar="DR")
    parser.add_argument("--engine", choices=ENGINES, default=None,
                        help="evaluation engine (default closed-form); "
                        "first-principles sphere averages are exact")
    parser.add_argument("--quad-u", type=int, default=None, metavar="N",
                        help="polar size of the closed-form sphere rule (default 32)")
    parser.add_argument("--quad-v", type=int, default=None, metavar="N",
                        help="azimuthal size of the closed-form sphere rule (default 64)")
    parser.add_argument("--out", default=None, metavar="PATH",
                        help="output path (default stdout)")
    parser.add_argument("--format", choices=("csv", "json"), default=None,
                        help="output format (default csv)")
    parser.add_argument("--crossval", action="store_const", const=True,
                        default=None,
                        help="run the cross-validation suite instead of a sweep")
    parser.add_argument("--tolerance", type=float, default=None, metavar="TOL",
                        help="override every cross-validation tolerance")
    parser.add_argument("--config", default=None, metavar="PATH",
                        help="flat key=value config file; flags take precedence")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = config_from_sources(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    if config.crossval:
        try:
            results, passed = run_crossval(config)
        except CutoffInsufficientError as exc:
            print(f"numeric error: {exc}", file=sys.stderr)
            return EXIT_NUMERIC
        if config.fmt == "json":
            payload = {
                "passed": passed,
                "checks": [
                    {
                        "name": res.name,
                        "worst": res.worst,
                        "tolerance": res.tolerance,
                        "passed": res.passed,
                    }
                    for res in results
                ],
            }
            _emit(json.dumps(payload, indent=2) + "\n", config.out)
        else:
            _emit("".join(res.line() + "\n" for res in results), config.out)
        return EXIT_OK if passed else EXIT_CHECK

    try:
        rows = run_sweep(config)
    except RuntimeError as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    text = format_csv(rows) if config.fmt == "csv" else format_json(rows)
    _emit(text, config.out)
    return EXIT_OK
