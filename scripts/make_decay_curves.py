#!/usr/bin/env python3
"""Emit the fidelity/success decay curves for both hybrid types.

Sweeps the loss parameter r for alpha in {1, 2, 5} (closed forms) and writes
one CSV usable for plotting F(r) and P(r) per type, including the 2/3
classical-limit column. With --crossval-point it additionally prints a
first-principles spot check at alpha=1, r=0.3 so a reader can confirm the
curves are backed by the multimode engine.

Output: CSV to --out (default decay_curves.csv), spot check to stdout.
"""

import argparse
import sys

from hybrid_teleport.cli import SweepConfig, format_csv, run_sweep
from hybrid_teleport.encoding import HybridType
from hybrid_teleport.formulas import average_fidelity, success_probability
from hybrid_teleport.loss import LossParameter
from hybrid_teleport.protocol import average_fidelity as sim_fidelity
from hybrid_teleport.protocol import average_success as sim_success


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--alphas", type=float, nargs="+", default=[1.0, 2.0, 5.0])
    parser.add_argument("--r-step", type=float, default=0.02)
    parser.add_argument("--out", default="decay_curves.csv")
    parser.add_argument("--crossval-point", action="store_true",
                        help="also verify one grid point against the engine")
    args = parser.parse_args(argv)

    cfg = SweepConfig(
        types=(HybridType.TYPE_I, HybridType.TYPE_II),
        alphas=tuple(args.alphas),
        r_step=args.r_step,
    )
    rows = run_sweep(cfg)
    with open(args.out, "w", encoding="utf-8", newline="") as fh:
        fh.write(format_csv(rows))
    print(f"wrote {len(rows)} rows to {args.out}")

    below = {}
    for row in rows:
        key = (row["type"], row["alpha"])
        if key not in below and row["avg_fidelity"] < 2.0 / 3.0:
            below[key] = row["r"]
    for (ty, alpha), r in sorted(below.items()):
        print(f"type {ty} alpha={alpha:g}: fidelity drops below 2/3 at r={r:g}")

    if args.crossval_point:
        loss = LossParameter(0.3)
        t = loss.t
        for hybrid in (HybridType.TYPE_I, HybridType.TYPE_II):
            fc = average_fidelity(hybrid, 1.0, t)
            pc = success_probability(hybrid, 1.0, t)
            fs = sim_fidelity(hybrid, 1.0, loss)
            ps = sim_success(hybrid, 1.0, loss)
            print(
                f"type {hybrid.value} alpha=1 r=0.3: closed F={fc:.9f} P={pc:.9f}"
                f" | engine F={fs:.9f} P={ps:.9f}"
                f" | diff {max(abs(fc - fs), abs(pc - ps)):.2e}"
            )
    return 0


if __name__ == "__main__":
    sys.exit(main())
