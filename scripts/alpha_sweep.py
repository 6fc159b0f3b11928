#!/usr/bin/env python3
"""Regularization sweep: trajectory convergence and bound crossover as alpha drops.

Two views of the alpha -> 0 limit on one run:
  * dynamics: distance at t = t_end between the regularized trajectory and
    the classical (alpha = 0) one, for a geometric ladder of alphas;
  * bounds: the basic trace bound blows up like 1/alpha while the quadratic
    and log-form bounds stay finite - the sweep tabulates all three, each
    with its validity (the linear and log-form bounds are stated only for
    alpha <= alpha0, and read out-of-range past it).

Example:
    python scripts/alpha_sweep.py --alphas 0.4 0.2 0.1 0.05 --t-end 1.0
"""

import argparse
import csv
import math
from pathlib import Path

from nsvlab import bounds as B
from nsvlab import dynamics as dyn
from nsvlab import spectral as sp
from nsvlab.spectral import VELOCITY

#: (CSV column, printed label, bound) for each tabulated bound
BOUNDS = (("bound_basic", "basic", B.bound_basic),
          ("bound_quadratic", "quadratic", B.bound_2d_quadratic),
          ("bound_log", "log-form", B.bound_2d_log))


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--alphas", type=float, nargs="+", default=[0.4, 0.2, 0.1, 0.05])
    ap.add_argument("--grid-n", type=int, default=32)
    ap.add_argument("--dt", type=float, default=1e-3)
    ap.add_argument("--t-end", type=float, default=1.0)
    ap.add_argument("--seed", type=int, default=4)
    ap.add_argument("--gnorm", type=float, default=math.sqrt(2) * math.pi)
    ap.add_argument("--output-dir", default="nsvlab_runs/alpha_sweep")
    args = ap.parse_args()

    grid = sp.SpectralGrid(args.grid_n)
    u0 = sp.shear_field(grid, 1.0) + 0.3 * sp.random_field(grid, VELOCITY,
                                                           seed=args.seed, decay=3.0)
    base = dict(nu=1.0, grid=grid, dt=args.dt, t_end=args.t_end,
                forcing=dyn.ForcingSpec.shear(1.0),
                initial=dyn.InitialSpec.from_field(u0), sample_every=1000)
    reference = dyn.integrate(dyn.SimConfig(alpha=0.0, **base)).final

    outdir = Path(args.output_dir)
    outdir.mkdir(parents=True, exist_ok=True)
    rows = []
    print(f"{'alpha':>8}  {'traj dev':>12}" + "".join(f"  {label:>26}" for _, label, _ in BOUNDS))
    for alpha in sorted(args.alphas, reverse=True):
        final = dyn.integrate(dyn.SimConfig(alpha=alpha, **base)).final
        dev = math.sqrt(sp.l2_norm_sq(final - reference))
        inp = B.BoundsInput(d=2, nu=1.0, alpha=alpha, g_norm=args.gnorm)
        row, cells = {"alpha": alpha, "trajectory_deviation": dev}, []
        for column, _, bound in BOUNDS:
            entry = bound(inp)
            row[column], row[f"{column}_validity"] = entry.value, entry.validity
            cells.append(f"{entry.value:12.4g} {entry.validity:>13}")
        rows.append(row)
        print(f"{alpha:8.3f}  {dev:12.4e}  " + "  ".join(cells))

    with open(outdir / "sweep.csv", "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
        writer.writeheader()
        writer.writerows(rows)
    print(f"wrote {outdir}/sweep.csv")


if __name__ == "__main__":
    main()
