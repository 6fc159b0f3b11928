#!/usr/bin/env python3
"""Forced-flow study: measured n* versus the closed-form dimension bounds.

For a sweep of forcing strengths calG the script spins up the flow, runs the
tangent-frame scan for the smallest n with q_hat(n) < 0, and tabulates that
n* against the quadratic, linear, and log-form bounds evaluated at the same
parameters.  Writes study.csv and study.json into --output-dir.

Example:
    python scripts/forced_attractor_study.py --calg 250 1000 4000 --grid-n 48 --dt 0.005
"""

import argparse
import csv
import json
import math
from pathlib import Path

from nsvlab import bounds as B
from nsvlab import dynamics as dyn
from nsvlab import lyapunov as lyp
from nsvlab import spectral as sp
from nsvlab.errors import InvalidParameterError


def two_mode_forcing(grid, g_norm_target):
    raw = [((0, 2), (1.0 / 2j, 0.0)), ((1, 1), (0.1, -0.1))]
    probe = dyn.ForcingSpec.from_modes(raw).build(grid)
    scale = g_norm_target / math.sqrt(sp.l2_norm_sq(probe))
    return dyn.ForcingSpec.from_modes([(k, (a[0] * scale, a[1] * scale)) for k, a in raw])


def case_config(cal_g, grid_n, dt, seed):
    """SimConfig at alpha = 0.99 alpha0 for one calG; raises
    InvalidParameterError if dt is past RK4's stability bound there."""
    grid = sp.SpectralGrid(grid_n)
    g_norm = cal_g / (4 * math.pi**2)
    return dyn.SimConfig(nu=1.0, alpha=0.99 * 4.0 / cal_g, grid=grid, dt=dt, t_end=1.0,
                         forcing=two_mode_forcing(grid, g_norm),
                         initial=dyn.InitialSpec.random(seed=seed, decay=3.0, amplitude=2.0))


def run_case(cal_g, cfg, window, warmup, seed):
    g_norm = cal_g / (4 * math.pi**2)
    inp = B.BoundsInput(d=2, nu=1.0, alpha=cfg.alpha, g_norm=g_norm)
    scan = lyp.scan_n_star(cfg, t_end=window, warmup=warmup, burn_in=window / 4, seed=seed)
    return {
        "cal_g": cal_g,
        "alpha": cfg.alpha,
        **scan.summary(),
        "bound_quadratic": B.bound_2d_quadratic(inp).value,
        "bound_linear": B.bound_2d_linear(inp).value,
        "bound_log": B.bound_2d_log(inp).value,
    }


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--calg", type=float, nargs="+", default=[250.0, 1000.0, 4000.0])
    ap.add_argument("--grid-n", type=int, default=48)
    ap.add_argument("--dt", type=float, default=0.01)
    ap.add_argument("--window", type=float, default=40.0)
    ap.add_argument("--warmup", type=float, default=20.0)
    ap.add_argument("--seed", type=int, default=5)
    ap.add_argument("--output-dir", default="nsvlab_runs/forced_study")
    args = ap.parse_args()

    try:   # every case's dt is checked before the first one runs
        cfgs = [case_config(cal_g, args.grid_n, args.dt, args.seed) for cal_g in args.calg]
    except InvalidParameterError as err:
        raise SystemExit(f"configuration error: {err}")
    outdir = Path(args.output_dir)
    outdir.mkdir(parents=True, exist_ok=True)
    rows = []
    for cal_g, cfg in zip(args.calg, cfgs):
        row = run_case(cal_g, cfg, args.window, args.warmup, args.seed)
        rows.append(row)
        print(f"calG={cal_g:8.1f}  n*={row['n_star']}  "
              f"log-bound={row['bound_log']:8.2f}  linear={row['bound_linear']:8.2f}  "
              f"quadratic={row['bound_quadratic']:10.2f}")

    with open(outdir / "study.csv", "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=["cal_g", "alpha", "n_star",
                                                "bound_quadratic", "bound_linear", "bound_log"])
        writer.writeheader()
        for row in rows:
            writer.writerow({k: row[k] for k in writer.fieldnames})
    with open(outdir / "study.json", "w") as fh:
        json.dump(rows, fh, indent=2, sort_keys=True)
    print(f"wrote {outdir}/study.csv and study.json")


if __name__ == "__main__":
    main()
