#!/usr/bin/env python3
"""Best-of-k timings of nsvlab's numerical layers, as JSON.

Layers: the real-FFT transform pair (one velocity field at n = 64, and a
16-vector family on the 128^2 quadrature grid that rho_profile uses), the
dealiased nonlinear term (the kernel's u.grad w on the band) at n = 64, one
right-hand side and one RK4 step of the band streamfunction at n = 64, one
tangent-frame step per vector at n = 32 with 8 vectors on the forced flow and
with 4 vectors on the zero base, and alpha Gram-Schmidt of an 8-vector frame
at n = 32.  The transform pair and the nonlinear term are timed next to the
full complex FFTs and the velocity-form B(u,v) of tests/oracles.py.
The machine, CPU count and numpy version are recorded with the timings.

Example:
    PYTHONPATH=src python scripts/bench_layers.py --output BENCH.json
"""

import argparse
import json
import math
import os
import platform
import sys
import time
from pathlib import Path

import numpy as np

from nsvlab import dynamics as dyn
from nsvlab import inequalities as ineq
from nsvlab import lyapunov as lyp
from nsvlab import spectral as sp
from nsvlab.spectral import VELOCITY

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tests"))
import oracles  # noqa: E402  (the reference kernels live with the tests)

#: tries per layer; the best one is kept
REPEATS = 15


def best_of(fn, inner):
    """Smallest mean time of `inner` back-to-back calls, over REPEATS tries."""
    fn()
    times = []
    for _ in range(REPEATS):
        start = time.perf_counter()
        for _ in range(inner):
            fn()
        times.append((time.perf_counter() - start) / inner)
    return min(times)


def forced_cfg(n):
    """The benchmark's forced flow: Kolmogorov-type forcing at calG = 1000, alpha = 0.99 alpha0."""
    grid = sp.SpectralGrid(n)
    raw = [((0, 2), (1.0 / 2j, 0.0)), ((1, 1), (0.1, -0.1))]
    probe = dyn.ForcingSpec.from_modes(raw).build(grid)
    scale = 1000.0 / (4 * math.pi**2) / math.sqrt(sp.l2_norm_sq(probe))
    forcing = dyn.ForcingSpec.from_modes([(k, (a[0] * scale, a[1] * scale)) for k, a in raw])
    g_norm = math.sqrt(sp.l2_norm_sq(forcing.build(grid)))
    alpha = 0.99 * 4.0 / (g_norm * 4 * math.pi**2)
    return dyn.SimConfig(nu=1.0, alpha=alpha, grid=grid, dt=0.01, t_end=1.0, forcing=forcing,
                         initial=dyn.InitialSpec.random(seed=42, decay=3.0, amplitude=2.0))


def layers():
    out = {}

    def record(name, fn, inner=10, per=1):
        out[name] = best_of(fn, inner) / per

    grid = sp.SpectralGrid(64)
    u = sp.random_field(grid, VELOCITY, seed=1)
    record("fft_pair.n64.real", lambda: sp.from_physical(sp.to_physical(u.coeffs)))
    record("fft_pair.n64.complex_oracle",
           lambda: oracles.from_physical(oracles.to_physical(u.coeffs)))
    family = ineq.pad_coeffs(np.stack([sp.random_field(grid, VELOCITY, seed=s).coeffs
                                       for s in range(16)]), 128)
    record("to_physical.family16.q128.real", lambda: sp.to_physical(family), inner=2)
    record("to_physical.family16.q128.complex_oracle",
           lambda: oracles.to_physical(family), inner=2)

    psi = sp.stream_of(grid, u.coeffs)
    record("bilinear.n64.vorticity_form", lambda: sp.bilinear_coeffs(grid, psi))
    record("bilinear.n64.velocity_form_oracle", lambda: oracles.bilinear_b(u, u))

    cfg = forced_cfg(64)
    rhs, factors = dyn.stream_scheme(cfg, dyn.forcing_stream(cfg))
    c = dyn.initial_state(cfg)[0]
    record("rhs.n64", lambda: rhs(c))
    record("rk4_step.n64", lambda: dyn.rk4_step(rhs, c, cfg.dt, factors), inner=3)

    cfg = forced_cfg(32)
    rhs, factors = dyn.stream_scheme(cfg, dyn.forcing_stream(cfg))
    frame = lyp.TangentFrame.random(cfg.grid, 8, cfg.metric, seed=0)
    state = np.concatenate([dyn.initial_state(cfg)[0][None], frame.vectors])
    record("tangent_step_per_vector.n32.m8",
           lambda: dyn.rk4_step(rhs, state, cfg.dt, factors), inner=3, per=8)
    record("gram_schmidt.n32.m8",
           lambda: lyp.alpha_gram_schmidt(frame.vectors, frame.weights), inner=3)

    # the benchmark's zero-attractor frame: nu = alpha = 1, no forcing, dt = 0.1
    cfg = dyn.SimConfig(nu=1.0, alpha=1.0, grid=cfg.grid, dt=0.1, t_end=0.0)
    rhs, factors = dyn.stream_scheme(cfg, dyn.forcing_stream(cfg))
    frame = lyp.TangentFrame.random(cfg.grid, 4, cfg.metric, seed=0)
    state = np.concatenate([np.zeros((1,) + cfg.grid.band_shape, dtype=complex), frame.vectors])
    record("tangent_step_per_vector.zero_base.n32.m4",
           lambda: dyn.rk4_step(rhs, state, cfg.dt, factors), inner=100, per=4)
    return out


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--output", help="write the JSON here as well as to stdout")
    args = ap.parse_args()
    report = {
        "machine": {"platform": platform.platform(), "processor": platform.machine(),
                    "cpu_count": os.cpu_count(), "python": platform.python_version(),
                    "numpy": np.__version__},
        "method": f"best of {REPEATS} tries; each try is the mean of back-to-back calls",
        "unit": "s",
        "layers": layers(),
    }
    text = json.dumps(report, indent=2, sort_keys=True) + "\n"
    if args.output:
        Path(args.output).write_text(text)
    print(text, end="")


if __name__ == "__main__":
    main()
