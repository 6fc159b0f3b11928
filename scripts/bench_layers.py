#!/usr/bin/env python3
"""Best-of-k timings of nsvlab's numerical layers, as JSON.

Layers: the real-FFT transform pair (one velocity field at n = 64, and a
16-vector family on the 128^2 grid that the sup-norm check reads), the
family density rho_profile of a 16-vector velocity family at n = 64 on the
default 90^2 grid (the smallest exact one for rho^2) and the x2 and x4 grids,
given on the band (as the verifiers hold it) and in the full layout, the
lattice spectrum's multiplicity table up to |k|^2 = 1024, the spectral-sum
verifier at L = 10^4 (next to the sorted-list sums of tests/oracles.py) and
the eigenvalue-bound verifier at j = 10^5, the
dealiased nonlinear term (the kernel's u.grad w on the band) at n = 64 and on
frame stacks (base and m vectors) at n = 32 with m = 8, n = 48 with m = 4 and
m = 5, and n = 64 with m = 9, on fresh arrays and on a reused workspace, one
right-hand side and one RK4 step of the band streamfunction at n = 64 (and
one integrating-factor RK4 step of the same flow at alpha = 0), the snapshot
writer on one n = 64 state of that flow (fieldio.save_field, next to the
per-coefficient text of tests/oracles.py written the same way), one
tangent-frame step per vector at n = 32 with 8 vectors on the forced flow and
with 4 vectors on the zero base, alpha Gram-Schmidt (CGS2) of an 8-vector
frame at n = 32 and of 16-vector velocity and scalar families on the n = 64
band, one whole sample_suborthonormal of a 16-vector family at n = 64, one
stacked random_band draw of 16 velocity fields at n = 64, the three
sweeps on 16-vector families at grid 64 and 4 seeds (run_lt_sweep,
run_rho_l2_sweep with 3 alphas, run_rho_linf_sweep with caps 1..64), and
the trace diagonal of an 8-vector frame at n = 32 on the forced flow and of
a 4-vector frame on the zero base.  The transform pair, the nonlinear term,
the family Gram-Schmidt and draw, the stacked draw, the sweeps, the x2 band
density and the trace diagonal are timed next to the full complex FFTs, the
velocity-form B(u,v) (at n = 64) and the advective-form and allocating band
kernels (on the stacks), the full-layout draw with modified Gram-Schmidt, 16 per-vector
draws, the sweep drawing every (alpha, seed) family afresh, each sweep
checking one family after another on one thread, the density of the whole
stack at once and the per-row trace of tests/oracles.py.
The machine, CPU count and numpy version are recorded with the timings.
Beside the best-of wall time of each sweep and density row is the process
CPU time per call in that try, every thread's (getrusage(RUSAGE_SELF)), and
beside the x2 density grids, the two lattice verifiers and the two snapshot
writers the tracemalloc peak of one call.  Rows from different runs compare
only in alternated repeat runs: the host's speed drifts between runs.

With --rows fresh (or all), three `nsvlab` commands are also timed, each in
a process of its own, which is where the cost of memory handed back to the
kernel and faulted in again shows: the c9 probe (`lyapunov` with a 4-vector
frame at n = 48 on the forced flow at calG = 3.2e4, dt = 0.003, 10 units of
warmup, a 20-unit window and a 5-unit burn-in), `lyapunov` with an 8-vector
frame at n = 64, alpha = 0.1, dt = 0.005 and a 6-unit window, and
`simulate` at n = 64 (1520 steps).  Each row holds the wall time and, from
getrusage(RUSAGE_CHILDREN), the user and system time and the minor page
faults.  The commands import nsvlab as this process does (PYTHONPATH).

Example:
    PYTHONPATH=src python scripts/bench_layers.py --output BENCH.json
    PYTHONPATH=src python scripts/bench_layers.py --rows fresh
"""

import argparse
import dataclasses
import json
import math
import os
import platform
import resource
import subprocess
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path

import numpy as np

from nsvlab import dynamics as dyn
from nsvlab import fieldio
from nsvlab import inequalities as ineq
from nsvlab import lattice
from nsvlab import lyapunov as lyp
from nsvlab import spectral as sp
from nsvlab.spectral import VELOCITY, VORTICITY

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tests"))
import oracles  # noqa: E402  (the reference kernels live with the tests)

#: tries per layer; the best one is kept
REPEATS = 15


def process_cpu_s():
    """The CPU time this process has used, every thread's, user and system."""
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def best_of(fn, inner):
    """Smallest mean time of `inner` back-to-back calls over REPEATS tries, and
    the process CPU time per call in that try."""
    fn()
    tries = []
    for _ in range(REPEATS):
        cpu, start = process_cpu_s(), time.perf_counter()
        for _ in range(inner):
            fn()
        tries.append(((time.perf_counter() - start) / inner, (process_cpu_s() - cpu) / inner))
    return min(tries)


def forced_cfg(n, cal_g=1000.0, dt=0.01):
    """The benchmark's forced flow: Kolmogorov-type forcing at calG = cal_g, alpha = 0.99 alpha0."""
    grid = sp.SpectralGrid(n)
    forcing, g_norm = oracles.c7_forcing(grid, cal_g)
    alpha = 0.99 * 4.0 / (g_norm * 4 * math.pi**2)
    return dyn.SimConfig(nu=1.0, alpha=alpha, grid=grid, dt=dt, t_end=1.0, forcing=forcing,
                         initial=dyn.InitialSpec.random(seed=42, decay=3.0, amplitude=2.0))


def c9_config():
    """The c9 probe as an `nsvlab lyapunov` configuration (the frame seed is 5)."""
    cfg = forced_cfg(48, cal_g=3.2e4, dt=0.003)
    modes = [[k1, k2, a.real, a.imag, b.real, b.imag] for (k1, k2), (a, b) in cfg.forcing.modes]
    return {"n": 48, "nu": cfg.nu, "alpha": cfg.alpha, "dt": cfg.dt, "frame_n": 4,
            "window": 20.0, "warmup": 10.0, "burn_in": 5.0,
            "forcing": {"kind": "modes", "modes": modes},
            "initial": {"kind": "random", "seed": 42, "decay": 3.0, "amplitude": 2.0}}


#: fresh-process rows: name -> `nsvlab` arguments (a config file named by
#: "{config}" holds c9_config())
FRESH = {
    "c9_probe.n48.m4": ["lyapunov", "--config", "{config}", "--seed", "5"],
    "cli.lyapunov.n64.m8": [
        "lyapunov", "--n", "64", "--frame-n", "8", "--alpha", "0.1", "--dt", "0.005",
        "--window", "6", "--forcing-kind", "shear", "--forcing-amplitude", "5.7",
        "--initial-kind", "random"],
    "cli.simulate.n64": [
        "simulate", "--n", "64", "--alpha", "0.004", "--dt", "0.01", "--t-end", "15.2",
        "--forcing-kind", "shear", "--forcing-amplitude", "5.7", "--initial-kind", "random",
        "--snapshot-every", "50"],
}


def fresh_process():
    """name -> {wall_s, user_s, sys_s, minor_faults} of each FRESH run, each
    `python -m nsvlab.cli` in a process of its own."""
    rows = {}
    for name, args in FRESH.items():
        with tempfile.TemporaryDirectory() as out:
            config = Path(out) / "c9.json"
            config.write_text(json.dumps(c9_config()))
            command = [sys.executable, "-m", "nsvlab.cli"] + [a.format(config=config) for a in args]
            before = resource.getrusage(resource.RUSAGE_CHILDREN)
            start = time.perf_counter()
            subprocess.run(command + ["--output-dir", out], check=True, stdout=subprocess.DEVNULL,
                           stderr=subprocess.DEVNULL)
            wall = time.perf_counter() - start
            after = resource.getrusage(resource.RUSAGE_CHILDREN)
        rows[name] = {"wall_s": wall, "user_s": after.ru_utime - before.ru_utime,
                      "sys_s": after.ru_stime - before.ru_stime,
                      "minor_faults": after.ru_minflt - before.ru_minflt}
    return rows


def traced_peak_mb(fn):
    """tracemalloc's peak over one call, in MB."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1] / 1e6
    finally:
        tracemalloc.stop()


def layers():
    """(best-of times in s, their process CPU times in s, traced peaks in MB)
    by layer name."""
    out, cpu_s, peaks = {}, {}, {}

    def record(name, fn, inner=10, per=1, peak=False, cpu=False):
        wall, cpu_time = best_of(fn, inner)
        out[name] = wall / per
        if cpu:
            cpu_s[name] = cpu_time / per
        if peak:
            peaks[name] = traced_peak_mb(fn)

    grid = sp.SpectralGrid(64)
    u = sp.random_field(grid, VELOCITY, seed=1)
    record("fft_pair.n64.real", lambda: sp.from_physical(sp.to_physical(u.coeffs)))
    record("fft_pair.n64.complex_oracle",
           lambda: oracles.from_physical(oracles.to_physical(u.coeffs)))
    vectors = np.stack([sp.random_field(grid, VELOCITY, seed=s).coeffs for s in range(16)])
    family = oracles.pad_coeffs(vectors, 128)
    record("to_physical.family16.q128.real", lambda: sp.to_physical(family), inner=2)
    record("to_physical.family16.q128.complex_oracle",
           lambda: oracles.to_physical(family), inner=2)
    band = sp.band_of(grid, vectors)
    for tag, given in (("", vectors), (".band", band)):
        record(f"rho_profile.family16.n64.exact{tag}", lambda: ineq.rho_profile(given, grid),
               inner=2, cpu=True)
        record(f"rho_profile.family16.n64.q2{tag}",
               lambda: ineq.rho_profile(given, grid, quad_factor=2), inner=2, peak=True, cpu=True)
        record(f"rho_profile.family16.n64.q4{tag}",
               lambda: ineq.rho_profile(given, grid, quad_factor=4), inner=2, cpu=True)
    record("rho_profile.family16.n64.q2.band.whole_stack_oracle",
           lambda: oracles.whole_stack_rho_profile(band, grid, quad_factor=2), inner=2, peak=True,
           cpu=True)
    record("lattice.enumerate", lambda: lattice.LatticeSpectrum(max_e=1024), inner=10)
    record("lattice.verify_spectral_sums.L10000",
           lambda: lattice.verify_spectral_sums(10_000), inner=2, peak=True)
    record("lattice.verify_spectral_sums.L10000.sorted_oracle",
           lambda: oracles.spectral_sums(10_000), inner=2, peak=True)
    record("lattice.verify_eigenvalue_bounds.j100000",
           lambda: lattice.verify_eigenvalue_bounds(100_000), inner=2, peak=True)

    metric = sp.AlphaMetric(1.0)
    weights = grid.band_count * (1.0 + metric.alpha * grid.band_k2)
    full_weights = oracles.alpha_weights(metric, grid)
    for role, tag in ((VELOCITY, "velocity"), (VORTICITY, "scalar")):
        bands = sp.random_band(grid, role, 2.0, np.random.default_rng(0), (16,))
        full = sp.full_layout(sp.half_of(grid, bands))
        record(f"gram_schmidt.family16.n64.{tag}",
               lambda: lyp.alpha_gram_schmidt(bands, weights), inner=3)
        record(f"gram_schmidt.family16.n64.{tag}.mgs_full_layout_oracle",
               lambda: oracles.mgs_gram_schmidt(full, full_weights), inner=1)
    record("sample_suborthonormal.family16.n64",
           lambda: ineq.sample_suborthonormal(grid, 16, seed=0), inner=2)
    record("sample_suborthonormal.family16.n64.full_layout_oracle",
           lambda: oracles.sample_alpha_orthonormal(grid, 16, 0, VELOCITY, metric), inner=1)
    record("random_band.stack16.n64",
           lambda: sp.random_band(grid, VELOCITY, 2.0, np.random.default_rng(0), (16,)), inner=3)
    record("random_band.stack16.n64.per_vector_oracle",
           lambda: oracles.per_vector_bands(grid, VELOCITY, 2.0, np.random.default_rng(0), 16),
           inner=3)
    sweep_args = (grid, range(4), (0.01, 0.1, 1.0), 16)
    record("run_rho_l2_sweep.seeds4.alphas3.family16.n64",
           lambda: ineq.run_rho_l2_sweep(*sweep_args), inner=1, cpu=True)
    record("run_rho_l2_sweep.seeds4.alphas3.family16.n64.alpha_major_oracle",
           lambda: oracles.alpha_major_rho_l2_sweep(*sweep_args), inner=1, cpu=True)
    record("run_rho_l2_sweep.seeds4.alphas3.family16.n64.sequential_oracle",
           lambda: oracles.sequential_rho_l2_sweep(*sweep_args), inner=1, cpu=True)
    for sweep, sequential, tag, args in (
            (ineq.run_lt_sweep, oracles.sequential_lt_sweep, "run_lt_sweep.seeds4", ()),
            (ineq.run_rho_linf_sweep, oracles.sequential_rho_linf_sweep,
             "run_rho_linf_sweep.seeds4.caps64", (range(1, 65),))):
        record(f"{tag}.family16.n64", lambda: sweep(grid, range(4), *args, n=16), inner=1,
               cpu=True)
        record(f"{tag}.family16.n64.sequential_oracle",
               lambda: sequential(grid, range(4), *args, n=16), inner=1, cpu=True)

    psi = sp.stream_of(grid, u.coeffs)
    record("bilinear.n64.vorticity_form", lambda: sp.bilinear_coeffs(grid, psi))
    record("bilinear.n64.velocity_form_oracle", lambda: oracles.bilinear_b(u, u))
    for n, m in ((32, 8), (48, 4), (48, 5), (64, 9)):
        g = sp.SpectralGrid(n)
        stack = sp.random_band(g, VORTICITY, 3.0, np.random.default_rng(n), (m + 1,))
        work = sp.KernelWorkspace(g, m + 1)
        record(f"bilinear.n{n}.m{m}", lambda: sp.bilinear_coeffs(g, stack))
        record(f"bilinear.n{n}.m{m}.workspace", lambda: sp.bilinear_coeffs(g, stack, work))
        record(f"bilinear.n{n}.m{m}.allocating_oracle",
               lambda: oracles.allocating_bilinear_coeffs(g, stack))
        record(f"bilinear.n{n}.m{m}.advective_oracle",
               lambda: oracles.advective_bilinear_coeffs(g, stack))

    cfg = forced_cfg(64)
    rhs, factors = dyn.stream_scheme(cfg)
    c = dyn.initial_state(cfg)[0]
    k, new = np.empty_like(c), np.empty_like(c)
    record("rhs.n64", lambda: rhs(c, k))
    record("rk4_step.n64", lambda: dyn.rk4_step(rhs, c, cfg.dt, factors, new), inner=3)
    # the same flow at alpha = 0: the integrating-factor step
    cfg = dataclasses.replace(cfg, alpha=0.0)
    rhs, factors = dyn.stream_scheme(cfg)
    record("rk4_step.n64.alpha0", lambda: dyn.rk4_step(rhs, c, cfg.dt, factors, new), inner=3)

    # one snapshot of the forced flow at n = 64 (t = 1), as forced-sim writes it
    cfg = forced_cfg(64)
    snap = dyn.integrate(cfg).final
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "snapshot.field"
        record("fieldio.save_field.n64", lambda: fieldio.save_field(snap, path, cfg.alpha),
               peak=True)
        record("fieldio.save_field.n64.per_coefficient_oracle",
               lambda: fieldio.atomic_write_text(path, oracles.save_field_text(snap, cfg.alpha)),
               peak=True)

    cfg = forced_cfg(32)
    rhs, factors = dyn.stream_scheme(cfg)
    frame = lyp.TangentFrame.random(cfg.grid, 8, cfg.metric, seed=0)
    state = np.concatenate([dyn.initial_state(cfg)[0][None], frame.vectors])
    new = np.empty_like(state)
    record("tangent_step_per_vector.n32.m8",
           lambda: dyn.rk4_step(rhs, state, cfg.dt, factors, new), inner=3, per=8)
    record("gram_schmidt.n32.m8",
           lambda: lyp.alpha_gram_schmidt(frame.vectors, frame.weights), inner=3)
    multipliers = dyn.stream_multipliers(cfg)
    record("trace_diagonal.n32.m8",
           lambda: lyp.trace_diagonal(cfg.grid, multipliers, state, frame.weights))
    record("trace_diagonal.n32.m8.per_row_oracle",
           lambda: oracles.trace_diagonal(cfg, state, frame.weights))

    # the benchmark's zero-attractor frame: nu = alpha = 1, no forcing, dt = 0.1
    cfg = dyn.SimConfig(nu=1.0, alpha=1.0, grid=cfg.grid, dt=0.1, t_end=0.0)
    rhs, factors = dyn.stream_scheme(cfg)
    frame = lyp.TangentFrame.random(cfg.grid, 4, cfg.metric, seed=0)
    state = np.concatenate([np.zeros((1,) + cfg.grid.band_shape, dtype=complex), frame.vectors])
    new = np.empty_like(state)
    record("tangent_step_per_vector.zero_base.n32.m4",
           lambda: dyn.rk4_step(rhs, state, cfg.dt, factors, new), inner=100, per=4)
    multipliers = dyn.stream_multipliers(cfg)
    record("trace_diagonal.zero_base.n32.m4",
           lambda: lyp.trace_diagonal(cfg.grid, multipliers, state, frame.weights), inner=100)
    record("trace_diagonal.zero_base.n32.m4.per_row_oracle",
           lambda: oracles.trace_diagonal(cfg, state, frame.weights), inner=100)
    return out, cpu_s, peaks


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--output", help="write the JSON here as well as to stdout")
    ap.add_argument("--rows", choices=("layers", "fresh", "all"), default="layers",
                    help="in-process layer timings, fresh-process runs, or both")
    args = ap.parse_args()
    report = {
        "machine": {"platform": platform.platform(), "processor": platform.machine(),
                    "cpu_count": os.cpu_count(), "python": platform.python_version(),
                    "numpy": np.__version__},
    }
    if args.rows in ("layers", "all"):
        timings, cpu_s, peaks = layers()
        report.update({
            "method": f"best of {REPEATS} tries; each try is the mean of back-to-back calls",
            "unit": "s",
            "layers": timings,
            "process_cpu_s": cpu_s,
            "traced_peak_mb": peaks,
        })
    if args.rows in ("fresh", "all"):
        report["fresh_process"] = fresh_process()
    text = json.dumps(report, indent=2, sort_keys=True) + "\n"
    if args.output:
        Path(args.output).write_text(text)
    print(text, end="")


if __name__ == "__main__":
    main()
