"""The benchmark's three workloads.

Each workload has a set-up (timed as set-up), a timed section (run_s) whose
calls are timed one by one on a hostclock.Stopwatch, and checks on what the
timed section produced.  Sizes are fixed; the seed only
changes the generated inputs (initial fields, frame seeds, family seeds,
shear amplitudes), never the amount of work.
"""

from __future__ import annotations

import dataclasses
import json
import math
from pathlib import Path

import numpy as np

from nsvlab import bounds as B
from nsvlab import cli
from nsvlab import dynamics as dyn
from nsvlab import inequalities as ineq
from nsvlab import lattice
from nsvlab import lyapunov as lyp
from nsvlab import spectral as sp

import checks as C
import reference as R

NU = 1.0
CAL_G = 1000.0
SIM_N, SIM_DT = 64, 0.01                # forced-sim grid and step
SNAPSHOT_EVERY = 50                     # steps between snapshots, both legs
FRAME_N, FRAME_DT = 32, 0.01            # tangent-frame grid and forced step
LINEAR_DT = 0.1                         # zero-attractor step
FAMILY_GRID_N, FAMILY_N = 64, 16        # verify-sweep grid and family size
# criterion-7 forcing before scaling: rows [k1, k2, re0, im0, re1, im1]
RAW_MODES = ((0, 2, 0.0, -0.5, 0.0, 0.0), (1, 1, 0.1, 0.0, -0.1, 0.0))


def forcing_modes(n):
    """Criterion-7 modes scaled to cal-G = CAL_G at nu = 1; returns (rows, ||g||)."""
    target = CAL_G / R.TORUS_AREA
    scale = target / math.sqrt(R.energy(R.modes_to_coeffs(n, RAW_MODES), 0.0))
    rows = [[k1, k2] + [a * scale for a in amps] for k1, k2, *amps in RAW_MODES]
    return rows, math.sqrt(R.energy(R.modes_to_coeffs(n, rows), 0.0))


def alpha_for(g_norm):
    """0.99 alpha0, with alpha0 = |T^2| / (pi^2 cal-G) the largest alpha of the log-form bound."""
    return 0.99 * 4.0 / (g_norm * R.TORUS_AREA)


def _snapshots(directory):
    """{t: coefficients} of every snapshot_t<t>.field in a run directory."""
    out = {}
    for path in Path(directory).glob("snapshot_t*.field"):
        out[float(path.name[len("snapshot_t"):-len(".field")])] = R.read_field(path)
    return dict(sorted(out.items()))


def _check(name, fn):
    """Run one check; an exception while reading outputs fails the check."""
    try:
        ok, detail = fn()
    except (OSError, ValueError, KeyError, IndexError) as err:
        ok, detail = False, f"{type(err).__name__}: {err}"
    return {"name": name, "passed": ok, "detail": detail}


class ForcedSim:
    """`nsvlab simulate` in process at n = 64 on the criterion-7 forcing, then
    an alpha = 0 leg started from one of its snapshots."""

    name = "forced-sim"
    owns = ("sim.steps_per_s", "sim_ns.steps_per_s")

    def __init__(self, seed, steps=1520, pair=(100, 150), ns_steps=1200):
        # 1520 steps: the samples after the 5/gamma burn-in (t >= 5.1) span 10.1 >= 10/gamma
        self.seed, self.steps, self.pair, self.ns_steps = seed, steps, pair, ns_steps
        rng = np.random.default_rng([seed, 1])
        self.ic_seed = int(rng.integers(2**31))
        self.shear_amp = float(rng.uniform(0.5, 2.0))
        self.shear_m = 1 + seed % 2

    def _t(self, step):
        return f"{step * SIM_DT:.6g}"

    def setup(self, rdir):
        modes, g_norm = forcing_modes(SIM_N)
        alpha = alpha_for(g_norm)
        common = {"n": SIM_N, "nu": NU, "dt": SIM_DT, "sample_every": 10,
                  "forcing": {"kind": "modes", "modes": modes}}
        params = cli.parse_config("simulate", None, {
            **common, "alpha": alpha, "t_end": self.steps * SIM_DT,
            "snapshot_every": SNAPSHOT_EVERY,
            "initial": {"kind": "random", "seed": self.ic_seed, "decay": 3.0, "amplitude": 2.0}})
        start = rdir / "alpha" / f"snapshot_t{self._t(self.pair[1])}.field"
        ns_params = cli.parse_config("simulate", None, {
            **common, "alpha": 0.0, "t_end": self.ns_steps * SIM_DT,
            "snapshot_every": SNAPSHOT_EVERY,
            "initial": {"kind": "file", "path": str(start)}})
        return {"rdir": rdir, "modes": modes, "g_norm": g_norm, "alpha": alpha,
                "params": params, "ns_params": ns_params, "start": start}

    def run(self, ctx, sw):
        rdir = ctx["rdir"]
        code, t_sim = sw.time("simulate", cli.run, "simulate", ctx["params"], self.seed,
                              rdir / "alpha")
        ns_code, t_ns = sw.time("simulate alpha=0", cli.run, "simulate", ctx["ns_params"],
                                self.seed, rdir / "ns")
        return {"code": code, "ns_code": ns_code,
                "sim.steps_per_s": self.steps / t_sim,
                "sim_ns.steps_per_s": self.ns_steps / t_ns}

    def check(self, ctx, out):
        rdir, alpha, g_norm = ctx["rdir"], ctx["alpha"], ctx["g_norm"]
        g = R.modes_to_coeffs(SIM_N, ctx["modes"])
        snaps = _snapshots(rdir / "alpha")
        ns_snaps = _snapshots(rdir / "ns")
        csv = R.read_csv_columns(rdir / "alpha" / "diagnostics.csv")
        ns_csv = R.read_csv_columns(rdir / "ns" / "diagnostics.csv")
        manifest = json.loads((rdir / "ns" / "manifest.json").read_text())
        t1, t2 = (round(s * SIM_DT, 9) for s in self.pair)
        ns_t = round(SNAPSHOT_EVERY * SIM_DT, 9)
        ref = R.ForcedNSV(SIM_N, NU, alpha, g)
        ns_ref = R.ForcedNSV(SIM_N, NU, 0.0, g)
        return [
            _check("simulate exits 0", lambda: (out["code"] == 0, f"exit {out['code']}")),
            _check("alpha=0 leg exits 0", lambda: (
                out["ns_code"] == 0 and manifest["complete"], f"exit {out['ns_code']}")),
            _check("reference RK4 step", lambda: C.matches_reference(
                snaps[t2], ref.rk4(snaps[t1], SIM_DT, self.pair[1] - self.pair[0]), snaps[t1])),
            _check("reference IF-RK4 step", lambda: C.matches_reference(
                ns_snaps[ns_t], ns_ref.if_rk4(ns_snaps[0.0], SIM_DT, SNAPSHOT_EVERY),
                ns_snaps[0.0])),
            _check("snapshots band-limited and divergence-free", lambda: min(
                (C.band_limited_divergence_free(c) for c in
                 list(snaps.values()) + list(ns_snaps.values())), key=lambda r: r[0])),
            _check("CSV alpha-energy equals snapshot energy", lambda: C.csv_energy_matches(
                csv["t"], csv["energy_alpha"], snaps, alpha)),
            _check("alpha=0 CSV energy equals snapshot energy", lambda: C.csv_energy_matches(
                ns_csv["t"], ns_csv["energy_alpha"], ns_snaps, 0.0)),
            _check("dissipative envelope", lambda: C.dissipative_envelope(
                csv["t"], csv["energy_alpha"], NU, alpha, g_norm)),
            _check("alpha=0 dissipative envelope", lambda: C.dissipative_envelope(
                ns_csv["t"], ns_csv["energy_alpha"], NU, 0.0, g_norm)),
            _check("mean-enstrophy bound", lambda: C.mean_enstrophy(
                csv["t"], csv["enstrophy"], csv["energy_alpha"], NU, alpha, g_norm)),
            _check("alpha=0 leg reads its snapshot bit-exactly", lambda: C.bit_exact(
                ns_snaps[0.0], R.read_field(ctx["start"]))),
            _check("shear mode decay, alpha > 0", lambda: self._shear(alpha, 1e-6)),
            _check("shear mode decay, alpha = 0", lambda: self._shear(0.0, 1e-12)),
        ]

    def _shear(self, alpha, tol):
        m, amp = self.shear_m, self.shear_amp
        cfg = dyn.SimConfig(nu=NU, alpha=alpha, grid=sp.SpectralGrid(16), dt=0.01, t_end=1.0,
                            initial=dyn.InitialSpec.shear(amp, m))
        a1 = dyn.integrate(cfg).final.coeffs[0, 0, m]
        return C.shear_decay(amp / 2j, a1, NU, alpha, m * m, 1.0, tol)


class TangentFrames:
    """evolve_tangent_frame at n = 32: an 8-vector frame on the forced flow
    (base spun up by dynamics.integrate), then a 4-vector frame on the zero
    attractor at nu = alpha = 1."""

    name = "tangent-frame"
    owns = ("tangent.steps_per_s", "tangent_linear.steps_per_s")

    def __init__(self, seed, spinup_steps=500, steps=150, linear_steps=1600, linear_burn_in=90.0):
        self.seed, self.spinup_steps, self.steps = seed, spinup_steps, steps
        self.linear_steps, self.linear_burn_in = linear_steps, linear_burn_in
        rng = np.random.default_rng([seed, 2])
        self.ic_seed, self.frame_seed, self.linear_seed = (int(s) for s in rng.integers(2**31, size=3))

    def setup(self, rdir):
        grid = sp.SpectralGrid(FRAME_N)
        modes, g_norm = forcing_modes(FRAME_N)
        alpha = alpha_for(g_norm)
        forcing = dyn.ForcingSpec.from_modes(
            [((k1, k2), (r0 + 1j * i0, r1 + 1j * i1)) for k1, k2, r0, i0, r1, i1 in modes])
        spinup = dyn.SimConfig(nu=NU, alpha=alpha, grid=grid, dt=FRAME_DT,
                               t_end=self.spinup_steps * FRAME_DT, forcing=forcing,
                               initial=dyn.InitialSpec.random(self.ic_seed, decay=3.0, amplitude=2.0))
        zero = dyn.SimConfig(nu=1.0, alpha=1.0, grid=grid, dt=LINEAR_DT, t_end=0.0)
        return {"spinup": spinup, "zero": zero, "g_norm": g_norm, "alpha": alpha}

    def run(self, ctx, sw):
        base, _ = sw.time("spin-up", dyn.integrate, ctx["spinup"])
        cfg = dataclasses.replace(ctx["spinup"], initial=dyn.InitialSpec.from_field(base.final))
        forced, t_forced = sw.time("forced frame", lyp.evolve_tangent_frame, cfg, 8,
                                   t_end=self.steps * FRAME_DT, seed=self.frame_seed)
        linear, t_linear = sw.time("zero-attractor frame", lyp.evolve_tangent_frame,
                                   ctx["zero"], 4, t_end=self.linear_steps * LINEAR_DT,
                                   burn_in=self.linear_burn_in, seed=self.linear_seed)
        return {"forced": forced, "linear": linear,
                "tangent.steps_per_s": self.steps / t_forced,
                "tangent_linear.steps_per_s": self.linear_steps / t_linear}

    def check(self, ctx, out):
        forced, linear = out["forced"], out["linear"]
        bound = B.bound_2d_log(B.BoundsInput(d=2, nu=NU, alpha=ctx["alpha"], g_norm=ctx["g_norm"]))
        return [
            _check("zero-attractor exponents", lambda: C.zero_attractor_exponents(
                linear.exponents, linear.q_hat, 1.0, 1.0)),
            _check("Liouville: exponent sum equals q_hat(8)", lambda: C.liouville(
                forced.exponents, forced.q_hat)),
            _check("dimension below the log-form bound", lambda: C.dimension_below_bound(
                forced.exponents, bound.value)),
        ]


class VerifySweep:
    """The three density sweeps on 16-vector families at grid 64, then the
    lattice eigenvalue, Li-Yau and spectral-sum verifiers."""

    name = "verify-sweep"
    owns = ("verify.families_per_s",)
    ALPHAS = (0.01, 0.1, 1.0)
    COUNT_AT = (1, 2, 5, 10, 25, 50, 100, 1000)

    def __init__(self, seed, families=4, with_lattice=True):
        self.seed, self.families, self.with_lattice = seed, families, with_lattice
        rng = np.random.default_rng([seed, 3])
        self.first_seed = int(rng.integers(2**20))
        self.amps = rng.uniform(0.5, 2.0, size=2)
        self.shear_m = int(rng.integers(1, 5))

    def setup(self, rdir):
        return {"grid": sp.SpectralGrid(FAMILY_GRID_N),
                "seeds": range(self.first_seed, self.first_seed + self.families)}

    def run(self, ctx, sw):
        grid, seeds = ctx["grid"], ctx["seeds"]
        timed = [
            sw.time("lt sweep", ineq.run_lt_sweep, grid, seeds, n=FAMILY_N),
            sw.time("rho-l2 sweep", ineq.run_rho_l2_sweep, grid, seeds, alphas=self.ALPHAS,
                    n=FAMILY_N),
            sw.time("rho-linf sweep", ineq.run_rho_linf_sweep, grid, seeds,
                    lam_caps=range(1, 65), n=FAMILY_N),
        ]
        reports = []
        if self.with_lattice:
            reports, _ = sw.time("lattice", lambda: [
                lattice.verify_eigenvalue_bounds(100_000), lattice.verify_liyau(10_000),
                lattice.verify_spectral_sums(10_000)])
        families = self.families * (2 + len(self.ALPHAS))
        return {"sweeps": [s for s, _ in timed], "lattice": reports,
                "verify.families_per_s": families / sum(t for _, t in timed)}

    def check(self, ctx, out):
        grid = ctx["grid"]
        ratios = [r.ratio for s in out["sweeps"] for r in s.reports]
        verdicts = [s.all_passed for s in out["sweeps"]] + [r.passed for r in out["lattice"]]
        return [
            _check("program verdicts pass", lambda: (all(verdicts), f"{verdicts}")),
            _check("every ratio in (0, 1]", lambda: C.ratios_in_unit_interval(ratios)),
            _check("shear mode: integral rho^2 = 3/(8 pi^2)", lambda: C.close(
                ineq.rho_profile(self._shear_family(), grid).integral(2.0),
                C.shear_density_integral(), "integral rho^2")),
            _check("|k| = 1 modes: constant rho", lambda: self._constant_rho(grid)),
            _check("N(E) by enumeration", lambda: C.counts_equal(
                [R.count_eigenvalues(e) for e in self.COUNT_AT],
                lattice.LatticeSpectrum(max_e=max(self.COUNT_AT)).counting(list(self.COUNT_AT)))),
        ]

    def _shear_family(self):
        n, m = FAMILY_GRID_N, self.shear_m
        c = np.zeros((1, 2, n, n), dtype=complex)
        amp = 1.0 / math.sqrt(2 * math.pi**2) / 2j   # (c sin(m y), 0) with ||u|| = 1
        c[0, 0, 0, m], c[0, 0, 0, -m] = amp, np.conj(amp)
        return c

    def _four_mode_family(self):
        """(0, a cos x), (0, a sin x), (b cos y, 0), (b sin y, 0): rho = a^2 + b^2."""
        n = FAMILY_GRID_N
        a, b = self.amps
        c = np.zeros((4, 2, n, n), dtype=complex)
        for j, (comp, k, amp) in enumerate(((1, (1, 0), a / 2), (1, (1, 0), a / 2j),
                                            (0, (0, 1), b / 2), (0, (0, 1), b / 2j))):
            c[j, comp][k] = amp
            c[j, comp][-k[0] % n, -k[1] % n] = np.conj(amp)
        return c

    def _constant_rho(self, grid):
        fam = self._four_mode_family()
        prof = ineq.rho_profile(fam, grid)
        integral, peak = C.constant_density([R.energy(v, 0.0) for v in fam])
        ok_int, d_int = C.close(prof.integral(2.0), integral, "integral rho^2")
        ok_max, d_max = C.close(prof.max(), peak, "max rho")
        return ok_int and ok_max, f"{d_int}; {d_max}"


WORKLOADS = {w.name: w for w in (ForcedSim, TangentFrames, VerifySweep)}

#: small fixed-size runs of each workload's timed section, used to report its
#: throughput metrics on the other workloads (see README)
PROBES = {
    ForcedSim.name: dict(steps=250, pair=(0, 50), ns_steps=250),
    TangentFrames.name: dict(spinup_steps=10, steps=120, linear_steps=2400, linear_burn_in=10.0),
    VerifySweep.name: dict(families=2, with_lattice=False),
}
