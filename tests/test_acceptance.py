"""Acceptance criteria, one test per claim, each printing a PASS/FAIL line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion lines.
Criterion 2c checks the log-form crossover at the equality point of the
printed branch constants (1.73e8) and holds the published 2.6e8 as an asserted
erratum: that figure reproduces only with a log coefficient of 8.5 in place of
7.46 (see README).
"""

import math

import numpy as np
import pytest

from nsvlab import bounds as B
from nsvlab import dynamics as dyn
from nsvlab import inequalities as ineq
from nsvlab import lattice
from nsvlab import lyapunov as lyp
from nsvlab import spectral as sp
from nsvlab.spectral import VELOCITY, VORTICITY, AlphaMetric, SpectralGrid

import oracles


def report(criterion: str, passed: bool, detail: str = ""):
    tag = "PASS" if passed else "FAIL"
    print(f"[{tag}] {criterion}: {detail}")
    return passed


# ----------------------------------------------------------------------------
# 1. constants regression

def test_c1_constants_regression():
    """Exact symbolic constants reproduce every printed decimal summary.

    The printed values are upward roundings at their printed precision (an
    upper bound's summary may not round down), so the regression compares
    the ceiling of the exact constant with the summary, within +-0.005.
    """
    failures = []
    for name, exact, decimals, printed in B.DECIMAL_SUMMARIES:
        summary = oracles.ceil_at(exact, decimals)
        if abs(summary - printed) > 0.005:
            failures.append(f"{name}: exact {exact:.6f} -> summary {summary} != {printed}")
    ok = report("criterion 1 (constants regression)", not failures,
                f"{len(B.DECIMAL_SUMMARIES)} constants checked" if not failures else "; ".join(failures))
    assert ok


# ----------------------------------------------------------------------------
# 2. thresholds

def test_c2a_g0_root():
    th = B.compute_thresholds()
    ok = abs(th.g0 - 6000) <= 0.05 * 6000
    report("criterion 2a (self-consistency root, 5.74 offset)", ok,
           f"g0 = {th.g0:.1f} (target 6000 +- 5%); 5.24 variant = {th.g0_variant_524:.1f}")
    assert ok


def test_c2b_crossover_classical():
    th = B.compute_thresholds()
    ok = abs(th.crossover_classical - 1.14e8) <= 0.05 * 1.14e8
    report("criterion 2b (classical-form crossover)", ok,
           f"{th.crossover_classical:.4g} (target 1.14e8 +- 5%)")
    assert ok


def test_c2c_crossover_log_form():
    # Equality point of the printed branches 0.039 x = 7.46 x^(2/3) (ln x + 5.74)^(1/3),
    # where the min in bound_2d_log switches from the linear to the log branch.
    # The published summary value 2.6e8 is an erratum: it lies outside +-5% of
    # that point and the same bisection reaches it only with 8.5 in place of 7.46.
    printed = {name: value for name, _, _, value in B.DECIMAL_SUMMARIES}
    c1, c2, b = printed["linear_torus"], printed["log_coeff"], printed["log_offset"]

    def crossover(log_coeff):
        return B.bisect_root(
            lambda x: c1 * x - log_coeff * x ** (2 / 3) * (math.log(x) + b) ** (1 / 3),
            1e6, 1e12)

    def branch_at(calg):
        entry = B.bound_2d_log(B.BoundsInput(d=2, nu=1.0, alpha=0.0,
                                             g_norm=calg / (4 * math.pi**2)))
        return entry.detail.removeprefix("min attained by ").split(" ", 1)[0]

    cross = B.compute_thresholds().crossover_log_vs_linear
    at_printed = (abs(cross - 1.73e8) <= 0.05 * 1.73e8
                  and cross == pytest.approx(crossover(c2), rel=1e-9))
    below, above = branch_at(0.95 * cross), branch_at(1.05 * cross)
    switches = (below, above) == ("linear", "log")
    stale = crossover(8.5)
    erratum = (abs(2.6e8 - cross) > 0.05 * cross
               and abs(stale - 2.6e8) <= 0.05 * 2.6e8)
    ok = at_printed and switches and erratum
    report("criterion 2c (log-form crossover)", ok,
           f"computed {cross:.4g} (target 1.73e8 +- 5%); min attained by {below} "
           f"at 0.95x, {above} at 1.05x; published 2.6e8 is an erratum "
           f"(outside +- 5%; log coefficient 8.5 instead of {c2} gives {stale:.4g})")
    assert ok


# ----------------------------------------------------------------------------
# 3. spectrum verification

def test_c3_spectrum_and_liyau():
    spec_rep = lattice.verify_eigenvalue_bounds(100_000)
    liyau_rep = lattice.verify_liyau(10_000)
    # N(E) <= 4E over 1 <= E <= 1e4 plus the disk sandwich are inside
    # verify_eigenvalue_bounds (its integer-E range reaches lambda_{1e5} > 1e4)
    ok = spec_rep.passed and liyau_rep.passed and spec_rep.sandwich_checked_e >= 10_000
    report("criterion 3 (spectrum verification)", ok,
           f"lambda_j in [j/4, j/2] for j <= 1e5, sandwich+counting for E <= "
           f"{spec_rep.sandwich_checked_e}, partial sums for m <= 1e4; "
           f"{len(spec_rep.violations) + len(liyau_rep.violations)} violations")
    assert ok


# ----------------------------------------------------------------------------
# 4. analytic dynamics

GRID64 = SpectralGrid(64)


def test_c4_analytic_dynamics():
    # free decay: nu=1, alpha=1, single shear mode, exact e^{-t/2}
    decay_cfg = dyn.SimConfig(nu=1.0, alpha=1.0, grid=GRID64, dt=1e-3, t_end=1.0,
                              initial=dyn.InitialSpec.shear(1.0), sample_every=100)
    decay = dyn.integrate(decay_cfg)
    exact = sp.shear_field(GRID64, math.exp(-0.5))
    decay_err = (np.max(np.abs(decay.final.coeffs - exact.coeffs))
                 / np.max(np.abs(exact.coeffs)))

    # steady shear: g = nu (sin x2, 0) is an exact fixed point
    steady_cfg = dyn.SimConfig(nu=1.0, alpha=1.0, grid=GRID64, dt=1e-3, t_end=1.0,
                               forcing=dyn.ForcingSpec.shear(1.0),
                               initial=dyn.InitialSpec.shear(1.0), sample_every=100)
    steady = dyn.integrate(steady_cfg)
    drift = np.max(np.abs(steady.final.coeffs - sp.shear_field(GRID64, 1.0).coeffs))

    bound_decay = dyn.check_dissipative_bound(decay.diagnostics, decay_cfg)
    bound_steady = dyn.check_dissipative_bound(steady.diagnostics, steady_cfg)

    ok = (decay_err <= 1e-6 and drift <= 1e-10
          and bound_decay.passed and bound_steady.passed)
    report("criterion 4 (analytic dynamics)", ok,
           f"decay err {decay_err:.2e} (<=1e-6), drift {drift:.2e} (<=1e-10), "
           f"envelope violations {bound_decay.max_violation:.2e}/"
           f"{bound_steady.max_violation:.2e}")
    assert ok


# ----------------------------------------------------------------------------
# 5. zero-attractor Lyapunov spectrum

def test_c5_zero_attractor_spectrum():
    grid = SpectralGrid(32)
    cfg = dyn.SimConfig(nu=1.0, alpha=1.0, grid=grid, dt=0.01, t_end=1.0)
    run8 = lyp.evolve_tangent_frame(cfg, 8, 160.0, burn_in=110.0, seed=3)
    got = np.sort(run8.exponents)[::-1]
    want = np.array([-0.5] * 4 + [-2.0 / 3.0] * 4)
    exp_err = float(np.max(np.abs(got - want)))

    run4 = lyp.evolve_tangent_frame(cfg, 4, 160.0, burn_in=110.0, seed=3)
    q4_err = abs(run4.q_hat + 2.0)

    ok = exp_err <= 1e-6 and q4_err <= 1e-6
    report("criterion 5 (zero-attractor spectrum)", ok,
           f"max exponent err {exp_err:.2e}, q_hat(4) err {q4_err:.2e} (<=1e-6)")
    assert ok


# ----------------------------------------------------------------------------
# 6. inequality sampling

def test_c6_single_mode_closed_form():
    amp = 1.0 / (math.sqrt(2) * math.pi)
    u = sp.shear_field(GRID64, amp)
    rho = ineq.rho_profile(u.coeffs[None, ...], GRID64)
    got = rho.integral(2.0)
    want = 3.0 / (8.0 * math.pi**2)
    ok = abs(got - want) <= 1e-8
    report("criterion 6a (single-mode quadratic density integral)", ok,
           f"{got:.12f} vs {want:.12f}")
    assert ok


def test_c6_lieb_thirring_sweep():
    sweep = ineq.run_lt_sweep(GRID64, seeds=range(100), n=16, alpha=1.0)
    ok = sweep.all_passed and sweep.count >= 100
    report("criterion 6b (quadratic density bound, 100 families)", ok,
           f"worst ratio {sweep.worst_ratio:.4f} at seed {sweep.worst_seed}")
    assert ok


def test_c6_rho_l2_sweep():
    sweep = ineq.run_rho_l2_sweep(GRID64, seeds=range(34), alphas=(0.01, 0.1, 1.0), n=16)
    ok = sweep.all_passed and sweep.count >= 100
    report("criterion 6c (density L2 bound, alpha sweep)", ok,
           f"{sweep.count} families, worst ratio {sweep.worst_ratio:.4f}")
    assert ok


def test_c6_rho_linf_sweep():
    sweep = ineq.run_rho_linf_sweep(GRID64, seeds=range(100), lam_caps=range(1, 65), n=16)
    ok = sweep.all_passed
    report("criterion 6d (density sup-norm bound, caps 1..64)", ok,
           f"{sweep.count} checks over 100 families, worst ratio {sweep.worst_ratio:.4g}")
    assert ok


# ----------------------------------------------------------------------------
# 7. end-to-end forced run

def test_c7_forced_run_n_star_below_bound():
    """At calG ~ 1e3 with alpha <= alpha0, the measured n* must sit below the
    log-form bound.  The published dimension claims are asymptotic upper
    bounds, not desk-scale equalities; this property check is the contract."""
    grid = SpectralGrid(48)
    target = 1000.0 / (4 * math.pi**2)  # ||g|| for calG = 1000 at nu = 1
    raw = [((0, 2), (1.0 / 2j, 0.0)), ((1, 1), (0.1, -0.1))]
    probe = dyn.ForcingSpec.from_modes(raw).build(grid)
    scale = target / math.sqrt(sp.l2_norm_sq(probe))
    forcing = dyn.ForcingSpec.from_modes(
        [(k, (a[0] * scale, a[1] * scale)) for k, a in raw])
    g_norm = math.sqrt(sp.l2_norm_sq(forcing.build(grid)))
    cal_g = g_norm * 4 * math.pi**2

    alpha0 = 4.0 / cal_g
    alpha = 0.99 * alpha0
    inp = B.BoundsInput(d=2, nu=1.0, alpha=alpha, g_norm=g_norm)
    bound_entry = B.bound_2d_log(inp)
    assert bound_entry.validity == B.OK

    cfg = dyn.SimConfig(nu=1.0, alpha=alpha, grid=grid, dt=0.01, t_end=1.0,
                        forcing=forcing,
                        initial=dyn.InitialSpec.random(seed=42, decay=3.0, amplitude=2.0))
    scan = lyp.scan_n_star(cfg, t_end=40.0, n_max=64,
                           warmup=20.0, burn_in=10.0, seed=5)
    ok = (scan.n_star is not None and scan.n_star <= bound_entry.value
          and scan.eventually_decreasing)
    report("criterion 7 (forced run, n* vs log-form bound)", ok,
           f"calG = {cal_g:.1f}, alpha = {alpha:.5f} <= alpha0 = {alpha0:.5f}, "
           f"n* = {scan.n_star}, bound = {bound_entry.value:.2f}, "
           f"q_hats = { {k: round(v, 3) for k, v in sorted(scan.q_hats.items())} }")
    assert ok


# ----------------------------------------------------------------------------
# 8. energy-balance convergence

def test_c8_energy_balance_rk4_order():
    grid = SpectralGrid(32)
    u0 = sp.shear_field(grid, 1.0) + sp.random_field(grid, VELOCITY, seed=9, decay=3.0)

    def residual(dt):
        cfg = dyn.SimConfig(nu=1.0, alpha=0.1, grid=grid, dt=dt, t_end=1.0,
                            forcing=dyn.ForcingSpec.shear(1.0),
                            initial=dyn.InitialSpec.from_field(u0),
                            sample_every=10**9)
        return abs(dyn.integrate(cfg, track_energy_budget=True).energy_residual)

    r_coarse, r_fine = residual(0.02), residual(0.01)
    ratio = r_coarse / r_fine
    ok = ratio >= 16.0 and r_fine > 1e-13
    report("criterion 8 (energy-balance convergence)", ok,
           f"residuals {r_coarse:.3e} -> {r_fine:.3e}, ratio {ratio:.2f} (>= 16)")
    assert ok
