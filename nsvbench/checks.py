"""Correctness checks on the program's outputs.

Each check takes outputs (arrays, numbers, parsed files) and returns
(passed, detail).  The expected values are closed forms or properties the
method must have; none is a stored copy of an earlier run.
"""

from __future__ import annotations

import math

import numpy as np

from reference import TORUS_AREA, band_and_divergence, energy

ROUNDOFF_TOL = 1e-10      # program vs. reference stepper, relative to max|u_hat|
MIN_CHANGE = 1e-6         # the compared pair must move by at least this much
BAND_TOL = 0.0            # coefficients outside the 2/3 band must be exact zeros
DIV_TOL = 1e-12           # |k.u_hat| relative to max|u_hat|
CSV_ENERGY_TOL = 1e-10    # the CSV carries 12 significant digits
ENVELOPE_TOL = 1e-8
AVERAGE_TOL = 0.01        # sampled mean against the continuous-time bound
EXPONENT_TOL = 1e-6       # zero attractor: RK4 at dt = 0.1 is off by 2.7e-8; 90 time units of
                          # burn-in damp the other shells by e^{-90/3}
LIOUVILLE_RTOL = 1e-2     # the trace is sampled every 10 steps (Riemann-sum error)
DENSITY_RTOL = 1e-12


def _result(ok, detail):
    return bool(ok), detail


def matches_reference(program, reference, start):
    """The program's state equals the reference stepper's to round-off, and
    the pair was taken where the state moves far more than that."""
    scale = float(np.max(np.abs(program)))
    err = float(np.max(np.abs(program - reference))) / scale
    moved = float(np.max(np.abs(program - start))) / scale
    return _result(err <= ROUNDOFF_TOL and moved >= MIN_CHANGE,
                   f"rel. error {err:.2e} (tol {ROUNDOFF_TOL:g}), state moved {moved:.2e}")


def band_limited_divergence_free(coeffs):
    outside, div = band_and_divergence(coeffs)
    return _result(outside <= BAND_TOL and div <= DIV_TOL,
                   f"outside band {outside:.2e}, divergence {div:.2e}")


def csv_energy_matches(csv_t, csv_energy, snapshots, alpha):
    """snapshots: {t: coeffs}; every snapshot's Parseval alpha-energy equals
    the CSV row at the same t."""
    worst = 0.0
    for t, coeffs in snapshots.items():
        rows = np.nonzero(np.abs(csv_t - t) < 1e-9)[0]
        if rows.size != 1:
            return _result(False, f"no CSV row at t={t:g}")
        e = energy(coeffs, alpha)
        worst = max(worst, abs(csv_energy[rows[0]] - e) / max(e, 1e-300))
    return _result(worst <= CSV_ENERGY_TOL, f"worst rel. difference {worst:.2e} "
                   f"over {len(snapshots)} snapshots")


def dissipative_envelope(t, energy_alpha, nu, alpha, g_norm):
    """||u(t)||_a^2 <= ||u(0)||_a^2 e^{-gamma t} + (1+alpha)/nu^2 ||g||^2 (1 - e^{-gamma t})."""
    gamma = nu / (1.0 + alpha)
    decay = np.exp(-gamma * t)
    bound = energy_alpha[0] * decay + (1.0 + alpha) / nu**2 * g_norm**2 * (1.0 - decay)
    excess = float(np.max((energy_alpha - bound) / np.max(bound)))
    return _result(excess <= ENVELOPE_TOL, f"largest excess {excess:.2e} of the bound")


def mean_enstrophy(t, enstrophy, energy_alpha, nu, alpha, g_norm):
    """Mean ||grad u||^2 over t >= 5/gamma is at most ||g||^2/nu^2 plus the
    finite-window term ||u(t0)||_a^2/(nu T); the window must be >= 10/gamma."""
    gamma = nu / (1.0 + alpha)
    keep = t >= 5.0 / gamma
    if not np.any(keep):
        return _result(False, "no sample after the 5/gamma burn-in")
    window = float(t[keep][-1] - t[keep][0])
    if window < 10.0 / gamma:
        return _result(False, f"window {window:.3g} < 10/gamma = {10 / gamma:.3g}")
    mean = float(np.mean(enstrophy[keep]))
    bound = g_norm**2 / nu**2 + float(energy_alpha[keep][0]) / (nu * window)
    return _result(mean <= bound * (1.0 + AVERAGE_TOL),
                   f"mean {mean:.6g} <= bound {bound:.6g} over window {window:.3g}")


def shear_decay(a0, a1, nu, alpha, k2, t, tol):
    """A single shear mode is an exact solution: a(t) = a(0) e^{-nu t |k|^2/(1+alpha |k|^2)}."""
    expected = a0 * math.exp(-nu * t * k2 / (1.0 + alpha * k2))
    err = abs(a1 - expected) / abs(expected)
    return _result(err <= tol, f"rel. error {err:.2e} (tol {tol:g})")


def bit_exact(a, b):
    return _result(a.shape == b.shape and np.array_equal(a, b), "coefficients identical"
                   if np.array_equal(a, b) else "coefficients differ")


def zero_attractor_exponents(exponents, q_hat, nu, alpha):
    """Every vector of the frame lies in the |k|^2 = 1 shell: each exponent is
    -nu/(1+alpha) and q_hat(n) is n times that."""
    rate = -nu / (1.0 + alpha)
    err = max(float(np.max(np.abs(exponents - rate))),
              abs(q_hat - len(exponents) * rate) / len(exponents))
    return _result(err <= EXPONENT_TOL, f"largest deviation {err:.2e} from {rate:g}")


def liouville(exponents, q_hat):
    """The exponents sum to the time-averaged trace q_hat(n)."""
    err = abs(float(np.sum(exponents)) - q_hat) / max(abs(q_hat), 1e-300)
    return _result(err <= LIOUVILLE_RTOL, f"sum {np.sum(exponents):.6g} vs q_hat {q_hat:.6g}, "
                   f"rel. {err:.2e} (tol {LIOUVILLE_RTOL:g})")


def dimension_below_bound(exponents, bound):
    """The first m with a negative partial sum of the sorted exponents is <= bound."""
    partial = np.cumsum(np.sort(exponents)[::-1])
    negative = np.nonzero(partial < 0)[0]
    if negative.size == 0:
        return _result(False, f"no negative partial sum within {len(exponents)} exponents")
    m = int(negative[0]) + 1
    return _result(m <= bound, f"m = {m} <= bound {bound:.4g}")


def close(value, expected, label):
    err = abs(value - expected) / abs(expected)
    return _result(err <= DENSITY_RTOL, f"{label} {value:.15g} vs {expected:.15g} (rel. {err:.1e})")


def ratios_in_unit_interval(ratios):
    ratios = np.asarray(ratios, dtype=float)
    ok = ratios.size > 0 and bool(np.all((ratios > 0) & (ratios <= 1)))
    return _result(ok, f"{ratios.size} ratios in [{ratios.min():.3g}, {ratios.max():.3g}]")


def counts_equal(own, program):
    return _result(list(own) == [int(v) for v in program], f"N(E) = {list(own)}")


def shear_density_integral():
    """integral of rho^2 for one L2-normalized shear mode (c sin(m y), 0):
    c^4 (2 pi)(3/8)(2 pi) with c^2 = 1/(2 pi^2)."""
    return 3.0 / (8.0 * math.pi**2)


def constant_density(norms_sq):
    """(integral of rho^2, max rho) when rho is constant: rho = sum ||u_j||^2 / |T^2|."""
    rho = float(np.sum(norms_sq)) / TORUS_AREA
    return rho**2 * TORUS_AREA, rho
