"""The production kernels against the oracles in tests/oracles.py.

The real-FFT transform pair and the streamfunction advection kernel of
nsvlab.spectral are checked against full complex np.fft transforms and the
velocity-form B(u,v).  dynamics.integrate and lyapunov.evolve_tangent_frame
step the band streamfunction through one shared RK4 / integrating-factor
RK4 function; the oracles step the SpectralField right-hand sides with
plain RK4 loops on the velocity layout.  The arithmetic differs, so
agreement is to round-off, not bitwise.
"""

import warnings

import numpy as np
import pytest

from nsvlab import dynamics as dyn
from nsvlab import inequalities as ineq
from nsvlab import lyapunov as lyp
from nsvlab import spectral as sp
from nsvlab.spectral import VELOCITY, SpectralGrid

import oracles

GRID = SpectralGrid(16)
RTOL = 1e-12
KERNEL_RTOL = 1e-13
FORCING = dyn.ForcingSpec.from_modes([((0, 2), (-2.0j, 0.0)), ((1, 1), (0.4, -0.4))])


def rel_err(got, ref):
    return float(np.max(np.abs(got - ref))) / float(np.max(np.abs(ref)))


def biot_savart(grid, curl):
    """The velocity with the given curl on the band: B from the kernel's u.grad w."""
    return sp.velocity_of(grid, curl / np.where(grid.band_k2 > 0, grid.band_k2, 1.0))


def forced_cfg(alpha, t_end, **kw):
    return dyn.SimConfig(nu=1.0, alpha=alpha, grid=GRID, dt=0.01, t_end=t_end,
                         forcing=FORCING, initial=dyn.InitialSpec.random(seed=4, amplitude=2.0),
                         **kw)


@pytest.mark.parametrize("alpha", [0.3, 0.0])
def test_integrate_matches_oracle_stepper(alpha):
    cfg = forced_cfg(alpha, 1.2, sample_every=7)         # 120 steps
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", dyn.CflWarning)
        res = dyn.integrate(cfg)
    final, columns = oracles.integrate_velocity(cfg)
    assert rel_err(res.final.coeffs, final.coeffs) <= RTOL
    assert rel_err(res.final.coeffs, cfg.initial.build(GRID).coeffs) > 1e-3   # the state moved
    for name, ref in columns.items():
        got = getattr(res.diagnostics, name)
        assert got.shape == ref.shape, name
        assert rel_err(got, ref) <= RTOL, name


def test_tangent_frame_matches_product_system_oracle():
    cfg = forced_cfg(0.3, 1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", dyn.InsufficientDurationWarning)
        series = lyp.evolve_tangent_frame(cfg, 3, 1.0, burn_in=0.0, seed=2, reorth_every=10)
    times, traces, exponents = oracles.evolve_frame(cfg, 3, 1.0, seed=2, reorth_every=10)
    np.testing.assert_array_equal(series.times, times)
    assert rel_err(series.trace_inst, traces) <= RTOL
    assert rel_err(series.exponents, exponents) <= RTOL


def test_tangent_frame_base_follows_integrate():
    # at alpha = 0 the frame's base flow takes the integrating-factor steps of
    # integrate itself: the same scheme, so the same state bit for bit
    cfg = forced_cfg(0.0, 1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        series = lyp.evolve_tangent_frame(cfg, 2, 1.0, burn_in=0.0, seed=1)
        res = dyn.integrate(cfg)
    np.testing.assert_array_equal(series.base_final.coeffs, res.final.coeffs)


@pytest.mark.parametrize("n,cutoff", [(8, 0), (16, 0), (24, 0), (32, 0), (48, 0), (64, 0),
                                      (32, 7)])
def test_kernel_matches_velocity_form_oracle(n, cutoff):
    # at n = 24 and 48 the band edge |k_i| = n/3 also takes the aliases of the
    # |k_i| = 2n/3 products; on a divergence-free u they agree in both forms
    grid = SpectralGrid(n, cutoff)
    u = sp.random_field(grid, VELOCITY, seed=n, decay=1.5)
    thetas = [sp.random_field(grid, VELOCITY, seed=100 + j, decay=1.5) for j in range(3)]
    psi = sp.stream_of(grid, u.coeffs)
    ref = oracles.bilinear_b(u, u).coeffs
    assert rel_err(biot_savart(grid, sp.bilinear_coeffs(grid, psi)), ref) <= KERNEL_RTOL
    stack = sp.bilinear_coeffs(grid, np.stack([psi] + [sp.stream_of(grid, th.coeffs)
                                                       for th in thetas]))
    assert stack.shape == (4,) + grid.band_shape
    assert rel_err(biot_savart(grid, stack[0]), ref) <= KERNEL_RTOL
    for row, th in zip(stack[1:], thetas):
        ref_th = (oracles.bilinear_b(th, u) + oracles.bilinear_b(u, th)).coeffs
        assert rel_err(biot_savart(grid, row), ref_th) <= KERNEL_RTOL


@pytest.mark.parametrize("cutoff", [15, 16])
def test_kernel_band_is_alias_free_when_3_cutoff_below_n(cutoff):
    # against the exact product of the band, formed on a 96^2 grid where none
    # of it aliases: at n = 48 a cutoff of 15 agrees over the whole band; the
    # default n/3 = 16 differs on its edge rows |k_i| = 16 alone
    n = 48
    grid = SpectralGrid(n, cutoff)
    u = sp.random_field(grid, VELOCITY, seed=3, decay=0.0)
    fine = sp.SpectralField(SpectralGrid(2 * n, cutoff), VELOCITY, ineq.pad_coeffs(u.coeffs, 2 * n))
    rows = np.fft.fftfreq(n, d=1.0 / n).astype(int) % (2 * n)
    exact = oracles.bilinear_b(fine, fine).coeffs[:, rows][:, :, rows]
    got = biot_savart(grid, sp.bilinear_coeffs(grid, sp.stream_of(grid, u.coeffs)))
    err = np.abs(got - exact) / np.max(np.abs(exact))
    edge = (np.abs(grid.kx) == n // 3) | (np.abs(grid.ky) == n // 3)
    assert np.max(err[:, ~edge]) <= KERNEL_RTOL
    assert (np.max(err[:, edge]) > 1e-3) == (cutoff == n // 3)


@pytest.mark.parametrize("n", [8, 16, 64])
def test_transform_pair_matches_full_complex_ffts(n):
    # white noise: undealiased, with content on the Nyquist row and column
    values = np.random.default_rng(n).standard_normal((3, n, n))
    full = oracles.from_physical(values)
    assert np.max(np.abs(full[:, n // 2, :])) > 0 and np.max(np.abs(full[:, :, n // 2])) > 0
    half = sp.from_physical(values)
    assert half.shape == (3, n, n // 2 + 1)
    assert rel_err(half, full[..., : n // 2 + 1]) <= KERNEL_RTOL
    assert rel_err(sp.full_layout(half), full) <= KERNEL_RTOL
    ref = oracles.to_physical(full)
    assert rel_err(sp.to_physical(full), ref) <= KERNEL_RTOL      # full layout, sliced
    assert rel_err(sp.to_physical(half), ref) <= KERNEL_RTOL
    assert rel_err(ref, values) <= KERNEL_RTOL
    # a dealiased field's columns past the band may be left out
    grid = SpectralGrid(n)
    cut = full * grid.dealias_mask
    np.testing.assert_array_equal(sp.full_layout(cut[..., : grid.dealias_cutoff + 1]),
                                  sp.full_layout(cut[..., : n // 2 + 1]))
    assert rel_err(sp.to_physical(cut[..., : grid.dealias_cutoff + 1]), oracles.to_physical(cut)) \
        <= KERNEL_RTOL
