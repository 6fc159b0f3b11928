"""The production kernels against the oracles in tests/oracles.py.

The real-FFT transform pair and the streamfunction advection kernel of
nsvlab.spectral are checked against full complex np.fft transforms and the
velocity-form B(u,v), the divergence-form kernel also against the
advective-form band kernel it replaced, and the band-embedded density kernel
inequalities.rho_profile, given a band or a full-layout family, against the
zero-padded full layout it replaced; the sup-norm verifier's band stream
velocities against Biot-Savart on the full layout.
The band Leray projection and mode builder spectral.leray_project_coeffs and
field_from_modes are checked bitwise against the full-layout projection and
build they replaced.  The band draw spectral.random_band, CGS2 Gram-Schmidt, the real-view Gram
matrix and the batched trace diagonal are checked against the full-layout
draw, modified Gram-Schmidt, the complex-form Gram matrix and the per-row
trace they replaced; the draw bitwise, the rest to round-off.  A stacked
draw, the families drawn as one stack, and the rho-l2 sweep that draws each
seed once for all its alphas are checked bitwise against per-vector draws
and the sweep that draws every (alpha, seed) family afresh in report order.
The density summed one vector at a time is checked bitwise against the
whole stack summed at once, and each sweep, its seeds checked on the usable
CPUs (1, 2 or 3 of them), byte for byte against the same sweep checking one
family after another on one thread with the whole-stack density: reports,
verdict and witness, the error a degenerate seed raises, and the threads
left running after it.
dynamics.integrate and lyapunov.evolve_tangent_frame step the band
streamfunction through one shared RK4 / integrating-factor RK4 function;
the oracles step the SpectralField right-hand sides with
plain RK4 loops on the velocity layout.  The arithmetic differs, so
agreement is to round-off, not bitwise.  Against explicit loops on the band
layout of the allocating RK4 step and kernel they replaced, with the float
multipliers that the stages now hold complex, in the
arithmetic order of dynamics.advance's callers, the agreement is bitwise
where every transform length is a power of two; so are the kernel, and the
sup-norm verifier against the transform pair with its n^2 scaling as a pass
of its own.  At other lengths (n = 48, the 90-point density grid) the 1/n
each transform takes rounds apart from that pass, to 1e-15 relative.
The bounds report (as_dict and to_text) and the inequality report records,
whose fields are now dataclasses.asdict's and whose log branch and alpha = 0
rule are each stated once, are checked byte for byte against the
hand-written fields and formulas they replaced.  FieldSpec builds every
kind bitwise as the forcing and initial-data classes it replaced, and the
one CLI block mapper maps every block the CLI tests' valid tables form as
the two mappers it replaced.  The averages, exponents, window, n* verdict
and Grashof numbers that TraceSeries, NStarScan and DiagnosticsSeries derive
from a run's record are checked bitwise, with the same warnings, against the
derivations that evolve_tangent_frame, scan_n_star and integrate made inline,
on runs and on hand-built records.  The field files `nsvlab simulate` has
its forked writer process format are checked byte for byte, and their
manifest hashes, against the per-coefficient text of the snapshots and final
state that integrate collects in process.  The CLI's range pass over the
SCHEMAS rows, with the rules left in _constraint_problems, refuses every
refusal-table row and every numeric key at its bounds with the problems of
the validator that wrote each range rule out by hand.
"""

import hashlib
import itertools
import json
import math
import os
import threading
import warnings
from dataclasses import asdict

import numpy as np
import pytest

from nsvlab import bounds as B
from nsvlab import cli
from nsvlab import dynamics as dyn
from nsvlab import fieldio
from nsvlab import inequalities as ineq
from nsvlab import lattice
from nsvlab import lyapunov as lyp
from nsvlab import spectral as sp
from nsvlab.errors import ConfigError, DegenerateFrameError, InvalidParameterError
from nsvlab.spectral import VELOCITY, VORTICITY, SpectralGrid

import oracles
from test_cli import CONFIG_VALID, FIELD_FILES, FLOW_VALID, RANGE_REFUSALS, REFUSALS

GRID = SpectralGrid(16)
RTOL = 1e-12
KERNEL_RTOL = 1e-13
FORCING = dyn.ForcingSpec.from_modes([((0, 2), (-2.0j, 0.0)), ((1, 1), (0.4, -0.4))])


def rel_err(got, ref):
    return float(np.max(np.abs(got - ref))) / float(np.max(np.abs(ref)))


def biot_savart(grid, curl):
    """The velocity with the given curl on the band: B from the kernel's u.grad w."""
    return sp.velocity_of(grid, curl / np.where(grid.band_k2 > 0, grid.band_k2, 1.0))


def forced_cfg(alpha, t_end, grid=GRID, **kw):
    return dyn.SimConfig(nu=1.0, alpha=alpha, grid=grid, dt=0.01, t_end=t_end,
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


@pytest.mark.parametrize("alpha", [0.3, 0.0])
def test_integrate_is_bitwise_its_explicit_loop(alpha):
    # the loop of oracles.allocating_rk4_step over the allocating kernel: the
    # in-place step and workspace kernel take the same operations in order
    for grid in (GRID, SpectralGrid(32)):
        cfg = forced_cfg(alpha, 1.0, grid, sample_every=7)   # 100 steps: neither cadence divides
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", dyn.CflWarning)
            res = dyn.integrate(cfg, snapshot_every=14, track_energy_budget=True)
        final, columns, snapshots, residual = oracles.integrate_band(cfg, 14, True)
        np.testing.assert_array_equal(res.final.coeffs, final)
        for name, ref in columns.items():
            np.testing.assert_array_equal(getattr(res.diagnostics, name), ref, err_msg=name)
        assert [t for t, _ in res.snapshots] == [t for t, _ in snapshots] and len(snapshots) == 8
        for (_, got), (_, ref) in zip(res.snapshots, snapshots):
            np.testing.assert_array_equal(got.coeffs, ref)
        assert res.energy_residual == residual


@pytest.mark.parametrize("alpha", [0.3, 0.0])
def test_tangent_frame_is_bitwise_its_explicit_loop(alpha):
    for grid in (GRID, SpectralGrid(32)):
        cfg = forced_cfg(alpha, 1.0, grid)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", dyn.InsufficientDurationWarning)
            series = lyp.evolve_tangent_frame(cfg, 3, 1.05, burn_in=0.5, seed=2, warmup=0.3,
                                              reorth_every=10)
        times, diag, exponents, base_final = oracles.evolve_frame_band(
            cfg, 3, 1.05, burn_in=0.5, seed=2, warmup=0.3, reorth_every=10)
        assert times.size == 11                          # the last event is off the cadence
        np.testing.assert_array_equal(series.times, times)
        np.testing.assert_array_equal(series.diag, diag)
        np.testing.assert_array_equal(series.exponents, exponents)
        np.testing.assert_array_equal(series.base_final.coeffs, base_final)


def derive_recording(build, *args):
    """build(*args) and the (category, message) of each warning it gives."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        built = build(*args)
    return built, [(w.category, str(w.message)) for w in caught]


def assert_trace_derivations_are_the_inline_ones(series):
    record = (series.times, series.diag, series.log_factors, series.burn_in)
    again, warned = derive_recording(lyp.TraceSeries, *record, series.base_final)
    ref, ref_warned = derive_recording(oracles.trace_series_derived, *record)
    assert warned == ref_warned
    for got in (series, again):
        for name, want in ref.items():
            if name == "window":
                assert got.window == want
            else:
                np.testing.assert_array_equal(getattr(got, name), want, err_msg=name)
            assert type(getattr(got, name)) is type(want), name
    scan, ref_scan = lyp.NStarScan(series), oracles.n_star_derived(series.q_hats)
    assert (scan.q_hats, scan.n_star, scan.eventually_decreasing) == tuple(ref_scan.values())
    assert scan.summary() == {**ref_scan,
                              "q_hats": {str(m): q for m, q in ref_scan["q_hats"].items()}}
    return warned


@pytest.mark.parametrize("n", [16, 32])
@pytest.mark.parametrize("alpha", [0.3, 0.0])
def test_records_derive_bitwise_as_the_run_functions_did(alpha, n):
    # the averages, exponents, window, n* verdict and Grashof numbers that
    # TraceSeries, NStarScan and DiagnosticsSeries derive from a run's record
    # are the inline derivations they replaced, bit for bit
    cfg = forced_cfg(alpha, 1.0, SpectralGrid(n), sample_every=7)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", dyn.InsufficientDurationWarning)
        series = lyp.evolve_tangent_frame(cfg, 3, 1.05, burn_in=0.5, seed=2, warmup=0.3)
        scan = lyp.scan_n_star(cfg, 1.05, n_max=4, burn_in=0.5, seed=2)
    assert assert_trace_derivations_are_the_inline_ones(series) == []
    assert np.isfinite(series.exponents).all() and series.window == (0.5, 1.05)
    assert_trace_derivations_are_the_inline_ones(scan.series)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", dyn.CflWarning)
        diag = dyn.integrate(cfg).diagnostics
    ref = oracles.diagnostics_derived(diag.enstrophy, diag.g_norm, cfg.nu)
    for name, want in ref.items():
        np.testing.assert_array_equal(getattr(diag, name), want, err_msg=name)
        assert type(getattr(diag, name)) is type(want), name


@pytest.mark.parametrize("times, burn_in, withheld", [
    ([0.1, 0.2], 5.0, "no re-orthonormalization at t >= burn_in = 5 (run ends at t = 0.2)"),
    ([1.0, 2.0], 1.5, "no growth interval starts at t >= burn_in = 1.5 (last starts at t = 1)"),
    ([0.5, 1.0, 1.5], 0.5, None),
], ids=["verdict-withheld", "exponents-withheld", "all-derived"])
def test_synthetic_records_derive_as_the_run_functions_did(times, burn_in, withheld):
    rng = np.random.default_rng(7)
    times = np.asarray(times)
    series, warned = derive_recording(lyp.TraceSeries, times, rng.normal(size=(times.size, 4)),
                                      rng.normal(size=(times.size, 4)), burn_in, None)
    assert assert_trace_derivations_are_the_inline_ones(series) == warned
    assert len(warned) == (withheld is not None)
    if withheld is not None:
        assert warned[0][0] is dyn.InsufficientDurationWarning
        assert warned[0][1].startswith(withheld)


@pytest.mark.parametrize("m", [1, 2, 3, 8, 9])
@pytest.mark.parametrize("n", [16, 32, 48, 64])
def test_kernel_is_the_allocating_kernel(n, m):
    # bitwise where every transform length is a power of two; at n = 48 the
    # 1/n that each transform now takes rounds apart from the n^2 pass.  m
    # counts the rows: the base row alone (m = 1), one frame row (m = 2), up
    # to the benchmark's 8-vector frame (m = 9), each against the
    # polarization on every row.  A workspace used twice gives the second
    # stack's rows, not the first's
    grid = SpectralGrid(n)
    rng = np.random.default_rng(10 * n + m)
    work = sp.KernelWorkspace(grid, m)
    for _ in range(2):
        stack = np.stack([sp.random_band(grid, VORTICITY, 1.5, rng) for _ in range(m)])
        for given in ((stack, stack[0]) if m == 1 else (stack,)):
            ref = oracles.allocating_bilinear_coeffs(grid, given)
            for got in (sp.bilinear_coeffs(grid, given), sp.bilinear_coeffs(grid, given, work)):
                assert got.shape == given.shape
                if n == 48:
                    assert rel_err(got, ref) <= 1e-15
                else:
                    np.testing.assert_array_equal(got, ref)


@pytest.mark.parametrize("alpha", [0.3, 0.0])
def test_step_at_n48_matches_the_allocating_step(alpha):
    # a base and a 4-vector stack on one rhs, against the allocating step
    cfg = forced_cfg(alpha, 1.0, SpectralGrid(48))
    psi_g = dyn.forcing_stream(cfg)
    base = dyn.initial_state(cfg)[0]
    frame = lyp.TangentFrame.random(cfg.grid, 4, cfg.metric, seed=1)
    rhs, factors = dyn.stream_scheme(cfg)
    ref_rhs, ref_factors = oracles.allocating_scheme(cfg, psi_g)
    for c in (base, np.concatenate([base[None], frame.vectors])):
        new, stages = dyn.rk4_step(rhs, c, cfg.dt, factors, np.empty_like(c))
        ref, ref_stages = oracles.allocating_rk4_step(ref_rhs, c, cfg.dt, ref_factors)
        assert rel_err(new, ref) <= 1e-15
        for got, want in zip(stages, ref_stages):
            assert rel_err(got, want) <= 1e-15


def test_verifier_lhs_match_the_scaled_transforms(monkeypatch):
    # on the benchmark's grid 64: lt and rho-l2 read rho on the 90-point grid,
    # where the folded 1/n rounds apart; rho-linf reads the 128 and 256
    # grids, powers of two, bit for bit
    grid = SpectralGrid(64)

    def lhs():
        velocity = ineq.sample_suborthonormal(grid, 16, seed=3, metric=sp.AlphaMetric(0.1))
        scalar = ineq.sample_suborthonormal(grid, 16, seed=4, role=VORTICITY)
        linf = ineq.verify_rho_linf(scalar, 8)
        return (ineq.verify_lieb_thirring(velocity).lhs, ineq.verify_rho_l2(velocity).lhs,
                linf.lhs, linf.extras["certified_lhs"])

    got = lhs()
    monkeypatch.setattr(sp, "to_physical", oracles.scaled_to_physical)
    monkeypatch.setattr(sp, "from_physical", oracles.scaled_from_physical)
    ref = lhs()
    for g, r in zip(got[:2], ref[:2]):
        assert abs(g - r) <= 1e-15 * r
    assert got[2:] == ref[2:]


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


@pytest.mark.parametrize("n,cutoff", [(8, 0), (16, 0), (24, 0), (32, 0), (48, 0), (64, 0),
                                      (32, 7)])
def test_kernel_matches_advective_form_oracle(n, cutoff):
    # the divergence form curl div(u (x) u) against the advective u.grad w it
    # replaced: the same Galerkin product on an alias-free band
    grid = SpectralGrid(n, cutoff)
    psi = np.stack([sp.random_band(grid, VORTICITY, 1.5, np.random.default_rng(n + j))
                    for j in range(4)])
    for given in (psi[0], psi):
        got = sp.bilinear_coeffs(grid, given)
        assert got.shape == given.shape
        assert rel_err(got, oracles.advective_bilinear_coeffs(grid, given)) <= KERNEL_RTOL


@pytest.mark.parametrize("cutoff", [15, 16])
def test_kernel_band_is_alias_free_when_3_cutoff_below_n(cutoff):
    # against the exact product of the band, formed on a 96^2 grid where none
    # of it aliases: at n = 48 a cutoff of 15 agrees over the whole band; the
    # default n/3 = 16 differs on its edge rows |k_i| = 16 alone
    n = 48
    grid = SpectralGrid(n, cutoff)
    u = sp.random_field(grid, VELOCITY, seed=3, decay=0.0)
    fine = sp.SpectralField(SpectralGrid(2 * n, cutoff), VELOCITY, oracles.pad_coeffs(u.coeffs, 2 * n))
    rows = np.fft.fftfreq(n, d=1.0 / n).astype(int) % (2 * n)
    exact = oracles.bilinear_b(fine, fine).coeffs[:, rows][:, :, rows]
    got = biot_savart(grid, sp.bilinear_coeffs(grid, sp.stream_of(grid, u.coeffs)))
    err = np.abs(got - exact) / np.max(np.abs(exact))
    k = oracles.wavenumbers(grid)
    edge = (np.abs(k.kx) == n // 3) | (np.abs(k.ky) == n // 3)
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
    cut = full * oracles.wavenumbers(grid).mask
    np.testing.assert_array_equal(sp.full_layout(cut[..., : grid.dealias_cutoff + 1]),
                                  sp.full_layout(cut[..., : n // 2 + 1]))
    assert rel_err(sp.to_physical(cut[..., : grid.dealias_cutoff + 1]), oracles.to_physical(cut)) \
        <= KERNEL_RTOL


@pytest.mark.parametrize("q", [None, 2, 4])
@pytest.mark.parametrize("n", [16, 32, 48, 64])
def test_rho_profile_matches_padded_full_layout(n, q):
    # velocity families and the stream-velocities of scalar families, on the
    # band and in the full layout, against the full layout zero-padded to the
    # q n grid, or by default to the smallest even 5-smooth size > 4K, and
    # transformed whole
    grid = SpectralGrid(n)
    nq = {16: 24, 32: 48, 48: 64, 64: 90}[n] if q is None else q * n
    velocity = oracles.full_of_band(grid, ineq.sample_suborthonormal(grid, 16, seed=n).vectors)
    scalar = oracles.full_of_band(
        grid, ineq.sample_suborthonormal(grid, 16, seed=n + 1, role=VORTICITY).vectors)
    for vectors in (velocity, oracles.velocity_from_vorticity_coeffs(grid, scalar)):
        ref = np.sum(sp.to_physical(oracles.pad_coeffs(vectors, nq)) ** 2, axis=(0, 1))
        for given in (vectors, sp.band_of(grid, vectors)):
            got = ineq.rho_profile(given, grid, quad_factor=q)
            assert got.quad_n == nq
            assert rel_err(got.values, ref) <= 1e-14
            if n != 48:
                np.testing.assert_array_equal(got.values, ref)


@pytest.mark.parametrize("n", [16, 48])
def test_rho_linf_lhs_matches_full_layout_stream_velocities(n):
    # the sup-norm verifier's band stream velocities band_u phi / |k|^2
    # against Biot-Savart of the full-layout family
    grid = SpectralGrid(n)
    fam = ineq.sample_suborthonormal(grid, 8, seed=n, role=VORTICITY)
    stream = oracles.velocity_from_vorticity_coeffs(grid, oracles.full_of_band(grid, fam.vectors))
    lhs = ineq.verify_rho_linf(fam, 1).lhs
    assert lhs == np.sqrt(ineq.rho_profile(stream, grid, quad_factor=2).max())


@pytest.mark.parametrize("decay", [0.0, 1.5, 3.0])
@pytest.mark.parametrize("role", [VELOCITY, VORTICITY])
@pytest.mark.parametrize("n", [16, 24, 32, 48, 64])
def test_random_field_is_bitwise_the_full_layout_draw(n, role, decay):
    # the band draw filters and projects the same coefficients, entry by entry
    grid = SpectralGrid(n)
    got = sp.random_field(grid, role, seed=n, decay=decay).coeffs
    np.testing.assert_array_equal(got, oracles.random_field(grid, role, seed=n, decay=decay).coeffs)
    band = sp.random_band(grid, role, decay, np.random.default_rng(n))
    np.testing.assert_array_equal(band, sp.band_of(grid, got))
    np.testing.assert_array_equal(oracles.full_of_band(grid, band), got)


@pytest.mark.parametrize("n", [16, 24, 48, 64])
def test_band_leray_is_bitwise_the_full_layout_projection(n):
    # random (non-solenoidal) velocity bands, one and a stack of three,
    # against the full-layout projection entry by entry on the band
    grid = SpectralGrid(n)
    rng = np.random.default_rng(n)
    for shape in ((2,), (3, 2)):
        b = (rng.standard_normal(shape + grid.band_shape)
             + 1j * rng.standard_normal(shape + grid.band_shape))
        ref = oracles.leray_project_coeffs(grid, sp.full_layout(sp.half_of(grid, b)))
        np.testing.assert_array_equal(sp.leray_project_coeffs(grid, b), sp.band_of(grid, ref))


MODE_SETS = {
    VELOCITY: [
        {(0, 1): (0.5j, 0.0)},                                       # a shear
        {(2, 1): (1.0 + 0.5j, -0.3), (-1, -2): (0.2j, 0.7)},         # k2 < 0
        {(3, 0): (0.5, 1j), (-2, 0): (0.1, 0.2 - 0.4j)},             # k2 = 0
        {(1, 1): (0.4, -0.4), (-1, -1): (0.3j, 0.1), (0, 2): (-2.0j, 0.0),
         (2, 0): (0.3, 0.1), (-2, 0): (0.2, -0.5j)},                 # k and -k both named
    ],
    VORTICITY: [
        {(1, 2): 1.0 + 0.5j, (-2, -1): 0.3},
        {(2, 0): 0.4j, (-2, 0): 1.0, (0, -3): 0.5 - 0.25j, (0, 3): 2.0},
    ],
}


@pytest.mark.parametrize("n", [16, 24, 48])
@pytest.mark.parametrize("role, modes", [(role, m) for role, sets in MODE_SETS.items()
                                         for m in sets])
def test_field_from_modes_is_bitwise_the_full_layout_build(n, role, modes):
    # every nonzero coefficient bitwise the full-layout build and projection;
    # the exact zeros may differ in the sign of zero, which save_field never
    # writes (it stores the nonzero entries only)
    grid = SpectralGrid(n)
    got = sp.field_from_modes(grid, role, modes).coeffs
    ref = oracles.field_from_modes(grid, role, modes).coeffs
    nonzero = ref != 0
    assert nonzero.any()
    np.testing.assert_array_equal(got[nonzero], ref[nonzero])
    assert not got[~nonzero].any()


def test_readme_forcing_stream_is_bytewise_the_full_layout_build():
    # the README's modes forcing, at n = 64 as there: the stream the loop
    # steps with, byte for byte as built on the full layout and cut to the band
    grid = SpectralGrid(64)
    modes = [((0, 2), (-2.8j, 0.0)), ((1, 1), (0.56, -0.56))]
    cfg = dyn.SimConfig(nu=1.0, alpha=0.004, grid=grid, dt=0.01, t_end=40.0,
                        forcing=dyn.ForcingSpec.from_modes(modes))
    full = oracles.field_from_modes(grid, VELOCITY, dict(cfg.forcing.modes)).coeffs
    full[..., 0, 0] = 0.0
    assert dyn.forcing_stream(cfg).tobytes() == sp.stream_of(grid, full).tobytes()


def assert_gram_schmidt_matches_mgs(vectors, weights):
    got, factors = lyp.alpha_gram_schmidt(vectors, weights)
    ref, ref_factors = oracles.mgs_gram_schmidt(vectors, weights)
    assert rel_err(got, ref) <= KERNEL_RTOL
    assert rel_err(factors, ref_factors) <= KERNEL_RTOL


@pytest.mark.parametrize("m", range(1, 9))
def test_cgs2_matches_mgs_on_frames(m):
    grid = SpectralGrid(32)
    rng = np.random.default_rng(m)
    psi = np.stack([sp.band_stream(grid, sp.random_band(grid, VELOCITY, 3.0, rng))
                    for _ in range(m)])
    assert_gram_schmidt_matches_mgs(psi, sp.AlphaMetric(0.5).band_weights(grid))


@pytest.mark.parametrize("alpha", [0.01, 1.0])
@pytest.mark.parametrize("role", [VELOCITY, VORTICITY])
def test_cgs2_matches_mgs_on_families(role, alpha):
    grid = SpectralGrid(64)
    rng = np.random.default_rng(7)
    bands = np.stack([sp.random_band(grid, role, 2.0, rng) for _ in range(16)])
    assert_gram_schmidt_matches_mgs(bands, grid.band_count * (1.0 + alpha * grid.band_k2))


@pytest.mark.parametrize("perturbation", [0.0, 1e-14])
def test_cgs2_names_the_degenerate_vector_mgs_names(perturbation):
    grid = SpectralGrid(32)
    rng = np.random.default_rng(11)
    psi = [sp.band_stream(grid, sp.random_band(grid, VELOCITY, 3.0, rng)) for _ in range(5)]
    noise = sp.band_stream(grid, sp.random_band(grid, VELOCITY, 3.0, rng))
    weights = sp.AlphaMetric(1.0).band_weights(grid)
    for dependent in (2.0 * psi[1], 0.3 * psi[0] - 2.0 * psi[2] + psi[4]):
        vectors = np.stack(psi + [dependent + perturbation * noise] + psi[3:4])
        with pytest.raises(DegenerateFrameError) as got:
            lyp.alpha_gram_schmidt(vectors, weights)
        with pytest.raises(DegenerateFrameError) as ref:
            oracles.mgs_gram_schmidt(vectors, weights)
        assert got.value.index == ref.value.index == 5


@pytest.mark.parametrize("role", [VELOCITY, VORTICITY])
def test_gram_matrix_matches_complex_form(role):
    # full layout with the alpha weights, and the band with its column counts
    grid = SpectralGrid(32)
    fam = ineq.sample_suborthonormal(grid, 8, seed=2, role=role, metric=sp.AlphaMetric(0.1))
    for vectors, weights in ((oracles.full_of_band(grid, fam.vectors),
                              oracles.alpha_weights(fam.metric, grid)),
                             (fam.vectors, grid.band_count)):
        got = lyp.gram_matrix(vectors, weights)
        assert rel_err(got, oracles.gram_matrix(vectors, weights)) <= KERNEL_RTOL


@pytest.mark.parametrize("alpha", [0.01, 1.0])
@pytest.mark.parametrize("role", [VELOCITY, VORTICITY])
def test_family_matches_full_layout_draw_and_mgs(monkeypatch, role, alpha):
    # one degenerate draw on each side: both retry with the same sub-seed
    grid, metric = SpectralGrid(64), sp.AlphaMetric(alpha)

    def degenerate_once(module, name):
        real, calls = getattr(module, name), []

        def first_fails(vectors, weights):
            calls.append(1)
            if len(calls) == 1:
                raise DegenerateFrameError(index=3)
            return real(vectors, weights)
        monkeypatch.setattr(module, name, first_fails)

    degenerate_once(ineq, "alpha_gram_schmidt")
    degenerate_once(oracles, "mgs_gram_schmidt")
    fam = ineq.sample_suborthonormal(grid, 16, seed=5, role=role, metric=metric)
    ref, sub_seed = oracles.sample_alpha_orthonormal(grid, 16, 5, role, metric)
    assert fam.seed == sub_seed == 1005
    assert rel_err(oracles.full_of_band(grid, fam.vectors), ref) <= KERNEL_RTOL


def test_tangent_frame_random_is_bitwise_the_full_layout_draw():
    grid, metric = SpectralGrid(32), sp.AlphaMetric(0.7)
    frame = lyp.TangentFrame.random(grid, 6, metric, seed=9)
    np.testing.assert_array_equal(frame.vectors, oracles.frame_random(grid, 6, metric, seed=9))


@pytest.mark.parametrize("role", [VELOCITY, VORTICITY])
@pytest.mark.parametrize("n", [48, 64])
def test_batched_draw_is_bitwise_the_per_vector_draws(n, role):
    grid = SpectralGrid(n)
    batched_rng, per_vector_rng = np.random.default_rng(n), np.random.default_rng(n)
    got = sp.random_band(grid, role, 2.0, batched_rng, (16,))
    ref = oracles.per_vector_bands(grid, role, 2.0, per_vector_rng, 16)
    assert got.shape == ref.shape and got.tobytes() == ref.tobytes()
    assert batched_rng.bit_generator.state == per_vector_rng.bit_generator.state


@pytest.mark.parametrize("kind, role", [(ineq.ALPHA_ORTHONORMAL, VELOCITY),
                                        (ineq.ALPHA_ORTHONORMAL, VORTICITY),
                                        (ineq.GRAM_SCALED, VELOCITY)])
def test_family_is_bitwise_the_per_vector_family(kind, role):
    grid, metric = SpectralGrid(48), sp.AlphaMetric(0.1)
    fam = ineq.sample_suborthonormal(grid, 8, kind, seed=6, role=role, metric=metric)
    ref = oracles.per_vector_family(grid, 8, kind, seed=6, role=role, metric=metric)
    assert fam.vectors.tobytes() == ref.vectors.tobytes()
    assert (fam.seed, fam.certificate) == (ref.seed, ref.certificate)


def sweep_record(sweep):
    """Every report, the verdict and the witness of a sweep, floats by repr."""
    return (json.dumps([asdict(r) for r in sweep.reports]), json.dumps(sweep.as_dict()),
            sweep.witness.vectors.tobytes(), sweep.witness.seed, sweep.witness.metric.alpha)


@pytest.mark.parametrize("n, seeds, alphas, family_n", [
    (16, range(6), (0.05, 2.0, 0.3), 3),
    (32, range(7, 11), (0.01, 0.1, 1.0), 6),
])
def test_rho_l2_sweep_is_bitwise_the_alpha_major_sweep(n, seeds, alphas, family_n):
    grid = SpectralGrid(n)
    got = ineq.run_rho_l2_sweep(grid, seeds, alphas, n=family_n)
    ref = oracles.alpha_major_rho_l2_sweep(grid, seeds, alphas, n=family_n)
    assert sweep_record(got) == sweep_record(ref)


def test_rho_l2_sweep_breaks_ratio_ties_alpha_major(monkeypatch):
    # the largest ratio at (alpha 0.05, seed 1) and (alpha 2, seed 0): the
    # witness is the first in report order, not the first one drawn
    top = {(0.05, 1), (2.0, 0)}

    def tied(fam):
        ratio = 0.9 if (fam.metric.alpha, fam.seed) in top else 0.5
        return ineq.InequalityReport("rho-l2", fam.n, fam.seed, ratio, 1.0, ratio, True)
    monkeypatch.setattr(ineq, "verify_rho_l2", tied)
    grid, seeds, alphas = SpectralGrid(16), range(3), (0.05, 2.0)
    got = ineq.run_rho_l2_sweep(grid, seeds, alphas, n=3)
    ref = oracles.alpha_major_rho_l2_sweep(grid, seeds, alphas, n=3)
    assert (got.witness.metric.alpha, got.witness.seed) == (0.05, 1)
    assert sweep_record(got) == sweep_record(ref)


def test_rho_l2_sweep_retries_only_the_degenerate_family(monkeypatch):
    # seed 2's draw degenerates at alpha = 2 alone: both forms redraw that
    # family with sub-seed 1002 and keep seed 2's draw at the other alphas
    grid, seeds, alphas = SpectralGrid(16), range(4), (0.05, 2.0, 0.3)
    bad_draw = oracles.per_vector_bands(grid, VELOCITY, 2.0, np.random.default_rng(2), 3)
    bad_weights = grid.band_count * (1.0 + 2.0 * grid.band_k2)
    real, failed = ineq.alpha_gram_schmidt, []

    def degenerate_at(vectors, weights):
        if np.array_equal(vectors, bad_draw) and np.array_equal(weights, bad_weights):
            failed.append(1)
            raise DegenerateFrameError(index=1)
        return real(vectors, weights)
    monkeypatch.setattr(ineq, "alpha_gram_schmidt", degenerate_at)
    got = ineq.run_rho_l2_sweep(grid, seeds, alphas, n=3)
    ref = oracles.alpha_major_rho_l2_sweep(grid, seeds, alphas, n=3)
    assert len(failed) == 2
    assert [r.seed for r in got.reports] == [0, 1, 2, 3, 0, 1, 1002, 3, 0, 1, 2, 3]
    assert sweep_record(got) == sweep_record(ref)


@pytest.mark.parametrize("q", [None, 2, 4])
@pytest.mark.parametrize("n", [16, 32, 48, 64])
def test_rho_profile_is_bitwise_the_whole_stack_density(n, q):
    # velocity, scalar and stream-velocity families, on the band and in the
    # full layout, summed one vector at a time against the stack summed whole
    grid = SpectralGrid(n)
    velocity = ineq.sample_suborthonormal(grid, 5, seed=n).vectors
    scalar = ineq.sample_suborthonormal(grid, 4, seed=n + 1, role=VORTICITY).vectors
    stream = grid.band_u * (scalar / grid.band_k[2])[..., None, :, :]
    for band in (velocity, scalar, stream):
        for given in (band, oracles.full_of_band(grid, band)):
            got = ineq.rho_profile(given, grid, quad_factor=q)
            ref = oracles.whole_stack_rho_profile(given, grid, quad_factor=q)
            assert got.quad_n == ref.quad_n
            assert got.values.tobytes() == ref.values.tobytes()


#: each sweep (production, then its one-family-at-a-time oracle) on 4-vector families
SWEEPS = {
    "lt": (lambda grid, seeds: ineq.run_lt_sweep(grid, seeds, n=4),
           lambda grid, seeds: oracles.sequential_lt_sweep(grid, seeds, n=4)),
    "rho-l2": (lambda grid, seeds: ineq.run_rho_l2_sweep(grid, seeds, (0.05, 1.0, 0.3), n=4),
               lambda grid, seeds: oracles.sequential_rho_l2_sweep(grid, seeds,
                                                                   (0.05, 1.0, 0.3), n=4)),
    "rho-linf": (lambda grid, seeds: ineq.run_rho_linf_sweep(grid, seeds, range(1, 9), n=4),
                 lambda grid, seeds: oracles.sequential_rho_linf_sweep(grid, seeds,
                                                                       range(1, 9), n=4)),
}


def usable_cpus(monkeypatch, count):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)))


def parent_sweep(monkeypatch, target, grid, seeds):
    """The oracle sweep with the whole-stack density, as one thread checked it."""
    with monkeypatch.context() as m:
        m.setattr(ineq, "rho_profile", oracles.whole_stack_rho_profile)
        return SWEEPS[target][1](grid, seeds)


@pytest.mark.parametrize("cpus", [1, 2, 3])
@pytest.mark.parametrize("n, seeds", [
    (16, [7]), (16, range(5)), (32, range(3, 5)), (32, [9, 2, 40, 5]), (64, range(3)),
])
@pytest.mark.parametrize("target", sorted(SWEEPS))
def test_sweep_is_bitwise_the_one_thread_sweep(monkeypatch, target, n, seeds, cpus):
    usable_cpus(monkeypatch, cpus)
    grid, threads = SpectralGrid(n), threading.active_count()
    got = SWEEPS[target][0](grid, seeds)
    assert threading.active_count() == threads
    assert sweep_record(got) == sweep_record(parent_sweep(monkeypatch, target, grid, seeds))


@pytest.mark.parametrize("cpus", [1, 2, 3])
@pytest.mark.parametrize("bad", [{0}, {2}, {2, 4}])
@pytest.mark.parametrize("target", sorted(SWEEPS))
def test_degenerate_seed_raises_the_one_thread_error(monkeypatch, target, bad, cpus):
    # the bad seeds draw zeros at every sub-seed: the first of them in seed
    # order is raised, after every family before it is checked
    usable_cpus(monkeypatch, cpus)
    real_draw, checked = ineq._draw, []

    def draw(grid, n, seed, role):
        bands = real_draw(grid, n, seed, role)
        return np.zeros_like(bands) if seed % 1000 in bad else bands
    def counted(verify):
        def verify_counted(fam, *args):
            checked.append(fam.seed)
            return verify(fam, *args)
        return verify_counted
    monkeypatch.setattr(ineq, "_draw", draw)
    for name in ("verify_lieb_thirring", "verify_rho_l2", "_linf_reports"):
        monkeypatch.setattr(ineq, name, counted(getattr(ineq, name)))
    grid, seeds, threads = SpectralGrid(16), range(5), threading.active_count()
    with pytest.raises(DegenerateFrameError) as got:
        SWEEPS[target][0](grid, seeds)
    assert threading.active_count() == threads
    got_checked, checked[:] = set(checked), []
    with pytest.raises(DegenerateFrameError) as ref:
        parent_sweep(monkeypatch, target, grid, seeds)
    assert str(got.value) == str(ref.value) == \
        f"no independent family after {ineq.MAX_DRAWS} draws (seed {min(bad)})"
    assert got.value.index == ref.value.index
    assert set(checked) == set(range(min(bad))) <= got_checked


@pytest.mark.parametrize("cpus", [1, 2, 3])
@pytest.mark.parametrize("target", sorted(SWEEPS))
def test_empty_sweep_is_refused_on_any_cpu_count(monkeypatch, target, cpus):
    usable_cpus(monkeypatch, cpus)
    threads = threading.active_count()
    with pytest.raises(InvalidParameterError, match=f"the {target} sweep needs at least one"):
        SWEEPS[target][0](SpectralGrid(16), [])
    assert threading.active_count() == threads


@pytest.mark.parametrize("forced", [True, False])
def test_trace_diagonal_matches_per_row_form(forced):
    cfg = forced_cfg(0.3, 1.0) if forced else dyn.SimConfig(nu=1.0, alpha=1.0, grid=GRID,
                                                            dt=0.01, t_end=1.0)
    frame = lyp.TangentFrame.random(GRID, 5, cfg.metric, seed=3)
    state = np.concatenate([dyn.initial_state(cfg)[0][None], frame.vectors])
    assert state[0].any() == forced
    got = lyp.trace_diagonal(GRID, dyn.stream_multipliers(cfg), state, frame.weights)
    assert rel_err(got, oracles.trace_diagonal(cfg, state, frame.weights)) <= KERNEL_RTOL


@pytest.mark.parametrize("max_e", [0, 1, 2, 4, 1024, 32768, 160_000])
def test_spectrum_table_is_the_sorted_enumeration(max_e):
    spec, ref = lattice.LatticeSpectrum(max_e=max_e), oracles.SortedSpectrum(max_e)
    assert spec.eigenvalues.dtype == ref.eigenvalues.dtype
    np.testing.assert_array_equal(spec.eigenvalues, ref.eigenvalues)
    total = ref.eigenvalues.size
    for count in {0, 1, total // 3, total}:
        np.testing.assert_array_equal(spec.lowest(count), ref.lowest(count))
    e = np.arange(-1, max_e + 2)   # below the first eigenvalue and past max_e too
    np.testing.assert_array_equal(spec.counting(e), ref.counting(e))
    for frac in (0.5, 0.999, -1e-9):
        np.testing.assert_array_equal(spec.counting(e + frac), ref.counting(e + frac))


@pytest.mark.parametrize("verify, arg", [(lattice.verify_eigenvalue_bounds, 2000),
                                         (lattice.verify_eigenvalue_bounds, 100_000),
                                         (lattice.verify_liyau, 10_000)])
def test_spectrum_reports_are_the_sorted_enumerations(monkeypatch, verify, arg):
    table = verify(arg)
    monkeypatch.setattr(lattice, "LatticeSpectrum", oracles.SortedSpectrum)
    assert verify(arg) == table


def test_spectral_sums_match_the_sorted_enumeration():
    rep = lattice.verify_spectral_sums(10_000)
    below, above = oracles.spectral_sums(10_000)
    assert rep.passed
    assert np.all(below < rep.inv_below_bound) and np.all(above < rep.invsq_above_bound)
    np.testing.assert_allclose(rep.inv_below, below, rtol=1e-13, atol=0)
    # the exact tails: each 1/lambda^2 times 2^120 is an integer
    lam = oracles._enumerate_sq_norms(16 * 10_000)
    scaled = [int(v) for v in np.ldexp(1.0 / lam.astype(float) ** 2, 120)]
    from_top = list(itertools.accumulate(reversed(scaled)))[::-1] + [0]
    first_above = np.searchsorted(lam, rep.lam_values, side="right")
    exact = (np.array([math.ldexp(float(from_top[i]), -120) for i in first_above])
             + lattice.inverse_square_tail_bound(16 * 10_000))
    err, parent_err = np.abs(rep.invsq_above - exact), np.abs(above - exact)
    assert np.all(err <= parent_err)
    assert np.all(err <= 1e-13 * exact)


def test_per_cap_spectral_sums_match_the_sorted_enumeration():
    # the rho-linf sweep reads every cap's sums off one shared spectrum
    spectrum = lattice.LatticeSpectrum(max_e=16 * 64)
    for cap in range(1, 65):
        e_max = max(16 * cap, 64)
        lam = oracles._enumerate_sq_norms(e_max).astype(float)
        below = float(np.sum(1.0 / lam[lam <= cap]))
        above = float(np.sum(1.0 / lam[lam > cap] ** 2)) + lattice.inverse_square_tail_bound(e_max)
        for spec in (spectrum, lattice.LatticeSpectrum(max_e=e_max)):
            assert abs(lattice.sum_inverse_below(cap, spec) - below) <= 1e-13 * below
            assert abs(lattice.sum_inverse_square_above(cap, spec) - above) <= 1e-13 * above


# ----------------------------------------------------------------------------
# report records: dataclasses.asdict and the shared bound formulas against the
# hand-written fields and formulas they replace


@pytest.mark.parametrize("d, geometry", [(2, "torus"), (2, "domain"), (3, "torus"), (3, "domain")])
def test_bounds_report_is_the_written_out_report(d, geometry):
    for alpha, g_norm in itertools.product((0.0, 1e-4, 0.01, 1.0), (0.0, 1.0, 1e3, 1e8)):
        inp = B.BoundsInput(d=d, nu=1.0, alpha=alpha, g_norm=g_norm, geometry=geometry)
        rep = B.build_report(inp)
        payload, text = oracles.bounds_report(inp)
        # unsorted dumps: the same fields in the same order, floats by repr
        assert json.dumps(rep.as_dict()) == json.dumps(payload), (alpha, g_norm)
        assert rep.to_text() == text, (alpha, g_norm)


def test_log_entries_are_the_written_out_branches_over_a_grashof_sweep():
    # the log-form and classical torus log entries at 241 values of calG, bitwise
    for g_norm in np.geomspace(1e-3, 1e9, 241).tolist():
        inp = B.BoundsInput(d=2, nu=1.0, alpha=0.0, g_norm=g_norm)
        payload, text = oracles.bounds_report(inp)
        assert json.dumps(B.build_report(inp).as_dict()) == json.dumps(payload), g_norm


@pytest.mark.parametrize("sweep", [
    lambda grid: ineq.run_lt_sweep(grid, range(3), n=4),
    lambda grid: ineq.run_rho_l2_sweep(grid, range(2), (0.1, 1.0), n=4),
    lambda grid: ineq.run_rho_linf_sweep(grid, range(2), range(1, 5), n=4),
], ids=["lt", "rho-l2", "rho-linf"])
def test_inequality_reports_are_the_written_out_records(sweep):
    reports = sweep(SpectralGrid(16)).reports
    assert json.dumps([asdict(r) for r in reports]) == json.dumps(
        [oracles.inequality_report_dict(r) for r in reports])


# ----------------------------------------------------------------------------
# one FieldSpec and one CLI block mapper against the two spec classes and the
# two mappers they replace

def built(spec, grid):
    """spec built on grid as (role, coefficient bytes), or the refusal it raises."""
    try:
        f = spec.build(grid)
    except (ValueError, TypeError) as err:
        return type(err), str(err)
    return f.role, f.coeffs.tobytes()


def test_one_spec_class_is_both_specs():
    assert dyn.ForcingSpec is dyn.InitialSpec is dyn.FieldSpec


def test_field_spec_builds_bitwise_as_the_two_spec_classes(tmp_path):
    good = tmp_path / "good.field"
    fieldio.save_field(sp.random_field(GRID, VELOCITY, seed=2), good, alpha=0.0)
    (tmp_path / "bad.field").write_text("not a field\n")
    field = sp.random_field(GRID, VELOCITY, seed=5)
    rotational = sp.SpectralField(GRID, VELOCITY, sp.random_field(GRID, VORTICITY, seed=6).coeffs
                                  * np.ones((2, 1, 1)))
    modes = [((0, 2), (-2.0j, 0.0)), ((1, 1), (0.4, -0.4))]
    forcing, initial = (oracles.ForcingSpec,), (oracles.InitialSpec,)
    both = forcing + initial
    cases = [("zero", (), both), ("shear", (1.0,), both), ("shear", (2.5, 2), both),
             ("shear", (0.5, 9), both), ("from_modes", (modes,), forcing),
             ("random", (4,), initial), ("random", (3, 1.0, 2.0), initial),
             ("from_file", (good,), initial), ("from_file", (tmp_path / "bad.field",), initial),
             ("from_file", (tmp_path / "missing.field",), initial),
             ("from_field", (field,), initial), ("from_field", (rotational,), initial)]
    for name, args, olds in cases:
        for grid in (GRID, SpectralGrid(32)):
            got = built(getattr(dyn.FieldSpec, name)(*args), grid)
            for cls in olds:
                assert got == built(getattr(cls, name)(*args), grid), (name, args, cls)


def block_values(block):
    """The values each key of a nested block takes in test_cli's valid tables,
    as parse_config receives them (a flag typed as the flag parser types it,
    a config value as JSON holds it), plus an integral float wavenumber and an
    int amplitude from a config file, and a readable snapshot file."""
    values = {key: [cli._from_flag(v, cli.FLOW_FLAGS[block][key]) for v in valid]
              for key, valid in FLOW_VALID[block].items()}
    for key, valid in CONFIG_VALID[block].items():
        values.setdefault(key, []).extend(valid)
    values["wavenumber"].append(2.0)
    values["amplitude"].append(2)
    if block == "forcing":
        values["kind"] += ("modes",)
    else:
        values["path"] += ("good.field",)
    return values


@pytest.mark.parametrize("block", ["forcing", "initial"])
def test_spec_from_maps_every_block_bitwise_as_the_two_mappers(tmp_path, block):
    for name, text in FIELD_FILES.items():
        (tmp_path / name).write_text(text)
    fieldio.save_field(sp.random_field(GRID, VELOCITY, seed=2), tmp_path / "good.field", alpha=0.0)
    values = block_values(block)
    keys = sorted(values)
    seed, mapped = 5, 0
    for choice in itertools.product(*([None] + list(values[key]) for key in keys)):
        given = {key: value for key, value in zip(keys, choice) if value is not None}
        if "path" in given:
            given["path"] = str(tmp_path / given["path"])
        try:
            params = cli.parse_config("simulate", None, {block: given})
        except ConfigError:
            continue
        want = (oracles.forcing_from(params) if block == "forcing"
                else oracles.initial_from(params, seed))
        assert built(cli._spec_from(params[block], seed), GRID) == built(want, GRID), given
        mapped += 1
    assert mapped > {"forcing": 50, "initial": 1000}[block]


def refused(subcommand, config_path, overrides) -> set:
    """The problems parse_config finds, as a set."""
    try:
        cli.parse_config(subcommand, config_path, overrides)
    except ConfigError as err:
        return set(err.problems)
    return set()


def test_range_rows_refuse_as_the_written_out_validator(tmp_path, monkeypatch):
    # every refusal-table row; each numeric key alone at -1, 0 and 1, which breaks
    # every range rule, row or no row, at its bound; two such keys at -1 at once; and
    # all of a subcommand's at once, alone and beside the rules no row states
    parser, cases = cli.build_parser(), []
    for argv, config, _ in [*REFUSALS.values(), *RANGE_REFUSALS.values()]:
        path = None
        if config is not None:
            path = tmp_path / f"c{len(cases)}.json"
            path.write_text(json.dumps(config))
        cases.append((argv[0], path, cli._collect_overrides(parser.parse_args(argv), argv[0])))
    others = {"bounds": {"geometry": "foo"},
              "simulate": {"initial": {"kind": "random", "seed": -1, "sed": 2}},
              "lyapunov": {"burn_in": -3.0, "forcing": {"kind": "modes"}},
              "verify": {"target": "nope", "kind": "x", "lam_min": 9, "alphas": []}}
    several = []
    for subcommand, schema in cli.SCHEMAS.items():
        base = {"target": "spectrum"} if subcommand == "verify" else {}
        numeric = [key for key, (typ, *_) in schema.items() if typ in (int, float)]
        cases.extend((subcommand, None, {**base, key: value})
                     for key in numeric for value in (-1, 0, 1))
        several.extend((subcommand, None, {**base, a: -1, b: -1})
                       for a, b in itertools.combinations(numeric, 2))
        every = {key: -1 for key in numeric}
        several += [(subcommand, None, {**base, **every}),
                    (subcommand, None, {**every, **others[subcommand]})]
    cases += several
    new = [refused(*case) for case in cases]
    monkeypatch.setattr(cli, "SCHEMAS", {
        subcommand: {key: (typ, default, None) for key, (typ, default, _) in schema.items()}
        for subcommand, schema in cli.SCHEMAS.items()})
    monkeypatch.setattr(cli, "_constraint_problems", oracles.constraint_problems)
    old = [refused(*case) for case in cases]
    for case, got, want in zip(cases, new, old):
        assert got == want, case
    assert all(new[-len(several):])


# ----------------------------------------------------------------------------
# simulate's field files, formatted in the writer process

#: a snapshot file whose conjugate pairs differ in the sign of a zero part:
#: "-0" at (0, -1), where the conjugate of (0, 1) puts it, and "0" at
#: (-1, 0), where the conjugate of (1, 0) would put "-0"
SIGNED_ZERO_FIELD = (f"{fieldio.FIELD_MAGIC}\n"
                     "# resolution_n=16 dealias_cutoff=5 role=velocity alpha=0\n"
                     "# columns: component k1 k2 re im\n"
                     "0 0 1 0.5 0\n0 0 -1 0.5 -0\n1 1 0 0.25 0\n1 -1 0 0.25 0\n")


@pytest.mark.filterwarnings("ignore::nsvlab.dynamics.InsufficientDurationWarning")
@pytest.mark.parametrize("run", [
    {"alpha": 0.5, "t_end": 0.23, "snapshot_every": 5, "initial": {"kind": "random"}},
    {"alpha": 0.0, "t_end": 0.15, "snapshot_every": 5, "initial": {"kind": "file"}},
    {"alpha": 0.1, "t_end": 0.2, "snapshot_every": 10, "initial": {"kind": "random"}},
    {"alpha": 1.0, "t_end": 0.0, "snapshot_every": 10, "initial": {"kind": "random"}},
    {"alpha": 0.5, "t_end": 0.1, "snapshot_every": 0, "initial": {"kind": "shear"}},
], ids=["alpha", "alpha0-file-signed-zero", "t_end-on-a-snapshot", "zero-steps", "no-snapshots"])
def test_writer_files_are_the_in_process_snapshot_text(tmp_path, run):
    start = tmp_path / "start.field"
    start.write_text(SIGNED_ZERO_FIELD)
    if run["initial"]["kind"] == "file":
        run = {**run, "initial": {"kind": "file", "path": str(start)}}
    params = cli.parse_config("simulate", None, {
        "n": 16, "dt": 0.01, "sample_every": 5,
        "forcing": {"kind": "shear", "amplitude": 3.0}, **run})
    out = tmp_path / "out"
    assert cli.run("simulate", params, 0, out) == cli.EXIT_OK
    cfg = cli._sim_config(params, 0)
    result = dyn.integrate(cfg, snapshot_every=params["snapshot_every"])
    expected = {f"snapshot_t{t:.6g}.field": oracles.save_field_text(f, cfg.alpha)
                for t, f in result.snapshots}
    expected["final_state.field"] = oracles.save_field_text(result.final, cfg.alpha)
    assert {p.name for p in out.glob("*.field")} == set(expected)
    for name, text in expected.items():
        assert (out / name).read_bytes() == text.encode(), name
    hashes = {a["path"]: a["sha256"]
              for a in json.loads((out / "manifest.json").read_text())["artifacts"]}
    assert {name: hashes[name] for name in expected} == {
        name: hashlib.sha256(text.encode()).hexdigest() for name, text in expected.items()}
    if run["initial"]["kind"] == "file":
        assert (out / "snapshot_t0.field").read_bytes() == start.read_bytes()
