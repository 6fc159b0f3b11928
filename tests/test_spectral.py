"""Spectral core: operators, invariants, and hand-derived mode examples."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from nsvlab import spectral as sp
from nsvlab.errors import GridMismatchError, InvalidParameterError, RoleMismatchError
from nsvlab.spectral import (
    TORUS_AREA,
    VELOCITY,
    VORTICITY,
    AlphaMetric,
    SpectralField,
    SpectralGrid,
)

import oracles

GRID = SpectralGrid(32)
SMALL = SpectralGrid(16)


class TestGridAndMetric:
    def test_grid_validation(self):
        with pytest.raises(InvalidParameterError):
            SpectralGrid(6)
        with pytest.raises(InvalidParameterError):
            SpectralGrid(33)
        with pytest.raises(InvalidParameterError):
            SpectralGrid(32, dealias_cutoff=11)  # > 32 // 3

    def test_default_cutoff_is_two_thirds_rule(self):
        assert SpectralGrid(64).dealias_cutoff == 21
        assert SpectralGrid(48).dealias_cutoff == 16

    def test_alpha_metric_rejects_negative(self):
        with pytest.raises(InvalidParameterError):
            AlphaMetric(-0.5)

    def test_alpha_zero_weights_are_identity(self):
        w = AlphaMetric(0.0).weights(SMALL)
        assert np.all(w == 1.0)


class TestLerayProjection:
    def test_gradient_mode_annihilated(self):
        # u_hat(k) parallel to k is a pure gradient
        f = sp.field_from_modes(GRID, VELOCITY, {(2, 1): (2.0, 1.0)}, project=False)
        p = sp.leray_project(f)
        assert np.max(np.abs(p.coeffs)) < 1e-15

    def test_divergence_free_field_unchanged(self):
        f = sp.random_field(GRID, VELOCITY, seed=0)
        p = sp.leray_project(f)
        np.testing.assert_allclose(p.coeffs, f.coeffs, rtol=0, atol=1e-15)

    def test_single_mode_by_hand(self):
        # u_hat((1,0)) = (1,1) -> (0,1): subtract k (k.u)/|k|^2
        f = sp.field_from_modes(GRID, VELOCITY, {(1, 0): (1.0, 1.0)}, project=False)
        p = sp.leray_project(f)
        np.testing.assert_allclose(p.coeffs[:, 1, 0], [0.0, 1.0], atol=1e-15)

    def test_idempotent(self):
        f = sp.field_from_modes(GRID, VELOCITY, {(3, 2): (0.3 + 1j, -2.0)}, project=False)
        once = sp.leray_project(f)
        twice = sp.leray_project(once)
        np.testing.assert_allclose(twice.coeffs, once.coeffs, rtol=1e-14, atol=1e-16)

    def test_role_mismatch(self):
        w = sp.random_field(GRID, VORTICITY, seed=1)
        with pytest.raises(RoleMismatchError):
            sp.leray_project(w)


class TestStokesAndHelmholtz:
    def test_stokes_s0_identity(self):
        f = sp.random_field(GRID, VELOCITY, seed=2)
        np.testing.assert_array_equal(oracles.stokes_apply(f, 0.0).coeffs, f.coeffs)

    def test_stokes_ground_mode_unchanged(self):
        f = sp.field_from_modes(GRID, VORTICITY, {(0, 1): 1.0})
        np.testing.assert_allclose(oracles.stokes_apply(f, 2.0).coeffs, f.coeffs, atol=1e-16)

    def test_stokes_mode_12_times_five(self):
        f = sp.field_from_modes(GRID, VORTICITY, {(1, 2): 1.0 + 0.5j})
        out = oracles.stokes_apply(f, 2.0)
        np.testing.assert_allclose(out.coeffs, 5.0 * f.coeffs, rtol=1e-15)

    def test_stokes_negative_power_inverts(self):
        f = sp.random_field(GRID, VORTICITY, seed=6, decay=2.0)
        back = oracles.stokes_apply(oracles.stokes_apply(f, 2.0), -2.0)
        np.testing.assert_allclose(back.coeffs, f.coeffs, rtol=1e-13, atol=1e-18)

    def test_helmholtz_alpha_zero_identity(self):
        f = sp.random_field(GRID, VELOCITY, seed=3)
        np.testing.assert_array_equal(oracles.helmholtz_solve(f, AlphaMetric(0.0)).coeffs, f.coeffs)

    def test_helmholtz_mode_values(self):
        f = sp.field_from_modes(GRID, VORTICITY, {(0, 1): 1.0})
        out = oracles.helmholtz_solve(f, AlphaMetric(1.0))
        np.testing.assert_allclose(out.coeffs, 0.5 * f.coeffs, rtol=1e-15)
        f4 = sp.field_from_modes(GRID, VORTICITY, {(0, 2): 1.0})
        out4 = oracles.helmholtz_solve(f4, AlphaMetric(0.5))
        np.testing.assert_allclose(out4.coeffs, f4.coeffs / 3.0, rtol=1e-15)

    def test_operator_consistency(self):
        # helmholtz_solve((1 + alpha A) u) = u
        u = sp.random_field(GRID, VELOCITY, seed=4)
        metric = AlphaMetric(0.7)
        forward = u + 0.7 * oracles.stokes_apply(u, 2.0)
        back = oracles.helmholtz_solve(forward, metric)
        np.testing.assert_allclose(back.coeffs, u.coeffs, rtol=1e-12, atol=1e-18)


class TestAlphaInner:
    def test_unit_shear_mode(self):
        u = sp.shear_field(GRID, amplitude=1.0 / (math.sqrt(2) * math.pi))
        assert oracles.l2_norm(u) == pytest.approx(1.0, rel=1e-13)
        for alpha in (0.0, 0.3, 2.0):
            assert oracles.alpha_inner(u, u, AlphaMetric(alpha)) == pytest.approx(1 + alpha, rel=1e-13)

    def test_orthogonal_distinct_modes(self):
        u = sp.field_from_modes(GRID, VELOCITY, {(0, 1): (1.0, 0.0)})
        v = sp.field_from_modes(GRID, VELOCITY, {(0, 2): (1.0, 0.0)})
        assert abs(oracles.alpha_inner(u, v, AlphaMetric(1.0))) < 1e-15

    def test_alpha_zero_is_l2(self):
        u = sp.random_field(GRID, VELOCITY, seed=5)
        v = sp.random_field(GRID, VELOCITY, seed=6)
        assert oracles.alpha_inner(u, v, AlphaMetric(0.0)) == pytest.approx(oracles.l2_inner(u, v), rel=1e-14)

    def test_role_mismatch(self):
        u = sp.random_field(GRID, VELOCITY, seed=5)
        w = sp.random_field(GRID, VORTICITY, seed=5)
        with pytest.raises(RoleMismatchError):
            oracles.alpha_inner(u, w, AlphaMetric(0.0))

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 10_000), alpha=st.floats(0.0, 4.0))
    def test_parseval_vs_physical_quadrature(self, seed, alpha):
        u = sp.random_field(SMALL, VELOCITY, seed=seed, decay=2.5)
        v = sp.random_field(SMALL, VELOCITY, seed=seed + 1, decay=2.5)
        spectral = oracles.alpha_inner(u, v, AlphaMetric(alpha))
        # physical collocation of u.v + alpha grad u : grad v
        cell = (2 * math.pi / SMALL.n) ** 2
        up, vp = u.to_physical(), v.to_physical()
        dux = sp.to_physical(1j * SMALL.kx * u.coeffs)
        duy = sp.to_physical(1j * SMALL.ky * u.coeffs)
        dvx = sp.to_physical(1j * SMALL.kx * v.coeffs)
        dvy = sp.to_physical(1j * SMALL.ky * v.coeffs)
        quad = float(np.sum(up * vp + alpha * (dux * dvx + duy * dvy))) * cell
        assert spectral == pytest.approx(quad, rel=1e-8, abs=1e-12)


def advect(u):
    """B(u,u) from the production kernel, as a field: the kernel returns its
    curl u.grad w on the band, which Biot-Savart maps back to velocity."""
    grid = u.grid
    curl = sp.bilinear_coeffs(grid, sp.stream_of(grid, u.coeffs))
    psi = curl / np.where(grid.band_k2 > 0, grid.band_k2, 1.0)
    return SpectralField(grid, VELOCITY, sp.velocity_of(grid, psi))


class TestBilinear:
    def test_shear_self_advection_vanishes(self):
        u = sp.shear_field(GRID, 1.0)
        b = advect(u)
        assert np.max(np.abs(b.coeffs)) == 0.0

    def test_skew_symmetry(self):
        u = sp.random_field(GRID, VELOCITY, seed=7, decay=2.0)
        b = advect(u)
        bound = 1e-10 * oracles.l2_norm(u) * oracles.grad_norm_sq(u)
        assert abs(oracles.l2_inner(b, u)) <= bound

    def test_two_mode_convolution_oracle(self):
        # supported sums of {(+-1,0), (0,+-1)}: |k|^2 in {0, 2, 4}; compare
        # every retained coefficient against a direct convolution of the modes
        modes = {(1, 0): (0.0, 0.4 + 0.1j), (0, 1): (0.5 - 0.2j, 0.0)}
        u = sp.field_from_modes(GRID, VELOCITY, modes, project=True)
        b = advect(u)

        # collect the full (conjugate-completed) mode dictionary of u
        n = GRID.n
        amps = {}
        for (k1, k2) in [(1, 0), (-1, 0), (0, 1), (0, -1)]:
            amps[(k1, k2)] = u.coeffs[:, k1 % n, k2 % n].copy()
        conv = {}
        for (p1, p2), ap in amps.items():
            for (q1, q2), aq in amps.items():
                k = (p1 + q1, p2 + q2)
                # (u.grad)v contribution: i (p-dot-nothing) ... u_p (i q) . v_q
                term = ap[0] * (1j * q1) * aq + ap[1] * (1j * q2) * aq
                conv[k] = conv.get(k, np.zeros(2, dtype=complex)) + term
        supported = set()
        for (k1, k2), amp in conv.items():
            if (k1, k2) == (0, 0):
                continue
            ksq = k1 * k1 + k2 * k2
            kv = np.array([k1, k2], dtype=float)
            proj = amp - kv * (kv @ amp) / ksq
            got = b.coeffs[:, k1 % n, k2 % n]
            np.testing.assert_allclose(got, proj, atol=1e-14)
            if np.max(np.abs(proj)) > 1e-14:
                supported.add(ksq)
        assert supported <= {2, 4}
        # nothing outside the convolution support
        mask = np.ones((n, n), dtype=bool)
        for (k1, k2) in conv:
            mask[k1 % n, k2 % n] = False
        assert np.max(np.abs(b.coeffs[:, mask])) < 1e-15

    def test_grid_mismatch(self):
        u = sp.random_field(GRID, VELOCITY, seed=8)
        v = sp.random_field(SMALL, VELOCITY, seed=8)
        with pytest.raises(GridMismatchError):
            oracles.bilinear_b(u, v)

    def test_output_divergence_free_and_zero_mean(self):
        u = sp.random_field(GRID, VELOCITY, seed=9, decay=2.0)
        b = advect(u)
        assert sp.divergence_linf(b) < 1e-12 * max(oracles.l2_norm(b), 1e-300)
        assert b.coeffs[0, 0, 0] == 0 and b.coeffs[1, 0, 0] == 0


class TestCurlAndStream:
    def test_rot_of_shear(self):
        # rot((sin x2, 0)) = -cos x2
        u = sp.shear_field(GRID, 1.0)
        w = sp.vorticity_of(u)
        x = 2 * math.pi * np.arange(GRID.n) / GRID.n
        expected = np.broadcast_to(-np.cos(x)[None, :], (GRID.n, GRID.n))
        np.testing.assert_allclose(w.to_physical(), expected, atol=1e-14)

    def test_roundtrip_random(self):
        w = sp.random_field(GRID, VORTICITY, seed=10, decay=2.0)
        back = sp.vorticity_of(sp.velocity_from_vorticity(w))
        np.testing.assert_allclose(back.coeffs, w.coeffs, rtol=0, atol=1e-12)

    def test_single_mode_magnitude(self):
        # |u_hat| = |w_hat| |k_perp| / |k|^2 = |w_hat| / sqrt(2) at k=(1,1)
        w = sp.field_from_modes(GRID, VORTICITY, {(1, 1): 1.0})
        u = sp.velocity_from_vorticity(w)
        got = np.linalg.norm(u.coeffs[:, 1, 1])
        assert got == pytest.approx(abs(w.coeffs[1, 1]) / math.sqrt(2), rel=1e-14)

    def test_velocity_output_divergence_free(self):
        w = sp.random_field(GRID, VORTICITY, seed=11)
        u = sp.velocity_from_vorticity(w)
        assert sp.divergence_linf(u) < 1e-14


class TestReality:
    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_operations_preserve_conjugate_symmetry(self, seed):
        u = sp.random_field(SMALL, VELOCITY, seed=seed, decay=2.0)
        results = [
            sp.leray_project(u),
            oracles.stokes_apply(u, 2.0),
            oracles.helmholtz_solve(u, AlphaMetric(0.5)),
            advect(u),
            sp.velocity_from_vorticity(sp.vorticity_of(u)),
        ]
        n = SMALL.n
        idx = np.arange(n)
        for r in results:
            mirrored = np.conj(r.coeffs[..., (-idx) % n, :][..., :, (-idx) % n])
            scale = max(np.max(np.abs(r.coeffs)), 1e-300)
            assert np.max(np.abs(r.coeffs - mirrored)) / scale < 1e-13

    def test_physical_space_is_real(self):
        u = sp.random_field(SMALL, VELOCITY, seed=123, decay=2.0)
        phys = np.fft.ifft2(u.coeffs, axes=(-2, -1)) * SMALL.n**2
        assert np.max(np.abs(phys.imag)) < 1e-12 * max(np.max(np.abs(phys.real)), 1e-300)


class TestFieldConstructors:
    def test_zero_mode_rejected(self):
        with pytest.raises(InvalidParameterError):
            sp.field_from_modes(GRID, VORTICITY, {(0, 0): 1.0})

    def test_mode_outside_grid_rejected(self):
        with pytest.raises(InvalidParameterError):
            sp.field_from_modes(SMALL, VORTICITY, {(8, 0): 1.0})

    def test_random_field_deterministic(self):
        a = sp.random_field(GRID, VELOCITY, seed=42)
        b = sp.random_field(GRID, VELOCITY, seed=42)
        np.testing.assert_array_equal(a.coeffs, b.coeffs)

    def test_random_field_dealiased_and_projected(self):
        f = sp.random_field(GRID, VELOCITY, seed=13)
        assert np.max(np.abs(f.coeffs[:, ~GRID.dealias_mask])) == 0.0
        assert sp.divergence_linf(f) < 1e-14
        assert f.coeffs[0, 0, 0] == 0.0

    def test_field_arithmetic_role_guard(self):
        u = sp.random_field(GRID, VELOCITY, seed=1)
        w = sp.random_field(GRID, VORTICITY, seed=1)
        with pytest.raises(RoleMismatchError):
            _ = u + w
