"""Time stepping: analytic solutions, a priori estimates, order checks."""

import math
import tracemalloc
import warnings

import numpy as np
import pytest

from nsvlab import dynamics as dyn
from nsvlab import spectral as sp
from nsvlab.errors import IntegrationDivergedError, InvalidParameterError, RoleMismatchError
from nsvlab.fieldio import save_field
from nsvlab.spectral import VELOCITY, VORTICITY, AlphaMetric, SpectralGrid

import oracles

GRID = SpectralGrid(32)
SMALL = SpectralGrid(16)


def perturbed_shear(grid, seed=9, amp=1.0):
    return sp.shear_field(grid, 1.0) + amp * sp.random_field(grid, VELOCITY, seed=seed, decay=3.0)


class TestConfigs:
    def test_simconfig_validation(self):
        with pytest.raises(InvalidParameterError):
            dyn.SimConfig(nu=0.0, alpha=1.0, grid=GRID, dt=1e-3, t_end=1.0)
        with pytest.raises(InvalidParameterError):
            dyn.SimConfig(nu=1.0, alpha=-1.0, grid=GRID, dt=1e-3, t_end=1.0)
        with pytest.raises(InvalidParameterError):
            dyn.SimConfig(nu=1.0, alpha=1.0, grid=GRID, dt=0.0, t_end=1.0)

    @pytest.mark.parametrize("name, value", [
        ("alpha", math.nan), ("nu", math.nan), ("dt", math.nan), ("t_end", math.nan),
        ("t_end", math.inf), ("dt", math.inf), ("alpha", math.inf)])
    def test_simconfig_refuses_non_finite(self, name, value):
        params = {"nu": 1.0, "alpha": 0.1, "grid": GRID, "dt": 1e-3, "t_end": 1.0, name: value}
        with pytest.raises(InvalidParameterError,
                           match=f"{name}: expected a finite float, got {value!r}"):
            dyn.SimConfig(**params)

    def test_unstable_dt_refused(self):
        # scripts/forced_attractor_study.py at its default calG = 4000
        with pytest.raises(InvalidParameterError) as exc:
            dyn.SimConfig(nu=1.0, alpha=0.99 * 4 / 4000, grid=SpectralGrid(48), dt=0.01,
                          t_end=1.0)
        assert "= 3.113" in str(exc.value) and "2.785" in str(exc.value)

    def test_dt_bound_edges(self):
        # dt * max = 2.78 passes; alpha = 0 is exempt (the viscous factor is exact)
        lam = 15**2 + 15**2
        dt = 2.78 / (lam / (1 + 0.01 * lam))
        dyn.SimConfig(nu=1.0, alpha=0.01, grid=SpectralGrid(48), dt=dt, t_end=1.0)
        with pytest.raises(InvalidParameterError):
            dyn.SimConfig(nu=1.0, alpha=0.01, grid=SpectralGrid(48), dt=dt * 1.002, t_end=1.0)
        dyn.SimConfig(nu=1.0, alpha=0.0, grid=SpectralGrid(48), dt=1.0, t_end=1.0)

    def test_dt_bound_is_taken_over_the_band(self):
        # 2.618 on the band |k_i| <= 15; the whole 48^2 grid would give 2.944
        cfg = dyn.SimConfig(nu=1.0, alpha=0.01, grid=SpectralGrid(48), dt=0.032, t_end=0.64,
                            initial=dyn.InitialSpec.random(seed=3))
        res = dyn.integrate(cfg)
        assert res.steps == 20 and np.all(np.isfinite(res.final.coeffs))
        assert np.max(np.abs(res.final.coeffs)) > 0

    def test_gamma(self):
        cfg = dyn.SimConfig(nu=2.0, alpha=3.0, grid=GRID, dt=1e-3, t_end=1.0)
        assert cfg.gamma == pytest.approx(0.5)

    def test_forcing_build_projected(self):
        f = dyn.ForcingSpec.from_modes([((1, 0), (1.0, 1.0))]).build(GRID)
        assert oracles.divergence_linf(f) < 1e-14
        assert f.coeffs[0, 0, 0] == 0.0

    def test_forcing_refuses_a_repeated_wavevector(self):
        # the second row had silently replaced the first: (0.25, -0.25) at k = (1, 1)
        rows = [((1, 1), (0.5, -0.5)), ((1, 1), (0.25, -0.25))]
        with pytest.raises(InvalidParameterError, match=r"mode \(1, 1\) is listed more than once"):
            dyn.ForcingSpec.from_modes(rows).build(GRID)

    def test_initial_from_field_grid_guard(self):
        other = sp.random_field(SpectralGrid(16), VELOCITY, seed=0)
        with pytest.raises(InvalidParameterError):
            dyn.InitialSpec.from_field(other).build(GRID)

    @pytest.mark.parametrize("make, error, problem", [
        # u = (cos x1, 0) plus a shear: real, but div u = -sin x1
        (lambda: sp.shear_field(SMALL, 1.0) + oracles.field_from_modes(
            SMALL, VELOCITY, {(1, 0): (0.5, 0.0)}, project=False),
         InvalidParameterError, "initial field is not divergence-free"),
        (lambda: sp.shear_field(SMALL, 1.0) * (1 + 0.5j),
         InvalidParameterError, "initial field is not a real field"),
        (lambda: sp.random_field(SMALL, VORTICITY, seed=2),
         RoleMismatchError, "initial field must hold a velocity field"),
    ], ids=["non-solenoidal", "non-real", "vorticity"])
    def test_initial_field_is_checked_like_a_snapshot(self, make, error, problem):
        cfg = dyn.SimConfig(nu=1.0, alpha=1.0, grid=SMALL, dt=0.01, t_end=0.1,
                            initial=dyn.InitialSpec.from_field(make()))
        with pytest.raises(error, match=problem):
            dyn.integrate(cfg, snapshot_every=1)

    def test_initial_field_off_the_band_refused(self):
        c = sp.shear_field(SMALL, 1.0).coeffs
        c[0, 0, 6] = c[0, 0, -6] = 0.25      # plus (cos(6 x2)/2, 0): real, solenoidal, off the band
        with pytest.raises(InvalidParameterError, match="initial field has coefficients outside"):
            dyn.InitialSpec.from_field(sp.SpectralField(SMALL, VELOCITY, c)).build(SMALL)

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("n", [16, 48, 96])
    def test_initial_field_admits_velocity_of_and_random_draws(self, n, seed):
        grid = SpectralGrid(n)
        u = sp.random_field(grid, VELOCITY, seed=seed, decay=seed)
        psi = sp.random_band(grid, VORTICITY, 1.0, np.random.default_rng(seed))
        for c in (u.coeffs, sp.velocity_of(grid, psi), perturbed_shear(grid, seed).coeffs):
            built = dyn.InitialSpec.from_field(sp.SpectralField(grid, VELOCITY, c)).build(grid)
            np.testing.assert_array_equal(built.coeffs, c)

    @pytest.mark.parametrize("rows, problem", [
        # u = (cos x1, 0): real, but div u = -sin x1
        ("0 1 0 0.5 0\n0 -1 0 0.5 0\n", "not divergence-free"),
        # (e^{i x2}/2, 0) without its conjugate at k = (0, -1): divergence-free, not real
        ("0 0 1 0.5 0\n", "not a real field"),
    ], ids=["non-solenoidal", "one-sided"])
    def test_initial_snapshot_must_be_real_and_solenoidal(self, tmp_path, rows, problem):
        path = tmp_path / "u.field"
        path.write_text("# nsvlab-field v1\n"
                        "# resolution_n=32 dealias_cutoff=10 role=velocity alpha=0\n"
                        "# columns: component k1 k2 re im\n" + rows)
        with pytest.raises(InvalidParameterError, match=problem):
            dyn.InitialSpec.from_file(path).build(GRID)

    def test_non_finite_snapshot_refused(self, tmp_path):
        path = tmp_path / "u.field"
        path.write_text("# nsvlab-field v1\n"
                        "# resolution_n=32 dealias_cutoff=10 role=velocity alpha=0\n"
                        "# columns: component k1 k2 re im\n0 0 1 nan 0\n0 0 -1 nan 0\n")
        with pytest.raises(InvalidParameterError, match="non-finite coefficients"):
            dyn.InitialSpec.from_file(path).build(GRID)

    def test_initial_snapshot_round_trips(self, tmp_path):
        u = sp.random_field(GRID, VELOCITY, seed=5)
        save_field(u, tmp_path / "u.field")
        built = dyn.InitialSpec.from_file(tmp_path / "u.field").build(GRID)
        np.testing.assert_array_equal(built.coeffs, u.coeffs)


class TestRhsVelocity:
    def test_single_mode_decay_rate(self):
        # g=0, u = c (sin x2, 0): rhs = -(nu/(1+alpha)) u
        cfg = dyn.SimConfig(nu=0.7, alpha=0.4, grid=GRID, dt=1e-3, t_end=1.0)
        u = sp.shear_field(GRID, 2.5)
        out = oracles.rhs_velocity(u, cfg)
        np.testing.assert_allclose(out.coeffs, -(0.7 / 1.4) * u.coeffs, rtol=1e-13, atol=1e-18)

    def test_zero_state_returns_smoothed_forcing(self):
        cfg = dyn.SimConfig(nu=1.0, alpha=2.0, grid=GRID, dt=1e-3, t_end=1.0,
                            forcing=dyn.ForcingSpec.shear(3.0))
        out = oracles.rhs_velocity(sp.zero_field(GRID, VELOCITY), cfg)
        g = cfg.forcing.build(GRID)
        np.testing.assert_allclose(out.coeffs, g.coeffs / 3.0, rtol=1e-13, atol=1e-18)

    def test_alpha_zero_is_classical_rhs(self):
        cfg = dyn.SimConfig(nu=0.3, alpha=0.0, grid=GRID, dt=1e-3, t_end=1.0,
                            forcing=dyn.ForcingSpec.shear(1.0))
        u = sp.random_field(GRID, VELOCITY, seed=1, decay=2.0)
        got = oracles.rhs_velocity(u, cfg)
        expected = cfg.forcing.build(GRID) - oracles.bilinear_b(u, u) - 0.3 * oracles.stokes_apply(u, 2.0)
        np.testing.assert_allclose(got.coeffs, expected.coeffs, rtol=1e-13, atol=1e-18)


class TestRhsVorticity:
    def test_single_mode_multiplier(self):
        # g=0, single mode |k|^2 = lam: rhs = -nu lam/(1+alpha lam) w
        cfg = dyn.SimConfig(nu=1.2, alpha=0.5, grid=GRID, dt=1e-3, t_end=1.0)
        w = sp.field_from_modes(GRID, VORTICITY, {(1, 2): 0.8 - 0.1j})
        out = oracles.rhs_vorticity(w, cfg)
        lam = 5.0
        np.testing.assert_allclose(out.coeffs, -(1.2 * lam / (1 + 0.5 * lam)) * w.coeffs,
                                   rtol=1e-13, atol=1e-18)

    def test_intertwines_with_velocity_form(self):
        cfg = dyn.SimConfig(nu=0.7, alpha=0.3, grid=GRID, dt=1e-3, t_end=1.0,
                            forcing=dyn.ForcingSpec.from_modes(
                                [((1, 2), (0.5 + 0.1j, -0.2j)), ((0, 1), (1.0, 0.0))]))
        u = sp.random_field(GRID, VELOCITY, seed=5, decay=2.0)
        lhs = oracles.vorticity_of(oracles.rhs_velocity(u, cfg))
        rhs = oracles.rhs_vorticity(oracles.vorticity_of(u), cfg)
        scale = max(np.max(np.abs(lhs.coeffs)), 1e-300)
        assert np.max(np.abs(lhs.coeffs - rhs.coeffs)) / scale < 1e-10


class TestIntegrate:
    def test_zero_data_zero_forcing(self):
        cfg = dyn.SimConfig(nu=1.0, alpha=1.0, grid=GRID, dt=1e-2, t_end=0.5)
        res = dyn.integrate(cfg)
        assert np.max(np.abs(res.final.coeffs)) == 0.0

    def test_single_mode_decay(self):
        cfg = dyn.SimConfig(nu=1.0, alpha=1.0, grid=GRID, dt=1e-3, t_end=1.0,
                            initial=dyn.InitialSpec.shear(1.0), sample_every=100)
        res = dyn.integrate(cfg)
        exact = sp.shear_field(GRID, math.exp(-0.5))
        err = np.max(np.abs(res.final.coeffs - exact.coeffs)) / np.max(np.abs(exact.coeffs))
        assert err <= 1e-6

    def test_steady_shear_fixed_point(self):
        cfg = dyn.SimConfig(nu=1.0, alpha=1.0, grid=GRID, dt=1e-3, t_end=1.0,
                            forcing=dyn.ForcingSpec.shear(1.0),
                            initial=dyn.InitialSpec.shear(1.0), sample_every=100)
        res = dyn.integrate(cfg)
        drift = np.max(np.abs(res.final.coeffs - sp.shear_field(GRID, 1.0).coeffs))
        assert drift <= 1e-10

    def test_integrating_factor_alpha0_exact_linear_decay(self):
        # the alpha=0 path handles the viscous multiplier exactly
        cfg = dyn.SimConfig(nu=1.0, alpha=0.0, grid=GRID, dt=1e-2, t_end=1.0,
                            initial=dyn.InitialSpec.shear(1.0), sample_every=10)
        res = dyn.integrate(cfg)
        exact = sp.shear_field(GRID, math.exp(-1.0))
        err = np.max(np.abs(res.final.coeffs - exact.coeffs))
        assert err < 1e-13

    def test_divergence_and_reality_preserved(self):
        cfg = dyn.SimConfig(nu=0.5, alpha=0.5, grid=GRID, dt=2e-3, t_end=0.5,
                            forcing=dyn.ForcingSpec.shear(1.0, 2),
                            initial=dyn.InitialSpec.random(seed=3), sample_every=50)
        res = dyn.integrate(cfg)
        c = res.final.coeffs
        assert oracles.divergence_linf(res.final) < 1e-12 * max(oracles.l2_norm(res.final), 1e-300)
        n = GRID.n
        idx = np.arange(n)
        mirrored = np.conj(c[..., (-idx) % n, :][..., :, (-idx) % n])
        assert np.max(np.abs(c - mirrored)) < 1e-12 * max(np.max(np.abs(c)), 1e-300)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # overflow precedes detection
    def test_divergence_detection(self):
        # wildly unstable dt for alpha=0 classical path would be masked by the
        # integrating factor, so push a huge forcing through the nonlinearity
        cfg = dyn.SimConfig(nu=1e-8, alpha=0.0, grid=GRID, dt=10.0, t_end=200.0,
                            forcing=dyn.ForcingSpec.shear(1e8, 2),
                            initial=dyn.InitialSpec.random(seed=1), sample_every=1)
        with pytest.raises(IntegrationDivergedError) as exc:
            dyn.integrate(cfg)
        assert exc.value.step > 0

    def test_cfl_warning(self):
        cfg = dyn.SimConfig(nu=1.0, alpha=1.0, grid=GRID, dt=0.5, t_end=1.0,
                            initial=dyn.InitialSpec.shear(5.0), sample_every=1)
        with pytest.warns(dyn.CflWarning):
            dyn.integrate(cfg)

    def test_deterministic(self):
        cfg = dyn.SimConfig(nu=1.0, alpha=0.5, grid=GRID, dt=2e-3, t_end=0.2,
                            forcing=dyn.ForcingSpec.shear(1.0),
                            initial=dyn.InitialSpec.random(seed=7), sample_every=10)
        a = dyn.integrate(cfg).final.coeffs
        b = dyn.integrate(cfg).final.coeffs
        np.testing.assert_array_equal(a, b)

    def test_snapshots_collected(self):
        cfg = dyn.SimConfig(nu=1.0, alpha=1.0, grid=GRID, dt=1e-2, t_end=0.2,
                            initial=dyn.InitialSpec.shear(1.0), sample_every=5)
        res = dyn.integrate(cfg, snapshot_every=10)
        assert [t for t, _ in res.snapshots] == pytest.approx([0.0, 0.1, 0.2])

    def test_snapshots_only_at_sampled_steps(self):
        # snapshot_every 5 with sample_every 10 snapshots every 10 steps
        cfg = dyn.SimConfig(nu=1.0, alpha=1.0, grid=SMALL, dt=1e-2, t_end=0.3,
                            initial=dyn.InitialSpec.shear(1.0), sample_every=10)
        res = dyn.integrate(cfg, snapshot_every=5)
        assert [t for t, _ in res.snapshots] == pytest.approx([0.0, 0.1, 0.2, 0.3])

    def test_negative_snapshot_every_refused(self):
        cfg = dyn.SimConfig(nu=1.0, alpha=1.0, grid=SMALL, dt=1e-2, t_end=0.1)
        with pytest.raises(InvalidParameterError, match="snapshot_every must be >= 0, got -5"):
            dyn.integrate(cfg, snapshot_every=-5)


class TestEnergyBudget:
    def test_rk4_order_on_perturbed_shear(self):
        # halving dt must shrink the budget defect by >= 2^4
        def residual(dt):
            cfg = dyn.SimConfig(nu=1.0, alpha=0.1, grid=GRID, dt=dt, t_end=1.0,
                                forcing=dyn.ForcingSpec.shear(1.0),
                                initial=dyn.InitialSpec.from_field(perturbed_shear(GRID)),
                                sample_every=10**9)
            return abs(dyn.integrate(cfg, track_energy_budget=True).energy_residual)

        r0, r1 = residual(0.02), residual(0.01)
        assert r1 > 1e-13  # above the round-off floor, so the ratio is meaningful
        assert r0 / r1 >= 16.0

    def test_local_budget_defect_is_fifth_order(self):
        # one step: defect O(dt^5), so halving dt shrinks it by ~2^5
        def one_step_residual(dt):
            cfg = dyn.SimConfig(nu=1.0, alpha=0.1, grid=GRID, dt=dt, t_end=dt,
                                forcing=dyn.ForcingSpec.shear(1.0),
                                initial=dyn.InitialSpec.from_field(perturbed_shear(GRID)),
                                sample_every=10**9)
            return abs(dyn.integrate(cfg, track_energy_budget=True).energy_residual)

        r0, r1 = one_step_residual(0.04), one_step_residual(0.02)
        assert r1 > 1e-14
        assert r0 / r1 == pytest.approx(32.0, rel=0.2)

    def test_budget_identity_magnitude(self):
        # the defect is tiny relative to the energy scale even at coarse dt
        cfg = dyn.SimConfig(nu=1.0, alpha=0.1, grid=GRID, dt=0.02, t_end=1.0,
                            forcing=dyn.ForcingSpec.shear(1.0),
                            initial=dyn.InitialSpec.from_field(perturbed_shear(GRID)),
                            sample_every=10**9)
        res = dyn.integrate(cfg, track_energy_budget=True)
        assert abs(res.energy_residual) < 1e-6 * oracles.alpha_norm_sq(res.final, cfg.metric)


class TestTrajectoryEquivalence:
    def test_velocity_and_vorticity_forms_agree(self):
        cfg = dyn.SimConfig(nu=0.5, alpha=0.5, grid=GRID, dt=2e-3, t_end=1.0,
                            forcing=dyn.ForcingSpec.shear(0.8, 2),
                            initial=dyn.InitialSpec.random(seed=11), sample_every=50)
        res = dyn.integrate(cfg)
        w_end = oracles.integrate_vorticity(cfg, oracles.vorticity_of(cfg.initial.build(GRID)))
        diff = np.max(np.abs(oracles.vorticity_of(res.final).coeffs - w_end.coeffs))
        assert diff < 1e-8

    def test_alpha_to_zero_consistency(self):
        # NSV trajectory converges to the classical one as alpha drops,
        # monotonically on this smooth run
        base = dict(nu=1.0, grid=GRID, dt=2e-3, t_end=1.0,
                    forcing=dyn.ForcingSpec.shear(1.0),
                    initial=dyn.InitialSpec.from_field(perturbed_shear(GRID, seed=4, amp=0.3)),
                    sample_every=500)
        u_ns = dyn.integrate(dyn.SimConfig(alpha=0.0, **base)).final
        devs = [math.sqrt(sp.l2_norm_sq(dyn.integrate(dyn.SimConfig(alpha=a, **base)).final - u_ns))
                for a in (0.4, 0.2, 0.1)]
        assert devs[0] > devs[1] > devs[2]
        assert devs[2] < 0.05 * math.sqrt(sp.l2_norm_sq(u_ns))


class TestAprioriChecks:
    def test_dissipative_bound_free_decay(self):
        cfg = dyn.SimConfig(nu=1.0, alpha=1.0, grid=GRID, dt=1e-3, t_end=1.0,
                            initial=dyn.InitialSpec.shear(1.0), sample_every=50)
        res = dyn.integrate(cfg)
        rep = dyn.check_dissipative_bound(res.diagnostics, cfg)
        assert rep.passed

    def test_dissipative_bound_zero_initial(self):
        # u(0)=0: envelope reduces to the constant (alpha+1)||g||^2/nu^2
        cfg = dyn.SimConfig(nu=1.0, alpha=0.5, grid=GRID, dt=2e-3, t_end=2.0,
                            forcing=dyn.ForcingSpec.shear(1.0), sample_every=50)
        res = dyn.integrate(cfg)
        rep = dyn.check_dissipative_bound(res.diagnostics, cfg)
        assert rep.passed
        ceiling = (cfg.alpha + 1) * res.diagnostics.g_norm**2 / cfg.nu**2
        assert np.all(res.diagnostics.energy_alpha <= ceiling * (1 + 1e-9))

    def test_dissipative_bound_steady_equality(self):
        # the steady single-mode flow saturates the envelope for all t
        cfg = dyn.SimConfig(nu=1.0, alpha=1.0, grid=GRID, dt=1e-3, t_end=1.0,
                            forcing=dyn.ForcingSpec.shear(1.0),
                            initial=dyn.InitialSpec.shear(1.0), sample_every=100)
        res = dyn.integrate(cfg)
        rep = dyn.check_dissipative_bound(res.diagnostics, cfg)
        assert rep.passed
        # analytic saturation: ||u||_a^2 = (1+alpha) 2 pi^2 = bound constant
        assert res.diagnostics.energy_alpha[0] == pytest.approx(4 * math.pi**2, rel=1e-12)

    def test_time_averages_steady_saturation(self):
        cfg = dyn.SimConfig(nu=1.0, alpha=0.5, grid=GRID, dt=5e-3, t_end=30.0,
                            forcing=dyn.ForcingSpec.shear(1.0),
                            initial=dyn.InitialSpec.shear(1.0), sample_every=100)
        res = dyn.integrate(cfg)
        reports = dyn.check_time_averages(res.diagnostics, cfg)
        assert all(r.passed for r in reports)

    def test_time_averages_vanishing_forcing(self):
        cfg = dyn.SimConfig(nu=1.0, alpha=0.2, grid=GRID, dt=5e-3, t_end=30.0,
                            initial=dyn.InitialSpec.shear(1.0), sample_every=200)
        res = dyn.integrate(cfg)
        reports = dyn.check_time_averages(res.diagnostics, cfg)
        assert all(r.passed for r in reports)  # decaying flow vs transient-corrected zero bound
        burn = res.diagnostics.t >= 5.0 / cfg.gamma
        assert np.mean(res.diagnostics.enstrophy[burn]) < 1e-3

    def test_two_mode_forcing_strictly_below_bound(self):
        cfg = dyn.SimConfig(nu=1.0, alpha=0.3, grid=GRID, dt=5e-3, t_end=30.0,
                            forcing=dyn.ForcingSpec.from_modes(
                                [((0, 1), (0.5, 0.0)), ((2, 0), (0.0, 0.25))]),
                            sample_every=100)
        res = dyn.integrate(cfg)
        reports = dyn.check_time_averages(res.diagnostics, cfg)
        assert all(r.passed for r in reports)
        burn = res.diagnostics.t >= 5.0 / cfg.gamma
        mean_enstrophy = float(np.mean(res.diagnostics.enstrophy[burn]))
        assert mean_enstrophy < 0.99 * res.diagnostics.g_norm**2 / cfg.nu**2

    def test_time_average_window_starts_at_the_first_averaged_sample(self):
        # gamma = 0.5: the burn-in ends at t = 10 and the first sample past it
        # is at 10.02, where the mean and its transient term start
        cfg = dyn.SimConfig(nu=1.0, alpha=1.0, grid=SpectralGrid(16), dt=0.003, t_end=31.0)
        t = np.array([0.0, 5.0, 9.99, 10.02, 20.0, 31.0])
        ones = np.ones_like(t)
        series = dyn.DiagnosticsSeries(
            t=t, energy_l2=ones, enstrophy=ones, energy_alpha=np.array([4.0, 3, 2, 1.5, 1, 1]),
            avg_enstrophy=ones, avg_grad_l1=ones, grashof_g=1.0, grashof_cal_g=1.0,
            g_norm=1.0, gamma=cfg.gamma)
        transient = 1.5 / (31.0 - 10.02)
        for rep in dyn.check_time_averages(series, cfg):
            assert rep.detail.endswith(f"(transient term {transient:.3g}) window=[10.02, 31]")

    def test_insufficient_duration_warning(self):
        cfg = dyn.SimConfig(nu=1.0, alpha=1.0, grid=GRID, dt=1e-2, t_end=0.5,
                            forcing=dyn.ForcingSpec.shear(1.0), sample_every=10)
        res = dyn.integrate(cfg)
        with pytest.warns(dyn.InsufficientDurationWarning):
            dyn.check_time_averages(res.diagnostics, cfg)


class TestDiagnosticsSeries:
    def test_csv_columns(self, tmp_path):
        cfg = dyn.SimConfig(nu=1.0, alpha=1.0, grid=GRID, dt=1e-2, t_end=0.1,
                            forcing=dyn.ForcingSpec.shear(1.0),
                            initial=dyn.InitialSpec.shear(1.0), sample_every=5)
        res = dyn.integrate(cfg)
        path = tmp_path / "diag.csv"
        res.diagnostics.write_csv(path)
        header = path.read_text().splitlines()[0]
        assert header == "t,energy_l2,enstrophy,energy_alpha,avg_enstrophy,avg_grad_l1,grashof_G,grashof_calG"

    def test_running_averages_are_cesaro(self):
        cfg = dyn.SimConfig(nu=1.0, alpha=0.5, grid=GRID, dt=1e-2, t_end=0.5,
                            initial=dyn.InitialSpec.shear(1.0), sample_every=10)
        d = dyn.integrate(cfg).diagnostics
        np.testing.assert_allclose(
            d.avg_enstrophy,
            np.cumsum(d.enstrophy) / np.arange(1, d.enstrophy.size + 1), rtol=1e-14)

    def test_grashof_numbers(self):
        cfg = dyn.SimConfig(nu=2.0, alpha=0.0, grid=GRID, dt=1e-2, t_end=0.1,
                            forcing=dyn.ForcingSpec.shear(1.0), sample_every=10)
        d = dyn.integrate(cfg).diagnostics
        g_norm = math.sqrt(2) * math.pi  # || (sin x2, 0) ||
        assert d.g_norm == pytest.approx(g_norm, rel=1e-12)
        assert d.grashof_g == pytest.approx(g_norm / 4.0, rel=1e-12)
        assert d.grashof_cal_g == pytest.approx(g_norm * 4 * math.pi**2 / 4.0, rel=1e-12)


class TestWorkspace:
    """The time loop's arrays: allocated once, and not shared past their lifetime."""

    FORCING = dyn.ForcingSpec.from_modes([((0, 2), (-2.0j, 0.0)), ((1, 1), (0.4, -0.4))])

    def frame_cfg(self, alpha, grid=SpectralGrid(48)):
        return dyn.SimConfig(nu=1.0, alpha=alpha, grid=grid, dt=0.003, t_end=1.0,
                             forcing=self.FORCING,
                             initial=dyn.InitialSpec.random(seed=4, amplitude=2.0))

    def stack(self, cfg, rows):
        # the base flow and rows - 1 frame vectors
        rng = np.random.default_rng(rows)
        vectors = [sp.band_stream(cfg.grid, sp.random_band(cfg.grid, VELOCITY, 3.0, rng))
                   for _ in range(rows - 1)]
        return np.stack([dyn.initial_state(cfg)[0]] + vectors)

    @pytest.mark.parametrize("alpha", [0.3, 0.0])
    def test_loop_allocates_no_plane_past_its_first_step(self, alpha):
        # numpy's ufunc iterator scratch (up to getbufsize() elements per
        # operand, whatever the array sizes) is cut to 16 elements while
        # traced, so that the traced peak counts arrays
        cfg = self.frame_cfg(alpha)
        plane = cfg.grid.n ** 2 * 8
        growth, start = [], [0]

        def visit(step, c):
            current, peak = tracemalloc.get_traced_memory()
            if step > 1:
                growth.append(peak - start[0])      # above the level the step began at
            tracemalloc.reset_peak()
            start[0] = current

        bufsize = np.setbufsize(16)
        tracemalloc.start()
        try:
            dyn.advance(cfg, self.stack(cfg, 5), 11, 1, visit)
        finally:
            tracemalloc.stop()
            np.setbufsize(bufsize)
        assert len(growth) == 10
        assert max(growth) < plane

    def test_one_rhs_serves_a_base_and_its_stack(self):
        # one rhs, its workspace keyed by shape, against a fresh rhs per call
        for alpha in (0.3, 0.0):
            cfg = self.frame_cfg(alpha, SMALL)
            stack = self.stack(cfg, 4)
            shared, factors = dyn.stream_scheme(cfg)
            for c in (stack[0], stack, 0.5 * stack[0], 2.0 * stack):
                fresh = dyn.stream_scheme(cfg)[0]
                np.testing.assert_array_equal(shared(c, np.empty_like(c)),
                                              fresh(c, np.empty_like(c)))
                got, got_stages = dyn.rk4_step(shared, c, cfg.dt, factors, np.empty_like(c))
                want, want_stages = dyn.rk4_step(fresh, c, cfg.dt, factors, np.empty_like(c))
                np.testing.assert_array_equal(got, want)
                for g, w in zip(got_stages, want_stages):
                    np.testing.assert_array_equal(g, w)

    @pytest.mark.parametrize("alpha", [0.3, 0.0])
    def test_stage_multipliers_are_complex(self, alpha):
        # in the state's dtype, so no product with a state casts, and equal to
        # the float multipliers (imaginary parts +0)
        cfg = self.frame_cfg(alpha, SMALL)
        multipliers = dyn.stream_multipliers(cfg)
        for got, ref in zip(multipliers, oracles.stream_multipliers(cfg)):
            assert got.dtype == complex and not np.signbit(got.imag).any()
            np.testing.assert_array_equal(got, ref)
        assert cfg.grid.band_curl_div.dtype == complex
        factors = dyn.stream_scheme(cfg)[1]
        if alpha > 0:
            assert factors is None
        else:
            half, full, dt_half, two_half = factors
            assert all(f.dtype == complex for f in factors)
            np.testing.assert_array_equal(half, np.exp(-cfg.nu * cfg.grid.band_k2 * (cfg.dt / 2.0)))
            np.testing.assert_array_equal(full, np.exp(-cfg.nu * cfg.grid.band_k2 * cfg.dt))
            np.testing.assert_array_equal(dt_half, cfg.dt * half.real)
            np.testing.assert_array_equal(two_half, 2.0 * half.real)

    def test_advance_leaves_its_input_and_past_results_alone(self):
        cfg = self.frame_cfg(0.0, SMALL)
        start = self.stack(cfg, 3)
        given = start.copy()
        seen = []
        first = dyn.advance(cfg, start, 5, 5, lambda step, c: seen.append((c, c.copy())))
        kept = first.copy()
        second = dyn.advance(cfg, first, 7, 1, lambda step, c: None)
        np.testing.assert_array_equal(start, given)             # the input is only read
        np.testing.assert_array_equal(first, kept)              # a later call writes its own
        assert not np.shares_memory(first, second)
        (visited, copy), = seen
        assert visited is first
        np.testing.assert_array_equal(visited, copy)
        # the last state, advanced 7 steps more, is the 12-step run's
        np.testing.assert_array_equal(second, dyn.advance(cfg, start, 12, 12,
                                                          lambda step, c: None))
