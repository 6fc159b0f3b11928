"""Tangent frames, linearized operators, traces, and exponent estimates."""

import math
import warnings

import numpy as np
import pytest

from nsvlab import dynamics as dyn
from nsvlab import lyapunov as lyp
from nsvlab import spectral as sp
from nsvlab.errors import DegenerateFrameError, IntegrationDivergedError, InvalidParameterError
from nsvlab.spectral import VELOCITY, VORTICITY, AlphaMetric, SpectralField, SpectralGrid

import oracles

GRID = SpectralGrid(32)


def cfg_for(nu=1.0, alpha=1.0, dt=1e-2, forcing=None, initial=None):
    return dyn.SimConfig(nu=nu, alpha=alpha, grid=GRID, dt=dt, t_end=1.0,
                         forcing=forcing or dyn.ForcingSpec.zero(),
                         initial=initial or dyn.InitialSpec.zero())


def ground_modes(grid, metric):
    # (sin x2, 0), (cos x2, 0), (0, sin x1), (0, cos x1): the lambda = 1 level
    fields = [
        sp.field_from_modes(grid, VELOCITY, {(0, 1): (1 / (2j), 0.0)}),
        sp.field_from_modes(grid, VELOCITY, {(0, 1): (0.5, 0.0)}),
        sp.field_from_modes(grid, VELOCITY, {(1, 0): (0.0, 1 / (2j))}),
        sp.field_from_modes(grid, VELOCITY, {(1, 0): (0.0, 0.5)}),
    ]
    return lyp.TangentFrame(grid, metric, sp.stream_of(grid, np.stack([f.coeffs for f in fields])))


class TestGramSchmidt:
    def test_orthonormal_frame_unchanged(self):
        frame = lyp.TangentFrame.random(GRID, 4, AlphaMetric(0.5), seed=0)
        again, factors = lyp.alpha_gram_schmidt(frame.vectors, frame.weights)
        np.testing.assert_allclose(again, frame.vectors, atol=1e-12)
        np.testing.assert_allclose(factors, 1.0, atol=1e-12)

    def test_gram_identity_after_orthonormalization(self):
        frame = lyp.TangentFrame.random(GRID, 6, AlphaMetric(1.0), seed=1)
        assert lyp.gram_deviation(frame.vectors, frame.weights) < 1e-10

    def test_orthonormal_to_round_off_on_an_ill_conditioned_stack(self):
        # six vectors 1e-6 apart: the second pass of CGS2 restores orthogonality
        # that one classical pass loses (Gram deviation 3e-4 here) and that
        # modified Gram-Schmidt keeps only to about cond * eps (2e-10)
        rng = np.random.default_rng(1)
        draws = [sp.band_stream(GRID, sp.random_band(GRID, VELOCITY, 3.0, rng)) for _ in range(7)]
        vectors = np.stack([draws[0] + 1e-6 * d for d in draws[1:]])
        weights = AlphaMetric(1.0).band_weights(GRID)
        ortho, _ = lyp.alpha_gram_schmidt(vectors, weights)
        assert lyp.gram_deviation(ortho, weights) <= 1e-14

    def test_parallel_vectors_rejected(self):
        u = sp.random_field(GRID, VELOCITY, seed=2)
        vectors = sp.stream_of(GRID, np.stack([u.coeffs, 2.0 * u.coeffs]))
        frame = lyp.TangentFrame(GRID, AlphaMetric(1.0), vectors)
        with pytest.raises(DegenerateFrameError) as exc:
            lyp.alpha_gram_schmidt(frame.vectors, frame.weights)
        assert exc.value.index == 1

    def test_eigenmode_normalization_factor(self):
        # alpha-norm of amplitude-1 single mode: sqrt((1+alpha |k|^2) ||e||^2)
        alpha = 0.7
        frame = ground_modes(GRID, AlphaMetric(alpha))
        _, factors = lyp.alpha_gram_schmidt(frame.vectors, frame.weights)
        expected = math.sqrt((1 + alpha) * 2 * math.pi**2)  # ||sin x2||^2 = 2 pi^2
        np.testing.assert_allclose(factors, expected, rtol=1e-12)

    def test_span_preserved(self):
        metric = AlphaMetric(0.5)
        rng = np.random.default_rng(3)
        fields = [oracles.random_field(GRID, VELOCITY, seed=0, rng=rng) for _ in range(4)]
        # deliberately mix to a skewed basis
        mixed = [fields[0], fields[0] + 0.1 * fields[1],
                 fields[2] + fields[1], fields[3] + 0.5 * fields[0]]
        vectors = sp.stream_of(GRID, np.stack([f.coeffs for f in mixed]))
        frame = lyp.TangentFrame(GRID, metric, vectors)
        ortho, _ = lyp.alpha_gram_schmidt(frame.vectors, frame.weights)
        w = frame.weights
        for old in frame.vectors:
            residual = old.copy()
            for v in ortho:
                proj = sp.TORUS_AREA * np.sum(w * (residual * np.conj(v)).real)
                residual -= proj * v
            norm_old = math.sqrt(sp.TORUS_AREA * np.sum(w * np.abs(old) ** 2))
            norm_res = math.sqrt(sp.TORUS_AREA * np.sum(w * np.abs(residual) ** 2))
            assert norm_res <= 1e-8 * norm_old


class TestLinearizedOperators:
    def test_zero_base_is_diagonal(self):
        cfg = cfg_for(nu=1.3, alpha=0.6)
        theta = sp.field_from_modes(GRID, VELOCITY, {(1, 2): (0.4, -0.2 + 0.1j)})
        theta = oracles.leray_project(theta)
        out = oracles.linearized_apply_velocity(theta, sp.zero_field(GRID, VELOCITY), cfg)
        lam = 5.0
        np.testing.assert_allclose(out.coeffs, -(1.3 * lam / (1 + 0.6 * lam)) * theta.coeffs,
                                   rtol=1e-13, atol=1e-18)

    def test_linearity(self):
        cfg = cfg_for(alpha=0.5)
        u = sp.random_field(GRID, VELOCITY, seed=4, decay=2.0)
        t1 = sp.random_field(GRID, VELOCITY, seed=5, decay=2.0)
        t2 = sp.random_field(GRID, VELOCITY, seed=6, decay=2.0)
        lhs = oracles.linearized_apply_velocity(2.0 * t1 + (-0.7) * t2, u, cfg)
        rhs = 2.0 * oracles.linearized_apply_velocity(t1, u, cfg) \
            + (-0.7) * oracles.linearized_apply_velocity(t2, u, cfg)
        scale = max(np.max(np.abs(lhs.coeffs)), 1e-300)
        assert np.max(np.abs(lhs.coeffs - rhs.coeffs)) / scale < 1e-12

    def test_forward_difference_oracle_first_order(self):
        # ||(rhs(u+eps t) - rhs(u))/eps - L t|| = O(eps): the right-hand side
        # is quadratic, so the error is exactly eps * smoothed B(t,t)
        cfg = cfg_for(alpha=0.5)
        u = sp.random_field(GRID, VELOCITY, seed=7, decay=2.5)
        th = sp.random_field(GRID, VELOCITY, seed=8, decay=2.5)
        lin = oracles.linearized_apply_velocity(th, u, cfg)
        errs = []
        for eps in (1e-3, 1e-4, 1e-5, 1e-6):
            fd = (oracles.rhs_velocity(u + eps * th, cfg)
                  - oracles.rhs_velocity(u, cfg)) * (1 / eps)
            errs.append(np.max(np.abs(fd.coeffs - lin.coeffs)))
        for a, b in zip(errs, errs[1:]):
            assert b < 0.2 * a  # linear decrease in eps (factor 10 steps)

    def test_central_difference_exact_for_quadratic_rhs(self):
        cfg = cfg_for(alpha=0.5)
        u = sp.random_field(GRID, VELOCITY, seed=7, decay=2.5)
        th = sp.random_field(GRID, VELOCITY, seed=8, decay=2.5)
        lin = oracles.linearized_apply_velocity(th, u, cfg)
        eps = 1e-4
        fd = (oracles.rhs_velocity(u + eps * th, cfg)
              - oracles.rhs_velocity(u - eps * th, cfg)) * (1 / (2 * eps))
        assert np.max(np.abs(fd.coeffs - lin.coeffs)) < 1e-9

    def test_vorticity_form_fd_oracle(self):
        cfg = cfg_for(alpha=0.4, nu=0.8)
        w = sp.random_field(GRID, VORTICITY, seed=9, decay=2.5)
        phi = sp.random_field(GRID, VORTICITY, seed=10, decay=2.5)
        lin = oracles.linearized_apply_vorticity(phi, w, cfg)
        eps = 1e-4
        fd = (oracles.rhs_vorticity(w + eps * phi, cfg)
              - oracles.rhs_vorticity(w + (-eps) * phi, cfg)) * (1 / (2 * eps))
        assert np.max(np.abs(fd.coeffs - lin.coeffs)) < 1e-9

    def test_rot_intertwines_linearizations(self):
        cfg = cfg_for(alpha=0.5, nu=0.8)
        u = sp.random_field(GRID, VELOCITY, seed=7, decay=2.5)
        th = sp.random_field(GRID, VELOCITY, seed=8, decay=2.5)
        lhs = oracles.vorticity_of(oracles.linearized_apply_velocity(th, u, cfg))
        rhs = oracles.linearized_apply_vorticity(oracles.vorticity_of(th), oracles.vorticity_of(u), cfg)
        scale = max(np.max(np.abs(lhs.coeffs)), 1e-300)
        assert np.max(np.abs(lhs.coeffs - rhs.coeffs)) / scale < 1e-8


class TestTraces:
    def test_eigenmode_frame_trace(self):
        # n=4 ground modes, nu=1, alpha=1: -sum nu lam/(1+alpha lam) = -2
        modes = ground_modes(GRID, AlphaMetric(1.0))
        frame = lyp.TangentFrame(GRID, modes.metric,
                                 lyp.alpha_gram_schmidt(modes.vectors, modes.weights)[0])
        state = np.concatenate([np.zeros((1,) + GRID.band_shape, dtype=complex), frame.vectors])
        tr = sum(lyp.trace_diagonal(GRID, dyn.stream_multipliers(cfg_for()), state, frame.weights))
        assert tr == pytest.approx(-2.0, abs=1e-12)

    def test_reduced_form_identity(self):
        # full alpha trace equals -nu sum ||grad theta||^2 - sum ((theta.grad)u, theta)
        cfg = cfg_for(nu=0.8, alpha=0.5)
        u = sp.random_field(GRID, VELOCITY, seed=12, decay=2.5)
        frame = lyp.TangentFrame.random(GRID, 5, AlphaMetric(0.5), seed=13)
        state = np.concatenate([sp.stream_of(GRID, u.coeffs)[None], frame.vectors])
        full = sum(lyp.trace_diagonal(GRID, dyn.stream_multipliers(cfg), state, frame.weights))
        reduced = oracles.trace_velocity_reduced(frame, u, cfg)
        assert full == pytest.approx(reduced, rel=1e-10)

    def test_vorticity_reduced_form_identity(self):
        cfg = cfg_for(nu=0.8, alpha=0.5)
        w = sp.random_field(GRID, VORTICITY, seed=17, decay=2.5)
        rng = np.random.default_rng(18)
        raw = np.stack([oracles.random_field(GRID, VORTICITY, seed=0, rng=rng).coeffs
                        for _ in range(4)])
        ortho, _ = lyp.alpha_gram_schmidt(raw, oracles.alpha_weights(cfg.metric, GRID))
        phis = [sp.SpectralField(GRID, VORTICITY, phi) for phi in ortho]
        full = oracles.trace_vorticity(phis, w, cfg)
        reduced = oracles.trace_vorticity_reduced(phis, w, cfg)
        assert full == pytest.approx(reduced, rel=1e-10)

    def test_gradient_sum_lower_bound(self):
        # sum ||grad theta_j||^2 >= n/(alpha + 1) on alpha-orthonormal frames
        for alpha in (0.2, 1.0, 3.0):
            frame = lyp.TangentFrame.random(GRID, 6, AlphaMetric(alpha), seed=14)
            total = sum(oracles.grad_norm_sq(SpectralField(GRID, VELOCITY, theta))
                        for theta in sp.velocity_of(GRID, frame.vectors))
            assert total >= 6.0 / (alpha + 1.0) * (1 - 1e-12)

    def test_advection_term_dominated_by_strain_integral(self):
        # |sum ((theta.grad)u, theta)| <= sqrt(1/2) * integral rho |grad u|
        cfg = cfg_for(nu=1.0, alpha=0.5)
        c2 = math.sqrt(0.5)
        for seed in range(5):
            u = sp.random_field(GRID, VELOCITY, seed=20 + seed, decay=2.0)
            frame = lyp.TangentFrame.random(GRID, 4, AlphaMetric(0.5), seed=30 + seed)
            lhs, strain = oracles.advection_trace_terms(frame, u)
            assert abs(lhs) <= c2 * strain * (1 + 1e-9)
            # and the full trace obeys trace <= -nu sum ||grad theta||^2 + c2 * strain
            state = np.concatenate([sp.stream_of(GRID, u.coeffs)[None], frame.vectors])
            tr = sum(lyp.trace_diagonal(GRID, dyn.stream_multipliers(cfg), state, frame.weights))
            grad_sum = sum(oracles.grad_norm_sq(SpectralField(GRID, VELOCITY, theta))
                           for theta in sp.velocity_of(GRID, frame.vectors))
            assert tr <= -cfg.nu * grad_sum + c2 * strain + 1e-9


class TestFrameEvolution:
    def test_zero_attractor_trace_matches_diagonal_sum(self):
        cfg = cfg_for(nu=1.0, alpha=1.0, dt=0.01)
        series = lyp.evolve_tangent_frame(cfg, 4, 40.0, burn_in=25.0, seed=3)
        assert series.q_hat == pytest.approx(-2.0, abs=1e-4)

    def test_zero_attractor_leading_exponents(self):
        cfg = cfg_for(nu=1.0, alpha=1.0, dt=0.01)
        series = lyp.evolve_tangent_frame(cfg, 4, 60.0, burn_in=40.0, seed=3)
        np.testing.assert_allclose(np.sort(series.exponents)[::-1], [-0.5] * 4, atol=1e-4)

    def test_alpha_zero_frame_takes_the_exact_viscous_factor(self):
        # dt * nu |k|^2_max = 0.05 * 512 = 25.6, far past classical RK4's 2.785:
        # only the integrating factor keeps the |k|^2 = 1 shell's rate -nu
        cfg = cfg_for(nu=1.0, alpha=0.0, dt=0.05)
        series = lyp.evolve_tangent_frame(cfg, 4, 40.0, burn_in=20.0, seed=3)
        np.testing.assert_allclose(series.exponents, -1.0, atol=1e-6)
        assert series.q_hat == pytest.approx(-4.0, abs=1e-6)

    def test_trace_avg_is_cesaro_after_burn_in(self):
        cfg = cfg_for(nu=1.0, alpha=1.0, dt=0.01)
        series = lyp.evolve_tangent_frame(cfg, 2, 10.0, burn_in=4.0, seed=5)
        sel = series.times >= 4.0
        vals = series.trace_inst[sel]
        np.testing.assert_allclose(series.trace_avg[sel],
                                   np.cumsum(vals) / np.arange(1, vals.size + 1), rtol=1e-13)
        assert np.all(np.isnan(series.trace_avg[~sel]))

    def test_series_csv_and_summary(self, tmp_path):
        cfg = cfg_for(dt=0.01)
        series = lyp.evolve_tangent_frame(cfg, 2, 5.0, burn_in=2.0, seed=1)
        series.write_csv(tmp_path / "trace.csv")
        header = (tmp_path / "trace.csv").read_text().splitlines()[0]
        assert header == "t,trace_inst,trace_avg"
        assert set(series.summary()) == {"n", "q_hat", "n_star", "window", "exponents"}
        assert series.summary()["n_star"] is None

    @pytest.mark.parametrize("reorth_every", [0, -3])
    def test_nonpositive_reorth_every_refused(self, reorth_every):
        with pytest.raises(InvalidParameterError, match="reorth_every must be >= 1"):
            lyp.evolve_tangent_frame(cfg_for(), 2, 1.0, reorth_every=reorth_every)

    def test_burn_in_past_the_end_withholds_the_verdict(self):
        # no re-orthonormalization lies at t >= 5: nothing is averaged, so no q_hat
        cfg = dyn.SimConfig(nu=1.0, alpha=1.0, grid=SpectralGrid(16), dt=0.1, t_end=1.0)
        with pytest.warns(dyn.InsufficientDurationWarning,
                          match=r"no re-orthonormalization at t >= burn_in = 5 \(run ends at t = 1\)"):
            series = lyp.evolve_tangent_frame(cfg, 2, 1.0, burn_in=5.0)
        assert np.all(np.isnan(series.q_hats)) and np.all(np.isnan(series.exponents))
        assert series.summary()["q_hat"] is None and series.summary()["window"] is None
        assert np.all(np.isnan(series.trace_avg)) and series.trace_inst.size == 1
        with pytest.warns(dyn.InsufficientDurationWarning):
            scan = lyp.scan_n_star(cfg, t_end=1.0, burn_in=5.0)
        assert scan.n_star is None and scan.series.n == 1
        assert scan.summary()["q_hats"] == {"1": None}

    def test_no_growth_interval_past_burn_in_withholds_the_exponents(self):
        # events at t = 1 and 2: the one event past t = 1.5 gives q_hat, but both
        # growth intervals, [0, 1] and [1, 2], start before the burn-in
        cfg = dyn.SimConfig(nu=1.0, alpha=1.0, grid=SpectralGrid(16), dt=0.1, t_end=2.0)
        with pytest.warns(dyn.InsufficientDurationWarning,
                          match=r"no growth interval starts at t >= burn_in = 1.5"):
            series = lyp.evolve_tangent_frame(cfg, 2, 2.0, burn_in=1.5)
        assert series.window == (2.0, 2.0) and np.all(np.isfinite(series.q_hats))
        assert np.all(np.isnan(series.exponents))
        assert series.summary()["exponents"] is None
        assert series.summary()["q_hat"] == series.q_hat

    def test_deterministic(self):
        cfg = cfg_for(dt=0.01)
        a = lyp.evolve_tangent_frame(cfg, 3, 5.0, seed=7)
        b = lyp.evolve_tangent_frame(cfg, 3, 5.0, seed=7)
        np.testing.assert_array_equal(a.trace_inst, b.trace_inst)
        np.testing.assert_array_equal(a.exponents, b.exponents)


class TestNStarScan:
    def test_q_hat_decreasing_in_n_on_zero_attractor(self):
        # q_hat(n) = -sum of the n least-negative multipliers: strictly
        # decreasing in n (the eventual-decrease property the scan asserts)
        cfg = cfg_for(nu=1.0, alpha=1.0, dt=0.01)
        qs = [lyp.evolve_tangent_frame(cfg, n, 30.0, burn_in=20.0, seed=2).q_hat
              for n in (1, 2, 4)]
        assert qs[0] > qs[1] > qs[2]
        assert qs[0] == pytest.approx(-0.5, abs=1e-3)
        assert qs[2] == pytest.approx(-2.0, abs=1e-3)

    def test_zero_attractor_n_star_is_one(self):
        # every q_hat(n) is negative when the attractor is the origin
        cfg = cfg_for(nu=1.0, alpha=1.0, dt=0.01)
        scan = lyp.scan_n_star(cfg, t_end=10.0, burn_in=5.0, seed=1)
        assert scan.n_star == 1
        assert scan.q_hats[1] < 0

    def test_scan_doubles_and_reads_the_first_negative_prefix(self, monkeypatch):
        # synthetic prefixes: q_hat(m) negative from m = 6 upward; the scan
        # runs n = 1, 2, 4, 8 only and reads n* = 6 off the 8-frame's prefixes
        calls = []

        class FakeSeries:
            def __init__(self, n):
                self.n = n
                self.q_hats = np.array([-1.0 if m >= 6 else 1.0 for m in range(1, n + 1)])

        monkeypatch.setattr(lyp, "evolve_tangent_frame",
                            lambda cfg, n, t_end, **kw: calls.append(n) or FakeSeries(n))
        scan = lyp.scan_n_star(cfg_for(), t_end=1.0)
        assert calls == [1, 2, 4, 8]
        assert scan.n_star == 6
        assert sorted(scan.q_hats) == list(range(1, 9))
        assert scan.series.n == 8
        assert not scan.eventually_decreasing   # the last three prefixes are all -1

    def test_no_sign_change_returns_none(self, monkeypatch):
        class FakeSeries:
            def __init__(self, n):
                self.n = n
                self.q_hats = np.linspace(3.0, 2.0, n)

        monkeypatch.setattr(lyp, "evolve_tangent_frame",
                            lambda cfg, n, t_end, **kw: FakeSeries(n))
        scan = lyp.scan_n_star(cfg_for(), t_end=1.0, n_max=8)
        assert scan.n_star is None
        assert scan.series.n == 8 and scan.eventually_decreasing


    def test_scan_spins_the_base_up_once(self, monkeypatch):
        # the 1- and 2-frame runs report positive prefixes, so the scan doubles
        # to n = 4; every run starts from one warmed-up base, bitwise the base
        # a run with its own warmup reaches
        cfg = cfg_for(forcing=dyn.ForcingSpec.shear(20.0),
                      initial=dyn.InitialSpec.random(seed=5, amplitude=2.0))
        kw = dict(warmup=0.2, burn_in=0.5, seed=3)
        with pytest.warns(dyn.InsufficientDurationWarning):
            expected = lyp.evolve_tangent_frame(cfg, 4, 1.0, **kw)
        evolve, step = lyp.evolve_tangent_frame, dyn.rk4_step
        runs, base_steps = [], []

        def doubling(cfg, n, t_end, **kw):
            series = evolve(cfg, n, t_end, **kw)
            runs.append(n)
            if n < 4:
                series.q_hats = np.abs(series.q_hats)
            return series

        def counting(rhs, c, *args):
            base_steps.append(c.ndim == 2)
            return step(rhs, c, *args)

        monkeypatch.setattr(lyp, "evolve_tangent_frame", doubling)
        monkeypatch.setattr(dyn, "rk4_step", counting)
        with pytest.warns(dyn.InsufficientDurationWarning):
            scan = lyp.scan_n_star(cfg, t_end=1.0, n_max=4, **kw)
        assert runs == [1, 2, 4]
        assert sum(base_steps) == 20                      # warmup/dt, once
        np.testing.assert_array_equal(scan.series.q_hats, expected.q_hats)
        np.testing.assert_array_equal(scan.series.base_final.coeffs, expected.base_final.coeffs)


class TestSpinUp:
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # overflow precedes detection
    def test_divergence_found_at_its_step(self):
        # test_dynamics' divergence case as a warmup: found where it happens,
        # not after the whole warmup
        cfg = dyn.SimConfig(nu=1e-8, alpha=0.0, grid=GRID, dt=10.0, t_end=200.0,
                            forcing=dyn.ForcingSpec.shear(1e8, 2),
                            initial=dyn.InitialSpec.random(seed=1), sample_every=1)
        with pytest.raises(IntegrationDivergedError, match="during warmup at step") as exc:
            lyp.spin_up(cfg, 200.0)
        assert exc.value.step > 0 and exc.value.t <= 200.0
        assert exc.value.t == exc.value.step * cfg.dt

    def test_negative_warmup_refused(self):
        # refused, not read as no warmup, by every job that spins a base up
        cfg = cfg_for(initial=dyn.InitialSpec.random(seed=1))
        with pytest.raises(InvalidParameterError, match="warmup must be >= 0, got -1.0"):
            lyp.spin_up(cfg, -1.0)
        # refused before the short window is warned of
        with pytest.raises(InvalidParameterError, match="warmup must be >= 0, got -5"), \
                warnings.catch_warnings():
            warnings.simplefilter("error")
            lyp.evolve_tangent_frame(cfg, 2, 0.1, burn_in=0.0, warmup=-5)
        with pytest.raises(InvalidParameterError, match="warmup must be >= 0, got -0.5"):
            lyp.scan_n_star(cfg, 0.1, n_max=2, burn_in=0.0, warmup=-0.5)


class TestNestedPrefixes:
    """The first m vectors of an n-frame evolve exactly as an m-frame does, so
    each prefix q_hat(m) of one 8-frame run equals an independent m-frame run."""

    def assert_prefixes_match(self, cfg, **kw):
        full = lyp.evolve_tangent_frame(cfg, 8, 1.0, burn_in=0.5, seed=4, **kw)
        assert full.diag.shape == (full.times.size, 8)
        np.testing.assert_array_equal(full.trace_inst, np.cumsum(full.diag, axis=1)[:, -1])
        for m in range(1, 8):
            part = lyp.evolve_tangent_frame(cfg, m, 1.0, burn_in=0.5, seed=4, **kw)
            np.testing.assert_array_equal(full.q_hats[:m], part.q_hats)
            np.testing.assert_allclose(full.exponents[:m], part.exponents, rtol=1e-15)

    def test_forced_base(self):
        forcing, g_norm = oracles.c7_forcing(GRID, 1000.0)
        alpha = 0.99 * 4.0 / (g_norm * 4 * math.pi**2)
        cfg = cfg_for(alpha=alpha, forcing=forcing,
                      initial=dyn.InitialSpec.random(seed=42, decay=3.0, amplitude=2.0))
        with pytest.warns(dyn.InsufficientDurationWarning):
            self.assert_prefixes_match(cfg, warmup=0.5)

    def test_zero_attractor(self):
        with pytest.warns(dyn.InsufficientDurationWarning):
            self.assert_prefixes_match(cfg_for(nu=1.0, alpha=1.0, dt=0.01))
