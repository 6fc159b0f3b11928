"""Suborthonormal families, density profiles, and the inequality verifiers."""

import math
from dataclasses import asdict

import numpy as np
import pytest

from nsvlab import inequalities as ineq
from nsvlab import spectral as sp
from nsvlab.errors import InvalidParameterError
from nsvlab.spectral import VELOCITY, VORTICITY, AlphaMetric, SpectralGrid

import oracles

GRID = SpectralGrid(32)


def single_shear_family(alpha=1.0):
    # alpha-normalized ground shear mode as a one-element family
    amp = 1.0 / (math.sqrt(2) * math.pi * math.sqrt(1 + alpha))
    u = sp.shear_field(GRID, amp)
    fam = ineq.SuborthonormalFamily(grid=GRID, role=VELOCITY, metric=AlphaMetric(alpha),
                                    vectors=sp.band_of(GRID, u.coeffs[None, ...]), kind="manual",
                                    seed=0)
    fam.certificate = float(np.linalg.eigvalsh(fam.l2_gram())[-1])
    return fam


class TestPadCoeffs:
    def test_padding_preserves_samples(self):
        f = sp.random_field(GRID, VORTICITY, seed=0, decay=2.0)
        fine = sp.to_physical(oracles.pad_coeffs(f.coeffs, 64))
        coarse = f.to_physical()
        np.testing.assert_allclose(fine[::2, ::2], coarse, atol=1e-12)

    def test_identity_when_same_size(self):
        f = sp.random_field(GRID, VORTICITY, seed=1)
        np.testing.assert_array_equal(oracles.pad_coeffs(f.coeffs, 32), f.coeffs)

    def test_shrinking_rejected(self):
        f = sp.random_field(GRID, VORTICITY, seed=2)
        with pytest.raises(InvalidParameterError):
            oracles.pad_coeffs(f.coeffs, 16)


class TestSampling:
    def test_alpha_orthonormal_family(self):
        fam = ineq.sample_suborthonormal(GRID, 6, seed=3)
        assert fam.certificate <= 1.0 + 1e-9
        gram = fam.l2_gram()
        assert np.max(np.linalg.eigvalsh(gram)) <= 1.0 + 1e-9

    def test_gram_scaled_family(self):
        fam = ineq.sample_suborthonormal(GRID, 8, kind=ineq.GRAM_SCALED, seed=4)
        assert fam.certificate == pytest.approx(1.0, abs=1e-12)

    def test_single_normalized_eigenmode_certificate(self):
        fam = single_shear_family(alpha=0.0)  # L2-normalized
        assert fam.certificate == pytest.approx(1.0, abs=1e-12)

    def test_deterministic_given_seed(self):
        a = ineq.sample_suborthonormal(GRID, 4, seed=5)
        b = ineq.sample_suborthonormal(GRID, 4, seed=5)
        np.testing.assert_array_equal(a.vectors, b.vectors)

    def test_rejects_bad_kind(self):
        with pytest.raises(InvalidParameterError):
            ineq.sample_suborthonormal(GRID, 4, kind="nope", seed=0)

    def test_bounded_retries_on_impossible_draw(self):
        # asking for more vectors than the retained band supports must fail
        # after the bounded resampling, not loop forever
        from nsvlab.errors import DegenerateFrameError
        tiny = SpectralGrid(8)  # dealias cutoff 2: a few dozen real dofs
        with pytest.raises(DegenerateFrameError) as exc:
            ineq.sample_suborthonormal(tiny, 200, seed=0)
        assert "5 draws" in str(exc.value)


class TestRhoProfile:
    def test_mass_identity(self):
        # integral of rho equals sum of squared L2 norms
        fam = ineq.sample_suborthonormal(GRID, 5, seed=6)
        rho = ineq.rho_profile(fam.vectors, GRID)
        mass = sum(sp.l2_norm_sq(sp.SpectralField(GRID, VELOCITY, v))
                   for v in oracles.full_of_band(GRID, fam.vectors))
        assert rho.integral(1.0) == pytest.approx(mass, rel=1e-12)

    def test_nonnegative(self):
        fam = ineq.sample_suborthonormal(GRID, 3, seed=7)
        assert ineq.rho_profile(fam.vectors, GRID).values.min() >= 0.0

    def test_off_band_family_refused(self):
        # one coefficient at |k_1| = K + 1, past the 2/3 band the quadrature is exact on;
        # only a full-layout family can hold it
        fam = ineq.sample_suborthonormal(GRID, 3, seed=17)
        k = GRID.dealias_cutoff
        fam.vectors = oracles.full_of_band(GRID, fam.vectors)
        fam.vectors[1, 0, k + 1, 1] = 1e-3
        with pytest.raises(InvalidParameterError, match="outside the 2/3 band"):
            ineq.rho_profile(fam.vectors, GRID)
        with pytest.raises(InvalidParameterError, match="outside the 2/3 band"):
            ineq.verify_lieb_thirring(fam)

    def test_quadrature_refinement_stable(self):
        # the default grid (48 points at n = 32, K = 10) against the 2n one
        fam = ineq.sample_suborthonormal(GRID, 4, seed=8)
        a = ineq.rho_profile(fam.vectors, GRID).integral(2.0)
        b = ineq.rho_profile(fam.vectors, GRID, quad_factor=2).integral(2.0)
        assert a == pytest.approx(b, rel=1e-12)


class TestLiebThirring:
    def test_single_shear_closed_form(self):
        # integral rho^2 = 3/(8 pi^2) for the L2-normalized shear mode,
        # bound side c_lt * 1 = 3 pi/32
        fam = single_shear_family(alpha=0.0)
        rep = ineq.verify_lieb_thirring(fam)
        assert rep.lhs == pytest.approx(3 / (8 * math.pi**2), rel=1e-8)
        assert rep.rhs == pytest.approx(3 * math.pi / 32, rel=1e-12)
        assert rep.passed

    def test_zero_family(self):
        fam = single_shear_family()
        fam.vectors = np.zeros_like(fam.vectors)
        rep = ineq.verify_lieb_thirring(fam)
        assert rep.ratio == 0.0 and rep.passed

    def test_random_families_hold(self):
        sweep = ineq.run_lt_sweep(GRID, seeds=range(10), n=6)
        assert sweep.all_passed
        assert sweep.worst_ratio < 1.0

    def test_gram_scaled_families_hold(self):
        sweep = ineq.run_lt_sweep(GRID, seeds=range(5), n=6, kind=ineq.GRAM_SCALED)
        assert sweep.all_passed

    def test_rejects_scalar_family(self):
        fam = ineq.sample_suborthonormal(GRID, 2, seed=9, role=VORTICITY)
        with pytest.raises(InvalidParameterError):
            ineq.verify_lieb_thirring(fam)


class TestRhoL2:
    def test_single_mode_hand_value(self):
        # alpha=1 normalized shear: ||rho|| = sqrt(3/(32 pi^2)), bound 1/(2 sqrt pi)
        fam = single_shear_family(alpha=1.0)
        rep = ineq.verify_rho_l2(fam)
        assert rep.lhs == pytest.approx(math.sqrt(3.0 / 32.0) / math.pi, rel=1e-8)
        assert rep.rhs == pytest.approx(1 / (2 * math.sqrt(math.pi)), rel=1e-12)
        assert rep.ratio < 1.0

    def test_bound_scales_sqrt_n(self):
        r1 = ineq.verify_rho_l2(ineq.sample_suborthonormal(GRID, 4, seed=10))
        r2 = ineq.verify_rho_l2(ineq.sample_suborthonormal(GRID, 8, seed=10))
        assert r2.rhs == pytest.approx(math.sqrt(2) * r1.rhs, rel=1e-12)

    def test_alpha_sweep_holds(self):
        sweep = ineq.run_rho_l2_sweep(GRID, seeds=range(4), alphas=(0.01, 0.1, 1.0), n=6)
        assert sweep.all_passed

    def test_sweep_draws_each_seed_once(self, monkeypatch):
        # 5 seeds x 3 alphas: 5 draws of a 3-vector stack, not 15
        real, stacks = sp.random_band, []

        def counting(grid, role, decay, rng, stack=()):
            stacks.append(stack)
            return real(grid, role, decay, rng, stack)
        monkeypatch.setattr(sp, "random_band", counting)
        sweep = ineq.run_rho_l2_sweep(SpectralGrid(16), range(5), (0.05, 2.0, 0.3), n=3)
        assert sweep.count == 15 and stacks == [(3,)] * 5

    @pytest.mark.parametrize("alphas", [(), (math.nan,), (0.1, math.inf), (0.1, 0.0), (-1.0,)])
    def test_sweep_refuses_bad_alphas_before_any_draw(self, monkeypatch, alphas):
        drawn = []
        monkeypatch.setattr(sp, "random_band", lambda *args: drawn.append(args))
        with pytest.raises(InvalidParameterError,
                           match="alphas must be non-empty, each finite and > 0"):
            ineq.run_rho_l2_sweep(GRID, range(3), alphas, n=3)
        assert drawn == []

    def test_requires_positive_alpha(self):
        fam = single_shear_family(alpha=0.0)
        with pytest.raises(InvalidParameterError):
            ineq.verify_rho_l2(fam)

    def test_requires_orthonormal_family(self):
        fam = ineq.sample_suborthonormal(GRID, 3, kind=ineq.GRAM_SCALED, seed=11)
        fam.vectors = fam.vectors * 0.1  # far from alpha-orthonormal
        with pytest.raises(InvalidParameterError):
            ineq.verify_rho_l2(fam)


class TestRhoLinf:
    def test_ground_mode_family(self):
        fam = ineq.sample_suborthonormal(GRID, 1, seed=12, role=VORTICITY)
        rep = ineq.verify_rho_linf(fam, 1)
        assert rep.passed and rep.ratio < 1.0

    def test_spectral_sums_in_report(self):
        fam = ineq.sample_suborthonormal(GRID, 2, seed=13, role=VORTICITY)
        rep = ineq.verify_rho_linf(fam, 1)
        assert rep.extras["sum_inverse_below"] == pytest.approx(4.0)
        assert rep.extras["sum_inverse_below_bound"] == pytest.approx(4 * math.log(4 * math.e))
        assert rep.extras["sum_inverse_square_above"] < rep.extras["sum_inverse_square_above_bound"]

    def test_best_cap_scan(self):
        fam = ineq.sample_suborthonormal(GRID, 4, seed=14, role=VORTICITY)
        rep = ineq.verify_rho_linf(fam, 1)
        best = rep.extras["best_cap"]
        assert 1 <= best <= 64
        # scanning confirms minimality
        sweep = [ineq.verify_rho_linf(fam, cap).rhs for cap in (1, best, 64)]
        assert sweep[1] <= sweep[0] + 1e-12 and sweep[1] <= sweep[2] + 1e-12

    def test_non_integer_cap_rejected(self):
        fam = ineq.sample_suborthonormal(GRID, 2, seed=15, role=VORTICITY)
        with pytest.raises(InvalidParameterError):
            ineq.verify_rho_linf(fam, 2.5)
        with pytest.raises(InvalidParameterError):
            ineq.verify_rho_linf(fam, 0)

    def test_requires_orthonormal_family(self):
        fam = ineq.sample_suborthonormal(GRID, 3, seed=11, role=VORTICITY)
        fam.vectors = fam.vectors * 0.1  # far from alpha-orthonormal
        with pytest.raises(InvalidParameterError, match="not alpha-orthonormal"):
            ineq.verify_rho_linf(fam, 1)

    def test_rejects_velocity_family(self):
        fam = ineq.sample_suborthonormal(GRID, 2, seed=16, role=VELOCITY)
        with pytest.raises(InvalidParameterError):
            ineq.verify_rho_linf(fam, 1)

    def test_sweep_reports_equal_the_per_cap_verifier(self):
        # the sweep evaluates the sides and best cap once per family and the
        # spectral sums once per cap; each report is the one verify_rho_linf gives
        seeds, caps = range(3), (1, 5, 8, 64)
        sweep = ineq.run_rho_linf_sweep(GRID, seeds=seeds, lam_caps=caps, n=6)
        expected = []
        for seed in seeds:
            fam = ineq.sample_suborthonormal(GRID, 6, seed=seed, role=VORTICITY)
            expected += [asdict(ineq.verify_rho_linf(fam, cap)) for cap in caps]
        assert [asdict(rep) for rep in sweep.reports] == expected

    def test_sweep_refuses_a_bad_cap(self):
        with pytest.raises(InvalidParameterError):
            ineq.run_rho_linf_sweep(GRID, seeds=range(1), lam_caps=(1, 0), n=2)

    def test_cap_sweep_holds(self):
        sweep = ineq.run_rho_linf_sweep(GRID, seeds=range(3), lam_caps=(1, 8, 64), n=6)
        assert sweep.all_passed


class TestRhoLinfVerdicts:
    """The sup-norm verdict: pass on the certified bound, fail on the grid
    maximum, and a second reading on the 4n grid only in between."""

    def scaled_rhs(self, monkeypatch, fam, ratio):
        # scale every cap's right-hand side so cap 1 reads this grid-max ratio on the 2n grid
        base = ineq.verify_rho_linf(fam, 1)
        scale, real = base.lhs / (ratio * base.rhs), ineq._linf_rhs
        monkeypatch.setattr(ineq, "_linf_rhs", lambda cap, grad_sum: scale * real(cap, grad_sum))

    def test_grid_max_over_the_bound_fails(self, monkeypatch, profile_grids):
        fam = ineq.sample_suborthonormal(GRID, 8, seed=20, role=VORTICITY)
        self.scaled_rhs(monkeypatch, fam, 1.05)
        profile_grids.clear()
        rep = ineq.verify_rho_linf(fam, 1)
        assert rep.ratio == pytest.approx(1.05, rel=1e-12)
        assert not rep.passed and rep.warnings == []
        assert profile_grids == [2]

    @pytest.mark.parametrize("ratio, passed", [(0.8, True), (0.95, False)])
    def test_undecided_family_is_read_on_the_4n_grid(self, monkeypatch, profile_grids,
                                                      ratio, passed):
        # at n = 32, K = 10: sec(2 pi K / 2n) = 1.80 leaves both ratios undecided on
        # the 2n grid; sec(2 pi K / 4n) = 1.13 certifies 0.8 but not 0.95
        fam = ineq.sample_suborthonormal(GRID, 8, seed=21, role=VORTICITY)
        self.scaled_rhs(monkeypatch, fam, ratio)
        profile_grids.clear()
        rep = ineq.verify_rho_linf(fam, 1)
        assert profile_grids == [2, 4]
        assert rep.passed is passed
        assert rep.ratio == pytest.approx(ratio, rel=1e-3)
        assert rep.extras["certified_ratio"] == pytest.approx(
            rep.ratio / math.cos(math.pi * 20 / 128), rel=1e-12)
        if passed:
            assert rep.warnings == []
        else:
            assert rep.warnings == [f"undecided on the 128-point grid: grid-max ratio "
                                    f"{rep.ratio:.6g} <= 1 < certified ratio "
                                    f"{rep.extras['certified_ratio']:.6g}"]

    def test_sweep_reads_each_family_once_on_the_2n_grid(self, profile_grids):
        # c6d's set-up (16-vector families, caps 1..64) at n = 32
        sweep = ineq.run_rho_linf_sweep(GRID, seeds=range(10), lam_caps=range(1, 65), n=16)
        assert sweep.all_passed
        assert profile_grids == [2] * 10
        assert max(r.extras["certified_ratio"] for r in sweep.reports) < 1


class TestSupBound:
    @pytest.mark.parametrize("m, quad_n", [(1, 30), (3, 30), (5, 30), (8, 32), (21, 126)])
    def test_maximum_between_nodes_is_reached(self, m, quad_n):
        # T = cos(m(x - h/2)) cos(m(y - h/2)) peaks at 1 half a cell off the
        # nodes; with m | quad_n its grid maximum is cos^2(pi m / quad_n)
        h = 2 * math.pi / quad_n
        row = np.cos(m * (np.arange(quad_n) * h - h / 2))
        prof = ineq.RhoProfile(values=np.outer(row, row), quad_n=quad_n)
        assert prof.max() == pytest.approx(math.cos(math.pi * m / quad_n) ** 2, rel=1e-12)
        assert prof.sup_bound(m) == pytest.approx(1.0, rel=1e-12)

    @pytest.mark.parametrize("seed", range(6))
    def test_certified_lhs_bounds_the_x8_maximum(self, seed):
        fam = ineq.sample_suborthonormal(GRID, 16, seed=seed, role=VORTICITY)
        stream = oracles.velocity_from_vorticity_coeffs(GRID, oracles.full_of_band(GRID, fam.vectors))
        fine = math.sqrt(ineq.rho_profile(stream, GRID, quad_factor=8).max())
        rep = ineq.verify_rho_linf(fam, 1)
        # the 2n nodes are among the 8n ones
        assert rep.lhs <= fine * (1 + 1e-12)
        assert rep.extras["certified_lhs"] >= fine
        assert rep.extras["certified_ratio"] == rep.extras["certified_lhs"] / rep.rhs


class TestNearSaturation:
    def test_flag_set_close_to_the_bound(self):
        # scale the single-mode family so the quadratic-density ratio lands
        # just under 1 (lhs ~ s^4, rhs ~ s^2, so ratio ~ s^2)
        fam = single_shear_family(alpha=0.0)
        base = ineq.verify_lieb_thirring(fam)
        scale = math.sqrt(0.98 / base.ratio)
        fam.vectors = fam.vectors * scale
        rep = ineq.verify_lieb_thirring(fam)
        assert 0.95 < rep.ratio <= 1.0
        assert rep.extras.get("near_saturation") is True
        # ...and the certificate warning fires, since the scaled family is
        # no longer suborthonormal
        assert any("certificate" in w for w in rep.warnings)

    def test_sweep_collects_near_saturation_seeds(self):
        sweep = ineq.run_lt_sweep(GRID, seeds=range(3), n=4)
        assert sweep.near_saturation == []  # random families sit far below


class TestSweepReports:
    def test_worst_seed_tracked(self):
        sweep = ineq.run_lt_sweep(GRID, seeds=range(5), n=4)
        ratios = {r.seed: r.ratio for r in sweep.reports}
        assert sweep.worst_ratio == max(ratios.values())
        assert ratios[sweep.worst_seed] == sweep.worst_ratio

    @pytest.mark.parametrize("target", ["lt", "rho-l2", "rho-linf"])
    def test_witness_is_the_redrawn_worst_family(self, target):
        # the family a sweep keeps is the one its worst report's sub-seed draws
        # again, with the kind, role and alpha the sweep drew it with
        grid, seeds = SpectralGrid(16), range(4)
        if target == "lt":
            sweep = ineq.run_lt_sweep(grid, seeds, n=3, kind=ineq.GRAM_SCALED, alpha=0.3)
            kind, role, alpha = ineq.GRAM_SCALED, VELOCITY, 0.3
        elif target == "rho-l2":
            sweep = ineq.run_rho_l2_sweep(grid, seeds, alphas=[0.05, 2.0], n=3)
            kind, role = ineq.ALPHA_ORTHONORMAL, VELOCITY
            alpha = max(sweep.reports, key=lambda r: r.ratio).extras["alpha"]
        else:
            sweep = ineq.run_rho_linf_sweep(grid, seeds, lam_caps=range(1, 5), n=3, alpha=0.4)
            kind, role, alpha = ineq.ALPHA_ORTHONORMAL, VORTICITY, 0.4
        again = ineq.sample_suborthonormal(grid, 3, kind, sweep.worst_seed, role,
                                           AlphaMetric(alpha))
        assert sweep.witness.seed == sweep.worst_seed
        assert (sweep.witness.role, sweep.witness.metric.alpha) == (role, alpha)
        np.testing.assert_array_equal(sweep.witness.vectors, again.vectors)

    def test_empty_sweep_refused(self):
        with pytest.raises(InvalidParameterError, match="needs at least one family"):
            ineq.run_lt_sweep(GRID, seeds=range(0), n=3)

    def test_as_dict_schema(self):
        sweep = ineq.run_lt_sweep(GRID, seeds=range(2), n=3)
        d = sweep.as_dict()
        assert set(d) == {"target", "count", "worst_ratio", "witness_seed", "pass",
                          "near_saturation"}
