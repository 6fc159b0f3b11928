"""Lattice spectrum enumeration, counting function, and spectral sums."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from nsvlab import lattice as L
from nsvlab.errors import InvalidParameterError

import oracles


def count(e):
    """N(E) from the production spectrum, enumerated up to E."""
    return int(L.LatticeSpectrum(max_e=math.floor(e)).counting(e))


class TestCounting:
    def test_small_counts(self):
        assert count(1) == 4
        assert count(2) == 8
        assert count(5) == 20

    def test_below_first_eigenvalue(self):
        assert count(0.5) == 0
        assert count(0) == 0

    def test_fractional_threshold(self):
        # counting is a right-continuous step function of E
        assert count(4.5) == count(4) == 12
        assert count(4.999) == 12 and count(5) == 20

    @settings(max_examples=30, deadline=None)
    @given(e=st.integers(1, 2000))
    def test_matches_independent_radial_enumeration(self, e):
        assert count(e) == oracles.lattice_count(e) == oracles.lattice_count_radial(e)

    def test_radial_cross_check_full_range(self):
        # N(E) from the sorted spectrum vs an independent ring walk, every
        # integer E up to 1e4
        e_max = 10_000
        spec = L.LatticeSpectrum(max_e=e_max)
        e = np.arange(1, e_max + 1, dtype=np.int64)
        n_spec = spec.counting(e)
        n_radial = np.zeros(e_max, dtype=np.int64)
        kmax = int(math.isqrt(e_max))
        for k1 in range(-kmax, kmax + 1):
            lo = k1 * k1
            budget = e[e > lo - 1] - lo  # E >= k1^2
            counts = 2 * np.floor(np.sqrt(budget.astype(float) + 1e-9)).astype(np.int64) + 1
            n_radial[e_max - budget.size:] += counts
        n_radial -= 1  # origin
        np.testing.assert_array_equal(n_spec, n_radial)

    def test_counting_vs_disk_points(self):
        # N(E) + 1 = lattice points in the closed disk, origin included
        spec = L.LatticeSpectrum(max_e=400)
        for e in (1, 2, 9, 100, 400):
            disk = sum(1 for i in range(-25, 26) for j in range(-25, 26)
                       if i * i + j * j <= e)
            assert spec.counting(e) + 1 == disk

    def test_negative_rejected(self):
        with pytest.raises(InvalidParameterError):
            count(-1.0)
        with pytest.raises(InvalidParameterError):
            oracles.lattice_count(-1.0)


class TestSpectrum:
    def test_ground_level(self):
        spec = L.LatticeSpectrum(max_e=16)
        assert list(spec.eigenvalues[:4]) == [1, 1, 1, 1]
        assert spec.eigenvalues[4] == 2

    def test_with_at_least(self):
        spec = L.LatticeSpectrum.with_at_least(1234)
        assert spec.eigenvalues.size >= 1234

    def test_equality_cases(self):
        spec = L.LatticeSpectrum(max_e=64)
        lam = spec.eigenvalues
        assert lam[3] == 1.0 and lam[3] == 4 / 4      # lambda_4 = j/4
        assert lam[1] == 1.0 and lam[1] == 2 / 2      # lambda_2 = j/2
        assert lam[19] == 5.0 and lam[19] == 20 / 4   # lambda_20 = j/4 again


class TestEigenvalueBounds:
    def test_pass_up_to_2000(self):
        rep = L.verify_eigenvalue_bounds(2000)
        assert rep.passed and not rep.violations
        assert rep.min_ratio_lower == pytest.approx(1.0)   # saturated at j=4
        assert rep.min_ratio_upper == pytest.approx(1.0)   # saturated at j=2

    def test_lambda1_excluded_from_upper(self):
        # lambda_1 = 1 > 1/2, so the upper bound starts at j = 2
        rep = L.verify_eigenvalue_bounds(10)
        assert rep.passed

    def test_jmax_validation(self):
        with pytest.raises(InvalidParameterError):
            L.verify_eigenvalue_bounds(1)

    def test_counting_note_mentions_direction(self):
        rep = L.verify_eigenvalue_bounds(10)
        assert "N(2)=8" in rep.counting_note


class TestLiYau:
    def test_small_hand_values(self):
        rep = L.verify_liyau(4)
        assert rep.passed
        # m=4: sum = 4 >= 16/(2 pi) = 2.546
        spec = L.LatticeSpectrum(max_e=4)
        assert float(np.sum(spec.eigenvalues[:4])) == 4.0
        assert 4.0 >= 16 / (2 * math.pi)

    def test_m1(self):
        assert L.verify_liyau(1).passed  # 1 >= 1/(2 pi)

    def test_ratio_decreases_toward_weyl(self):
        rep = L.verify_liyau(10_000)
        assert rep.passed
        assert rep.min_sum_ratio > 1.0            # strict
        assert rep.ratio_at_m_max < rep.ratio_at_small_m
        assert rep.ratio_at_m_max == pytest.approx(1.0, abs=0.02)


class TestSpectralSums:
    def test_lambda_one_values(self):
        # four eigenvalues equal 1: sum 1/lambda = 4 < 4 ln 4e = 9.545
        spectrum = L.LatticeSpectrum(max_e=64)
        assert L.sum_inverse_below(1, spectrum) == 4.0
        assert 4.0 < 4 * math.log(4 * math.e)
        above = L.sum_inverse_square_above(1, spectrum)
        assert above < 8.0
        assert above == pytest.approx(2.03, abs=0.2)

    def test_tail_bound_dominates_true_tail(self):
        # enumerated tail between E and 4E must sit below the bound at E
        spec = L.LatticeSpectrum(max_e=40_000)
        lam = spec.eigenvalues.astype(float)
        for e in (100, 1000, 10_000):
            true_partial = float(np.sum(1.0 / lam[lam > e] ** 2))
            assert true_partial < L.inverse_square_tail_bound(e)

    def test_tail_bound_requires_e_above_two(self):
        with pytest.raises(InvalidParameterError):
            L.inverse_square_tail_bound(2.0)

    @pytest.mark.parametrize("cap", [1, 10, 100, 1000, 10_000])
    def test_sums_hold_to_fsum(self, cap):
        # the tails had been the whole sum minus a prefix: 2.7e-12 off at L = 100
        # and 2.9e-10 at L = 1e4
        rep = L.verify_spectral_sums(10_000)
        lam = oracles._enumerate_sq_norms(16 * 10_000).astype(float)
        below = math.fsum(1.0 / lam[lam <= cap])
        above = math.fsum(np.append(1.0 / lam[lam > cap] ** 2,
                                    L.inverse_square_tail_bound(16 * 10_000)))
        assert rep.lam_values[cap - 1] == cap
        assert abs(rep.inv_below[cap - 1] - below) <= 1e-13 * below
        assert abs(rep.invsq_above[cap - 1] - above) <= 1e-13 * above

    def test_lemmas_hold_to_1e4(self):
        rep = L.verify_spectral_sums(10_000)
        assert rep.passed
        assert np.all(rep.inv_below < rep.inv_below_bound)
        assert np.all(rep.invsq_above < rep.invsq_above_bound)
