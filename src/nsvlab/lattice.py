"""Torus Laplacian spectrum by lattice enumeration and its verification.

Eigenvalues are the squared norms |k|^2 over nonzero integer wavevectors,
with multiplicity r2(m) = #{k : |k|^2 = m}, the sum-of-two-squares count;
N(E) counts eigenvalues <= E, so N(E) + 1 is the number of lattice points
(origin included) in the closed disk of radius sqrt(E).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import InvalidParameterError
from .spectral import TORUS_AREA


def _r2_table(max_e: int) -> np.ndarray:
    """r2[m] = #{k : |k|^2 = m} for 0 < m <= max_e, and r2[0] = 0 (the
    origin is no eigenvalue).  Built one row k1 >= 0 of the quarter-plane at a
    time: (k1, k2) stands for its sign flips, 2 per nonzero component."""
    r2 = np.zeros(max_e + 1, dtype=np.int64)
    sq = np.arange(math.isqrt(max_e) + 1, dtype=np.int64) ** 2
    flips = np.where(sq > 0, 2, 1)   # sign flips of k2; k1 > 0 doubles them
    weights = (flips, 2 * flips)
    for k1, s1 in enumerate(sq.tolist()):
        row = s1 + sq[:math.isqrt(max_e - s1) + 1]   # distinct entries: += is exact
        r2[row] += weights[k1 > 0][:row.size]
    r2[0] = 0
    return r2


@dataclass
class LatticeSpectrum:
    """Eigenvalues up to max_e as their multiplicity table r2 (exact counts),
    with the prefix tables its readers take: N(E) and the inverse-power sums."""

    max_e: int
    r2: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.max_e < 0:
            raise InvalidParameterError(f"max_e must be >= 0, got {self.max_e}")
        self.max_e = int(self.max_e)
        self.r2 = _r2_table(self.max_e)

    @classmethod
    def with_at_least(cls, count: int) -> "LatticeSpectrum":
        """Smallest enumeration window guaranteed to contain `count` eigenvalues.

        Weyl growth N(E) ~ pi E; the geometric lower bound
        N(E) >= pi (sqrt(E) - sqrt(2)/2)^2 - 1 picks a safe window.
        """
        e = 16
        while True:
            if math.pi * (math.sqrt(e) - math.sqrt(2) / 2) ** 2 - 1 >= count:
                break
            e *= 2
        spec = cls(max_e=e)
        while spec.cumulative[-1] < count:  # paranoia; the bound above suffices
            e *= 2
            spec = cls(max_e=e)
        return spec

    @property
    def eigenvalues(self) -> np.ndarray:
        """The sorted eigenvalues with multiplicity (expanded on each read)."""
        return np.repeat(np.arange(self.max_e + 1), self.r2)

    @cached_property
    def cumulative(self) -> np.ndarray:
        """N(m) for m = 0..max_e."""
        return np.cumsum(self.r2)

    def lowest(self, count: int) -> np.ndarray:
        """lambda_1 <= ... <= lambda_count, expanded up to lambda_count only."""
        top = int(np.searchsorted(self.cumulative, count))
        return np.repeat(np.arange(top + 1), self.r2[:top + 1])[:count]

    def counting(self, e) -> np.ndarray:
        """N(E) = #{lambda_j <= E}, vectorized over E."""
        m = np.clip(np.floor(np.asarray(e, dtype=np.float64)), 0, self.max_e)
        return self.cumulative[m.astype(np.int64)]

    @cached_property
    def inverse_below(self) -> np.ndarray:
        """sum of 1/lambda_j over lambda_j <= L, for L = 0..max_e."""
        m = np.arange(1, self.max_e + 1, dtype=np.float64)
        return np.concatenate([[0.0], np.cumsum(self.r2[1:] / m)])

    @cached_property
    def inverse_square(self) -> np.ndarray:
        """r2[m] / m^2, the sum of 1/lambda_j^2 over lambda_j = m, for m = 0..max_e."""
        m = np.arange(1, self.max_e + 1, dtype=np.float64)
        return np.concatenate([[0.0], self.r2[1:] / m**2])


# ----------------------------------------------------------------------------
# verification reports

@dataclass
class SpectrumReport:
    j_max: int
    violations: list
    min_ratio_lower: float   # min over j of lambda_j / (j/4)
    min_ratio_upper: float   # min over j>=2 of (j/2) / lambda_j
    sandwich_checked_e: int
    counting_note: str
    passed: bool


def verify_eigenvalue_bounds(j_max: int) -> SpectrumReport:
    """Check j/4 <= lambda_j (j >= 1), lambda_j <= j/2 (j >= 2), the disk
    sandwich on N(E), and N(E) <= 4E, all by direct enumeration."""
    if j_max < 2:
        raise InvalidParameterError(f"j_max must be >= 2, got {j_max}")
    spec = LatticeSpectrum.with_at_least(j_max)
    lam = spec.lowest(j_max).astype(np.float64)
    j = np.arange(1, j_max + 1, dtype=np.float64)

    violations = []
    lower_ratio = lam / (j / 4)
    bad = np.nonzero(lower_ratio < 1)[0]
    for i in bad[:10]:
        violations.append(f"lambda_{i + 1}={lam[i]:g} < {(i + 1) / 4:g}")
    upper_ratio = (j[1:] / 2) / lam[1:]
    bad = np.nonzero(upper_ratio < 1)[0]
    for i in bad[:10]:
        violations.append(f"lambda_{i + 2}={lam[i + 1]:g} > {(i + 2) / 2:g}")

    # geometric sandwich and the linear counting bound, integer E
    e_hi = int(lam[-1])
    e = np.arange(1, e_hi + 1, dtype=np.float64)
    n_e = spec.counting(e).astype(np.float64)
    lo = np.pi * (np.sqrt(e) - math.sqrt(2) / 2) ** 2
    hi = np.pi * (np.sqrt(e) + math.sqrt(2) / 2) ** 2
    if np.any(n_e + 1 < lo) or np.any(n_e + 1 > hi):
        i = int(np.nonzero((n_e + 1 < lo) | (n_e + 1 > hi))[0][0])
        violations.append(f"disk sandwich fails at E={i + 1}: N+1={n_e[i] + 1:g}")
    if np.any(n_e > 4 * e):
        i = int(np.nonzero(n_e > 4 * e)[0][0])
        violations.append(f"N(E) <= 4E fails at E={i + 1}: N={n_e[i]:g}")

    note = (
        "counting direction: N(E) >= 2E is what lambda_j <= j/2 needs "
        f"(N(2)={spec.counting(2)}), so the statement is checked directly "
        "by enumeration rather than through a counting inequality"
    )
    return SpectrumReport(
        j_max=j_max,
        violations=violations,
        min_ratio_lower=float(lower_ratio.min()),
        min_ratio_upper=float(upper_ratio.min()),
        sandwich_checked_e=e_hi,
        counting_note=note,
        passed=not violations,
    )


@dataclass
class LiYauReport:
    m_max: int
    violations: list
    min_sum_ratio: float      # min_m of (sum lambda_j) / (2 pi m^2 / |domain|)
    ratio_at_small_m: float
    ratio_at_m_max: float
    passed: bool


def verify_liyau(m_max: int) -> LiYauReport:
    """Partial-sum lower bound sum_{j<=m} lambda_j >= (2 pi/|domain|) m^2 and
    its pointwise consequence lambda_m >= (2 pi/|domain|) m, |domain| = 4 pi^2."""
    if m_max < 1:
        raise InvalidParameterError(f"m_max must be >= 1, got {m_max}")
    spec = LatticeSpectrum.with_at_least(m_max)
    lam = spec.lowest(m_max).astype(np.float64)
    m = np.arange(1, m_max + 1, dtype=np.float64)
    partial = np.cumsum(lam)
    rate = 2 * math.pi / TORUS_AREA
    threshold = rate * m**2
    ratio = partial / threshold

    violations = []
    bad = np.nonzero(ratio < 1)[0]
    for i in bad[:10]:
        violations.append(f"sum up to m={i + 1} is {partial[i]:g} < {threshold[i]:g}")
    pointwise = lam / (rate * m)
    bad = np.nonzero(pointwise < 1)[0]
    for i in bad[:10]:
        violations.append(f"lambda_{i + 1}={lam[i]:g} < {rate * (i + 1):g}")

    small_m = min(100, m_max)
    return LiYauReport(
        m_max=m_max,
        violations=violations,
        min_sum_ratio=float(ratio.min()),
        ratio_at_small_m=float(ratio[small_m - 1]),
        ratio_at_m_max=float(ratio[-1]),
        passed=not violations,
    )


# ----------------------------------------------------------------------------
# inverse-power spectral sums (used by the sup-norm density bound)

def sum_inverse_below(lam_cap: int, spectrum: LatticeSpectrum) -> float:
    """Exact sum of 1/lambda_j over lambda_j <= lam_cap, read off a spectrum
    enumerated up to lam_cap at least."""
    return float(spectrum.inverse_below[lam_cap])


def inverse_square_tail_bound(e: float) -> float:
    """Rigorous upper bound for sum over |k|^2 > E of |k|^{-4}.

    Unit squares around lattice points: for |k| > sqrt(E) the point's square
    lies in {|x| > sqrt(E) - sqrt(2)/2} and |k| >= |x| - sqrt(2)/2 there, so
    the sum is at most the integral of (|x| - sqrt2/2)^{-4} over that region.
    Requires E > 2.
    """
    a = math.sqrt(2) / 2
    r0 = math.sqrt(e) - 2 * a  # lower limit of rho = |x| - a
    if r0 <= 0:
        raise InvalidParameterError(f"tail bound needs E > 2, got {e}")
    return 2 * math.pi * (1.0 / (2 * r0**2) + a / (3 * r0**3))


def sum_inverse_square_above(lam_cap: int, spectrum: LatticeSpectrum) -> float:
    """Upper bound for sum of 1/lambda_j^2 over lambda_j > lam_cap:
    exact enumeration up to e_max = max(16 lam_cap, 64), read off a spectrum
    enumerated that far at least, plus a rigorous integral tail."""
    e_max = max(16 * lam_cap, 64)
    if spectrum.max_e < e_max:
        raise InvalidParameterError(f"the spectrum reaches {spectrum.max_e}, not {e_max}")
    mid = spectrum.inverse_square[lam_cap + 1:e_max + 1]
    return float(np.sum(mid)) + inverse_square_tail_bound(e_max)


@dataclass
class SpectralSumReport:
    lam_values: np.ndarray
    inv_below: np.ndarray
    inv_below_bound: np.ndarray
    invsq_above: np.ndarray
    invsq_above_bound: np.ndarray
    passed: bool


def verify_spectral_sums(lam_max: int = 10_000) -> SpectralSumReport:
    """Check sum_{lam<=L} 1/lam < 4 ln(4eL) and sum_{lam>L} 1/lam^2 < 8/L for
    every integer L in [1, lam_max]."""
    e_max = 16 * lam_max
    spec = LatticeSpectrum(max_e=e_max)
    ls = np.arange(1, lam_max + 1, dtype=np.float64)
    inv_below = spec.inverse_below[1:lam_max + 1]
    # from the top down, so that no tail is a difference of two whole sums
    at_or_above = np.cumsum(spec.inverse_square[::-1])[::-1]
    invsq_above = at_or_above[2:lam_max + 2] + inverse_square_tail_bound(e_max)

    below_bound = 4 * np.log(4 * math.e * ls)
    above_bound = 8.0 / ls
    passed = bool(np.all(inv_below < below_bound) and np.all(invsq_above < above_bound))
    return SpectralSumReport(ls, inv_below, below_bound, invsq_above, above_bound, passed)
