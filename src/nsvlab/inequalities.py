"""Sampling-based verification of the spectral inequalities.

Families of fields that are suborthonormal in L2 (Gram matrix dominated by
the identity) feed three checks: the Lieb-Thirring bound on the quadratic
density integral, the L2 bound on the density of alpha-orthonormal families,
and the sup-norm bound on the density built from stream-velocities of a
scalar family.  Densities are evaluated on a collocation grid at twice the
field resolution, which integrates |u_j|^2 powers exactly for band-limited
fields; every integral is re-checked on a refined grid before a verdict.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import spectral as sp
from .bounds import CONSTANTS
from .errors import DegenerateFrameError, InvalidParameterError
from .lattice import sum_inverse_below, sum_inverse_square_above, LatticeSpectrum
from .lyapunov import alpha_gram_schmidt, gram_deviation
from .spectral import TORUS_AREA, VELOCITY, VORTICITY, AlphaMetric, SpectralField, SpectralGrid

ALPHA_ORTHONORMAL = "alpha-orthonormal"
GRAM_SCALED = "gram-scaled"


def pad_coeffs(c: np.ndarray, n_out: int) -> np.ndarray:
    """Embed (..., n, n) Fourier coefficients into a larger n_out grid."""
    n = c.shape[-1]
    if n_out == n:
        return c.copy()
    if n_out < n:
        raise InvalidParameterError(f"cannot pad {n} modes into {n_out}")
    shifted = np.fft.fftshift(c, axes=(-2, -1))
    out = np.zeros(c.shape[:-2] + (n_out, n_out), dtype=complex)
    lo = n_out // 2 - n // 2
    out[..., lo:lo + n, lo:lo + n] = shifted
    return np.fft.ifftshift(out, axes=(-2, -1))


# ----------------------------------------------------------------------------
# families

@dataclass
class SuborthonormalFamily:
    """n fields whose L2 Gram matrix is dominated by the identity.

    certificate is the largest eigenvalue of the L2 Gram matrix (<= 1 up to
    round-off); alpha-orthonormal families satisfy this automatically since
    the L2 Gram is the identity minus a positive part.
    """

    grid: SpectralGrid
    role: str
    metric: AlphaMetric
    vectors: np.ndarray
    kind: str
    seed: int
    certificate: float = 0.0

    @property
    def n(self) -> int:
        return self.vectors.shape[0]

    def l2_gram(self) -> np.ndarray:
        v = self.vectors.reshape(self.n, -1)
        return TORUS_AREA * np.real(v @ np.conj(v).T)

    def grad_norm_sq_sum(self) -> float:
        return TORUS_AREA * float(np.sum(self.grid.k2 * np.abs(self.vectors) ** 2))

    def alpha_deviation(self) -> float:
        """Largest deviation of the alpha Gram matrix from the identity."""
        return gram_deviation(self.vectors, self.metric.weights(self.grid))


def sample_suborthonormal(
    grid: SpectralGrid,
    n: int,
    kind: str = ALPHA_ORTHONORMAL,
    seed: int = 0,
    role: str = VELOCITY,
    metric: AlphaMetric = AlphaMetric(1.0),
    decay: float = 2.0,
    max_retries: int = 5,
) -> SuborthonormalFamily:
    """Draw a random family satisfying the suborthonormality hypothesis.

    alpha-orthonormal: Gram-Schmidt in the alpha inner product (needs the
    vectors independent; a degenerate draw is retried with a shifted
    sub-seed).  gram-scaled: the raw fields scaled by the inverse square
    root of the largest L2 Gram eigenvalue.
    """
    if n < 1:
        raise InvalidParameterError(f"family size must be >= 1, got {n}")
    last_error = None
    for attempt in range(max_retries):
        sub_seed = seed + 1000 * attempt
        rng = np.random.default_rng(sub_seed)
        vecs = np.stack([
            sp.random_field(grid, role, seed=0, decay=decay, rng=rng).coeffs
            for _ in range(n)
        ])
        if kind == ALPHA_ORTHONORMAL:
            try:
                vecs, _ = alpha_gram_schmidt(vecs, metric.weights(grid))
            except DegenerateFrameError as err:
                last_error = err
                continue
        elif kind == GRAM_SCALED:
            v = vecs.reshape(n, -1)
            gram = TORUS_AREA * np.real(v @ np.conj(v).T)
            top = float(np.linalg.eigvalsh(gram)[-1])
            if top <= 0:
                last_error = DegenerateFrameError(index=0, message="zero random draw")
                continue
            vecs = vecs / math.sqrt(top)
        else:
            raise InvalidParameterError(f"unknown family kind {kind!r}")
        fam = SuborthonormalFamily(grid=grid, role=role, metric=metric,
                                   vectors=vecs, kind=kind, seed=sub_seed)
        fam.certificate = float(np.linalg.eigvalsh(fam.l2_gram())[-1])
        return fam
    raise DegenerateFrameError(
        index=getattr(last_error, "index", 0),
        message=f"no independent family after {max_retries} draws (seed {seed})")


# ----------------------------------------------------------------------------
# density profiles

@dataclass
class RhoProfile:
    """rho(x) = sum_j |u_j(x)|^2 sampled on a collocation grid."""

    values: np.ndarray
    quad_n: int

    @property
    def cell(self) -> float:
        return (2 * math.pi / self.quad_n) ** 2

    def integral(self, power: float = 1.0) -> float:
        return float(np.sum(self.values**power)) * self.cell

    def l2_norm(self) -> float:
        return math.sqrt(self.integral(2.0))

    def max(self) -> float:
        return float(np.max(self.values))


def rho_profile(vectors: np.ndarray, grid: SpectralGrid, quad_factor: int = 2) -> RhoProfile:
    """Evaluate the family density on a grid quad_factor times finer."""
    nq = quad_factor * grid.n
    phys = sp.to_physical(pad_coeffs(vectors, nq))
    if phys.ndim == 4:          # (n, 2, nq, nq) velocity family
        rho = np.sum(phys**2, axis=(0, 1))
    else:                       # (n, nq, nq) scalar family
        rho = np.sum(phys**2, axis=0)
    return RhoProfile(values=rho, quad_n=nq)


# ----------------------------------------------------------------------------
# reports

@dataclass
class InequalityReport:
    target: str
    n: int
    seed: int
    lhs: float
    rhs: float
    ratio: float
    passed: bool
    warnings: list = field(default_factory=list)
    extras: dict = field(default_factory=dict)

    def as_dict(self) -> dict:
        return {
            "target": self.target, "n": self.n, "seed": self.seed,
            "lhs": self.lhs, "rhs": self.rhs, "ratio": self.ratio,
            "passed": self.passed, "warnings": self.warnings, "extras": self.extras,
        }


def _ratio(lhs: float, rhs: float) -> float:
    if rhs == 0.0:
        return 0.0 if lhs <= 1e-14 else math.inf
    return lhs / rhs


def _refinement_warning(fam_vectors, grid, value_fn, warnings_list, label, tol):
    coarse = value_fn(rho_profile(fam_vectors, grid, quad_factor=2))
    fine = value_fn(rho_profile(fam_vectors, grid, quad_factor=4))
    scale = max(abs(fine), 1e-300)
    if abs(fine - coarse) / scale > tol:
        warnings_list.append(
            f"{label} moved by {abs(fine - coarse) / scale:.2e} under grid refinement")
    return fine


def verify_lieb_thirring(fam: SuborthonormalFamily, near_saturation: float = 0.95) -> InequalityReport:
    """integral of rho^2 <= c_lt(T^2) * sum ||grad u_j||^2 for a
    divergence-free L2-suborthonormal velocity family."""
    if fam.role != VELOCITY:
        raise InvalidParameterError("the quadratic density bound is checked on velocity families")
    warns = []
    certificate = float(np.linalg.eigvalsh(fam.l2_gram())[-1])  # stored one may be stale
    if certificate > 1.0 + 1e-9:
        warns.append(f"suborthonormality certificate {certificate:.6f} > 1")
    lhs = _refinement_warning(fam.vectors, fam.grid, lambda r: r.integral(2.0),
                              warns, "integral rho^2", 1e-6)
    rhs = CONSTANTS.c_lt_torus2d * fam.grad_norm_sq_sum()
    ratio = _ratio(lhs, rhs)
    rep = InequalityReport(target="lt", n=fam.n, seed=fam.seed, lhs=lhs, rhs=rhs,
                           ratio=ratio, passed=ratio <= 1.0, warnings=warns)
    if near_saturation < ratio <= 1.0:
        rep.extras["near_saturation"] = True
    return rep


def verify_rho_l2(fam: SuborthonormalFamily, near_saturation: float = 0.95) -> InequalityReport:
    """||rho||_L2 <= sqrt(n) / (2 sqrt(pi) sqrt(alpha)) for alpha-orthonormal
    velocity families (2D).  The constant is inherited from the planar case
    and is checked here on the torus empirically."""
    if fam.metric.alpha <= 0:
        raise InvalidParameterError("the L2 density bound needs alpha > 0")
    dev = fam.alpha_deviation()
    if dev > 1e-8:
        raise InvalidParameterError(
            f"family is not alpha-orthonormal (Gram deviation {dev:.3g})")
    warns = []
    lhs = math.sqrt(_refinement_warning(fam.vectors, fam.grid, lambda r: r.integral(2.0),
                                        warns, "integral rho^2", 1e-6))
    rhs = math.sqrt(fam.n) / (2.0 * math.sqrt(math.pi) * math.sqrt(fam.metric.alpha))
    ratio = _ratio(lhs, rhs)
    rep = InequalityReport(target="rho-l2", n=fam.n, seed=fam.seed, lhs=lhs, rhs=rhs,
                           ratio=ratio, passed=ratio <= 1.0, warnings=warns)
    if near_saturation < ratio <= 1.0:
        rep.extras["near_saturation"] = True
    return rep


def _linf_sides(fam: SuborthonormalFamily) -> tuple[float, float, list]:
    """(sup-norm lhs, gradient-sum, refinement warnings) for one family."""
    if fam.role != VORTICITY:
        raise InvalidParameterError("the sup-norm bound is checked on scalar families")
    dev = fam.alpha_deviation()
    if dev > 1e-8:
        raise InvalidParameterError(
            f"family is not alpha-orthonormal (Gram deviation {dev:.3g})")
    warns = []
    stream_velocities = sp.velocity_from_vorticity_coeffs(fam.grid, fam.vectors)
    lhs_sq = _refinement_warning(stream_velocities, fam.grid, lambda r: r.max(),
                                 warns, "max rho", 1e-3)
    return math.sqrt(lhs_sq), fam.grad_norm_sq_sum(), warns


def _linf_rhs(cap: int, grad_sum: float) -> float:
    return (4.0 * math.sqrt(2.0) * math.pi * math.sqrt(math.log(4.0 * math.e * cap))
            + 4.0 / math.sqrt(cap) * math.sqrt(TORUS_AREA * grad_sum))


def spectral_sum_extras(lam_cap: int, spectrum: LatticeSpectrum | None = None) -> dict:
    """The two inverse-power spectral sums backing the sup-norm bound."""
    return {
        "sum_inverse_below": sum_inverse_below(lam_cap, spectrum),
        "sum_inverse_below_bound": 4.0 * math.log(4.0 * math.e * lam_cap),
        "sum_inverse_square_above": sum_inverse_square_above(lam_cap, spectrum=spectrum),
        "sum_inverse_square_above_bound": 8.0 / lam_cap,
    }


def verify_rho_linf(fam: SuborthonormalFamily, lam_cap: int,
                    scan_caps: range = range(1, 65),
                    near_saturation: float = 0.95,
                    _sides: tuple | None = None,
                    _spectrum: LatticeSpectrum | None = None) -> InequalityReport:
    """sup-norm bound for rho = sum |grad-perp Laplace^{-1} phi_j|^2:

        ||rho||_inf^{1/2} <= 4 sqrt(2) pi (ln 4e Lam)^{1/2}
                             + 4 Lam^{-1/2} (|T^2| sum ||grad phi_j||^2)^{1/2}

    for any integer Lam >= 1 and an alpha-orthonormal scalar family.  The
    report also carries the cap minimizing the right-hand side over
    scan_caps and the two inverse-power spectral sums backing the proof.
    """
    if not isinstance(lam_cap, (int, np.integer)) or lam_cap < 1:
        raise InvalidParameterError(f"the spectral cap must be an integer >= 1, got {lam_cap!r}")
    lhs, grad_sum, warns = _sides if _sides is not None else _linf_sides(fam)
    rhs = _linf_rhs(lam_cap, grad_sum)
    ratio = _ratio(lhs, rhs)
    best_cap = min(scan_caps, key=lambda cap: _linf_rhs(cap, grad_sum))
    rep = InequalityReport(
        target="rho-linf", n=fam.n, seed=fam.seed, lhs=lhs, rhs=rhs, ratio=ratio,
        passed=ratio <= 1.0, warnings=list(warns),
        extras={
            "lam_cap": int(lam_cap),
            "best_cap": int(best_cap),
            "rhs_at_best_cap": _linf_rhs(best_cap, grad_sum),
            **spectral_sum_extras(int(lam_cap), _spectrum),
        },
    )
    if near_saturation < ratio <= 1.0:
        rep.extras["near_saturation"] = True
    return rep


# ----------------------------------------------------------------------------
# seeded sweeps

@dataclass
class SweepReport:
    target: str
    count: int
    worst_ratio: float
    worst_seed: int
    all_passed: bool
    near_saturation: list = field(default_factory=list)
    reports: list = field(default_factory=list)

    def as_dict(self) -> dict:
        return {
            "target": self.target, "count": self.count,
            "worst_ratio": self.worst_ratio, "witness_seed": self.worst_seed,
            "pass": self.all_passed, "near_saturation": self.near_saturation,
        }


def _sweep(target: str, reports) -> SweepReport:
    reports = list(reports)
    worst = max(reports, key=lambda r: r.ratio)
    return SweepReport(
        target=target,
        count=len(reports),
        worst_ratio=worst.ratio,
        worst_seed=worst.seed,
        all_passed=all(r.passed for r in reports),
        near_saturation=[r.seed for r in reports if r.extras.get("near_saturation")],
        reports=reports,
    )


def run_lt_sweep(grid: SpectralGrid, seeds, n: int = 8, kind: str = ALPHA_ORTHONORMAL,
                 alpha: float = 1.0, decay: float = 2.0) -> SweepReport:
    metric = AlphaMetric(alpha)
    return _sweep("lt", (
        verify_lieb_thirring(sample_suborthonormal(grid, n, kind, seed, VELOCITY, metric, decay))
        for seed in seeds))


def run_rho_l2_sweep(grid: SpectralGrid, seeds, alphas, n: int = 8,
                     decay: float = 2.0) -> SweepReport:
    reports = []
    for alpha in alphas:
        metric = AlphaMetric(alpha)
        for seed in seeds:
            fam = sample_suborthonormal(grid, n, ALPHA_ORTHONORMAL, seed, VELOCITY, metric, decay)
            rep = verify_rho_l2(fam)
            rep.extras["alpha"] = alpha
            reports.append(rep)
    return _sweep("rho-l2", reports)


def run_rho_linf_sweep(grid: SpectralGrid, seeds, lam_caps, n: int = 8,
                       alpha: float = 1.0, decay: float = 2.0) -> SweepReport:
    metric = AlphaMetric(alpha)
    lam_caps = list(lam_caps)
    # the sup-norm side is cap-independent and the spectral sums are
    # family-independent: evaluate each once
    spectrum = LatticeSpectrum(max_e=max(16 * max(lam_caps), 64))
    reports = []
    for seed in seeds:
        fam = sample_suborthonormal(grid, n, ALPHA_ORTHONORMAL, seed, VORTICITY, metric, decay)
        sides = _linf_sides(fam)
        for cap in lam_caps:
            reports.append(verify_rho_linf(fam, cap, _sides=sides, _spectrum=spectrum))
    return _sweep("rho-linf", reports)
