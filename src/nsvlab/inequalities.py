"""Sampling-based verification of the spectral inequalities.

Random families of fields that are suborthonormal in L2 (Gram matrix
dominated by the identity), drawn and orthonormalized on the 2/3 band, feed
three checks: the Lieb-Thirring bound on the quadratic density integral, the
L2 bound on the density of alpha-orthonormal families, and the sup-norm bound
on the stream-velocity density of a scalar family.  A family stays on the band
(..., 2K+1, K+1) it was drawn on, where a k2 > 0 column counts twice in every
Gram matrix and norm.  A family on the band has a density rho of degree 2K in
each coordinate, so the quadratic density integral is exact on any grid of
M > 4K points per axis: the integral checks use the smallest even 5-smooth
such M (90 at n = 64).  The sup norm is not exact on any grid; it is read on
the grid twice as fine as the field's (N = 2n) and certified there by the van
der Corput-Schaake bound max rho <= sec^2(2 pi K / N) * max over the N-grid.
Only a family the two do not decide is read again at N = 4n.
A family's noise is drawn as one stack (spectral.random_band), and the rho-l2
sweep draws each seed once and orthonormalizes that draw for every alpha,
listing its reports alpha-major as if each family had been drawn afresh.
A sweep checks its seeds' families concurrently, on the calling thread and
one worker thread for each further usable CPU; the families are independent
and numpy's transforms release the interpreter lock, and the reports,
verdict and witness are those of checking one family at a time.
"""

from __future__ import annotations

import math
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from . import spectral as sp
from .bounds import CONSTANTS
from .errors import DegenerateFrameError, InvalidParameterError
from .lattice import check_cap, sum_inverse_below, sum_inverse_square_above, LatticeSpectrum
from .lyapunov import alpha_gram_schmidt, gram_deviation, gram_matrix
from .spectral import TORUS_AREA, VELOCITY, VORTICITY, AlphaMetric, SpectralGrid

ALPHA_ORTHONORMAL = "alpha-orthonormal"
GRAM_SCALED = "gram-scaled"

#: the caps a sup-norm report scans for the one minimizing its right-hand side
SCAN_CAPS = range(1, 65)

#: a passing report whose ratio exceeds this is flagged near saturation
NEAR_SATURATION = 0.95

#: every family is drawn with |k|^-FAMILY_DECAY falloff (spectral.random_band)
FAMILY_DECAY = 2.0

#: a family is drawn at most MAX_DRAWS times (sub-seeds seed + 1000 * attempt)
#: before its degeneracy is raised
MAX_DRAWS = 5


# ----------------------------------------------------------------------------
# families

@dataclass
class SuborthonormalFamily:
    """n fields whose L2 Gram matrix is dominated by the identity.

    vectors holds each field's band (n, 2, 2K+1, K+1) for velocity or
    (n, 2K+1, K+1) for a scalar role.  certificate is the largest eigenvalue of
    the L2 Gram matrix (<= 1 up to round-off); alpha-orthonormal families
    satisfy this automatically since the L2 Gram is the identity minus a
    positive part.
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
        return gram_matrix(self.vectors, self.grid.band_count)

    def grad_norm_sq_sum(self) -> float:
        weights = self.grid.band_count * self.grid.band_k2
        return TORUS_AREA * float(np.sum(weights * np.abs(self.vectors) ** 2))

    def require_alpha_orthonormal(self):
        """Refuse the family unless its alpha Gram matrix is the identity to 1e-8."""
        dev = gram_deviation(self.vectors, _alpha_weights(self.grid, self.metric))
        if dev > 1e-8:
            raise InvalidParameterError(
                f"family is not alpha-orthonormal (Gram deviation {dev:.3g})")


def _alpha_weights(grid: SpectralGrid, metric: AlphaMetric) -> np.ndarray:
    """The weights of (u,v) + alpha (grad u, grad v) on a field's band."""
    return grid.band_count * (1.0 + metric.alpha * grid.band_k2)


def sample_suborthonormal(grid: SpectralGrid, n: int, kind: str = ALPHA_ORTHONORMAL, seed: int = 0,
                          role: str = VELOCITY,
                          metric: AlphaMetric = AlphaMetric(1.0)) -> SuborthonormalFamily:
    """Draw a random family satisfying the suborthonormality hypothesis.

    alpha-orthonormal: Gram-Schmidt in the alpha inner product (needs the
    vectors independent; a degenerate draw is retried with a shifted
    sub-seed, MAX_DRAWS draws in all).  gram-scaled: the raw fields scaled
    by the inverse square root of the largest L2 Gram eigenvalue.  Drawn as
    one stack (spectral.random_band, FAMILY_DECAY), orthonormalized,
    certified and kept on the band.
    """
    if n < 1:
        raise InvalidParameterError(f"family size must be >= 1, got {n}")
    if kind not in (ALPHA_ORTHONORMAL, GRAM_SCALED):
        raise InvalidParameterError(f"unknown family kind {kind!r}")
    return _family(grid, n, kind, seed, role, metric, _draw(grid, n, seed, role))


def _draw(grid: SpectralGrid, n: int, seed: int, role: str) -> np.ndarray:
    return sp.random_band(grid, role, FAMILY_DECAY, np.random.default_rng(seed), (n,))


def _family(grid: SpectralGrid, n: int, kind: str, seed: int, role: str, metric: AlphaMetric,
            draw: np.ndarray) -> SuborthonormalFamily:
    """sample_suborthonormal's family of seed's draw, and while that is
    degenerate of sub-seed seed + 1000 * attempt's draw."""
    last_error = None
    for attempt in range(MAX_DRAWS):
        sub_seed = seed + 1000 * attempt
        bands = draw if attempt == 0 else _draw(grid, n, sub_seed, role)
        try:
            return _orthonormalized(grid, bands, kind, sub_seed, role, metric)
        except DegenerateFrameError as err:
            last_error = err
    raise DegenerateFrameError(
        index=getattr(last_error, "index", 0),
        message=f"no independent family after {MAX_DRAWS} draws (seed {seed})")


def _orthonormalized(grid: SpectralGrid, bands: np.ndarray, kind: str, seed: int, role: str,
                     metric: AlphaMetric) -> SuborthonormalFamily:
    """The certified family of a draw (left as it is); DegenerateFrameError if
    the draw has no family of that kind."""
    if kind == ALPHA_ORTHONORMAL:
        bands, _ = alpha_gram_schmidt(bands, _alpha_weights(grid, metric))
    else:
        top = float(np.linalg.eigvalsh(gram_matrix(bands, grid.band_count))[-1])
        if top <= 0:
            raise DegenerateFrameError(index=0, message="zero random draw")
        bands = bands / math.sqrt(top)
    return SuborthonormalFamily(
        grid=grid, role=role, metric=metric, vectors=bands, kind=kind, seed=seed,
        certificate=float(np.linalg.eigvalsh(gram_matrix(bands, grid.band_count))[-1]))


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

    def sup_bound(self, degree: int) -> float:
        """An upper bound on sup rho for rho a real trigonometric polynomial of the
        given degree m < quad_n / 2 per axis.  By van der Corput-Schaake,
        T'^2 + m^2 T^2 <= m^2 M^2 gives T(x) >= M cos(m |x - x*|) about the
        maximum x*; the nearest node along a row, then along a column, lies
        within pi / quad_n, so max() >= M cos^2(pi m / quad_n)."""
        return self.max() / math.cos(math.pi * degree / self.quad_n) ** 2


def _exact_quad_n(grid: SpectralGrid) -> int:
    """The smallest even 5-smooth M > 4K: rho^2 of a family on the band has
    degree 4K, so the M-point rule integrates it exactly."""
    m = 4 * grid.dealias_cutoff + 2
    while not _five_smooth(m):
        m += 2
    return m


def _five_smooth(m: int) -> bool:
    for p in (2, 3, 5):
        while m % p == 0:
            m //= p
    return m == 1


def rho_profile(vectors: np.ndarray, grid: SpectralGrid,
                quad_factor: int | None = None) -> RhoProfile:
    """Evaluate the family density on a grid quad_factor times finer than the
    field's, or by default on the _exact_quad_n grid, where the integrals of rho
    and rho^2 are exact.  The family, its vectors along the first axis, is given
    on the band (m, ..., 2K+1, K+1), as the verifiers hold it, or in the full
    layout (m, ..., n, n), which must lie on the 2/3 band |k_i| <= K.  The band
    is the sampling grid's half spectrum (..., nq, K+1) on the band's rows, and
    one vector at a time is sampled."""
    if vectors.shape[-2:] != grid.band_shape:
        sp.require_band(grid, vectors, "family")
        vectors = sp.band_of(grid, vectors)
    nq = _exact_quad_n(grid) if quad_factor is None else quad_factor * grid.n
    # one vector's planes at a time, added in the order of a sum over the
    # leading axes of the whole stack's squared samples
    rho = np.zeros((nq, nq))
    for vector in vectors:
        phys = sp.to_physical(sp.half_of(grid, vector, nq))  # (2, nq, nq) or (nq, nq)
        np.square(phys, out=phys)
        for plane in phys.reshape(-1, nq, nq):
            rho += plane
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


def _ratio(lhs: float, rhs: float) -> float:
    if rhs == 0.0:
        return 0.0 if lhs <= 1e-14 else math.inf
    return lhs / rhs


def _report(target: str, fam: SuborthonormalFamily, lhs: float, rhs: float,
            warnings=(), passed: bool | None = None, **extras) -> InequalityReport:
    """The report of lhs <= rhs; it passes when ratio <= 1 unless passed says otherwise."""
    ratio = _ratio(lhs, rhs)
    passed = ratio <= 1.0 if passed is None else passed
    rep = InequalityReport(target=target, n=fam.n, seed=fam.seed, lhs=lhs, rhs=rhs, ratio=ratio,
                           passed=passed, warnings=list(warnings), extras=extras)
    if passed and ratio > NEAR_SATURATION:
        rep.extras["near_saturation"] = True
    return rep


def verify_lieb_thirring(fam: SuborthonormalFamily) -> InequalityReport:
    """integral of rho^2 <= c_lt(T^2) * sum ||grad u_j||^2 for a
    divergence-free L2-suborthonormal velocity family."""
    if fam.role != VELOCITY:
        raise InvalidParameterError("the quadratic density bound is checked on velocity families")
    lhs = rho_profile(fam.vectors, fam.grid).integral(2.0)
    warns = []
    certificate = float(np.linalg.eigvalsh(fam.l2_gram())[-1])  # stored one may be stale
    if certificate > 1.0 + 1e-9:
        warns.append(f"suborthonormality certificate {certificate:.6f} > 1")
    rhs = CONSTANTS.c_lt_torus2d * fam.grad_norm_sq_sum()
    return _report("lt", fam, lhs, rhs, warns)


def verify_rho_l2(fam: SuborthonormalFamily) -> InequalityReport:
    """||rho||_L2 <= sqrt(n) / (2 sqrt(pi) sqrt(alpha)) for alpha-orthonormal
    velocity families (2D).  The constant is inherited from the planar case
    and is checked here on the torus empirically."""
    if fam.metric.alpha <= 0:
        raise InvalidParameterError("the L2 density bound needs alpha > 0")
    fam.require_alpha_orthonormal()
    lhs = rho_profile(fam.vectors, fam.grid).l2_norm()
    rhs = math.sqrt(fam.n) / (2.0 * math.sqrt(math.pi) * math.sqrt(fam.metric.alpha))
    return _report("rho-l2", fam, lhs, rhs)


def _linf_rhs(cap: int, grad_sum: float) -> float:
    return (4.0 * math.sqrt(2.0) * math.pi * math.sqrt(math.log(4.0 * math.e * cap))
            + 4.0 / math.sqrt(cap) * math.sqrt(TORUS_AREA * grad_sum))


def spectral_sum_extras(lam_cap: int, spectrum: LatticeSpectrum) -> dict:
    """The two inverse-power spectral sums backing the sup-norm bound, read
    off a spectrum enumerated up to max(16 lam_cap, 64) at least."""
    return {
        "sum_inverse_below": sum_inverse_below(lam_cap, spectrum),
        "sum_inverse_below_bound": 4.0 * math.log(4.0 * math.e * lam_cap),
        "sum_inverse_square_above": sum_inverse_square_above(lam_cap, spectrum),
        "sum_inverse_square_above_bound": 8.0 / lam_cap,
    }


def verify_rho_linf(fam: SuborthonormalFamily, lam_cap: int) -> InequalityReport:
    """sup-norm bound for rho = sum |grad-perp Laplace^{-1} phi_j|^2:

        ||rho||_inf^{1/2} <= 4 sqrt(2) pi (ln 4e Lam)^{1/2}
                             + 4 Lam^{-1/2} (|T^2| sum ||grad phi_j||^2)^{1/2}

    for any integer Lam >= 1 and an alpha-orthonormal scalar family (verdict:
    _linf_reports).  The report also carries the cap minimizing the
    right-hand side over SCAN_CAPS and the two inverse-power spectral sums
    backing the proof.
    """
    check_cap(lam_cap, math.inf)   # the spectrum is enumerated to fit it
    spectrum = LatticeSpectrum(max_e=max(16 * lam_cap, 64))
    sums = {lam_cap: spectral_sum_extras(int(lam_cap), spectrum)}
    return _linf_reports(fam, [lam_cap], sums)[0]


def _linf_reports(fam: SuborthonormalFamily, lam_caps: list, sums: dict) -> list:
    """verify_rho_linf's report for each cap, given each cap's spectral sums;
    the family's side of the bound and its best cap are evaluated once.

    lhs is the square root of rho's maximum on the 2n grid, and certified_lhs
    that of RhoProfile.sup_bound (rho has degree 2K per axis).  A cap passes
    when certified_ratio <= 1 and fails when ratio > 1.  If some cap is
    between the two, every report of the family is read again on the 4n
    grid, and a cap still between them there fails."""
    if fam.role != VORTICITY:
        raise InvalidParameterError("the sup-norm bound is checked on scalar families")
    fam.require_alpha_orthonormal()
    # u = grad-perp psi with psi = phi / |k|^2, the state's multipliers
    grid = fam.grid
    stream_velocities = grid.band_u * (fam.vectors / grid.band_k[2])[..., None, :, :]
    grad_sum = fam.grad_norm_sq_sum()
    rhs = {cap: _linf_rhs(cap, grad_sum) for cap in lam_caps}
    best_cap = min(SCAN_CAPS, key=lambda cap: _linf_rhs(cap, grad_sum))
    for quad_factor in (2, 4):
        profile = rho_profile(stream_velocities, grid, quad_factor=quad_factor)
        lhs = math.sqrt(profile.max())
        certified = math.sqrt(profile.sup_bound(2 * grid.dealias_cutoff))
        if not any(lhs <= rhs[cap] < certified for cap in lam_caps):
            break
    reports = []
    for cap in lam_caps:
        ratio, certified_ratio = _ratio(lhs, rhs[cap]), _ratio(certified, rhs[cap])
        warns = ([f"undecided on the {quad_factor * grid.n}-point grid: grid-max ratio "
                  f"{ratio:.6g} <= 1 < certified ratio {certified_ratio:.6g}"]
                 if ratio <= 1.0 < certified_ratio else [])
        reports.append(_report(
            "rho-linf", fam, lhs, rhs[cap], warns, passed=certified_ratio <= 1.0,
            lam_cap=int(cap), best_cap=int(best_cap),
            rhs_at_best_cap=_linf_rhs(best_cap, grad_sum),
            certified_lhs=certified, certified_ratio=certified_ratio, **sums[cap]))
    return reports


# ----------------------------------------------------------------------------
# seeded sweeps

@dataclass
class SweepReport:
    """A sweep's reports and verdict; witness is the family behind its worst
    report (worst_seed is that family's sub-seed)."""

    target: str
    count: int
    worst_ratio: float
    worst_seed: int
    all_passed: bool
    near_saturation: list = field(default_factory=list)
    reports: list = field(default_factory=list)
    witness: SuborthonormalFamily | None = None

    def as_dict(self) -> dict:
        return {
            "target": self.target, "count": self.count,
            "worst_ratio": self.worst_ratio, "witness_seed": self.worst_seed,
            "pass": self.all_passed, "near_saturation": self.near_saturation,
        }


def _in_turns(check, seeds) -> list:
    """[check(seed) for seed in seeds], the seeds taken in turn by the calling
    thread and one worker thread for each further usable CPU, never more
    threads than seeds.  A failing seed (or an interrupt) stops the turns; its
    error, or that of an earlier seed still being checked, is raised once they
    are done, as checking one seed after another would raise the first."""
    seeds = list(seeds)
    results, errors = [None] * len(seeds), {}
    turns, lock = iter(range(len(seeds))), threading.Lock()

    def take_turns():
        while True:
            with lock:
                j = None if errors else next(turns, None)
            if j is None:
                return
            try:
                results[j] = check(seeds[j])
            except BaseException as err:
                errors[j] = err

    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    workers = min(cpus or 1, len(seeds)) - 1
    with ThreadPoolExecutor(max(workers, 1)) as pool:
        for _ in range(workers):
            pool.submit(take_turns)
        take_turns()
    if errors:
        raise errors[min(errors)]
    return results


def _sweep(target: str, check, seeds) -> SweepReport:
    """The sweep of check(seed) for each seed (_in_turns), a list of pairs
    (family, its reports): the reports listed by pair index, then seed, and
    the family behind the first of them with the largest ratio kept and no
    other."""
    placed, worst, witness = [], None, None
    for j, checked in enumerate(_in_turns(check, seeds)):
        for i, (fam, reps) in enumerate(checked):
            for k, rep in enumerate(reps):
                key = (-rep.ratio, i, j, k)
                placed.append((key[1:], rep))
                if worst is None or key < worst[0]:
                    worst, witness = (key, rep), fam
    if worst is None:
        raise InvalidParameterError(f"the {target} sweep needs at least one family")
    reports = [rep for _, rep in sorted(placed, key=lambda p: p[0])]
    return SweepReport(
        target=target,
        count=len(reports),
        worst_ratio=worst[1].ratio,
        worst_seed=worst[1].seed,
        all_passed=all(r.passed for r in reports),
        near_saturation=[r.seed for r in reports if r.extras.get("near_saturation")],
        reports=reports,
        witness=witness,
    )


def run_lt_sweep(grid: SpectralGrid, seeds, n: int = 8, kind: str = ALPHA_ORTHONORMAL,
                 alpha: float = 1.0) -> SweepReport:
    metric = AlphaMetric(alpha)

    def check(seed):
        fam = sample_suborthonormal(grid, n, kind, seed, VELOCITY, metric)
        return [(fam, [verify_lieb_thirring(fam)])]

    return _sweep("lt", check, seeds)


def run_rho_l2_sweep(grid: SpectralGrid, seeds, alphas, n: int = 8) -> SweepReport:
    """verify_rho_l2 at each alpha of each seed's one draw, listed alpha-major;
    a degenerate (alpha, seed) family alone is drawn again (_family)."""
    alphas = list(alphas)
    if not alphas or not all(0 < a < math.inf for a in alphas):
        raise InvalidParameterError(
            f"alphas must be non-empty, each finite and > 0, got {alphas!r}")
    metrics = [AlphaMetric(alpha) for alpha in alphas]

    def check(seed):
        draw, checked = _draw(grid, n, seed, VELOCITY), []
        for metric in metrics:
            fam = _family(grid, n, ALPHA_ORTHONORMAL, seed, VELOCITY, metric, draw)
            rep = verify_rho_l2(fam)
            rep.extras["alpha"] = metric.alpha
            checked.append((fam, [rep]))
        return checked

    return _sweep("rho-l2", check, seeds)


def run_rho_linf_sweep(grid: SpectralGrid, seeds, lam_caps, n: int = 8,
                       alpha: float = 1.0) -> SweepReport:
    lam_caps = list(lam_caps)
    for cap in lam_caps:
        check_cap(cap, math.inf)
    # the spectral sums are family-independent: evaluate them once per cap
    spectrum = LatticeSpectrum(max_e=max(16 * max(lam_caps), 64))
    sums = {cap: spectral_sum_extras(int(cap), spectrum) for cap in lam_caps}
    metric = AlphaMetric(alpha)

    def check(seed):
        fam = sample_suborthonormal(grid, n, ALPHA_ORTHONORMAL, seed, VORTICITY, metric)
        return [(fam, _linf_reports(fam, lam_caps, sums))]

    return _sweep("rho-linf", check, seeds)
