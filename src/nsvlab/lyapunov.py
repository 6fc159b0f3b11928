"""Tangent frames under the linearized flow and trace functionals.

A frame of n fields is kept orthonormal in the alpha-weighted inner product
(CGS2 Gram-Schmidt) while the linearization along a base trajectory
transports it.  The time-averaged trace of the linearized operator over the
frame, q_hat(n), estimates the sum of the first n global Lyapunov exponents;
the first n with q_hat(n) < 0 bounds the attractor dimension.

The supremum over trajectories and bases in the definition of q(n) is
approximated by one long run with an evolving frame and periodic
re-orthonormalization; reports carry the averaging window used.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field, replace

import numpy as np

from . import fieldio
from . import spectral as sp
from .dynamics import (FieldSpec, InsufficientDurationWarning, SimConfig, advance,
                       initial_state, stream_multipliers, stream_scheme)
from .errors import DegenerateFrameError, IntegrationDivergedError, InvalidParameterError
from .spectral import TORUS_AREA, VELOCITY, AlphaMetric, SpectralField, SpectralGrid


@dataclass
class TangentFrame:
    """n solenoidal fields as streamfunctions on the band, stacked along the
    leading axis, with their metric."""

    grid: SpectralGrid
    metric: AlphaMetric
    vectors: np.ndarray  # (n, 2K+1, K+1) psi_hat

    @property
    def n(self) -> int:
        return self.vectors.shape[0]

    @property
    def weights(self) -> np.ndarray:
        return self.metric.band_weights(self.grid)

    @classmethod
    def random(cls, grid: SpectralGrid, n: int, metric: AlphaMetric, seed: int) -> "TangentFrame":
        rng = np.random.default_rng(seed)
        vecs = sp.band_stream(grid, sp.random_band(grid, VELOCITY, 3.0, rng, (n,)))
        return cls(grid, metric, alpha_gram_schmidt(vecs, metric.band_weights(grid))[0])


def _real_view(vectors: np.ndarray, weights) -> tuple:
    """Rows of reals and weights for which TORUS_AREA sum w Re(a conj(b)) is a weighted dot."""
    x = np.ascontiguousarray(vectors, dtype=complex).reshape(len(vectors), -1).view(np.float64)
    return x, TORUS_AREA * np.repeat(np.broadcast_to(weights, vectors.shape[1:]).reshape(-1), 2)


def gram_matrix(vectors: np.ndarray, weights) -> np.ndarray:
    """The Gram matrix of stacked vectors in the inner product TORUS_AREA sum w Re(a conj(b))."""
    x, w = _real_view(vectors, weights)
    return (x * w) @ x.T


def gram_deviation(vectors: np.ndarray, weights: np.ndarray) -> float:
    """Largest deviation of gram_matrix(vectors, weights) from the identity."""
    return float(np.max(np.abs(gram_matrix(vectors, weights) - np.eye(len(vectors)))))


def alpha_gram_schmidt(vectors: np.ndarray, weights: np.ndarray):
    """Gram-Schmidt of stacked vectors in the inner product TORUS_AREA sum w a
    conj(b): a TangentFrame's psi_hat with its band weights, or a family's band
    with the weights band_count (1 + alpha|k|^2).  Classical Gram-Schmidt
    applied twice (CGS2; Giraud, Langou & Rozloznik 2005) on the real view:
    each pass removes vector j's projections on the vectors before it by two
    matrix-vector products, and no vector after j is read, so a prefix of the
    stack is orthonormalized exactly as the stack is.

    Returns the orthonormalized vectors and the diagonal normalization factors
    (the per-vector norm of the residual, the log of which accumulates
    Lyapunov exponents).  Raises DegenerateFrameError naming the first vector
    that falls into the span of its predecessors: its residual is at most
    1e-12 of its norm.
    """
    tol = 1e-12
    q = vectors.astype(complex)
    x, w = _real_view(q, weights)
    factors = np.empty(len(q))
    for j, xj in enumerate(x):
        original = math.sqrt(max(xj @ (w * xj), 0.0))
        for _ in range(2):
            xj -= (x[:j] @ (w * xj)) @ x[:j]
        r = math.sqrt(max(xj @ (w * xj), 0.0))
        if r <= tol * max(original, tol):
            raise DegenerateFrameError(index=j)
        xj /= r
        factors[j] = r
    return q, factors


# ----------------------------------------------------------------------------
# traces

def trace_diagonal(grid: SpectralGrid, multipliers: tuple, state: np.ndarray,
                   weights: np.ndarray, work: sp.KernelWorkspace | None = None) -> np.ndarray:
    """(L_u theta_j, theta_j)_alpha for each theta_j of a stack [psi_u,
    psi_theta_1, ...], with multipliers = dynamics.stream_multipliers(cfg) and
    the linearization about u

        L_u theta = -nu|k|^2/(1+a|k|^2) theta
                    - (u.grad w_theta + theta.grad w_u)/(|k|^2 (1+a|k|^2)).

    work is the kernel's workspace for the stack (fresh arrays when None).
    """
    linear, inverse = multipliers
    lv = linear * state[1:]
    if state[0].any():
        lv -= inverse * sp.bilinear_coeffs(grid, state, work)[1:]
    return TORUS_AREA * np.sum(weights * (lv * np.conj(state[1:])).real, axis=(-2, -1))


# ----------------------------------------------------------------------------
# frame evolution

def spin_up(cfg: SimConfig, warmup: float) -> np.ndarray:
    """cfg's initial psi_hat advanced warmup/dt steps alone (a copy at warmup 0).

    A negative warmup is refused.  The state is checked every cfg.sample_every
    steps and at the end; the first non-finite check raises
    IntegrationDivergedError with its step."""
    if warmup < 0:
        raise InvalidParameterError(f"warmup must be >= 0, got {warmup}")
    try:
        return advance(cfg, initial_state(cfg)[0], int(round(warmup / cfg.dt)),
                       cfg.sample_every, lambda step, c: None)
    except IntegrationDivergedError as err:
        message = f"base flow diverged during warmup at step {err.step} (t={err.t:.6g})"
        raise IntegrationDivergedError(step=err.step, t=err.t, message=message) from None


@dataclass
class TraceSeries:
    """One co-evolved run's record and the trace averages derived from it.

    times are re-orthonormalization events; diag[i, j] is (L theta_j,
    theta_j)_alpha and log_factors[i, j] the log of vector j's Gram-Schmidt
    factor at event i.  Derived on construction: trace_inst is diag's row
    sum, trace_avg its Cesaro mean over events past the burn-in (NaN before).
    q_hats[m - 1] is the same mean over the first m vectors, which evolve
    exactly as an m-frame does; q_hat is q_hat(n).  exponents are per-vector
    Lyapunov estimates from the log factors over the same window.  With no
    event at t >= burn_in the verdict is withheld: q_hats and exponents are
    NaN and window is None.  With no growth interval starting at t >= burn_in
    the exponents alone are withheld (NaN).  Each withholding warns.
    """

    times: np.ndarray
    diag: np.ndarray              # (events, n)
    log_factors: np.ndarray       # (events, n)
    burn_in: float
    base_final: SpectralField
    trace_inst: np.ndarray = field(init=False)
    trace_avg: np.ndarray = field(init=False)
    q_hats: np.ndarray = field(init=False)
    exponents: np.ndarray = field(init=False)
    window: tuple | None = field(init=False, default=None)   # None: withheld

    def __post_init__(self):
        times, logs, burn_in, n = self.times, self.log_factors, self.burn_in, self.n
        prev_ts = np.concatenate([[0.0], times[:-1]])   # where each growth interval starts

        # prefix[:, m - 1] is the trace over the first m vectors, summed left to
        # right; its Cesaro mean over events past burn-in is q_hat(m)
        prefix = np.cumsum(self.diag, axis=1)
        self.trace_inst = prefix[:, -1].copy()
        self.trace_avg = np.full_like(self.trace_inst, np.nan)
        sel = times >= burn_in
        self.q_hats, self.exponents = np.full(n, np.nan), np.full(n, np.nan)
        if np.any(sel):
            means = np.cumsum(prefix[sel], axis=0) / np.arange(1, np.count_nonzero(sel) + 1)[:, None]
            self.trace_avg[sel] = means[:, -1]
            self.q_hats = means[-1]
            self.window = (float(times[sel][0]), float(times[-1]))
            # exponents: growth intervals fully inside the window
            exp_sel = prev_ts >= burn_in
            if np.any(exp_sel):
                self.exponents = (logs[exp_sel].sum(axis=0)
                                  / (times[exp_sel][-1] - prev_ts[exp_sel][0]))
            else:
                warnings.warn(f"no growth interval starts at t >= burn_in = {burn_in:.3g} (last "
                              f"starts at t = {prev_ts[-1]:.3g}); exponents withheld",
                              InsufficientDurationWarning, stacklevel=3)
        else:
            warnings.warn(
                f"no re-orthonormalization at t >= burn_in = {burn_in:.3g} (run ends at "
                f"t = {times[-1]:.3g}); q_hat and exponents withheld",
                InsufficientDurationWarning, stacklevel=3)

    @property
    def n(self) -> int:
        return self.diag.shape[1]

    @property
    def q_hat(self) -> float:
        return float(self.q_hats[-1])

    def write_csv(self, path) -> str:
        """Write the trace columns as CSV; returns the sha256 hex digest of its bytes."""
        return fieldio.write_csv(path, ("t", "trace_inst", "trace_avg"),
                          ([f"{v:.12g}" for v in row]
                           for row in zip(self.times, self.trace_inst, self.trace_avg)))

    def summary(self) -> dict:
        return {
            "n": self.n,
            "q_hat": None if self.window is None else self.q_hat,
            "n_star": None,
            "window": None if self.window is None else [self.window[0], self.window[1]],
            "exponents": None if np.isnan(self.exponents).any()
            else [float(e) for e in self.exponents],
        }


def evolve_tangent_frame(
    cfg: SimConfig,
    n: int,
    t_end: float,
    *,
    reorth_every: int = 10,
    burn_in: float | None = None,
    seed: int = 0,
    warmup: float = 0.0,
) -> TraceSeries:
    """Co-evolve base flow and an n-vector tangent frame, sampling traces.

    Base and frame advance as one stacked state [psi_u, psi_theta_1, ...]
    through dynamics.advance, so the frame takes the base flow's stages and
    scheme (integrating-factor RK4 at alpha = 0); every reorth_every steps it
    is re-orthonormalized (alpha Gram-Schmidt), and the event is recorded:
    its time, trace diagonal and log factors (see TraceSeries).  If
    orthonormalization fails right after a previous pass, the frame is
    genuinely degenerate and the failure propagates with diagnostics.

    warmup advances the base flow alone before the frame is attached (to
    start near the attractor; see spin_up).  Deterministic given (cfg, seed).
    """
    grid = cfg.grid
    if n < 1:
        raise InvalidParameterError(f"frame size must be >= 1, got {n}")
    if reorth_every < 1:
        raise InvalidParameterError(f"reorth_every must be >= 1, got {reorth_every}")
    if t_end < cfg.dt:
        raise InvalidParameterError(f"t_end={t_end:g} is shorter than one step dt={cfg.dt:g}")
    dt, gamma = cfg.dt, cfg.gamma
    if burn_in is None:
        burn_in = min(5.0 / gamma, 0.5 * t_end)
    frame = TangentFrame.random(grid, n, cfg.metric, seed=seed)
    weights, multipliers = frame.weights, stream_multipliers(cfg)
    state = np.concatenate([spin_up(cfg, warmup)[None], frame.vectors])
    nsteps = int(round(t_end / dt))
    # warned once spin_up has accepted the warmup, and only if the last event
    # passes the burn-in: otherwise TraceSeries warns that the verdict is withheld
    if nsteps * dt >= burn_in and t_end - burn_in < 10.0 / gamma:
        warnings.warn(
            f"trace window {t_end - burn_in:.3g} < 10/gamma = {10 / gamma:.3g}",
            InsufficientDurationWarning, stacklevel=2)
    # the trace at an event reuses the steps' kernel planes: a visit runs
    # between two steps, when no stage holds them
    scheme = stream_scheme(cfg)
    kernel = scheme[0].workspace(state.shape).kernel
    times, diag, log_factors = [], [], []

    def reorthonormalize(step, state):
        state[1:], norms = alpha_gram_schmidt(state[1:], weights)
        times.append(step * dt)
        diag.append(trace_diagonal(grid, multipliers, state, weights, kernel))
        log_factors.append(np.log(norms))

    state = advance(cfg, state, nsteps, reorth_every, reorthonormalize, scheme=scheme)

    return TraceSeries(np.asarray(times), np.asarray(diag), np.asarray(log_factors), burn_in,
                       SpectralField(grid, VELOCITY, sp.velocity_of(grid, state[0])))


@dataclass
class NStarScan:
    series: TraceSeries                          # the final run
    q_hats: dict = field(init=False)             # m -> q_hat(m), every prefix (None if withheld)
    n_star: int | None = field(init=False)       # the first m with q_hat(m) < 0
    eventually_decreasing: bool = field(init=False)   # the last three prefixes decrease

    def __post_init__(self):
        q_hats = self.series.q_hats
        negative = np.flatnonzero(q_hats < 0)
        self.q_hats = {m: None if math.isnan(q) else float(q) for m, q in enumerate(q_hats, start=1)}
        self.n_star = int(negative[0]) + 1 if negative.size else None
        self.eventually_decreasing = bool(np.all(np.diff(q_hats[-3:]) < 0))

    def summary(self) -> dict:
        return {
            "q_hats": {str(k): v for k, v in sorted(self.q_hats.items())},
            "n_star": self.n_star,
            "eventually_decreasing": self.eventually_decreasing,
        }


def scan_n_star(cfg: SimConfig, t_end: float, n_max: int = 64, **kwargs) -> NStarScan:
    """Find the smallest m with q_hat(m) < 0.

    One n-frame run gives every q_hat(m), m <= n, as a prefix (the QR method
    of Benettin et al. 1980), so the scan runs n = 1, 2, 4, ... <= n_max and
    stops at the first run with a negative prefix; n* is that prefix's m.  A
    run whose verdict is withheld (no event past its burn-in) ends the scan
    with no n*.
    """
    if n_max < 1:
        raise InvalidParameterError(f"n_max must be >= 1, got {n_max}")
    warmup = kwargs.pop("warmup", 0.0)
    if warmup != 0:
        # every run starts from the same spun-up base (spin_up refuses warmup < 0)
        cfg = replace(cfg, initial=FieldSpec.from_stream(spin_up(cfg, warmup)))
    n = 1
    while True:
        scan = NStarScan(evolve_tangent_frame(cfg, n, t_end, **kwargs))
        if scan.n_star is not None or 2 * n > n_max or np.isnan(scan.series.q_hats).all():
            return scan
        n *= 2
