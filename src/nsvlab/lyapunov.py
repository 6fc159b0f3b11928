"""Tangent frames under the linearized flow and trace functionals.

A frame of n fields is kept orthonormal in the alpha-weighted inner product
while it is transported by the linearization along a base trajectory.  The
time-averaged trace of the linearized operator over the frame, q_hat(n),
estimates the sum of the first n global Lyapunov exponents; the first n with
q_hat(n) < 0 bounds the attractor dimension.

The supremum over trajectories and bases in the definition of q(n) is
approximated by one long run with an evolving frame and periodic
re-orthonormalization; reports carry the averaging window used.
"""

from __future__ import annotations

import csv
import math
import warnings
from dataclasses import dataclass, replace

import numpy as np

from . import spectral as sp
from .dynamics import (InitialSpec, InsufficientDurationWarning, SimConfig, forcing_stream,
                       initial_state, rk4_step, stream_multipliers, stream_scheme)
from .errors import (
    DegenerateFrameError,
    GridMismatchError,
    IntegrationDivergedError,
    InvalidParameterError,
    StaleFrameError,
)
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
    def random(cls, grid: SpectralGrid, n: int, metric: AlphaMetric, seed: int,
               decay: float = 3.0) -> "TangentFrame":
        rng = np.random.default_rng(seed)
        vecs = np.stack([
            sp.stream_of(grid, sp.random_field(grid, VELOCITY, seed=0, decay=decay, rng=rng).coeffs)
            for _ in range(n)
        ])
        return cls(grid, metric, alpha_gram_schmidt(vecs, metric.band_weights(grid))[0])

    @classmethod
    def from_fields(cls, fields, metric: AlphaMetric) -> "TangentFrame":
        """The frame of velocity fields on one grid (each within the band)."""
        grid = fields[0].grid
        if any(f.grid != grid or f.role != VELOCITY for f in fields):
            raise GridMismatchError("frame fields must be velocity fields on one grid")
        return cls(grid, metric, np.stack([sp.stream_of(grid, f.coeffs) for f in fields]))

    def field(self, j: int) -> SpectralField:
        return SpectralField(self.grid, VELOCITY, sp.velocity_of(self.grid, self.vectors[j]))


def _weighted_inner(a: np.ndarray, b: np.ndarray, w: np.ndarray) -> float:
    return TORUS_AREA * float(np.sum(w * (a * np.conj(b)).real))


def gram_deviation(vectors: np.ndarray, weights: np.ndarray) -> float:
    """Largest deviation from the identity of the Gram matrix of stacked vectors
    in the inner product TORUS_AREA sum w a conj(b)."""
    v = vectors.reshape(len(vectors), -1)
    w = np.broadcast_to(weights, vectors.shape[1:]).reshape(-1)
    gram = TORUS_AREA * (v * w) @ np.conj(v).T
    return float(np.max(np.abs(np.real(gram) - np.eye(len(vectors)))))


def alpha_gram_schmidt(vectors: np.ndarray, weights: np.ndarray, tol: float = 1e-12):
    """Modified Gram-Schmidt of stacked vectors in the inner product
    TORUS_AREA sum w a conj(b): a TangentFrame's psi_hat with its band weights,
    or a velocity or scalar family with the alpha weights 1 + alpha|k|^2.

    Returns the orthonormalized vectors and the diagonal normalization factors
    (the per-vector norm of the residual, the log of which accumulates
    Lyapunov exponents).  Raises DegenerateFrameError naming the first vector
    that falls into the span of its predecessors.
    """
    v = vectors.copy()
    n = v.shape[0]
    factors = np.empty(n)
    for j in range(n):
        original = math.sqrt(max(_weighted_inner(v[j], v[j], weights), 0.0))
        for i in range(j):
            proj = _weighted_inner(v[j], v[i], weights)
            v[j] -= proj * v[i]
        r = math.sqrt(max(_weighted_inner(v[j], v[j], weights), 0.0))
        if r <= tol * max(original, tol):
            raise DegenerateFrameError(index=j)
        v[j] /= r
        factors[j] = r
    return v, factors


# ----------------------------------------------------------------------------
# linearized operator

def _linearized_batch(cfg: SimConfig, state: np.ndarray) -> np.ndarray:
    """L_u theta_j = -nu|k|^2/(1+a|k|^2) theta_j - (u.grad w_theta_j
    + theta_j.grad w_u)/(|k|^2 (1+a|k|^2)) for a stack [psi_u, psi_theta_1, ...]."""
    linear, inverse = stream_multipliers(cfg)
    out = linear * state[1:]
    if state[0].any():
        out -= inverse * sp.bilinear_coeffs(cfg.grid, state)[1:]
    return out


# ----------------------------------------------------------------------------
# traces

def trace_n(frame: TangentFrame, base: SpectralField, cfg: SimConfig,
            gram_tol: float = 1e-6) -> float:
    """Sum of (L theta_j, theta_j)_alpha over the frame, linearized about the
    velocity field base.

    The frame must be freshly orthonormalized; if its Gram matrix has drifted
    beyond gram_tol a StaleFrameError is raised.
    """
    w = frame.weights
    dev = gram_deviation(frame.vectors, w)
    if dev > gram_tol:
        raise StaleFrameError(f"frame Gram deviation {dev:.3g} exceeds {gram_tol:g}; "
                              "re-orthonormalize before taking traces")
    state = np.concatenate([sp.stream_of(frame.grid, base.coeffs, "base")[None], frame.vectors])
    lv = _linearized_batch(cfg, state)
    return float(sum(_weighted_inner(lv[j], frame.vectors[j], w) for j in range(frame.n)))


# ----------------------------------------------------------------------------
# frame evolution

def spin_up(cfg: SimConfig, warmup: float) -> np.ndarray:
    """cfg's initial psi_hat advanced warmup/dt steps alone (a copy at warmup 0).

    The state is checked every cfg.sample_every steps and at the end; the
    first non-finite check raises IntegrationDivergedError with its step."""
    c = initial_state(cfg)[0]
    rhs, factors = stream_scheme(cfg, forcing_stream(cfg))
    nsteps = int(round(warmup / cfg.dt))
    for step in range(1, nsteps + 1):
        c, _ = rk4_step(rhs, c, cfg.dt, factors)
        if (step % cfg.sample_every == 0 or step == nsteps) and not np.all(np.isfinite(c)):
            raise IntegrationDivergedError(
                step=step, t=step * cfg.dt,
                message=f"base flow diverged during warmup at step {step} (t={step * cfg.dt:.6g})")
    return c


@dataclass
class TraceSeries:
    """Trace samples along one co-evolved run.

    times are re-orthonormalization events; diag[i, j] is (L theta_j,
    theta_j)_alpha at event i, and trace_inst its row sum.  trace_avg is the
    Cesaro mean of the instantaneous trace over events past the burn-in (NaN
    before).  q_hats[m - 1] is the same mean over the first m vectors, which
    evolve exactly as an m-frame does; q_hat is q_hat(n).  exponents are
    per-vector Lyapunov estimates from the log normalization factors over the
    same window.  With no event at t >= burn_in the verdict is withheld:
    q_hats and exponents are NaN and window is None.
    """

    n: int
    times: np.ndarray
    diag: np.ndarray
    trace_inst: np.ndarray
    trace_avg: np.ndarray
    exponents: np.ndarray
    q_hats: np.ndarray
    burn_in: float
    window: tuple | None
    base_final: SpectralField

    @property
    def q_hat(self) -> float:
        return float(self.q_hats[-1])

    def write_csv(self, path):
        from io import StringIO

        from .fieldio import atomic_write_text

        buf = StringIO()
        writer = csv.writer(buf)
        writer.writerow(("t", "trace_inst", "trace_avg"))
        for i in range(self.times.size):
            writer.writerow([f"{self.times[i]:.12g}", f"{self.trace_inst[i]:.12g}",
                             f"{self.trace_avg[i]:.12g}"])
        atomic_write_text(path, buf.getvalue())

    def summary(self) -> dict:
        return {
            "n": self.n,
            "q_hat": None if self.window is None else self.q_hat,
            "n_star": None,
            "window": None if self.window is None else [self.window[0], self.window[1]],
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
    frame_decay: float = 3.0,
) -> TraceSeries:
    """Co-evolve base flow and an n-vector tangent frame, sampling traces.

    Base and frame advance as one stacked state [psi_u, psi_theta_1, ...]
    through dynamics.rk4_step, so the frame takes the base flow's stages and
    scheme (integrating-factor RK4 at alpha = 0); every reorth_every steps it
    is re-orthonormalized (alpha Gram-Schmidt), the log factors are
    accumulated, and the instantaneous trace is sampled.  If
    orthonormalization fails right after a previous pass, the frame is
    genuinely degenerate and the failure propagates with diagnostics.

    warmup advances the base flow alone before the frame is attached (to
    start near the attractor).  Deterministic given (cfg, seed).
    """
    grid = cfg.grid
    if n < 1:
        raise InvalidParameterError(f"frame size must be >= 1, got {n}")
    if t_end < cfg.dt:
        raise InvalidParameterError(f"t_end={t_end:g} is shorter than one step dt={cfg.dt:g}")
    dt = cfg.dt
    gamma = cfg.gamma
    if burn_in is None:
        burn_in = min(5.0 / gamma, 0.5 * t_end)
    if t_end - burn_in < 10.0 / gamma:
        warnings.warn(
            f"trace window {t_end - burn_in:.3g} < 10/gamma = {10 / gamma:.3g}",
            InsufficientDurationWarning, stacklevel=2)

    frame = TangentFrame.random(grid, n, cfg.metric, seed=seed, decay=frame_decay)
    weights = frame.weights
    state = np.concatenate([spin_up(cfg, warmup)[None], frame.vectors])
    rhs, factors = stream_scheme(cfg, forcing_stream(cfg))

    nsteps = int(round(t_end / dt))
    times, diag = [], []
    log_factors = []
    event_prev_t = []

    prev_event_t = 0.0
    for step in range(1, nsteps + 1):
        state, _ = rk4_step(rhs, state, dt, factors)

        if step % reorth_every == 0 or step == nsteps:
            t = step * dt
            if not np.all(np.isfinite(state)):
                raise IntegrationDivergedError(step=step, t=t)
            state[1:], norms = alpha_gram_schmidt(state[1:], weights)
            lv = _linearized_batch(cfg, state)
            times.append(t)
            diag.append([_weighted_inner(lv[j], state[1 + j], weights) for j in range(n)])
            log_factors.append(np.log(norms))
            event_prev_t.append(prev_event_t)
            prev_event_t = t

    times = np.asarray(times)
    diag = np.asarray(diag)                  # (events, n)
    logs = np.asarray(log_factors)           # (events, n)
    prev_ts = np.asarray(event_prev_t)

    # prefix[:, m - 1] is the trace over the first m vectors, summed left to
    # right; its Cesaro mean over events past burn-in is q_hat(m)
    prefix = np.cumsum(diag, axis=1)
    traces = prefix[:, -1].copy()
    trace_avg = np.full_like(traces, np.nan)
    sel = times >= burn_in
    q_hats, exponents = np.full(n, np.nan), np.full(n, np.nan)
    window = None
    if np.any(sel):
        means = np.cumsum(prefix[sel], axis=0) / np.arange(1, np.count_nonzero(sel) + 1)[:, None]
        trace_avg[sel] = means[:, -1]
        q_hats = means[-1]
        window = (float(times[sel][0]), float(times[-1]))
        # exponents: growth intervals fully inside the window
        exp_sel = prev_ts >= burn_in
        if not np.any(exp_sel):
            exp_sel = np.ones_like(sel)
        exponents = logs[exp_sel].sum(axis=0) / (times[exp_sel][-1] - prev_ts[exp_sel][0])
    else:
        warnings.warn(
            f"no re-orthonormalization at t >= burn_in = {burn_in:.3g} (run ends at "
            f"t = {times[-1]:.3g}); q_hat and exponents withheld",
            InsufficientDurationWarning, stacklevel=2)

    base_final = SpectralField(grid, VELOCITY, sp.velocity_of(grid, state[0]))
    return TraceSeries(n=n, times=times, diag=diag, trace_inst=traces, trace_avg=trace_avg,
                       exponents=exponents, q_hats=q_hats, burn_in=burn_in, window=window,
                       base_final=base_final)


@dataclass
class NStarScan:
    q_hats: dict                 # m -> q_hat(m), every prefix of the final run (None if withheld)
    n_star: int | None
    eventually_decreasing: bool
    series: TraceSeries          # the final run

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
    if warmup > 0:
        # every run starts from the same spun-up base: compute it once
        cfg = replace(cfg, initial=InitialSpec.from_stream(spin_up(cfg, warmup)))
    n = 1
    while True:
        series = evolve_tangent_frame(cfg, n, t_end, **kwargs)
        negative = np.flatnonzero(series.q_hats < 0)
        if negative.size or 2 * n > n_max or np.isnan(series.q_hats).all():
            break
        n *= 2
    q_hats = {m: None if math.isnan(q) else float(q) for m, q in enumerate(series.q_hats, start=1)}
    return NStarScan(q_hats=q_hats,
                     n_star=int(negative[0]) + 1 if negative.size else None,
                     eventually_decreasing=bool(np.all(np.diff(series.q_hats[-3:]) < 0)),
                     series=series)
