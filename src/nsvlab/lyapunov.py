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
from .dynamics import (InitialSpec, InsufficientDurationWarning, SimConfig, rk4_step,
                       velocity_scheme)
from .errors import (
    DegenerateFrameError,
    GridMismatchError,
    IntegrationDivergedError,
    InvalidParameterError,
    RoleMismatchError,
    StaleFrameError,
)
from .spectral import TORUS_AREA, VELOCITY, AlphaMetric, SpectralField, SpectralGrid


@dataclass
class TangentFrame:
    """n spectral fields stacked along the leading axis, with their metric."""

    grid: SpectralGrid
    role: str
    metric: AlphaMetric
    vectors: np.ndarray  # (n, 2, N, N) velocity or (n, N, N) vorticity

    @property
    def n(self) -> int:
        return self.vectors.shape[0]

    @classmethod
    def random(cls, grid: SpectralGrid, n: int, metric: AlphaMetric, seed: int,
               role: str = VELOCITY, decay: float = 3.0) -> "TangentFrame":
        rng = np.random.default_rng(seed)
        vecs = np.stack([
            sp.random_field(grid, role, seed=0, decay=decay, rng=rng).coeffs
            for _ in range(n)
        ])
        frame = cls(grid=grid, role=role, metric=metric, vectors=vecs)
        return alpha_gram_schmidt(frame)[0]

    @classmethod
    def from_fields(cls, fields, metric: AlphaMetric) -> "TangentFrame":
        first = fields[0]
        for f in fields[1:]:
            if f.grid != first.grid or f.role != first.role:
                raise GridMismatchError("frame fields must share grid and role")
        vecs = np.stack([f.coeffs for f in fields])
        return cls(grid=first.grid, role=first.role, metric=metric, vectors=vecs)

    def field(self, j: int) -> SpectralField:
        return SpectralField(self.grid, self.role, self.vectors[j].copy())


def _weighted_inner(a: np.ndarray, b: np.ndarray, w: np.ndarray) -> float:
    return TORUS_AREA * float(np.sum(w * (a * np.conj(b)).real))


def frame_gram(frame: TangentFrame) -> np.ndarray:
    """Gram matrix of the frame in the alpha inner product."""
    w = frame.metric.weights(frame.grid)
    v = frame.vectors.reshape(frame.n, -1)
    wf = np.broadcast_to(w, frame.grid.coeff_shape(frame.role)).reshape(-1)
    return TORUS_AREA * (v * wf) @ np.conj(v).T


def alpha_gram_schmidt(frame: TangentFrame, tol: float = 1e-12):
    """Modified Gram-Schmidt in the alpha inner product.

    Returns the orthonormalized frame and the diagonal normalization factors
    (the per-vector alpha-norm of the residual, the log of which accumulates
    Lyapunov exponents).  Raises DegenerateFrameError naming the first vector
    that falls into the span of its predecessors.
    """
    w = frame.metric.weights(frame.grid)
    v = frame.vectors.copy()
    n = v.shape[0]
    factors = np.empty(n)
    for j in range(n):
        original = math.sqrt(max(_weighted_inner(v[j], v[j], w), 0.0))
        for i in range(j):
            proj = _weighted_inner(v[j], v[i], w)
            v[j] -= proj * v[i]
        r = math.sqrt(max(_weighted_inner(v[j], v[j], w), 0.0))
        if r <= tol * max(original, tol):
            raise DegenerateFrameError(index=j)
        v[j] /= r
        factors[j] = r
    return TangentFrame(frame.grid, frame.role, frame.metric, v), factors


def gram_deviation(frame: TangentFrame) -> float:
    g = frame_gram(frame)
    return float(np.max(np.abs(np.real(g) - np.eye(frame.n))))


# ----------------------------------------------------------------------------
# linearized operator

def _linearized_batch(grid: SpectralGrid, thetas: np.ndarray, base: np.ndarray,
                      nu: float, weights: np.ndarray) -> np.ndarray:
    """L_u theta_j = -(1+aA)^{-1}[nu A theta_j + B(theta_j,u) + B(u,theta_j)]
    for a stacked velocity frame."""
    out = -(nu * grid.k2) * thetas
    if base.any():
        out -= sp.bilinear_coeffs(grid, base, thetas)[1:]
    out /= weights
    return out


# ----------------------------------------------------------------------------
# traces

def trace_n(frame: TangentFrame, base: SpectralField, cfg: SimConfig,
            gram_tol: float = 1e-6) -> float:
    """Sum of (L theta_j, theta_j)_alpha over the frame.

    The frame must be freshly orthonormalized; if its Gram matrix has drifted
    beyond gram_tol a StaleFrameError is raised.
    """
    dev = gram_deviation(frame)
    if dev > gram_tol:
        raise StaleFrameError(f"frame Gram deviation {dev:.3g} exceeds {gram_tol:g}; "
                              "re-orthonormalize before taking traces")
    if frame.role != base.role:
        raise StaleFrameError(f"frame role {frame.role} does not match base {base.role}")
    if frame.role != VELOCITY and base.coeffs.any():
        raise RoleMismatchError("the linearized operator acts on velocity frames "
                                "(a scalar frame is supported on the zero base only)")
    w = frame.metric.weights(frame.grid)
    lv = _linearized_batch(frame.grid, frame.vectors, base.coeffs, cfg.nu, w)
    return float(sum(_weighted_inner(lv[j], frame.vectors[j], w) for j in range(frame.n)))


# ----------------------------------------------------------------------------
# frame evolution

def spin_up(cfg: SimConfig, warmup: float) -> np.ndarray:
    """cfg's initial velocity advanced warmup/dt steps alone (a copy at warmup 0)."""
    c = cfg.initial.build(cfg.grid).coeffs.copy()
    rhs, factors = velocity_scheme(cfg, cfg.forcing.build(cfg.grid).coeffs)
    for _ in range(int(round(warmup / cfg.dt))):
        c, _ = rk4_step(rhs, c, cfg.dt, factors)
    if warmup > 0 and not np.all(np.isfinite(c)):
        raise IntegrationDivergedError(step=-1, t=warmup,
                                       message="base flow diverged during warmup")
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
    same window.
    """

    n: int
    times: np.ndarray
    diag: np.ndarray
    trace_inst: np.ndarray
    trace_avg: np.ndarray
    exponents: np.ndarray
    q_hats: np.ndarray
    burn_in: float
    window: tuple
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
            "q_hat": self.q_hat,
            "n_star": None,
            "window": [self.window[0], self.window[1]],
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

    Base and frame advance as one stacked state through dynamics.rk4_step, so
    the frame takes the base flow's stages and scheme (integrating-factor RK4
    at alpha = 0); every reorth_every steps it is re-orthonormalized (alpha
    Gram-Schmidt), the log factors are accumulated, and the instantaneous
    trace is sampled.  If orthonormalization fails right after a previous
    pass, the frame is genuinely degenerate and the failure propagates with
    diagnostics.

    warmup advances the base flow alone before the frame is attached (to
    start near the attractor).  Deterministic given (cfg, seed).
    """
    grid = cfg.grid
    if n < 1:
        raise InvalidParameterError(f"frame size must be >= 1, got {n}")
    if t_end < cfg.dt:
        raise InvalidParameterError(f"t_end={t_end:g} is shorter than one step dt={cfg.dt:g}")
    g = cfg.forcing.build(grid).coeffs
    weights = cfg.metric.weights(grid)
    dt = cfg.dt
    gamma = cfg.gamma
    if burn_in is None:
        burn_in = min(5.0 / gamma, 0.5 * t_end)
    if t_end - burn_in < 10.0 / gamma:
        warnings.warn(
            f"trace window {t_end - burn_in:.3g} < 10/gamma = {10 / gamma:.3g}",
            InsufficientDurationWarning, stacklevel=2)

    frame = TangentFrame.random(grid, n, cfg.metric, seed=seed, decay=frame_decay)
    state = np.concatenate([spin_up(cfg, warmup)[None], frame.vectors])   # [u, theta_1, ...]
    rhs, factors = velocity_scheme(cfg, g)

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
            frame, norms = alpha_gram_schmidt(
                TangentFrame(grid, VELOCITY, cfg.metric, state[1:]))
            state[1:] = frame.vectors
            lv = _linearized_batch(grid, state[1:], state[0], cfg.nu, weights)
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
    if np.any(sel):
        means = np.cumsum(prefix[sel], axis=0) / np.arange(1, np.count_nonzero(sel) + 1)[:, None]
        trace_avg[sel] = means[:, -1]
        q_hats = means[-1]
        window = (float(times[sel][0]), float(times[-1]))
    else:
        q_hats = np.array([np.mean(prefix[:, m].copy()) for m in range(n)])
        window = (float(times[0]), float(times[-1]))

    # exponents: growth intervals fully inside the window
    exp_sel = prev_ts >= burn_in
    if np.any(exp_sel):
        duration = times[exp_sel][-1] - prev_ts[exp_sel][0]
        exponents = logs[exp_sel].sum(axis=0) / duration
    else:
        duration = times[-1] - prev_ts[0]
        exponents = logs.sum(axis=0) / duration

    base_final = SpectralField(grid, VELOCITY, state[0].copy())
    return TraceSeries(n=n, times=times, diag=diag, trace_inst=traces, trace_avg=trace_avg,
                       exponents=exponents, q_hats=q_hats, burn_in=burn_in, window=window,
                       base_final=base_final)


@dataclass
class NStarScan:
    q_hats: dict                 # m -> q_hat(m), every prefix of the final run
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
    stops at the first run with a negative prefix; n* is that prefix's m.
    """
    if n_max < 1:
        raise InvalidParameterError(f"n_max must be >= 1, got {n_max}")
    warmup = kwargs.pop("warmup", 0.0)
    if warmup > 0:
        # every run starts from the same spun-up base: compute it once
        base = SpectralField(cfg.grid, VELOCITY, spin_up(cfg, warmup))
        cfg = replace(cfg, initial=InitialSpec.from_field(base))
    n = 1
    while True:
        series = evolve_tangent_frame(cfg, n, t_end, **kwargs)
        negative = np.flatnonzero(series.q_hats < 0)
        if negative.size or 2 * n > n_max:
            break
        n *= 2
    q_hats = {m: float(q) for m, q in enumerate(series.q_hats, start=1)}
    return NStarScan(q_hats=q_hats,
                     n_star=int(negative[0]) + 1 if negative.size else None,
                     eventually_decreasing=bool(np.all(np.diff(series.q_hats[-3:]) < 0)),
                     series=series)
