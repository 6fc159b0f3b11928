"""Time integration of the alpha-regularized momentum equation on the torus.

    du/dt = -nu A (1+aA)^{-1} u - (1+aA)^{-1} B(u,u) + (1+aA)^{-1} g

stepped as its curl on the streamfunction psi_hat over the 2/3 band (see
spectral): u = grad-perp psi stays solenoidal and band-limited by
construction.  Initial data and forcing come in, and snapshots and the final
state go out, as velocity fields; data with a coefficient off the band is
refused.  For alpha > 0 all Fourier multipliers are bounded by nu/alpha, so
classical RK4 at fixed dt is adequate, and SimConfig refuses a dt past RK4's
stability bound; for alpha = 0 the stiff viscous multiplier is handled exactly
with an integrating-factor RK4.  rk4_step is the one stepper, shared with the
tangent frames of `lyapunov`.
"""

from __future__ import annotations

import csv
import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from . import spectral as sp
from .errors import IntegrationDivergedError, InvalidParameterError, RoleMismatchError
from .spectral import VELOCITY, AlphaMetric, SpectralField, SpectralGrid

#: classical RK4 is stable for dt * lambda in [-2.785, 0] on the real axis
RK4_REAL_BOUND = 2.785

#: largest |k.u_hat| and |u_hat(-k) - conj u_hat(k)| an initial snapshot may
#: carry, relative to its largest |u_hat|
SNAPSHOT_RTOL = 1e-12


class CflWarning(UserWarning):
    """dt * max|u| * k_max exceeded 1; advection may be under-resolved."""


class InsufficientDurationWarning(UserWarning):
    """Averaging window shorter than 10/gamma; time averages unconverged."""


# ----------------------------------------------------------------------------
# forcing and initial data

@dataclass(frozen=True)
class ForcingSpec:
    """Divergence-free, zero-mean body force.

    kind "modes" carries explicit (wavevector, 2-vector amplitude) pairs
    (amplitude at +k, conjugate placed at -k); kind "shear" is the
    single-mode flow amplitude*(sin(m x2), 0); kind "zero" is no forcing.
    """

    kind: str = "zero"
    modes: tuple = ()
    amplitude: float = 0.0
    wavenumber: int = 1

    @classmethod
    def zero(cls) -> "ForcingSpec":
        return cls(kind="zero")

    @classmethod
    def shear(cls, amplitude: float, wavenumber: int = 1) -> "ForcingSpec":
        return cls(kind="shear", amplitude=amplitude, wavenumber=wavenumber)

    @classmethod
    def from_modes(cls, modes) -> "ForcingSpec":
        frozen = tuple((tuple(k), (complex(a[0]), complex(a[1]))) for k, a in modes)
        return cls(kind="modes", modes=frozen)

    def build(self, grid: SpectralGrid) -> SpectralField:
        if self.kind == "zero":
            return sp.zero_field(grid, VELOCITY)
        if self.kind == "shear":
            return sp.shear_field(grid, self.amplitude, self.wavenumber)
        if self.kind == "modes":
            f = sp.field_from_modes(grid, VELOCITY, dict(self.modes), project=True)
            f.coeffs[..., 0, 0] = 0.0
            return f
        raise InvalidParameterError(f"unknown forcing kind {self.kind!r}")


@dataclass(frozen=True)
class InitialSpec:
    """Initial velocity: an analytic named case, a seeded random field, a
    snapshot file, or an explicit field; or psi_hat on the band handed on from
    another run (kind "stream", read by initial_state alone)."""

    kind: str = "zero"
    amplitude: float = 0.0
    wavenumber: int = 1
    seed: int = 0
    decay: float = 3.0
    path: str = ""
    fld: SpectralField | None = None
    psi: np.ndarray | None = None

    @classmethod
    def zero(cls) -> "InitialSpec":
        return cls(kind="zero")

    @classmethod
    def shear(cls, amplitude: float, wavenumber: int = 1) -> "InitialSpec":
        return cls(kind="shear", amplitude=amplitude, wavenumber=wavenumber)

    @classmethod
    def random(cls, seed: int, decay: float = 3.0, amplitude: float = 1.0) -> "InitialSpec":
        return cls(kind="random", seed=seed, decay=decay, amplitude=amplitude)

    @classmethod
    def from_file(cls, path: str) -> "InitialSpec":
        return cls(kind="file", path=str(path))

    @classmethod
    def from_field(cls, fld: SpectralField) -> "InitialSpec":
        return cls(kind="field", fld=fld)

    @classmethod
    def from_stream(cls, psi: np.ndarray) -> "InitialSpec":
        return cls(kind="stream", psi=psi)

    def build(self, grid: SpectralGrid) -> SpectralField:
        if self.kind == "zero":
            return sp.zero_field(grid, VELOCITY)
        if self.kind == "shear":
            return sp.shear_field(grid, self.amplitude, self.wavenumber)
        if self.kind == "random":
            f = sp.random_field(grid, VELOCITY, seed=self.seed, decay=self.decay)
            return f * self.amplitude
        if self.kind == "file":
            from .fieldio import load_field

            f = load_field(self.path)
            if f.grid.n != grid.n:
                raise InvalidParameterError(
                    f"snapshot resolution {f.grid.n} does not match grid {grid.n}")
            if f.role != VELOCITY:
                raise RoleMismatchError("initial snapshot must hold a velocity field")
            # the advection kernel reads u as divergence-free and real (only its
            # k2 >= 0 half): refuse a snapshot that is off either past round-off
            c, neg = f.coeffs, (-np.arange(grid.n)) % grid.n
            for what, defect in (("divergence-free", sp.grid_divergence(grid, c)),
                                 ("a real field", c - np.conj(c[:, neg][:, :, neg]))):
                size = float(np.max(np.abs(defect)))
                if size > SNAPSHOT_RTOL * float(np.max(np.abs(c))):
                    raise InvalidParameterError(
                        f"{self.path}: snapshot is not {what} (defect {size:.3g})")
            return SpectralField(grid, VELOCITY, c)
        if self.kind == "field":
            if self.fld.grid.n != grid.n:
                raise InvalidParameterError("initial field is on a different grid")
            return self.fld.copy()
        raise InvalidParameterError(f"unknown initial kind {self.kind!r}")


@dataclass(frozen=True)
class SimConfig:
    nu: float
    alpha: float
    grid: SpectralGrid
    dt: float
    t_end: float
    forcing: ForcingSpec = ForcingSpec.zero()
    initial: InitialSpec = InitialSpec.zero()
    sample_every: int = 10

    def __post_init__(self):
        problems = []
        if self.nu <= 0:
            problems.append(f"nu must be > 0, got {self.nu}")
        if self.alpha < 0:
            problems.append(f"alpha must be >= 0, got {self.alpha}")
        if self.dt <= 0:
            problems.append(f"dt must be > 0, got {self.dt}")
        if self.t_end < 0:
            problems.append(f"t_end must be >= 0, got {self.t_end}")
        if self.sample_every < 1:
            problems.append(f"sample_every must be >= 1, got {self.sample_every}")
        if not problems and self.alpha > 0:
            stiffness = self.dt * float(np.max(
                self.nu * self.grid.k2 / (1.0 + self.alpha * self.grid.k2)))
            if stiffness > RK4_REAL_BOUND:
                problems.append(
                    f"dt*max nu|k|^2/(1+alpha|k|^2) = {stiffness:.4g} exceeds RK4's "
                    f"real-axis stability bound {RK4_REAL_BOUND}; reduce dt")
        if problems:
            raise InvalidParameterError("; ".join(problems))

    @property
    def metric(self) -> AlphaMetric:
        return AlphaMetric(self.alpha)

    @property
    def gamma(self) -> float:
        """Dissipation rate nu lambda1/(alpha lambda1 + 1), lambda1 = 1."""
        return self.nu / (self.alpha + 1.0)


# ----------------------------------------------------------------------------
# diagnostics

@dataclass
class DiagnosticsSeries:
    """Sampled norms plus running Cesaro means and the run's Grashof numbers."""

    t: np.ndarray
    energy_l2: np.ndarray
    enstrophy: np.ndarray
    energy_alpha: np.ndarray
    avg_enstrophy: np.ndarray
    avg_grad_l1: np.ndarray
    grashof_g: float
    grashof_cal_g: float
    g_norm: float
    gamma: float

    CSV_COLUMNS = ("t", "energy_l2", "enstrophy", "energy_alpha",
                   "avg_enstrophy", "avg_grad_l1", "grashof_G", "grashof_calG")

    def write_csv(self, path):
        from io import StringIO

        from .fieldio import atomic_write_text

        buf = StringIO()
        writer = csv.writer(buf)
        writer.writerow(self.CSV_COLUMNS)
        for i in range(self.t.size):
            writer.writerow([
                f"{self.t[i]:.12g}", f"{self.energy_l2[i]:.12g}",
                f"{self.enstrophy[i]:.12g}", f"{self.energy_alpha[i]:.12g}",
                f"{self.avg_enstrophy[i]:.12g}", f"{self.avg_grad_l1[i]:.12g}",
                f"{self.grashof_g:.12g}", f"{self.grashof_cal_g:.12g}",
            ])
        atomic_write_text(path, buf.getvalue())


def _cesaro(values: np.ndarray) -> np.ndarray:
    return np.cumsum(values) / np.arange(1, values.size + 1)


@dataclass
class SimResult:
    cfg: SimConfig
    final: SpectralField
    diagnostics: DiagnosticsSeries
    snapshots: list = field(default_factory=list)          # (t, SpectralField)
    energy_residual: float | None = None
    steps: int = 0


# ----------------------------------------------------------------------------
# integrators

def rk4_step(rhs, c, dt, factors=None):
    """One step of dc/dt = L c + rhs(c) with L diagonal; the one RK4 stepper.

    factors = (exp(L dt/2), exp(L dt)) gives Lawson's integrating-factor RK4,
    which treats L exactly; factors = None (L = 0) gives classical RK4.
    Returns the new state and the four stage states (c first).
    """
    h = 0.5 * dt
    k1 = rhs(c)
    if factors is None:
        s2 = c + h * k1
        k2 = rhs(s2)
        s3 = c + h * k2
        k3 = rhs(s3)
        s4 = c + dt * k3
        k4 = rhs(s4)
        new = c + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    else:
        half, full = factors
        s2 = half * (c + h * k1)
        k2 = rhs(s2)
        s3 = half * c + h * k2
        k3 = rhs(s3)
        s4 = full * c + dt * half * k3
        k4 = rhs(s4)
        new = full * c + (dt / 6.0) * (full * k1 + 2.0 * half * (k2 + k3) + k4)
    return new, (c, s2, s3, s4)


def stream_multipliers(cfg: SimConfig) -> tuple[np.ndarray, np.ndarray]:
    """(L, 1/(|k|^2 (1+alpha|k|^2))) on the band: the linear multiplier
    L = -nu|k|^2/(1+alpha|k|^2), and the factor that takes the curl terms
    rot g - u.grad w to dpsi/dt (zero at k = 0)."""
    k2 = cfg.grid.band_k2
    smoothing = 1.0 + cfg.alpha * k2
    inverse = np.divide(1.0, k2 * smoothing, out=np.zeros_like(k2), where=k2 > 0)
    return -cfg.nu * k2 / smoothing, inverse


def stream_scheme(cfg: SimConfig, psi_g: np.ndarray):
    """The streamfunction equation under cfg as (rhs, factors) for rk4_step:

        dpsi/dt = L psi + (rot g - u.grad w) / (|k|^2 (1+alpha|k|^2)),
        L = -nu |k|^2/(1+alpha|k|^2),

    the curl of the velocity equation, on the band.  psi_g is the forcing's
    streamfunction, rot g / |k|^2.  At alpha > 0 every multiplier is bounded
    by nu/alpha: rhs is the whole right-hand side and factors is None
    (classical RK4).  At alpha = 0 the viscous multiplier is stiff: rhs leaves
    it out and factors carries it exactly (integrating-factor RK4).

    rhs also steps a stack [psi_u, psi_theta_1, ..., psi_theta_m]: the one
    kernel call per stage gives the frame's linearized terms as well.
    """
    grid = cfg.grid
    linear, inverse = stream_multipliers(cfg)
    forcing = inverse * grid.band_k2 * psi_g
    if cfg.alpha == 0:
        factors = (np.exp(-cfg.nu * grid.band_k2 * (cfg.dt / 2.0)),
                   np.exp(-cfg.nu * grid.band_k2 * cfg.dt))
    else:
        factors = None

    def rhs(c):
        out = linear * c if factors is None else np.zeros_like(c)
        frame = c.ndim == 3
        base, out_base = (c[0], out[0]) if frame else (c, out)
        if base.any():
            out -= inverse * sp.bilinear_coeffs(grid, c)
        out_base += forcing
        return out

    return rhs, factors


def initial_state(cfg: SimConfig) -> tuple[np.ndarray, SpectralField | None]:
    """cfg's initial data as psi_hat on the band, with the velocity it was built
    from (None for a streamfunction handed on by from_stream)."""
    if cfg.initial.kind == "stream":
        return cfg.initial.psi.copy(), None
    u0 = cfg.initial.build(cfg.grid)
    return sp.stream_of(cfg.grid, u0.coeffs, "initial data"), u0


def forcing_stream(cfg: SimConfig) -> np.ndarray:
    """The forcing's streamfunction rot g / |k|^2 on the band."""
    return sp.stream_of(cfg.grid, cfg.forcing.build(cfg.grid).coeffs, "forcing")


def integrate(cfg: SimConfig, *, snapshot_every: int = 0,
              track_energy_budget: bool = False) -> SimResult:
    """Advance the flow to t_end with fixed-step RK4 on its streamfunction
    (integrating-factor RK4 at alpha = 0; see stream_scheme).

    Samples diagnostics every cfg.sample_every steps (t = 0 included).  With
    track_energy_budget the identity d/dt ||u||_a^2 + 2 nu ||grad u||^2
    - 2(g,u) = 0 is co-integrated with the same stage values and the final
    defect is reported (a direct order check on the scheme).  Snapshots and
    the final state are velocity fields; the t = 0 snapshot is the initial
    velocity itself.

    Deterministic given cfg.  Raises IntegrationDivergedError on non-finite
    state, warns CflWarning when dt * max|u| * k_max > 1 at a sample point.
    """
    grid = cfg.grid
    psi_g = forcing_stream(cfg)
    c, u0 = initial_state(cfg)
    nsteps = int(round(cfg.t_end / cfg.dt))

    k_max = grid.dealias_cutoff
    rhs, factors = stream_scheme(cfg, psi_g)
    # Parseval on psi_hat: ||u||^2, ||grad u||^2 and ||u||_a^2 weigh |psi_hat|^2
    # by |k|^2, |k|^4 and |k|^2 (1+alpha|k|^2) per mode
    w_l2 = sp.TORUS_AREA * grid.band_count * grid.band_k2
    w_ens = w_l2 * grid.band_k2
    w_alpha = sp.TORUS_AREA * cfg.metric.band_weights(grid)
    g_norm = math.sqrt(float(np.sum(w_l2 * np.abs(psi_g) ** 2)))

    def budget_rate(c):
        # 2 nu ||grad u||^2 - 2 (g, u), the dissipation-minus-input rate
        ens = float(np.sum(w_ens * (c * np.conj(c)).real))
        inp = float(np.sum(w_l2 * (psi_g * np.conj(c)).real))
        return 2.0 * cfg.nu * ens - 2.0 * inp

    times, e_l2, ens, e_al, grad_l1 = [], [], [], [], []
    snapshots = []
    cfl_warned = False

    def sample(step, c):
        nonlocal cfl_warned
        t = step * cfg.dt
        if not np.all(np.isfinite(c)):
            raise IntegrationDivergedError(step=step, t=t)
        times.append(t)
        sq = np.abs(c) ** 2
        e_l2.append(float(np.sum(w_l2 * sq)))
        ens.append(float(np.sum(w_ens * sq)))
        e_al.append(float(np.sum(w_alpha * sq)))
        grad_l1.append(math.sqrt(ens[-1]))
        if not cfl_warned:
            umax = float(np.max(np.abs(sp.to_physical(sp.half_of(grid, grid.band_uw[:2] * c)))))
            if cfg.dt * umax * k_max > 1.0:
                warnings.warn(
                    f"dt*max|u|*k_max = {cfg.dt * umax * k_max:.3g} > 1 at t={t:.4g}",
                    CflWarning, stacklevel=2)
                cfl_warned = True
        if snapshot_every and step % snapshot_every == 0:
            u = u0.coeffs.copy() if step == 0 and u0 is not None else sp.velocity_of(grid, c)
            snapshots.append((t, SpectralField(grid, VELOCITY, u)))

    budget = 0.0
    e_alpha_start = float(np.sum(w_alpha * np.abs(c) ** 2))
    sample(0, c)

    for step in range(1, nsteps + 1):
        c, (s1, s2, s3, s4) = rk4_step(rhs, c, cfg.dt, factors)
        if track_energy_budget:
            budget += (cfg.dt / 6.0) * (budget_rate(s1) + 2 * budget_rate(s2)
                                        + 2 * budget_rate(s3) + budget_rate(s4))
        if step % cfg.sample_every == 0 or step == nsteps:
            sample(step, c)

    e_alpha_end = float(np.sum(w_alpha * np.abs(c) ** 2))
    residual = (e_alpha_end - e_alpha_start + budget) if track_energy_budget else None

    ens_arr = np.asarray(ens)
    diag = DiagnosticsSeries(
        t=np.asarray(times),
        energy_l2=np.asarray(e_l2),
        enstrophy=ens_arr,
        energy_alpha=np.asarray(e_al),
        avg_enstrophy=_cesaro(ens_arr),
        avg_grad_l1=_cesaro(np.asarray(grad_l1)),
        grashof_g=g_norm / cfg.nu**2,
        grashof_cal_g=g_norm * sp.TORUS_AREA / cfg.nu**2,
        g_norm=g_norm,
        gamma=cfg.gamma,
    )
    return SimResult(cfg=cfg, final=SpectralField(grid, VELOCITY, sp.velocity_of(grid, c)),
                     diagnostics=diag, snapshots=snapshots,
                     energy_residual=residual, steps=nsteps)


# ----------------------------------------------------------------------------
# a priori estimate checks

@dataclass
class BoundCheckReport:
    name: str
    max_violation: float      # max over samples of (lhs - rhs)/scale, clipped at 0
    worst_t: float
    tolerance: float
    passed: bool
    detail: str = ""


def check_dissipative_bound(series: DiagnosticsSeries, cfg: SimConfig,
                            tolerance: float = 1e-8) -> BoundCheckReport:
    """Verify ||u(t)||_a^2 <= ||u(0)||_a^2 e^{-gamma t}
    + (alpha+1)/nu^2 ||g||^2 (1 - e^{-gamma t}) at every sample.

    The bound is saturated exactly on the steady single-mode flow, so the
    comparison is made relative to the bound's scale with a round-off
    tolerance; violations are reported, not raised.
    """
    gamma = cfg.gamma
    e0 = series.energy_alpha[0]
    decay = np.exp(-gamma * series.t)
    bound = e0 * decay + (cfg.alpha + 1.0) / cfg.nu**2 * series.g_norm**2 * (1.0 - decay)
    scale = max(float(np.max(bound)), 1e-300)
    rel = (series.energy_alpha - bound) / scale
    worst = int(np.argmax(rel))
    violation = max(float(rel[worst]), 0.0)
    return BoundCheckReport(
        name="dissipative-envelope",
        max_violation=violation,
        worst_t=float(series.t[worst]),
        tolerance=tolerance,
        passed=violation <= tolerance,
    )


def check_time_averages(series: DiagnosticsSeries, cfg: SimConfig,
                        tol: float = 0.01) -> list[BoundCheckReport]:
    """Check the enstrophy averages against the forcing:
    mean ||grad u||^2 <= ||g||^2/nu^2 and mean ||grad u|| <= ||g||/nu,
    Cesaro means over t >= 5/gamma (burn-in discarded).

    The claims are long-time limits; at a finite horizon the time-integrated
    energy inequality carries an extra ||u(t0)||_a^2/(nu*window) transient
    term, which is added to the asserted ceiling and reported.
    """
    gamma = cfg.gamma
    burn = 5.0 / gamma
    keep = series.t >= burn
    if not np.any(keep):
        warnings.warn(
            f"no sample at t >= 5/gamma = {burn:.3g} (run ends at t = {series.t[-1]:.3g}); "
            "time averages not checked", InsufficientDurationWarning, stacklevel=2)
        return []
    if series.t[-1] - burn < 10.0 / gamma:
        warnings.warn(
            f"averaging window {series.t[-1] - burn:.3g} < 10/gamma = {10 / gamma:.3g}; "
            "time-average checks may not be converged",
            InsufficientDurationWarning, stacklevel=2)
    window = max(float(series.t[-1] - series.t[keep][0]), float(cfg.dt))
    mean_enstrophy = float(np.mean(series.enstrophy[keep]))
    mean_grad = float(np.mean(np.sqrt(series.enstrophy[keep])))
    transient = float(series.energy_alpha[keep][0]) / (cfg.nu * window)
    bound_sq = series.g_norm**2 / cfg.nu**2 + transient
    bound_l1 = math.sqrt(bound_sq)

    def report(name, mean, bound):
        scale = max(bound, 1e-300)
        violation = max((mean - bound * (1.0 + tol)) / scale, 0.0)
        return BoundCheckReport(
            name=name, max_violation=violation, worst_t=float(series.t[-1]),
            tolerance=tol, passed=violation == 0.0,
            detail=(f"mean={mean:.6g} bound={bound:.6g} "
                    f"(transient term {transient:.3g}) "
                    f"window=[{burn:.3g}, {series.t[-1]:.3g}]"),
        )

    return [
        report("mean-enstrophy", mean_enstrophy, bound_sq),
        report("mean-gradient-l1", mean_grad, bound_l1),
    ]
