"""Time integration of the alpha-regularized momentum equation on the torus.

    du/dt = -nu A (1+aA)^{-1} u - (1+aA)^{-1} B(u,u) + (1+aA)^{-1} g

stepped as its curl on the streamfunction psi_hat over the 2/3 band (see
spectral): u = grad-perp psi stays solenoidal and band-limited by
construction.  Initial data and forcing come in, and snapshots and the final
state go out, as velocity fields.  Forcing and named initial data are built
on the band; a snapshot file or field is refused unless it is finite, real,
on the band and divergence-free.  For alpha > 0 all Fourier multipliers are bounded by nu/alpha, so
classical RK4 at fixed dt is adequate, and SimConfig refuses a dt past RK4's
stability bound on the band; for alpha = 0 the stiff viscous multiplier is
handled exactly with an integrating-factor RK4.  rk4_step is the one stepper
and advance the one time loop, shared with the warmup and tangent frames of
`lyapunov`.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from . import fieldio
from . import spectral as sp
from .errors import IntegrationDivergedError, InvalidParameterError, RoleMismatchError
from .spectral import VELOCITY, AlphaMetric, SpectralField, SpectralGrid

#: classical RK4 is stable for dt * lambda in [-2.785, 0] on the real axis
RK4_REAL_BOUND = 2.785

#: largest |k.u_hat| and |u_hat(-k) - conj u_hat(k)| initial data from a
#: snapshot file or a field may carry, relative to its largest |u_hat|
SNAPSHOT_RTOL = 1e-12


class CflWarning(UserWarning):
    """dt * max|u| * k_max exceeded 1; advection may be under-resolved."""


class InsufficientDurationWarning(UserWarning):
    """Averaging window shorter than 10/gamma; time averages unconverged."""


# ----------------------------------------------------------------------------
# forcing and initial data

@dataclass(frozen=True)
class FieldSpec:
    """A divergence-free velocity on the band: the forcing g or the initial data.

    kind "zero" is no flow; "shear" the single-mode flow amplitude*(sin(m
    x2), 0) with m = wavenumber; "modes" explicit (wavevector, 2-vector
    amplitude) pairs (amplitude at +k, conjugate placed at -k); "random" a
    seeded random field of the given spectral decay, times amplitude; "file"
    a snapshot file; "field" an explicit field.  Kind "stream" carries psi_hat
    on the band handed on from another run, read by initial_state alone.
    """

    kind: str = "zero"
    amplitude: float = 1.0
    wavenumber: int = 1
    seed: int = 0
    decay: float = 3.0
    modes: tuple = ()
    path: str = ""
    fld: SpectralField | None = None
    psi: np.ndarray | None = None

    @classmethod
    def zero(cls) -> "FieldSpec":
        return cls(kind="zero")

    @classmethod
    def shear(cls, amplitude: float, wavenumber: int = 1) -> "FieldSpec":
        return cls(kind="shear", amplitude=amplitude, wavenumber=wavenumber)

    @classmethod
    def from_modes(cls, modes) -> "FieldSpec":
        frozen = tuple((tuple(k), (complex(a[0]), complex(a[1]))) for k, a in modes)
        return cls(kind="modes", modes=frozen)

    @classmethod
    def random(cls, seed: int, decay: float = 3.0, amplitude: float = 1.0) -> "FieldSpec":
        return cls(kind="random", seed=seed, decay=decay, amplitude=amplitude)

    @classmethod
    def from_file(cls, path: str) -> "FieldSpec":
        return cls(kind="file", path=str(path))

    @classmethod
    def from_field(cls, fld: SpectralField) -> "FieldSpec":
        return cls(kind="field", fld=fld)

    @classmethod
    def from_stream(cls, psi: np.ndarray) -> "FieldSpec":
        return cls(kind="stream", psi=psi)

    def build(self, grid: SpectralGrid) -> SpectralField:
        if self.kind == "zero":
            return sp.zero_field(grid, VELOCITY)
        if self.kind == "shear":
            return sp.shear_field(grid, self.amplitude, self.wavenumber)
        if self.kind == "modes":
            return sp.field_from_modes(grid, VELOCITY, self.modes)
        if self.kind == "random":
            f = sp.random_field(grid, VELOCITY, seed=self.seed, decay=self.decay)
            return f * self.amplitude
        if self.kind == "file":
            try:
                f = fieldio.load_field(self.path)
            except FileNotFoundError as err:
                # the configuration names the file: a missing one is refused like a missing config
                raise InvalidParameterError(f"initial snapshot not found: {self.path}") from err
            return _checked_velocity(grid, f, f"{self.path}: snapshot")
        if self.kind == "field":
            return _checked_velocity(grid, self.fld, "initial field")
        raise InvalidParameterError(f"field kind {self.kind!r} cannot be built")


#: the forcing and the initial data are both FieldSpecs, under either name
ForcingSpec = InitialSpec = FieldSpec


def _checked_velocity(grid: SpectralGrid, f: SpectralField, what: str) -> SpectralField:
    """A copy of f as initial data on grid, refused unless it is of grid's size,
    finite, a velocity and on the band, and real and divergence-free to
    SNAPSHOT_RTOL: the kernel reads u as solenoidal and real (its k2 >= 0
    half), and a state holds the band alone."""
    c = f.coeffs
    if f.grid.n != grid.n:
        raise InvalidParameterError(f"{what} resolution {f.grid.n} does not match grid {grid.n}")
    if not np.all(np.isfinite(c)):
        raise InvalidParameterError(f"{what} has non-finite coefficients")
    if f.role != VELOCITY:
        raise RoleMismatchError(f"{what} must hold a velocity field, got {f.role}")
    scale = SNAPSHOT_RTOL * float(np.max(np.abs(c)))

    def refuse(problem, defect):
        size = float(np.max(np.abs(defect)))
        if size > scale:
            raise InvalidParameterError(f"{what} is not {problem} (defect {size:.3g})")

    neg = (-np.arange(grid.n)) % grid.n
    refuse("a real field", c - np.conj(c[:, neg][:, :, neg]))
    sp.require_band(grid, c, what)
    refuse("divergence-free", np.sum(grid.band_k[:2] * sp.band_of(grid, c), axis=0))
    return SpectralField(grid, VELOCITY, c.copy())


@dataclass(frozen=True)
class SimConfig:
    nu: float
    alpha: float
    grid: SpectralGrid
    dt: float
    t_end: float
    forcing: FieldSpec = FieldSpec.zero()
    initial: FieldSpec = FieldSpec.zero()
    sample_every: int = 10

    def __post_init__(self):
        problems = [f"{name}: expected a finite float, got {value!r}"
                    for name, value in (("nu", self.nu), ("alpha", self.alpha), ("dt", self.dt),
                                        ("t_end", self.t_end)) if not math.isfinite(value)]
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
            k2 = self.grid.band_k2
            stiffness = self.dt * float(np.max(self.nu * k2 / (1.0 + self.alpha * k2)))
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
    """Sampled norms, the forcing's norm and nu; derived from them once, the
    running Cesaro means and the run's Grashof numbers."""

    t: np.ndarray
    energy_l2: np.ndarray
    enstrophy: np.ndarray
    energy_alpha: np.ndarray
    g_norm: float
    nu: float
    avg_enstrophy: np.ndarray = field(init=False)
    avg_grad_l1: np.ndarray = field(init=False)
    grashof_g: float = field(init=False)
    grashof_cal_g: float = field(init=False)

    CSV_COLUMNS = ("t", "energy_l2", "enstrophy", "energy_alpha",
                   "avg_enstrophy", "avg_grad_l1", "grashof_G", "grashof_calG")

    def __post_init__(self):
        counts = np.arange(1, self.enstrophy.size + 1)
        self.avg_enstrophy = np.cumsum(self.enstrophy) / counts
        self.avg_grad_l1 = np.cumsum(np.sqrt(self.enstrophy)) / counts
        self.grashof_g = self.g_norm / self.nu**2
        self.grashof_cal_g = self.g_norm * sp.TORUS_AREA / self.nu**2

    def write_csv(self, path) -> str:
        """Write the series as CSV; returns the sha256 hex digest of its bytes."""
        columns = (self.t, self.energy_l2, self.enstrophy, self.energy_alpha,
                   self.avg_enstrophy, self.avg_grad_l1)
        grashof = [f"{self.grashof_g:.12g}", f"{self.grashof_cal_g:.12g}"]
        return fieldio.write_csv(path, self.CSV_COLUMNS,
                          ([f"{v:.12g}" for v in row] + grashof for row in zip(*columns)))


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

def rk4_step(rhs, c, dt, factors, out):
    """One step of dc/dt = L c + rhs(c) with L diagonal; the one RK4 stepper.

    rhs and factors are stream_scheme's.  factors = (exp(L dt/2), exp(L dt),
    dt exp(L dt/2), 2 exp(L dt/2)) gives Lawson's integrating-factor RK4,
    which treats L exactly; factors = None (L = 0) gives classical RK4.
    rhs(c, k) writes the derivative at c into k, and rhs.workspace(c.shape)
    holds the stage arrays, so the step allocates no array.  The arithmetic
    is the allocating form's, operation for operation: new = c + (dt/6) (k1
    + 2 k2 + 2 k3 + k4), and for the integrating factor new = full c +
    (dt/6) (full k1 + (2 half) (k2 + k3) + k4).

    Returns the new state, written into out (an array of c's shape and dtype
    that is not c), and the four stage states (c first).  c is only read.
    The stage states s2..s4 are rhs's arrays: they hold until the next step
    of a state of c's shape with the same rhs, so a caller that keeps them
    copies them.
    """
    w = rhs.workspace(c.shape)
    s2, s3, s4 = w.stages
    acc, k, k3, tmp = w.slopes                    # acc: k1, then the weighted sum
    h = 0.5 * dt
    rhs(c, acc)
    if factors is None:
        np.add(np.multiply(acc, h, out=s2), c, out=s2)              # c + h k1
        rhs(s2, k)
        np.add(np.multiply(k, h, out=s3), c, out=s3)                # c + h k2
        acc += np.multiply(k, 2.0, out=k)                           # k1 + 2 k2
        rhs(s3, k)
        np.add(np.multiply(k, dt, out=s4), c, out=s4)               # c + dt k3
        acc += np.multiply(k, 2.0, out=k)                           # ... + 2 k3
        acc += rhs(s4, k)                                           # ... + k4
        np.add(c, np.multiply(acc, dt / 6.0, out=acc), out=out)
    else:
        half, full, dt_half, two_half = factors
        np.add(np.multiply(acc, h, out=s2), c, out=s2)
        s2 *= half                                                  # half (c + h k1)
        rhs(s2, k)
        np.add(np.multiply(half, c, out=s3), np.multiply(k, h, out=tmp), out=s3)
        rhs(s3, k3)
        np.multiply(dt_half, k3, out=tmp)
        np.add(np.multiply(full, c, out=s4), tmp, out=s4)           # full c + (dt half) k3
        np.multiply(two_half, np.add(k, k3, out=k3), out=k3)
        acc *= full
        acc += k3                                                   # full k1 + (2 half)(k2 + k3)
        acc += rhs(s4, k)                                           # ... + k4
        np.add(np.multiply(full, c, out=tmp), np.multiply(acc, dt / 6.0, out=acc), out=out)
    return out, (c, s2, s3, s4)


class StepWorkspace:
    """The arrays a step of one state shape writes (see rk4_step): the stage
    states s2..s4, the stage derivatives and a scratch state, and the
    kernel's planes for the state's rows."""

    def __init__(self, grid: SpectralGrid, shape: tuple):
        self.stages = np.empty((3,) + shape, dtype=complex)
        self.slopes = np.empty((4,) + shape, dtype=complex)
        self.kernel = sp.KernelWorkspace(grid, shape[0] if len(shape) == 3 else 1)


def stream_multipliers(cfg: SimConfig) -> tuple[np.ndarray, np.ndarray]:
    """(L, 1/(|k|^2 (1+alpha|k|^2))) on the band: the linear multiplier
    L = -nu|k|^2/(1+alpha|k|^2), and the factor that takes the curl terms
    rot g - u.grad w to dpsi/dt (zero at k = 0).  Both are complex (x + 0j),
    the state's dtype, so a product with a state casts nothing; it is the
    product a float multiplier gives, bit for bit."""
    k2 = cfg.grid.band_k2
    smoothing = 1.0 + cfg.alpha * k2
    inverse = np.divide(1.0, k2 * smoothing, out=np.zeros_like(k2), where=k2 > 0)
    return (-cfg.nu * k2 / smoothing).astype(complex), inverse.astype(complex)


def stream_scheme(cfg: SimConfig):
    """The streamfunction equation under cfg as (rhs, factors) for rk4_step:

        dpsi/dt = L psi + (rot g - u.grad w) / (|k|^2 (1+alpha|k|^2)),
        L = -nu |k|^2/(1+alpha|k|^2),

    the curl of the velocity equation, on the band, with rot g / |k|^2 from
    forcing_stream(cfg).  At alpha > 0 every multiplier is bounded
    by nu/alpha: rhs is the whole right-hand side and factors is None
    (classical RK4).  At alpha = 0 the viscous multiplier is stiff: rhs leaves
    it out and factors carries it exactly (integrating-factor RK4): the
    complex exp(L dt/2) and exp(L dt), and the products dt exp(L dt/2) and
    2 exp(L dt/2) that rk4_step takes, made once here.

    rhs also steps a stack [psi_u, psi_theta_1, ..., psi_theta_m]: the one
    kernel call per stage gives the frame's linearized terms as well.
    rhs(c, out) writes into out and returns it.  It owns a StepWorkspace per
    state shape, made at the first call with that shape (rhs.workspace), so
    one rhs steps a base and then its stack, and a loop over it allocates
    no plane after its first step.
    """
    grid = cfg.grid
    linear, inverse = stream_multipliers(cfg)
    forcing = inverse * grid.band_k2 * forcing_stream(cfg)
    if cfg.alpha == 0:
        half = np.exp(-cfg.nu * grid.band_k2 * (cfg.dt / 2.0)).astype(complex)
        factors = (half, np.exp(-cfg.nu * grid.band_k2 * cfg.dt).astype(complex),
                   cfg.dt * half, 2.0 * half)
    else:
        factors = None

    spaces = {}

    def workspace(shape):
        if shape not in spaces:
            spaces[shape] = StepWorkspace(grid, shape)
        return spaces[shape]

    def rhs(c, out):
        if factors is None:
            np.multiply(linear, c, out=out)
        else:
            out.fill(0.0)
        frame = c.ndim == 3
        base, out_base = (c[0], out[0]) if frame else (c, out)
        if base.any():
            nonlinear = sp.bilinear_coeffs(grid, c, workspace(c.shape).kernel)
            out -= np.multiply(inverse, nonlinear, out=nonlinear)
        out_base += forcing
        return out

    rhs.workspace = workspace
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


def advance(cfg: SimConfig, c: np.ndarray, nsteps: int, every: int, visit, stages=None,
            scheme=None):
    """Take nsteps steps of cfg's scheme (stream_scheme) from psi_hat c, or a
    stack [psi_u, psi_theta_1, ...]; the one time loop.

    Every `every` steps and at the last step the state is tested: a
    non-finite state raises IntegrationDivergedError with its step and time,
    a finite one goes to visit(step, c), which may update c in place.
    stages, if given, sees each step's four stage states.  scheme is
    stream_scheme(cfg) when the caller holds it (to share its rhs's
    workspace); made here when None.  Returns the final
    state (c itself when nsteps is 0).

    The given c is only read: the states alternate between two arrays of
    this call's own, so what visit and stages see is overwritten two steps
    and one step later, and the array returned is never written again.
    """
    rhs, factors = stream_scheme(cfg) if scheme is None else scheme
    states = np.empty((2,) + c.shape, dtype=complex)
    for step in range(1, nsteps + 1):
        c, stage_states = rk4_step(rhs, c, cfg.dt, factors, states[step % 2])
        if stages is not None:
            stages(stage_states)
        if step % every == 0 or step == nsteps:
            if not np.all(np.isfinite(c)):
                raise IntegrationDivergedError(step=step, t=step * cfg.dt)
            visit(step, c)
    return c


def integrate(cfg: SimConfig, *, snapshot_every: int = 0,
              track_energy_budget: bool = False, snapshots=None) -> SimResult:
    """Advance the flow to t_end with fixed-step RK4 on its streamfunction
    (integrating-factor RK4 at alpha = 0; see stream_scheme).

    Samples diagnostics every cfg.sample_every steps (t = 0 included).  With
    track_energy_budget the identity d/dt ||u||_a^2 + 2 nu ||grad u||^2
    - 2(g,u) = 0 is co-integrated with the same stage values and the final
    defect is reported (a direct order check on the scheme).  Snapshots are
    taken only at sampled steps, at those that are multiples of
    snapshot_every: snapshot_every 5 with sample_every 10 snapshots every 10
    steps, and 0 takes none.  Snapshots and the final state are velocity
    fields; the t = 0 snapshot, and the final state of a run of no step, are
    the initial velocity itself (velocity_of psi_hat for a "stream" start).
    Each snapshot goes to the sink snapshots(t, field) as it is taken, so a
    caller can write it while the loop steps on (the CLI's fieldio.FieldWriter
    formats them in order in one forked writer process (POSIX fork), with
    the bytes and hashes of an in-process write); by default they are
    collected in SimResult.snapshots, which a sink leaves empty.  A diverged
    run returns no SimResult, but keeps in the sink the snapshots taken
    before the divergence.

    Deterministic given cfg.  Raises IntegrationDivergedError on non-finite
    state, warns CflWarning when dt * max|u| * k_max > 1 at a sample point.
    """
    if snapshot_every < 0:
        raise InvalidParameterError(f"snapshot_every must be >= 0, got {snapshot_every}")
    grid = cfg.grid
    psi_g = forcing_stream(cfg)
    c, u0 = initial_state(cfg)
    nsteps = int(round(cfg.t_end / cfg.dt))

    k_max = grid.dealias_cutoff
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

    rows, taken = [], []              # rows: (t, ||u||^2, ||grad u||^2, ||u||_a^2)
    sink = snapshots if snapshots is not None else (lambda t, f: taken.append((t, f)))
    cfl_warned = False
    budget = 0.0

    def sample(step, c):
        nonlocal cfl_warned
        t = step * cfg.dt
        sq = np.abs(c) ** 2
        rows.append((t, float(np.sum(w_l2 * sq)), float(np.sum(w_ens * sq)),
                     float(np.sum(w_alpha * sq))))
        if not cfl_warned:
            umax = float(np.max(np.abs(sp.to_physical(sp.half_of(grid, grid.band_u * c)))))
            if cfg.dt * umax * k_max > 1.0:
                warnings.warn(
                    f"dt*max|u|*k_max = {cfg.dt * umax * k_max:.3g} > 1 at t={t:.4g}",
                    CflWarning, stacklevel=2)
                cfl_warned = True
        if snapshot_every and step % snapshot_every == 0:
            u = u0.coeffs.copy() if step == 0 and u0 is not None else sp.velocity_of(grid, c)
            sink(t, SpectralField(grid, VELOCITY, u))

    def accumulate_budget(s):
        nonlocal budget
        budget += (cfg.dt / 6.0) * (budget_rate(s[0]) + 2 * budget_rate(s[1])
                                    + 2 * budget_rate(s[2]) + budget_rate(s[3]))

    sample(0, c)
    c = advance(cfg, c, nsteps, cfg.sample_every, sample,
                accumulate_budget if track_energy_budget else None)

    # the first and last samples are the initial and final states
    t, e_l2, ens, e_al = (np.asarray(col) for col in zip(*rows))
    residual = float(e_al[-1] - e_al[0] + budget) if track_energy_budget else None
    diag = DiagnosticsSeries(t, e_l2, ens, e_al, g_norm, cfg.nu)
    final = (u0 if nsteps == 0 and u0 is not None
             else SpectralField(grid, VELOCITY, sp.velocity_of(grid, c)))
    return SimResult(cfg=cfg, final=final, diagnostics=diag, snapshots=taken,
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


def check_dissipative_bound(series: DiagnosticsSeries, cfg: SimConfig) -> BoundCheckReport:
    """Verify ||u(t)||_a^2 <= ||u(0)||_a^2 e^{-gamma t}
    + (alpha+1)/nu^2 ||g||^2 (1 - e^{-gamma t}) at every sample.

    The bound is saturated exactly on the steady single-mode flow, so the
    comparison is made relative to the bound's scale with a round-off
    tolerance of 1e-8; violations are reported, not raised.
    """
    tolerance = 1e-8
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


def check_time_averages(series: DiagnosticsSeries, cfg: SimConfig) -> list[BoundCheckReport]:
    """Check the enstrophy averages against the forcing:
    mean ||grad u||^2 <= ||g||^2/nu^2 and mean ||grad u|| <= ||g||/nu,
    Cesaro means over the samples at t >= 5/gamma (burn-in discarded), each
    to 1% relative; the reported window starts at the first of them.

    The claims are long-time limits; at a finite horizon the time-integrated
    energy inequality carries an extra ||u(t0)||_a^2/(nu*window) transient
    term, which is added to the asserted ceiling and reported.
    """
    gamma, tol = cfg.gamma, 0.01
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
    start = float(series.t[keep][0])     # the first averaged sample
    window = max(float(series.t[-1]) - start, float(cfg.dt))
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
                    f"window=[{start:.6g}, {series.t[-1]:.6g}]"),
        )

    return [
        report("mean-enstrophy", mean_enstrophy, bound_sq),
        report("mean-gradient-l1", mean_grad, bound_l1),
    ]
