"""Fourier representation of zero-mean fields on the square torus [0, 2pi]^2.

Coefficients follow the analytic convention u(x) = sum_k u_hat(k) e^{i k.x}
with k on the integer lattice in numpy fft ordering, so the first Stokes
eigenvalue is lambda_1 = 1 and all Laplacian eigenvalues are integers |k|^2.
L2 norms carry the domain area |T^2| = 4 pi^2 (Parseval).

Velocity fields are stored as (2, n, n) complex arrays, scalar vorticity as
(n, n).  All operators are pure functions; nothing here holds mutable state.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import GridMismatchError, InvalidParameterError, RoleMismatchError

VELOCITY = "velocity"
VORTICITY = "vorticity"

TORUS_AREA = 4.0 * np.pi**2
LAMBDA1 = 1.0


@dataclass(frozen=True)
class SpectralGrid:
    """Square spectral grid with pre-computed wavenumber arrays.

    n is the number of modes per axis (even, >= 8); dealias_cutoff is the
    largest retained wavenumber component for quadratic products (2/3 rule,
    at most n // 3).
    """

    n: int
    dealias_cutoff: int = 0  # 0 means "use n // 3"

    def __post_init__(self):
        if self.n < 8 or self.n % 2 != 0:
            raise InvalidParameterError(f"grid resolution must be even and >= 8, got {self.n}")
        cutoff = self.dealias_cutoff or self.n // 3
        if cutoff > self.n // 3:
            raise InvalidParameterError(
                f"dealias_cutoff {cutoff} violates the 2/3 rule for n={self.n} (max {self.n // 3})"
            )
        object.__setattr__(self, "dealias_cutoff", cutoff)

        k1 = np.fft.fftfreq(self.n, d=1.0 / self.n).astype(np.float64)
        kx, ky = np.meshgrid(k1, k1, indexing="ij")
        k2 = kx**2 + ky**2
        k2_safe = k2.copy()
        k2_safe[0, 0] = 1.0
        mask = (np.abs(kx) <= cutoff) & (np.abs(ky) <= cutoff)
        object.__setattr__(self, "kx", kx)
        object.__setattr__(self, "ky", ky)
        object.__setattr__(self, "k2", k2)
        object.__setattr__(self, "k2_safe", k2_safe)
        object.__setattr__(self, "dealias_mask", mask)

    def coeff_shape(self, role: str) -> tuple:
        return (2, self.n, self.n) if role == VELOCITY else (self.n, self.n)


@dataclass(frozen=True)
class AlphaMetric:
    """Weight structure of the inner product (u,v) + alpha (grad u, grad v)."""

    alpha: float

    def __post_init__(self):
        if self.alpha < 0:
            raise InvalidParameterError(f"alpha must be >= 0, got {self.alpha}")

    def weights(self, grid: SpectralGrid) -> np.ndarray:
        return 1.0 + self.alpha * grid.k2


@dataclass
class SpectralField:
    """A zero-mean real field held as complex Fourier coefficients."""

    grid: SpectralGrid
    role: str
    coeffs: np.ndarray

    def __post_init__(self):
        expected = self.grid.coeff_shape(self.role)
        if self.coeffs.shape != expected:
            raise GridMismatchError(
                f"coefficient shape {self.coeffs.shape} does not match {expected} for role {self.role}"
            )

    def copy(self) -> "SpectralField":
        return SpectralField(self.grid, self.role, self.coeffs.copy())

    def __add__(self, other: "SpectralField") -> "SpectralField":
        _check_compatible(self, other)
        return SpectralField(self.grid, self.role, self.coeffs + other.coeffs)

    def __sub__(self, other: "SpectralField") -> "SpectralField":
        _check_compatible(self, other)
        return SpectralField(self.grid, self.role, self.coeffs - other.coeffs)

    def __mul__(self, scalar: float) -> "SpectralField":
        return SpectralField(self.grid, self.role, self.coeffs * scalar)

    __rmul__ = __mul__

    def __neg__(self) -> "SpectralField":
        return SpectralField(self.grid, self.role, -self.coeffs)

    def to_physical(self) -> np.ndarray:
        """Sample the field on the n x n collocation grid (real array)."""
        return to_physical(self.coeffs)


def _check_compatible(a: SpectralField, b: SpectralField):
    if a.grid != b.grid:
        raise GridMismatchError(f"grids differ: n={a.grid.n} vs n={b.grid.n}")
    if a.role != b.role:
        raise RoleMismatchError(f"roles differ: {a.role} vs {b.role}")


def require_role(f: SpectralField, role: str, op: str):
    if f.role != role:
        raise RoleMismatchError(f"{op} requires a {role} field, got {f.role}")


# ----------------------------------------------------------------------------
# transforms (batched over leading axes)

def to_physical(coeffs: np.ndarray) -> np.ndarray:
    """u(x_j) = sum_k u_hat(k) e^{i k.x_j}; works on any (..., n, n) batch."""
    n = coeffs.shape[-1]
    return np.fft.ifft2(coeffs, axes=(-2, -1)).real * (n * n)


def from_physical(values: np.ndarray) -> np.ndarray:
    n = values.shape[-1]
    return np.fft.fft2(values, axes=(-2, -1)) / (n * n)


# ----------------------------------------------------------------------------
# inner products and norms

def l2_inner(u: SpectralField, v: SpectralField) -> float:
    _check_compatible(u, v)
    return TORUS_AREA * float(np.sum(u.coeffs * np.conj(v.coeffs)).real)


def l2_norm_sq(u: SpectralField) -> float:
    return TORUS_AREA * float(np.sum(np.abs(u.coeffs) ** 2))


def l2_norm(u: SpectralField) -> float:
    return np.sqrt(l2_norm_sq(u))


def grad_norm_sq(u: SpectralField) -> float:
    """||grad u||^2 = |T^2| sum_k |k|^2 |u_hat|^2 (enstrophy for velocity)."""
    return TORUS_AREA * float(np.sum(u.grid.k2 * np.abs(u.coeffs) ** 2))


def alpha_inner(u: SpectralField, v: SpectralField, metric: AlphaMetric) -> float:
    """Parseval evaluation of (u,v) + alpha (grad u, grad v)."""
    _check_compatible(u, v)
    w = metric.weights(u.grid)
    return TORUS_AREA * float(np.sum(w * (u.coeffs * np.conj(v.coeffs)).real))


def alpha_norm_sq(u: SpectralField, metric: AlphaMetric) -> float:
    w = metric.weights(u.grid)
    return TORUS_AREA * float(np.sum(w * np.abs(u.coeffs) ** 2))


# ----------------------------------------------------------------------------
# core operators

def leray_project(f: SpectralField) -> SpectralField:
    """Project onto divergence-free fields: u_hat -> u_hat - k (k.u_hat)/|k|^2."""
    require_role(f, VELOCITY, "leray_project")
    return SpectralField(f.grid, VELOCITY, leray_project_coeffs(f.grid, f.coeffs))


def leray_project_coeffs(grid: SpectralGrid, c: np.ndarray) -> np.ndarray:
    kdot = grid.kx * c[..., 0, :, :] + grid.ky * c[..., 1, :, :]
    kdot = kdot / grid.k2_safe
    out = c.copy()
    out[..., 0, :, :] -= grid.kx * kdot
    out[..., 1, :, :] -= grid.ky * kdot
    return out


def divergence_linf(f: SpectralField) -> float:
    """Max spectral divergence magnitude, for invariant checks."""
    require_role(f, VELOCITY, "divergence_linf")
    d = grid_divergence(f.grid, f.coeffs)
    return float(np.max(np.abs(d)))


def grid_divergence(grid: SpectralGrid, c: np.ndarray) -> np.ndarray:
    return 1j * (grid.kx * c[..., 0, :, :] + grid.ky * c[..., 1, :, :])


def stokes_apply(u: SpectralField, s: float) -> SpectralField:
    """Apply A^{s/2}, i.e. the Fourier multiplier |k|^s (zero mode stays zero)."""
    grid = u.grid
    if s == 0:
        return u.copy()
    mult = grid.k2_safe ** (s / 2.0)
    out = u.coeffs * mult
    out[..., 0, 0] = 0.0
    return SpectralField(grid, u.role, out)


def helmholtz_solve(f: SpectralField, metric: AlphaMetric) -> SpectralField:
    """Invert (1 + alpha A): per-mode division by (1 + alpha |k|^2)."""
    out = f.coeffs / metric.weights(f.grid)
    return SpectralField(f.grid, f.role, out)


def bilinear_b(u: SpectralField, v: SpectralField) -> SpectralField:
    """Dealiased pseudo-spectral B(u, v) = P((u.grad) v), divergence-free output.

    Inputs are truncated to the 2/3 band, products are formed in physical
    space, and the result is truncated again, so the retained modes are
    alias-free and (B(u,v), w) identities hold to round-off for band-limited
    fields.
    """
    require_role(u, VELOCITY, "bilinear_b")
    require_role(v, VELOCITY, "bilinear_b")
    if u.grid != v.grid:
        raise GridMismatchError("bilinear_b requires both fields on the same grid")
    grid = u.grid
    # All-zero operand short-circuit: (0.grad)v = (u.grad)0 = 0 exactly.
    if not u.coeffs.any() or not v.coeffs.any():
        return SpectralField(grid, VELOCITY, np.zeros_like(u.coeffs))
    out = bilinear_coeffs(grid, u.coeffs, v.coeffs)
    return SpectralField(grid, VELOCITY, out)


def bilinear_coeffs(grid: SpectralGrid, uc: np.ndarray, vc: np.ndarray) -> np.ndarray:
    mask = grid.dealias_mask
    uh = uc * mask
    vh = vc * mask
    u_phys = to_physical(uh)
    dvdx = to_physical(1j * grid.kx * vh)
    dvdy = to_physical(1j * grid.ky * vh)
    adv = u_phys[..., 0, :, :][..., None, :, :] * dvdx + u_phys[..., 1, :, :][..., None, :, :] * dvdy
    out = from_physical(adv) * mask
    out[..., 0, 0] = 0.0
    return leray_project_coeffs(grid, out)


def velocity_from_vorticity(w: SpectralField) -> SpectralField:
    """Biot-Savart on the torus: the divergence-free u with rot u = w.

    Per mode u_hat = -i k_perp w_hat / |k|^2 with k_perp = (-k2, k1), the
    spectral form of grad-perp of the streamfunction Delta^{-1} w.
    """
    require_role(w, VORTICITY, "velocity_from_vorticity")
    grid = w.grid
    return SpectralField(grid, VELOCITY, velocity_from_vorticity_coeffs(grid, w.coeffs))


def velocity_from_vorticity_coeffs(grid: SpectralGrid, wc: np.ndarray) -> np.ndarray:
    psi = wc / grid.k2_safe  # -streamfunction scaled; origin irrelevant (zero mean)
    shape = wc.shape[:-2] + (2,) + wc.shape[-2:]
    out = np.empty(shape, dtype=complex)
    out[..., 0, :, :] = 1j * grid.ky * psi
    out[..., 1, :, :] = -1j * grid.kx * psi
    out[..., 0, 0] = 0.0
    return out


def vorticity_of(u: SpectralField) -> SpectralField:
    """rot u = d_x u_y - d_y u_x as a scalar spectral field."""
    require_role(u, VELOCITY, "vorticity_of")
    return SpectralField(u.grid, VORTICITY, vorticity_of_coeffs(u.grid, u.coeffs))


def vorticity_of_coeffs(grid: SpectralGrid, uc: np.ndarray) -> np.ndarray:
    return 1j * (grid.kx * uc[..., 1, :, :] - grid.ky * uc[..., 0, :, :])


# ----------------------------------------------------------------------------
# constructors

def zero_field(grid: SpectralGrid, role: str) -> SpectralField:
    return SpectralField(grid, role, np.zeros(grid.coeff_shape(role), dtype=complex))


def field_from_modes(grid: SpectralGrid, role: str, modes, project: bool = True) -> SpectralField:
    """Build a real field from {(k1, k2): amplitude} Fourier data.

    The listed amplitude is placed at +k and its conjugate at -k, so the
    resulting field is real.  Velocity amplitudes are 2-vectors.
    """
    c = np.zeros(grid.coeff_shape(role), dtype=complex)
    n = grid.n
    for (k1, k2), amp in dict(modes).items():
        if (k1, k2) == (0, 0):
            raise InvalidParameterError("the zero mode is excluded (zero-mean fields)")
        if max(abs(k1), abs(k2)) >= n // 2:
            raise InvalidParameterError(f"mode {(k1, k2)} does not fit on an n={n} grid")
        i, j = k1 % n, k2 % n
        im, jm = (-k1) % n, (-k2) % n
        amp = np.asarray(amp, dtype=complex)
        c[..., i, j] += amp
        c[..., im, jm] += np.conj(amp)
    f = SpectralField(grid, role, c)
    if role == VELOCITY and project:
        f = leray_project(f)
    return f


def shear_field(grid: SpectralGrid, amplitude: float = 1.0, wavenumber: int = 1) -> SpectralField:
    """The single-mode shear flow amplitude * (sin(m x2), 0)."""
    amp = amplitude / (2j)
    return field_from_modes(grid, VELOCITY, {(0, wavenumber): (amp, 0.0)}, project=False)


def random_field(
    grid: SpectralGrid,
    role: str,
    seed: int,
    decay: float = 3.0,
    rng: np.random.Generator | None = None,
) -> SpectralField:
    """Gaussian random coefficients with |k|^{-decay} falloff, dealiased.

    Built by filtering white physical-space noise, so conjugate symmetry is
    exact.  Velocity output is Leray-projected.  Deterministic given seed.
    """
    if rng is None:
        rng = np.random.default_rng(seed)
    noise = rng.standard_normal(grid.coeff_shape(role))
    c = from_physical(noise)
    c *= grid.k2_safe ** (-decay / 2.0)
    c *= grid.dealias_mask
    c[..., 0, 0] = 0.0
    f = SpectralField(grid, role, c)
    if role == VELOCITY:
        f = leray_project(f)
    return f
