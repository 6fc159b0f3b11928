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
        # the advection kernel's multipliers on the band's k2 >= 0 columns: i k,
        # and Biot-Savart i (k2, -k1)/|k|^2 back to velocity, zero off the band
        ik = np.stack([1j * kx, 1j * ky])[..., : cutoff + 1]
        object.__setattr__(self, "ik_band", ik)
        bs = np.stack([ik[1], -ik[0]]) * (mask / k2_safe)[:, : cutoff + 1]
        object.__setattr__(self, "biot_savart_band", bs)

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
    """u(x_j) = sum_k u_hat(k) e^{i k.x_j} for a real field's coefficients: the
    full (..., n, n) layout, or its k2 >= 0 columns (those past the last given are zero)."""
    n = coeffs.shape[-2]
    return np.fft.irfft2(coeffs[..., : n // 2 + 1], s=(n, n), axes=(-2, -1)) * (n * n)


def from_physical(values: np.ndarray) -> np.ndarray:
    """Half spectrum (..., n, n//2+1) of a real (..., n, n) batch; see full_layout."""
    n = values.shape[-1]
    return np.fft.rfft2(values, axes=(-2, -1)) / (n * n)


def full_layout(half: np.ndarray) -> np.ndarray:
    """Full (..., n, n) layout of a real field from its k2 >= 0 columns (those past
    the last given are zero): column -k2 is the conjugate of k2 mirrored in k1."""
    n, cols = half.shape[-2:]
    width = min(cols - 1, n - n // 2 - 1)
    full = np.zeros(half.shape[:-1] + (n,), dtype=complex)
    full[..., :cols] = half
    if width:
        full[..., n - width:] = np.conj(half[..., (-np.arange(n)) % n, width:0:-1])
    return full


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


def bilinear_coeffs(grid: SpectralGrid, u: np.ndarray,
                    thetas: np.ndarray | None = None) -> np.ndarray:
    """Dealiased B(u,u) = P((u.grad) u) of a divergence-free u, from the vorticity
    form: curl B(u,u) = u.grad w (w = rot u) in 2D, cut to the 2/3 band and
    mapped back by Biot-Savart.  The band is alias-free when 3 * cutoff < n; at
    cutoff = n/3 its edge rows also take the aliases of the 2n/3 products, the
    same ones the velocity form takes (to round-off).  With thetas (m, 2, n, n)
    the result is the stack [B(u,u), B(theta_j,u) + B(u,theta_j)], the latter
    from u.grad w_theta + theta.grad w_u.  One inverse real transform of
    (u_x, u_y, d_x w, d_y w) per field, one forward of the products."""
    cols = grid.dealias_cutoff + 1
    band = grid.dealias_mask[:, :cols]
    rows = 1 if thetas is None else 1 + len(thetas)
    fields = np.empty((rows, 4) + band.shape, dtype=complex)
    np.multiply(u[..., :cols], band, out=fields[0, :2])
    if thetas is not None:
        np.multiply(thetas[..., :cols], band, out=fields[1:, :2])
    w = grid.ik_band[0] * fields[:, 1] - grid.ik_band[1] * fields[:, 0]
    np.multiply(grid.ik_band, w[:, None], out=fields[:, 2:])
    phys = to_physical(fields)
    base = phys[0]
    adv = base[0] * phys[:, 2] + base[1] * phys[:, 3]
    adv[1:] += phys[1:, 0] * base[2] + phys[1:, 1] * base[3]
    out = full_layout(grid.biot_savart_band * from_physical(adv)[:, None, :, :cols])
    return out[0] if thetas is None else out


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

    Built by filtering white physical-space noise through the half spectrum,
    so conjugate symmetry is exact.  Velocity output is Leray-projected.
    Deterministic given seed.
    """
    if rng is None:
        rng = np.random.default_rng(seed)
    noise = rng.standard_normal(grid.coeff_shape(role))
    c = full_layout(from_physical(noise))
    c *= grid.k2_safe ** (-decay / 2.0)
    c *= grid.dealias_mask
    c[..., 0, 0] = 0.0
    f = SpectralField(grid, role, c)
    if role == VELOCITY:
        f = leray_project(f)
    return f
