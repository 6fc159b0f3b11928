"""Fourier representation of zero-mean fields on the square torus [0, 2pi]^2.

Coefficients follow the analytic convention u(x) = sum_k u_hat(k) e^{i k.x}
with k on the integer lattice in numpy fft ordering, so the first Stokes
eigenvalue is lambda_1 = 1 and all Laplacian eigenvalues are integers |k|^2.
L2 norms carry the domain area |T^2| = 4 pi^2 (Parseval).

Velocity fields are stored as (2, n, n) complex arrays, scalar vorticity as
(n, n).  A time-stepped state is a solenoidal field held as its streamfunction
psi_hat on the 2/3 band's half spectrum, an array (..., 2K+1, K+1) with
K = dealias_cutoff (rows k1 = 0..K, -K..-1; columns k2 = 0..K): u = grad-perp
psi = (d_y psi, -d_x psi) and w = rot u = -Lap psi.  stream_of and velocity_of
map between the two.  All operators are pure functions; nothing here holds
mutable state.
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
        # the band's half spectrum, rows k1 = 0..K, -K..-1 and columns k2 = 0..K:
        # where a real solenoidal field keeps its streamfunction psi_hat
        rows = np.r_[0:cutoff + 1, self.n - cutoff:self.n]
        bkx, bky, bk2 = (a[rows, : cutoff + 1] for a in (kx, ky, k2))
        object.__setattr__(self, "band_k2", bk2)
        # a k2 > 0 column stands for itself and its conjugate at -k
        object.__setattr__(self, "band_count", np.where(bky > 0, 2.0, 1.0))
        # u = grad-perp psi = (d_y psi, -d_x psi) and grad w = grad(-Lap psi)
        object.__setattr__(self, "band_uw", np.stack(
            [1j * bky, -1j * bkx, 1j * bkx * bk2, 1j * bky * bk2]))

    def coeff_shape(self, role: str) -> tuple:
        return (2, self.n, self.n) if role == VELOCITY else (self.n, self.n)

    @property
    def band_shape(self) -> tuple:
        return self.band_k2.shape


@dataclass(frozen=True)
class AlphaMetric:
    """Weight structure of the inner product (u,v) + alpha (grad u, grad v)."""

    alpha: float

    def __post_init__(self):
        if self.alpha < 0:
            raise InvalidParameterError(f"alpha must be >= 0, got {self.alpha}")

    def weights(self, grid: SpectralGrid) -> np.ndarray:
        return 1.0 + self.alpha * grid.k2

    def band_weights(self, grid: SpectralGrid) -> np.ndarray:
        """The weights on psi_hat over the band: |k|^2 (1 + alpha |k|^2) per mode."""
        return grid.band_count * grid.band_k2 * (1.0 + self.alpha * grid.band_k2)


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


def from_physical(values: np.ndarray, cols: int | None = None) -> np.ndarray:
    """Half spectrum (..., n, n//2+1) of a real (..., n, n) batch, or its first
    cols columns k2 = 0..cols-1 (the column transforms past them are skipped);
    see full_layout."""
    n = values.shape[-1]
    half = np.fft.rfft(values, axis=-1)[..., :cols]
    return np.fft.fft(half, axis=-2) / (n * n)


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
# norms

def l2_norm_sq(u: SpectralField) -> float:
    return TORUS_AREA * float(np.sum(np.abs(u.coeffs) ** 2))


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


def band_of(grid: SpectralGrid, half: np.ndarray) -> np.ndarray:
    """The band (..., 2K+1, K+1) of a half spectrum or full layout (..., n, >= K+1)."""
    k = grid.dealias_cutoff
    return np.concatenate([half[..., : k + 1, : k + 1], half[..., grid.n - k:, : k + 1]], axis=-2)


def half_of(grid: SpectralGrid, band: np.ndarray) -> np.ndarray:
    """The band's k2 >= 0 columns (..., n, K+1), zero on the rows off the band."""
    k = grid.dealias_cutoff
    half = np.zeros(band.shape[:-2] + (grid.n, k + 1), dtype=complex)
    half[..., : k + 1, :] = band[..., : k + 1, :]
    half[..., grid.n - k:, :] = band[..., k + 1:, :]
    return half


def stream_of(grid: SpectralGrid, u: np.ndarray, what: str = "field") -> np.ndarray:
    """psi_hat on the band of a velocity (..., 2, n, n): psi = rot u / |k|^2, which
    drops any gradient part.  A u with a nonzero coefficient off the band is
    refused, since the band is all a state holds."""
    outside = float(np.max(np.abs(u[..., ~grid.dealias_mask]), initial=0.0))
    if outside > 0:
        raise InvalidParameterError(
            f"{what} has coefficients outside the 2/3 band |k_i| <= {grid.dealias_cutoff} "
            f"(largest {outside:.3g})")
    b = band_of(grid, u)
    rot = -(grid.band_uw[0] * b[..., 0, :, :] + grid.band_uw[1] * b[..., 1, :, :])
    return np.divide(rot, grid.band_k2, out=np.zeros_like(rot), where=grid.band_k2 > 0)


def velocity_of(grid: SpectralGrid, psi: np.ndarray) -> np.ndarray:
    """The full-layout velocity (..., 2, n, n) of psi_hat on the band: u = grad-perp psi."""
    return full_layout(half_of(grid, grid.band_uw[:2] * psi[..., None, :, :]))


def bilinear_coeffs(grid: SpectralGrid, psi: np.ndarray) -> np.ndarray:
    """u.grad w on the band for u = grad-perp psi and w = rot u = -Lap psi: the
    curl of the dealiased B(u,u) = P((u.grad) u) in 2D.  The band is alias-free
    when 3 * cutoff < n; at cutoff = n/3 its edge rows also take the aliases
    of the 2n/3 products, the same ones the velocity form takes (to round-off).
    A frame stack psi = [psi_u, psi_theta_1, ...] gives the rows [u.grad w_u,
    u.grad w_theta_j + theta_j.grad w_u], the curls of B(u,u) and of
    B(theta_j,u) + B(u,theta_j).  One inverse real transform of
    (u_x, u_y, d_x w, d_y w) per field, one forward of the products."""
    stack = psi.reshape((-1,) + grid.band_shape)
    phys = to_physical(half_of(grid, grid.band_uw * stack[:, None]))
    base = phys[0]
    adv = base[0] * phys[:, 2] + base[1] * phys[:, 3]
    adv[1:] += phys[1:, 0] * base[2] + phys[1:, 1] * base[3]
    return band_of(grid, from_physical(adv, grid.dealias_cutoff + 1)).reshape(psi.shape)


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
