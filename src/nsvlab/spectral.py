"""Fourier representation of zero-mean fields on the square torus [0, 2pi]^2.

Coefficients follow the analytic convention u(x) = sum_k u_hat(k) e^{i k.x}
with k on the integer lattice in numpy fft ordering, so the first Stokes
eigenvalue is lambda_1 = 1 and all Laplacian eigenvalues are integers |k|^2.
L2 norms carry the domain area |T^2| = 4 pi^2 (Parseval).

Computation happens on the 2/3 band's half spectrum, an array (..., 2K+1, K+1)
with K = dealias_cutoff (rows k1 = 0..K, -K..-1; columns k2 = 0..K), by
default (n - 1) // 3, the largest alias-free K.  A time-stepped state is a
solenoidal field held there as its streamfunction psi_hat:
u = grad-perp psi = (d_y psi, -d_x psi) and w = rot u = -Lap psi.
Random fields and families are drawn on the band (random_band), and
mode-built fields are assembled there (field_from_modes); a velocity is
Leray-projected on the band (leray_project_coeffs), and SpectralGrid holds
its wavenumbers on the band alone.  The full (2, n, n) velocity and (n, n)
scalar layouts of SpectralField are the I/O format; stream_of and
velocity_of map a state to and from it, and half_of embeds a band into the
half spectrum of any grid with at least 2K+1 rows.
The operators are functions of their inputs.  The one mutable state is a
KernelWorkspace, the planes bilinear_coeffs writes, which a caller that
evaluates the kernel every step (dynamics.stream_scheme) allocates once and
hands back on each call; without one the kernel writes fresh planes.  A
band multiplier that scales complex coefficients every step (band_u,
band_curl_div) is held complex, so the product casts nothing.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import GridMismatchError, InvalidParameterError, RoleMismatchError

VELOCITY = "velocity"
VORTICITY = "vorticity"

TORUS_AREA = 4.0 * np.pi**2


@dataclass(frozen=True)
class SpectralGrid:
    """Square spectral grid with pre-computed wavenumber arrays on its 2/3 band.

    n is the number of modes per axis (even, >= 8); dealias_cutoff is the
    largest retained wavenumber component for quadratic products (2/3 rule).
    The default (n - 1) // 3 is the largest alias-free cutoff (3K < n).  An
    explicit cutoff up to n // 3 is accepted; when 3 divides n, n // 3 puts
    the aliases of the 2n/3 products on the band's edge rows |k_i| = n/3.
    """

    n: int
    dealias_cutoff: int = 0  # 0 means "use (n - 1) // 3"

    def __post_init__(self):
        if self.n < 8 or self.n % 2 != 0:
            raise InvalidParameterError(f"grid resolution must be even and >= 8, got {self.n}")
        cutoff = self.dealias_cutoff or (self.n - 1) // 3
        if not 0 < cutoff <= self.n // 3:
            raise InvalidParameterError(
                f"dealias_cutoff {cutoff} violates the 2/3 rule for n={self.n} (1 to {self.n // 3})"
            )
        object.__setattr__(self, "dealias_cutoff", cutoff)

        # the band's half spectrum, rows k1 = 0..K, -K..-1 and columns k2 = 0..K:
        # where a real solenoidal field keeps its streamfunction psi_hat
        freq = np.fft.fftfreq(self.n, d=1.0 / self.n).astype(np.float64)
        bkx, bky = np.meshgrid(freq[np.r_[0:cutoff + 1, self.n - cutoff:self.n]],
                               freq[: cutoff + 1], indexing="ij")
        bk2 = bkx**2 + bky**2
        object.__setattr__(self, "band_k2", bk2)
        # kx, ky and |k|^2 (1 at the origin) on the band
        object.__setattr__(self, "band_k", np.stack([bkx, bky, np.where(bk2 > 0, bk2, 1.0)]))
        # a k2 > 0 column stands for itself and its conjugate at -k
        object.__setattr__(self, "band_count", np.where(bky > 0, 2.0, 1.0))
        # u = grad-perp psi = (d_y psi, -d_x psi)
        object.__setattr__(self, "band_u", np.stack([1j * bky, -1j * bkx]))
        # curl div of the symmetric tensor [[Q, P], [P, -Q]] is
        # (ky^2 - kx^2) P_hat + 2 kx ky Q_hat, held complex like the planes it scales
        object.__setattr__(self, "band_curl_div",
                           np.stack([bky**2 - bkx**2, 2.0 * bkx * bky]).astype(complex))

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
        if not 0 <= self.alpha < np.inf:
            raise InvalidParameterError(f"alpha must be finite and >= 0, got {self.alpha}")

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


# ----------------------------------------------------------------------------
# transforms (batched over leading axes)

def to_physical(coeffs: np.ndarray, out: np.ndarray | None = None,
                work: np.ndarray | None = None) -> np.ndarray:
    """u(x_j) = sum_k u_hat(k) e^{i k.x_j} for a real field's coefficients: the
    full (..., n, n) layout, or its k2 >= 0 columns (those past the last given are zero).

    No pass scales the samples: with norm="forward" the inverse transforms
    are unnormalized, and the 1/n^2 of the analytic convention sits in
    from_physical alone.  The samples go into out and the column transforms,
    complex (..., n, cols), into work; fresh arrays when None."""
    n = coeffs.shape[-2]
    columns = np.fft.ifft(coeffs[..., : n // 2 + 1], axis=-2, norm="forward", out=work)
    return np.fft.irfft(columns, n, axis=-1, norm="forward", out=out)


def from_physical(values: np.ndarray, cols: int | None = None, out: np.ndarray | None = None,
                  work: np.ndarray | None = None) -> np.ndarray:
    """Half spectrum (..., n, n//2+1) of a real (..., n, n) batch, or its first
    cols columns k2 = 0..cols-1 (the column transforms past them are skipped);
    see full_layout.

    Each transform of the pair takes its 1/n (norm="forward"), so the
    coefficients carry the 1/n^2 with no pass of their own.  The coefficients
    go into out and the row transforms, complex (..., n, n//2+1), into work;
    fresh arrays when None."""
    half = np.fft.rfft(values, axis=-1, norm="forward", out=work)[..., :cols]
    return np.fft.fft(half, axis=-2, norm="forward", out=out)


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

def leray_project_coeffs(grid: SpectralGrid, b: np.ndarray) -> np.ndarray:
    """Project a velocity band (..., 2, 2K+1, K+1) onto divergence-free fields:
    u_hat -> u_hat - k (k.u_hat)/|k|^2."""
    kx, ky, k2 = grid.band_k
    kdot = (kx * b[..., 0, :, :] + ky * b[..., 1, :, :]) / k2
    return b - grid.band_k[:2] * kdot[..., None, :, :]


def band_of(grid: SpectralGrid, half: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """The band (..., 2K+1, K+1) of a half spectrum or full layout (..., n, >= K+1),
    into out if given."""
    k = grid.dealias_cutoff
    return np.concatenate([half[..., : k + 1, : k + 1], half[..., grid.n - k:, : k + 1]], axis=-2,
                          out=out)


def half_of(grid: SpectralGrid, band: np.ndarray, rows: int | None = None) -> np.ndarray:
    """The band's k2 >= 0 columns on a grid of rows (default n) modes per axis,
    (..., rows, K+1), zero on the rows off the band."""
    k, rows = grid.dealias_cutoff, rows or grid.n
    half = np.zeros(band.shape[:-2] + (rows, k + 1), dtype=complex)
    half[..., : k + 1, :] = band[..., : k + 1, :]
    half[..., rows - k:, :] = band[..., k + 1:, :]
    return half


def require_band(grid: SpectralGrid, c: np.ndarray, what: str = "field"):
    """Refuse full-layout coefficients (..., n, n) with a nonzero entry off the band."""
    off = slice(grid.dealias_cutoff + 1, grid.n - grid.dealias_cutoff)  # rows and columns
    outside = max(float(np.max(np.abs(x), initial=0.0)) for x in (c[..., off, :], c[..., off]))
    if outside > 0:
        raise InvalidParameterError(
            f"{what} has coefficients outside the 2/3 band |k_i| <= {grid.dealias_cutoff} "
            f"(largest {outside:.3g})")


def stream_of(grid: SpectralGrid, u: np.ndarray, what: str = "field") -> np.ndarray:
    """psi_hat on the band of a velocity (..., 2, n, n): psi = rot u / |k|^2, which
    drops any gradient part.  A u with a nonzero coefficient off the band is
    refused, since the band is all a state holds."""
    require_band(grid, u, what)
    return band_stream(grid, band_of(grid, u))


def band_stream(grid: SpectralGrid, b: np.ndarray) -> np.ndarray:
    """psi_hat = rot u / |k|^2 of a velocity's band (..., 2, 2K+1, K+1)."""
    rot = -(grid.band_u[0] * b[..., 0, :, :] + grid.band_u[1] * b[..., 1, :, :])
    return np.divide(rot, grid.band_k2, out=np.zeros_like(rot), where=grid.band_k2 > 0)


def velocity_of(grid: SpectralGrid, psi: np.ndarray) -> np.ndarray:
    """The full-layout velocity (..., 2, n, n) of psi_hat on the band: u = grad-perp psi."""
    return full_layout(half_of(grid, grid.band_u * psi[..., None, :, :]))


class KernelWorkspace:
    """The arrays bilinear_coeffs writes for a stack of `rows` fields on grid:
    the (u, v) half spectra, zero off the band rows, which are rewritten on
    each call; the column transforms of both directions; the physical (u, v)
    and (P, Q) planes; two planes for the base row's [u, -v], the second
    of which first holds v^2; the forward row transforms; the band of
    (P_hat, Q_hat); and the result.  A call overwrites them all, so the
    result it returns lives until the next call."""

    def __init__(self, grid: SpectralGrid, rows: int):
        n, cols = grid.n, grid.dealias_cutoff + 1
        planes = (rows, 2, n)
        self.half = np.zeros(planes + (cols,), dtype=complex)
        self.columns = np.empty(planes + (cols,), dtype=complex)
        self.vel = np.empty(planes + (n,))
        self.pq = np.empty(planes + (n,))
        self.signed = np.empty((2, n, n))
        self.row_transforms = np.empty(planes + (n // 2 + 1,), dtype=complex)
        self.pq_hat = np.empty((rows, 2) + grid.band_shape, dtype=complex)
        self.result = np.empty((rows,) + grid.band_shape, dtype=complex)


#: takes the base row (u, v) to (u, -v), exactly
_SIGNS = np.array([1.0, -1.0])[:, None, None]


def bilinear_coeffs(grid: SpectralGrid, psi: np.ndarray,
                    work: KernelWorkspace | None = None) -> np.ndarray:
    """u.grad w on the band for u = grad-perp psi and w = rot u = -Lap psi: the
    curl of the dealiased B(u,u) = P((u.grad) u) in 2D, in divergence form
    (Basdevant 1983): with u = (u, v), P = uv and Q = (u^2 - v^2)/2,
    u.grad w = curl div(u (x) u) = (ky^2 - kx^2) P_hat + 2 kx ky Q_hat.
    A frame stack psi = [psi_u, psi_theta_1, ...] gives the rows [u.grad w_u,
    u.grad w_theta_j + theta_j.grad w_u], the curls of B(u,u) and of
    B(theta_j,u) + B(u,theta_j), from the polarization P_j = u b + v a and
    Q_j = u a - v b of theta_j = (a, b): each a contraction over the component
    axis, [v, u].(a, b) and [u, -v].(a, b), for all j at once.  The base row
    is formed on its own (its polarization halved: uv and (u^2 - v^2)/2).  One
    inverse real transform of (u, v) per field, one forward of (P, Q); exact
    when 3 * cutoff < n.

    work, a KernelWorkspace for psi's row count, takes every array the call
    writes, the returned one included; fresh ones when None."""
    stack = psi.reshape((-1,) + grid.band_shape)
    w = KernelWorkspace(grid, len(stack)) if work is None else work
    k, band_u = grid.dealias_cutoff, grid.band_u
    np.multiply(band_u[:, : k + 1], stack[:, None, : k + 1], out=w.half[:, :, : k + 1])
    np.multiply(band_u[:, k + 1:], stack[:, None, k + 1:], out=w.half[:, :, grid.n - k:])
    vel = to_physical(w.half, out=w.vel, work=w.columns)
    (u, v), (p, q) = vel[0], w.pq[0]
    np.multiply(u, v, out=p)
    np.subtract(np.multiply(u, u, out=q), np.multiply(v, v, out=w.signed[1]), out=q)
    q *= 0.5
    if len(stack) > 1:
        np.einsum("cxy,jcxy->jxy", vel[0, ::-1], vel[1:], out=w.pq[1:, 0])
        np.einsum("cxy,jcxy->jxy", np.multiply(vel[0], _SIGNS, out=w.signed), vel[1:],
                  out=w.pq[1:, 1])
    pq_hat = band_of(grid, from_physical(w.pq, k + 1, out=w.columns, work=w.row_transforms),
                     out=w.pq_hat)
    div = grid.band_curl_div
    out = np.multiply(div[0], pq_hat[:, 0], out=w.result)
    out += np.multiply(div[1], pq_hat[:, 1], out=pq_hat[:, 1])
    return out.reshape(psi.shape)


# ----------------------------------------------------------------------------
# constructors

def zero_field(grid: SpectralGrid, role: str) -> SpectralField:
    return SpectralField(grid, role, np.zeros(grid.coeff_shape(role), dtype=complex))


def field_from_modes(grid: SpectralGrid, role: str, modes) -> SpectralField:
    """Build a real field from {(k1, k2): amplitude} Fourier data on the 2/3 band,
    given as a dict or as (wavevector, amplitude) rows naming each k once.

    The listed amplitude is placed at +k and its conjugate at -k, so the
    resulting field is real; the band's half spectrum keeps whichever of the
    two has k2 >= 0.  Velocity amplitudes are 2-vectors, and a velocity is
    Leray-projected.
    """
    k = grid.dealias_cutoff
    b = np.zeros(grid.coeff_shape(role)[:-2] + grid.band_shape, dtype=complex)
    named = set()
    for (k1, k2), amp in (modes.items() if isinstance(modes, dict) else modes):
        if (k1, k2) in named:
            raise InvalidParameterError(f"mode {(k1, k2)} is listed more than once")
        named.add((k1, k2))
        if (k1, k2) == (0, 0):
            raise InvalidParameterError("the zero mode is excluded (zero-mean fields)")
        if max(abs(k1), abs(k2)) > k:
            raise InvalidParameterError(
                f"mode {(k1, k2)} lies outside the 2/3 band |k_i| <= {k} of an n={grid.n} grid")
        amp = np.asarray(amp, dtype=complex)
        for (m1, m2), a in (((k1, k2), amp), ((-k1, -k2), np.conj(amp))):
            if m2 >= 0:
                b[..., m1 % (2 * k + 1), m2] += a
    if role == VELOCITY:
        b = leray_project_coeffs(grid, b)
    return SpectralField(grid, role, full_layout(half_of(grid, b)))


def shear_field(grid: SpectralGrid, amplitude: float = 1.0, wavenumber: int = 1) -> SpectralField:
    """The single-mode shear flow amplitude * (sin(m x2), 0)."""
    return field_from_modes(grid, VELOCITY, {(0, wavenumber): (amplitude / (2j), 0.0)})


def random_band(grid: SpectralGrid, role: str, decay: float,
                rng: np.random.Generator, stack: tuple = ()) -> np.ndarray:
    """The band (*stack, ..., 2K+1, K+1) of Gaussian random fields with
    |k|^{-decay} falloff and zero mean, Leray-projected for a velocity: white
    physical-space noise of the role's shape filtered through its half
    spectrum.  A stack of fields is one noise array drawn at once, bitwise the
    fields of that many draws in turn (rng fills in order, each transform
    line is its own)."""
    noise = rng.standard_normal(tuple(stack) + grid.coeff_shape(role))
    k2 = grid.band_k[2]
    b = band_of(grid, from_physical(noise, grid.dealias_cutoff + 1)) * k2 ** (-decay / 2.0)
    b[..., 0, 0] = 0.0
    if role == VELOCITY:
        b = leray_project_coeffs(grid, b)
    return b


def random_field(grid: SpectralGrid, role: str, seed: int, decay: float = 3.0) -> SpectralField:
    """Gaussian random coefficients with |k|^{-decay} falloff on the 2/3 band
    (random_band), so conjugate symmetry is exact.  Velocity output is
    divergence-free.  Deterministic given seed."""
    band = random_band(grid, role, decay, np.random.default_rng(seed))
    return SpectralField(grid, role, full_layout(half_of(grid, band)))
