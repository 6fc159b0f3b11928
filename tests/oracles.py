"""Reference implementations that exist only to cross-check nsvlab's kernels.

The full-layout wavenumber arrays, Leray projection, spectral divergence
and mode builder that spectral replaced by band forms; field-level Parseval
inner products and norms, the alpha weights, the Stokes and Helmholtz
multipliers, and Biot-Savart and curl on the full layout, two direct
lattice counts N(E), the spectrum as a sorted list (the sort-based
enumeration, and the spectral sums as prefix differences over it), the
upward decimal rounding of the printed constants, the zero-padding of a full coefficient
layout into a finer grid, the velocity-form advection term B(u,v) on full
complex FFTs (np.fft directly, no nsvlab transform), the advective-form
band kernel u.grad w from (u_x, u_y, d_x w, d_y w), the real transform pair
with its n^2 scaling as a pass of its own and the divergence-form kernel,
RK4 step and streamfunction scheme on fresh arrays with float multipliers
and curl-div factors (production holds them complex), field-level right-hand
sides and linearizations of the velocity and vorticity forms, a quadrature
of the two terms of the trace bound, plain steppers over them (classical
RK4, Lawson integrating-factor RK4, and a per-vector product-system RK4 for
tangent frames), explicit loops of that allocating step for `integrate`
and `evolve_tangent_frame` on the band layout, the averages, exponents, n*
verdict and Grashof numbers as those functions derived them inline from
their records, random fields, families and
frames drawn on the full layout, band families drawn one vector at a time
and the rho-l2 sweep drawing each (alpha, seed) family afresh in report
order, the family density sampled as one stack, the three sweeps checking
one family after another on one thread, the full layout of a band, modified
Gram-Schmidt, the complex-form Gram matrix, the per-row trace diagonal, and
the per-coefficient snapshot writer, the bounds and inequality reports
with every bound formula and record field written out, and the separate
forcing and initial-data specs with the CLI mapper of each block, and the
CLI validator that wrote each single-key range rule out by hand. Nothing here is fast; each function is
a direct transcription of its equation.  c7_forcing builds criterion 7's
forcing for every test and script that runs that flow.

Velocity form:   du/dt = -nu A (1+aA)^{-1} u - (1+aA)^{-1} B(u,u) + (1+aA)^{-1} g
Vorticity form:  dw/dt = -(1-aD)^{-1} (u.grad w) + nu D (1-aD)^{-1} w + (1-aD)^{-1} rot g
"""

import functools
import math
import warnings
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from nsvlab import bounds as B
from nsvlab import cli
from nsvlab import dynamics as dyn
from nsvlab import fieldio
from nsvlab import inequalities as ineq
from nsvlab.lattice import inverse_square_tail_bound
from nsvlab import lyapunov as lyp
from nsvlab import spectral as sp
from nsvlab.errors import (DegenerateFrameError, GridMismatchError, InvalidParameterError,
                           RoleMismatchError)
from nsvlab.spectral import TORUS_AREA, VELOCITY, VORTICITY, SpectralField

# ----------------------------------------------------------------------------
# full-layout wavenumbers, role guard, Leray projection, divergence and the
# mode builder


class Wavenumbers(NamedTuple):
    kx: np.ndarray
    ky: np.ndarray
    k2: np.ndarray
    k2_safe: np.ndarray     # |k|^2 with 1 at the origin
    mask: np.ndarray        # the 2/3 band |k_i| <= dealias_cutoff


@functools.lru_cache(maxsize=None)
def wavenumbers(grid):
    """kx, ky, |k|^2, |k|^2 safe at the origin and the band mask on the full
    (n, n) layout: the full-layout counterparts of SpectralGrid's band arrays."""
    k1 = np.fft.fftfreq(grid.n, d=1.0 / grid.n).astype(np.float64)
    kx, ky = np.meshgrid(k1, k1, indexing="ij")
    k2 = kx**2 + ky**2
    k2_safe = k2.copy()
    k2_safe[0, 0] = 1.0
    cutoff = grid.dealias_cutoff
    return Wavenumbers(kx, ky, k2, k2_safe, (np.abs(kx) <= cutoff) & (np.abs(ky) <= cutoff))


def require_role(f, role, op):
    if f.role != role:
        raise RoleMismatchError(f"{op} requires a {role} field, got {f.role}")


def leray_project_coeffs(grid, c):
    """u_hat -> u_hat - k (k.u_hat)/|k|^2 on the full layout (..., 2, n, n)."""
    k = wavenumbers(grid)
    kdot = k.kx * c[..., 0, :, :] + k.ky * c[..., 1, :, :]
    kdot = kdot / k.k2_safe
    out = c.copy()
    out[..., 0, :, :] -= k.kx * kdot
    out[..., 1, :, :] -= k.ky * kdot
    return out


def leray_project(f):
    """Project onto divergence-free fields on the full layout."""
    require_role(f, VELOCITY, "leray_project")
    return SpectralField(f.grid, VELOCITY, leray_project_coeffs(f.grid, f.coeffs))


def divergence(grid, c):
    """i k.u_hat on the full layout (..., 2, n, n)."""
    k = wavenumbers(grid)
    return 1j * (k.kx * c[..., 0, :, :] + k.ky * c[..., 1, :, :])


def field_from_modes(grid, role, modes, project=True):
    """spectral.field_from_modes assembled on the full layout: each amplitude
    at +k and its conjugate at -k, then (velocity, project) the full-layout
    Leray projection.  A mode need only fit on the grid, not on the band."""
    c = np.zeros(grid.coeff_shape(role), dtype=complex)
    n = grid.n
    for (k1, k2), amp in dict(modes).items():
        if (k1, k2) == (0, 0):
            raise InvalidParameterError("the zero mode is excluded (zero-mean fields)")
        if max(abs(k1), abs(k2)) >= n // 2:
            raise InvalidParameterError(f"mode {(k1, k2)} does not fit on an n={n} grid")
        amp = np.asarray(amp, dtype=complex)
        c[..., k1 % n, k2 % n] += amp
        c[..., (-k1) % n, (-k2) % n] += np.conj(amp)
    f = SpectralField(grid, role, c)
    if role == VELOCITY and project:
        f = leray_project(f)
    return f


# ----------------------------------------------------------------------------
# inner products, norms and multipliers on SpectralFields


def _check_compatible(u, v):
    if u.grid != v.grid:
        raise GridMismatchError(f"grids differ: n={u.grid.n} vs n={v.grid.n}")
    if u.role != v.role:
        raise RoleMismatchError(f"roles differ: {u.role} vs {v.role}")


def l2_inner(u, v):
    _check_compatible(u, v)
    return TORUS_AREA * float(np.sum(u.coeffs * np.conj(v.coeffs)).real)


def l2_norm(u):
    return math.sqrt(sp.l2_norm_sq(u))


def grad_norm_sq(u):
    """||grad u||^2 = |T^2| sum_k |k|^2 |u_hat|^2 (enstrophy for velocity)."""
    return TORUS_AREA * float(np.sum(wavenumbers(u.grid).k2 * np.abs(u.coeffs) ** 2))


def alpha_weights(metric, grid):
    """The weights 1 + alpha|k|^2 of (u,v) + alpha (grad u, grad v) per mode."""
    return 1.0 + metric.alpha * wavenumbers(grid).k2


def alpha_inner(u, v, metric):
    """Parseval evaluation of (u,v) + alpha (grad u, grad v)."""
    _check_compatible(u, v)
    w = alpha_weights(metric, u.grid)
    return TORUS_AREA * float(np.sum(w * (u.coeffs * np.conj(v.coeffs)).real))


def alpha_norm_sq(u, metric):
    w = alpha_weights(metric, u.grid)
    return TORUS_AREA * float(np.sum(w * np.abs(u.coeffs) ** 2))


def stokes_apply(u, s):
    """Apply A^{s/2}, i.e. the Fourier multiplier |k|^s (zero mode stays zero)."""
    grid = u.grid
    if s == 0:
        return u.copy()
    out = u.coeffs * wavenumbers(grid).k2_safe ** (s / 2.0)
    out[..., 0, 0] = 0.0
    return SpectralField(grid, u.role, out)


def helmholtz_solve(f, metric):
    """Invert (1 + alpha A): per-mode division by (1 + alpha |k|^2)."""
    return SpectralField(f.grid, f.role, f.coeffs / alpha_weights(metric, f.grid))


def divergence_linf(f):
    """Max spectral divergence magnitude, for invariant checks."""
    require_role(f, VELOCITY, "divergence_linf")
    return float(np.max(np.abs(divergence(f.grid, f.coeffs))))


def velocity_from_vorticity(w):
    """Biot-Savart on the torus: the divergence-free u with rot u = w.

    Per mode u_hat = -i k_perp w_hat / |k|^2 with k_perp = (-k2, k1), the
    spectral form of grad-perp of the streamfunction Delta^{-1} w.
    """
    require_role(w, VORTICITY, "velocity_from_vorticity")
    return SpectralField(w.grid, VELOCITY, velocity_from_vorticity_coeffs(w.grid, w.coeffs))


def velocity_from_vorticity_coeffs(grid, wc):
    k = wavenumbers(grid)
    psi = wc / k.k2_safe  # -streamfunction scaled; origin irrelevant (zero mean)
    shape = wc.shape[:-2] + (2,) + wc.shape[-2:]
    out = np.empty(shape, dtype=complex)
    out[..., 0, :, :] = 1j * k.ky * psi
    out[..., 1, :, :] = -1j * k.kx * psi
    out[..., 0, 0] = 0.0
    return out


def vorticity_of(u):
    """rot u = d_x u_y - d_y u_x as a scalar spectral field."""
    require_role(u, VELOCITY, "vorticity_of")
    k = wavenumbers(u.grid)
    return SpectralField(u.grid, VORTICITY,
                         1j * (k.kx * u.coeffs[..., 1, :, :] - k.ky * u.coeffs[..., 0, :, :]))


# ----------------------------------------------------------------------------
# lattice counts, the spectrum as a sorted list, and decimal rounding


def _enumerate_sq_norms(max_e: float) -> np.ndarray:
    """Sorted |k|^2 (with multiplicity) over 0 < |k|^2 <= max_e."""
    if max_e < 0:
        raise InvalidParameterError(f"max_e must be >= 0, got {max_e}")
    kmax = int(math.isqrt(int(max_e)))
    if kmax == 0:
        return np.zeros(0, dtype=np.int64)
    r = np.arange(-kmax, kmax + 1, dtype=np.int64)
    s = (r[:, None] ** 2 + r[None, :] ** 2).ravel()
    s = s[(s > 0) & (s <= max_e)]
    s.sort()
    return s


class SortedSpectrum:
    """lattice.LatticeSpectrum's reading interface over the sorted eigenvalue
    list of _enumerate_sq_norms: lambda_j by index and N(E) by binary search."""

    def __init__(self, max_e):
        self.max_e = max_e
        self.eigenvalues = _enumerate_sq_norms(max_e)

    @classmethod
    def with_at_least(cls, count):
        e = 16
        while math.pi * (math.sqrt(e) - math.sqrt(2) / 2) ** 2 - 1 < count:
            e *= 2
        return cls(max_e=e)

    def lowest(self, count):
        return self.eigenvalues[:count]

    def counting(self, e):
        return np.searchsorted(self.eigenvalues, np.asarray(e), side="right")


def spectral_sums(lam_max):
    """(inv_below, invsq_above) of lattice.verify_spectral_sums from the sorted
    list: prefix sums over the eigenvalues, and each tail as the whole sum of
    1/lambda^2 minus a prefix, plus the integral tail bound."""
    e_max = 16 * lam_max
    lam = _enumerate_sq_norms(e_max).astype(np.float64)
    ls = np.arange(1, lam_max + 1, dtype=np.float64)
    inv_prefix = np.concatenate([[0.0], np.cumsum(1.0 / lam)])
    invsq_prefix = np.concatenate([[0.0], np.cumsum(1.0 / lam**2)])
    idx = np.searchsorted(lam, ls, side="right")
    inv_below = inv_prefix[idx]
    invsq_above = (invsq_prefix[-1] - invsq_prefix[idx]) + inverse_square_tail_bound(e_max)
    return inv_below, invsq_above


def lattice_count(e):
    """Exact N(E) by direct enumeration of 0 < |k|^2 <= E."""
    if e < 0:
        raise InvalidParameterError(f"E must be >= 0, got {e}")
    r = np.arange(-math.isqrt(int(e)), math.isqrt(int(e)) + 1)
    s = r[:, None] ** 2 + r[None, :] ** 2
    return int(np.count_nonzero((s > 0) & (s <= e)))


def lattice_count_radial(e):
    """Independent N(E): walk rings |k1| = r and count admissible k2 per ring."""
    if e < 1:
        return 0
    total = 0
    kmax = int(math.isqrt(int(e)))
    for k1 in range(-kmax, kmax + 1):
        budget = e - k1 * k1
        if budget < 0:
            continue
        total += 2 * int(math.isqrt(int(budget))) + 1
    return total - 1  # drop the origin


def ceil_at(x, decimals):
    """Round x upward at the given decimal place (summary convention for
    upper-bound constants); tolerates float fuzz just below a grid point."""
    f = 10.0**decimals
    return math.ceil(x * f - 1e-9) / f


# ----------------------------------------------------------------------------
# full complex transforms and the velocity-form advection terms


def to_physical(coeffs):
    """Full-layout inverse transform; shares no code with nsvlab.spectral's pair."""
    n = coeffs.shape[-1]
    return np.fft.ifft2(coeffs, axes=(-2, -1)).real * (n * n)


def pad_coeffs(c, n_out):
    """Embed (..., n, n) Fourier coefficients into a larger n_out grid."""
    n = c.shape[-1]
    if n_out == n:
        return c.copy()
    if n_out < n:
        raise InvalidParameterError(f"cannot pad {n} modes into {n_out}")
    shifted = np.fft.fftshift(c, axes=(-2, -1))
    out = np.zeros(c.shape[:-2] + (n_out, n_out), dtype=complex)
    lo = n_out // 2 - n // 2
    out[..., lo:lo + n, lo:lo + n] = shifted
    return np.fft.ifftshift(out, axes=(-2, -1))


def from_physical(values):
    n = values.shape[-1]
    return np.fft.fft2(values, axes=(-2, -1)) / (n * n)


def bilinear_b(u, v):
    """Dealiased B(u, v) = P((u.grad) v) in the velocity form: both inputs
    truncated to the 2/3 band, (u.grad) v formed in physical space, then
    truncated and Leray-projected."""
    require_role(u, VELOCITY, "bilinear_b")
    require_role(v, VELOCITY, "bilinear_b")
    if u.grid != v.grid:
        raise GridMismatchError("bilinear_b requires both fields on the same grid")
    grid = u.grid
    k = wavenumbers(grid)
    uh = u.coeffs * k.mask
    vh = v.coeffs * k.mask
    u_phys = to_physical(uh)
    adv = u_phys[0] * to_physical(1j * k.kx * vh) + u_phys[1] * to_physical(1j * k.ky * vh)
    out = from_physical(adv) * k.mask
    out[..., 0, 0] = 0.0
    return leray_project(SpectralField(grid, VELOCITY, out))


def advective_bilinear_coeffs(grid, psi):
    """u.grad w on the band in advective form, for u = grad-perp psi and
    w = -Lap psi: one inverse real transform of (u_x, u_y, d_x w, d_y w) per
    field of the stack, the products formed in physical space, one forward
    transform.  A frame stack [psi_u, psi_theta_1, ...] gives the rows
    [u.grad w_u, u.grad w_theta_j + theta_j.grad w_u]."""
    kx, ky, k2 = grid.band_k
    band_uw = np.stack([1j * ky, -1j * kx, 1j * kx * k2, 1j * ky * k2])
    stack = psi.reshape((-1,) + grid.band_shape)
    phys = sp.to_physical(sp.half_of(grid, band_uw * stack[:, None]))
    base = phys[0]
    adv = base[0] * phys[:, 2] + base[1] * phys[:, 3]
    adv[1:] += phys[1:, 0] * base[2] + phys[1:, 1] * base[3]
    return sp.band_of(grid, sp.from_physical(adv, grid.dealias_cutoff + 1)).reshape(psi.shape)


def scaled_to_physical(coeffs):
    """spectral.to_physical as an irfft2 with its n^2 scaling as a pass of its own."""
    n = coeffs.shape[-2]
    return np.fft.irfft2(coeffs[..., : n // 2 + 1], s=(n, n), axes=(-2, -1)) * (n * n)


def scaled_from_physical(values, cols=None):
    """spectral.from_physical with its 1/n^2 scaling as a pass of its own."""
    n = values.shape[-1]
    half = np.fft.rfft(values, axis=-1)[..., :cols]
    return np.fft.fft(half, axis=-2) / (n * n)


def allocating_bilinear_coeffs(grid, psi):
    """spectral.bilinear_coeffs on fresh arrays for every plane and product,
    over scaled_to_physical and scaled_from_physical."""
    stack = psi.reshape((-1,) + grid.band_shape)
    vel = scaled_to_physical(sp.half_of(grid, grid.band_u * stack[:, None]))
    (u, v), a, b = vel[0], vel[:, 0], vel[:, 1]
    pq = np.empty_like(vel)
    p, q = pq[:, 0], pq[:, 1]
    np.multiply(u, b, out=p)
    p += v * a
    np.multiply(u, a, out=q)
    q -= v * b
    pq[0] *= 0.5  # the base row is u polarized with itself
    pq_hat = sp.band_of(grid, scaled_from_physical(pq, grid.dealias_cutoff + 1))
    kx, ky = grid.band_k[:2]                       # the float curl-div multipliers
    return ((ky**2 - kx**2) * pq_hat[:, 0] + (2.0 * kx * ky) * pq_hat[:, 1]).reshape(psi.shape)


def advect_scalar_coeffs(grid, uc, sc):
    """Dealiased pseudo-spectral u.grad s for a scalar s (2/3 truncation)."""
    k = wavenumbers(grid)
    uh = uc * k.mask
    sh = sc * k.mask
    u_phys = to_physical(uh)
    dsdx = to_physical(1j * k.kx * sh)
    dsdy = to_physical(1j * k.ky * sh)
    adv = u_phys[..., 0, :, :] * dsdx + u_phys[..., 1, :, :] * dsdy
    out = from_physical(adv) * k.mask
    out[..., 0, 0] = 0.0
    return out


def advect_scalar(u, s):
    require_role(u, VELOCITY, "advect_scalar")
    require_role(s, VORTICITY, "advect_scalar")
    if u.grid != s.grid:
        raise GridMismatchError("advect_scalar requires both fields on the same grid")
    if not u.coeffs.any() or not s.coeffs.any():
        return sp.zero_field(s.grid, VORTICITY)
    return SpectralField(s.grid, VORTICITY, advect_scalar_coeffs(s.grid, u.coeffs, s.coeffs))


def rhs_velocity(u, cfg, g=None):
    """-nu A(1+aA)^{-1} u - (1+aA)^{-1} B(u,u) + (1+aA)^{-1} g."""
    if g is None:
        g = cfg.forcing.build(u.grid)
    total = g - bilinear_b(u, u) - cfg.nu * stokes_apply(u, 2.0)
    return helmholtz_solve(total, cfg.metric)


def rhs_vorticity(w, cfg, rot_g=None):
    """-(1-aD)^{-1}(u.grad w) + nu D (1-aD)^{-1} w + (1-aD)^{-1} rot g."""
    require_role(w, VORTICITY, "rhs_vorticity")
    if rot_g is None:
        rot_g = vorticity_of(cfg.forcing.build(w.grid))
    u = velocity_from_vorticity(w)
    total = rot_g - advect_scalar(u, w) - cfg.nu * stokes_apply(w, 2.0)
    return helmholtz_solve(total, cfg.metric)


# ----------------------------------------------------------------------------
# linearized operators and traces


def linearized_apply_velocity(theta, u, cfg):
    """L_u theta = -nu A(1+aA)^{-1} theta - (1+aA)^{-1}[B(theta,u) + B(u,theta)]."""
    require_role(theta, VELOCITY, "linearized_apply_velocity")
    require_role(u, VELOCITY, "linearized_apply_velocity")
    total = (-cfg.nu) * stokes_apply(theta, 2.0) \
        - bilinear_b(theta, u) - bilinear_b(u, theta)
    return helmholtz_solve(total, cfg.metric)


def linearized_apply_vorticity(phi, omega, cfg):
    """L_w phi = -(1-aD)^{-1}[u.grad phi + v_phi.grad w - nu D phi] with
    u, v_phi the divergence-free velocities of w and phi."""
    require_role(phi, VORTICITY, "linearized_apply_vorticity")
    require_role(omega, VORTICITY, "linearized_apply_vorticity")
    u = velocity_from_vorticity(omega)
    v_phi = velocity_from_vorticity(phi)
    total = (-cfg.nu) * stokes_apply(phi, 2.0) \
        - advect_scalar(u, phi) - advect_scalar(v_phi, omega)
    return helmholtz_solve(total, cfg.metric)


def trace_vorticity(phis, omega, cfg):
    """sum_j (L_w phi_j, phi_j)_alpha over scalar fields phi_j."""
    return sum(alpha_inner(linearized_apply_vorticity(phi, omega, cfg), phi, cfg.metric)
               for phi in phis)


def trace_velocity_reduced(frame, u, cfg):
    """The algebraically reduced velocity-form trace
    -nu sum ||grad theta_j||^2 - sum ((theta_j.grad) u, theta_j);
    the alpha weights cancel against (1+aA)^{-1} in the full trace."""
    total = 0.0
    for v in frame.vectors:
        theta = SpectralField(frame.grid, VELOCITY, sp.velocity_of(frame.grid, v))
        total -= cfg.nu * grad_norm_sq(theta)
        total -= l2_inner(bilinear_b(theta, u), theta)
    return total


def trace_vorticity_reduced(phis, omega, cfg):
    """Scalar-form counterpart: -nu sum ||grad phi_j||^2 - sum (v_j.grad w, phi_j)
    with v_j the stream-velocity of phi_j (the u.grad phi term is skew)."""
    total = 0.0
    for phi in phis:
        total -= cfg.nu * grad_norm_sq(phi)
        total -= l2_inner(advect_scalar(velocity_from_vorticity(phi), omega), phi)
    return total


def advection_trace_terms(frame, u):
    """(sum_j ((theta_j.grad) u, theta_j),  integral of rho |grad u|) with
    rho = sum |theta_j|^2; both by collocation quadrature on a doubled grid.
    The second times c_2 = sqrt(1/2) dominates the first for divergence-free u."""
    nq = 2 * frame.grid.n
    th = to_physical(pad_coeffs(sp.velocity_of(frame.grid, frame.vectors), nq))
    rho = np.sum(th**2, axis=(0, 1))
    uq = pad_coeffs(u.coeffs, nq)
    k1 = np.fft.fftfreq(nq, d=1.0 / nq)
    kx, ky = np.meshgrid(k1, k1, indexing="ij")
    dudx = to_physical(1j * kx * uq)
    dudy = to_physical(1j * ky * uq)
    grad_abs = np.sqrt(dudx[0] ** 2 + dudy[0] ** 2 + dudx[1] ** 2 + dudy[1] ** 2)
    cell = (2 * np.pi / nq) ** 2
    lhs = float(np.sum(th[:, 0] * (th[:, 0] * dudx[0] + th[:, 1] * dudy[0])
                       + th[:, 1] * (th[:, 0] * dudx[1] + th[:, 1] * dudy[1]))) * cell
    rhs = float(np.sum(rho * grad_abs)) * cell
    return lhs, rhs


# ----------------------------------------------------------------------------
# steppers


def rk4(f, y, dt):
    """One classical RK4 step of dy/dt = f(y)."""
    k1 = f(y)
    k2 = f(y + (0.5 * dt) * k1)
    k3 = f(y + (0.5 * dt) * k2)
    k4 = f(y + dt * k3)
    return y + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def if_rk4(f, y, dt, rate):
    """One Lawson integrating-factor RK4 step of dy/dt = -rate y + f(y):
    classical RK4 on v = e^{rate t} y, mapped back."""
    half = np.exp(-rate * (0.5 * dt))
    full = np.exp(-rate * dt)
    k1 = f(y)
    k2 = f(half * (y + (0.5 * dt) * k1))
    k3 = f(half * y + (0.5 * dt) * k2)
    k4 = f(full * y + dt * half * k3)
    return full * y + (dt / 6.0) * (full * k1 + 2.0 * half * (k2 + k3) + k4)


def allocating_rk4_step(rhs, c, dt, factors=None):
    """dynamics.rk4_step with a fresh array for every stage and sum, over an
    rhs(c) that returns a fresh derivative (allocating_scheme)."""
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


def stream_multipliers(cfg):
    """dynamics.stream_multipliers as float arrays: (L, 1/(|k|^2 (1+alpha|k|^2)))
    on the band, L = -nu|k|^2/(1+alpha|k|^2), zero at k = 0."""
    k2 = cfg.grid.band_k2
    smoothing = 1.0 + cfg.alpha * k2
    inverse = np.divide(1.0, k2 * smoothing, out=np.zeros_like(k2), where=k2 > 0)
    return -cfg.nu * k2 / smoothing, inverse


def allocating_scheme(cfg, psi_g):
    """dynamics.stream_scheme with an rhs(c) that returns a fresh array, over
    allocating_bilinear_coeffs and the float multipliers and factors:
    (rhs, factors) for allocating_rk4_step."""
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
            out -= inverse * allocating_bilinear_coeffs(grid, c)
        out_base += forcing
        return out

    return rhs, factors


def _velocity_step(cfg, g):
    """u -> u(t + dt): classical RK4 on rhs_velocity at alpha > 0, Lawson
    IF-RK4 with the viscous factor at alpha = 0."""
    grid = cfg.grid
    if cfg.alpha > 0:
        def f(c):
            return rhs_velocity(SpectralField(grid, VELOCITY, c), cfg, g).coeffs
        return lambda c: rk4(f, c, cfg.dt)

    def nonlinear(c):
        return (g - bilinear_b(SpectralField(grid, VELOCITY, c),
                                  SpectralField(grid, VELOCITY, c))).coeffs
    return lambda c: if_rk4(nonlinear, c, cfg.dt, cfg.nu * wavenumbers(grid).k2)


def integrate_velocity(cfg):
    """(final velocity, {diagnostics column: array}) sampled like dynamics.integrate."""
    grid = cfg.grid
    g = cfg.forcing.build(grid)
    step_fn = _velocity_step(cfg, g)
    nsteps = int(round(cfg.t_end / cfg.dt))
    c = cfg.initial.build(grid).coeffs.copy()
    rows = []
    for step in range(nsteps + 1):
        if step:
            c = step_fn(c)
        if step % cfg.sample_every == 0 or step == nsteps:
            u = SpectralField(grid, VELOCITY, c)
            rows.append((step * cfg.dt, sp.l2_norm_sq(u), grad_norm_sq(u),
                         alpha_norm_sq(u, cfg.metric)))
    t, e_l2, ens, e_al = (np.array(col) for col in zip(*rows))
    counts = np.arange(1, t.size + 1)
    columns = {"t": t, "energy_l2": e_l2, "enstrophy": ens, "energy_alpha": e_al,
               "avg_enstrophy": np.cumsum(ens) / counts,
               "avg_grad_l1": np.cumsum(np.sqrt(ens)) / counts}
    return SpectralField(grid, VELOCITY, c), columns


def integrate_vorticity(cfg, w0):
    """Advance a scalar vorticity field with classical RK4 on rhs_vorticity."""
    grid = cfg.grid
    rot_g = vorticity_of(cfg.forcing.build(grid))

    def f(c):
        return rhs_vorticity(SpectralField(grid, VORTICITY, c), cfg, rot_g).coeffs

    c = w0.coeffs.copy()
    for _ in range(int(round(cfg.t_end / cfg.dt))):
        c = rk4(f, c, cfg.dt)
    return SpectralField(grid, VORTICITY, c)


def evolve_frame(cfg, n, t_end, seed, reorth_every=10):
    """Tangent frame by the product system (u, theta_1, ..., theta_n), each
    vector advanced by classical RK4 on linearized_apply_velocity at the
    base's stage states.  Returns (event times, traces, exponents over the
    whole run)."""
    grid = cfg.grid
    g = cfg.forcing.build(grid)

    def field(c):
        return SpectralField(grid, VELOCITY, c)

    def f(y):
        u = field(y[0])
        out = [rhs_velocity(u, cfg, g).coeffs]
        out += [linearized_apply_velocity(field(th), u, cfg).coeffs for th in y[1:]]
        return np.stack(out)

    frame = lyp.TangentFrame.random(grid, n, cfg.metric, seed=seed)
    y = np.concatenate([cfg.initial.build(grid).coeffs[None], sp.velocity_of(grid, frame.vectors)])
    weights = alpha_weights(cfg.metric, grid)
    times, traces, logs = [], [], np.zeros(n)
    nsteps = int(round(t_end / cfg.dt))
    for step in range(1, nsteps + 1):
        y = rk4(f, y, cfg.dt)
        if step % reorth_every == 0 or step == nsteps:
            y[1:], norms = lyp.alpha_gram_schmidt(y[1:], weights)
            logs += np.log(norms)
            u = field(y[0])
            times.append(step * cfg.dt)
            traces.append(sum(alpha_inner(linearized_apply_velocity(field(th), u, cfg),
                                          field(th), cfg.metric) for th in y[1:]))
    return np.array(times), np.array(traces), logs / times[-1]


def integrate_band(cfg, snapshot_every=0, track_energy_budget=False):
    """dynamics.integrate as an explicit allocating_rk4_step loop on the band
    streamfunction, in integrate's arithmetic order.  Returns (final velocity
    coeffs, {diagnostics column: array}, [(t, snapshot velocity coeffs)],
    energy residual or None)."""
    grid = cfg.grid
    psi_g = dyn.forcing_stream(cfg)
    c, u0 = dyn.initial_state(cfg)
    rhs, factors = allocating_scheme(cfg, psi_g)
    nsteps = int(round(cfg.t_end / cfg.dt))
    w_l2 = TORUS_AREA * grid.band_count * grid.band_k2
    w_ens = w_l2 * grid.band_k2
    w_alpha = TORUS_AREA * cfg.metric.band_weights(grid)

    def budget_rate(c):
        ens = float(np.sum(w_ens * (c * np.conj(c)).real))
        inp = float(np.sum(w_l2 * (psi_g * np.conj(c)).real))
        return 2.0 * cfg.nu * ens - 2.0 * inp

    rows, snapshots = [], []

    def sample(step, c):
        sq = np.abs(c) ** 2
        rows.append((step * cfg.dt, float(np.sum(w_l2 * sq)), float(np.sum(w_ens * sq)),
                     float(np.sum(w_alpha * sq))))
        if snapshot_every and step % snapshot_every == 0:
            u = u0.coeffs.copy() if step == 0 else sp.velocity_of(grid, c)
            snapshots.append((step * cfg.dt, u))

    budget = 0.0
    e_alpha_start = float(np.sum(w_alpha * np.abs(c) ** 2))
    sample(0, c)
    for step in range(1, nsteps + 1):
        c, (s1, s2, s3, s4) = allocating_rk4_step(rhs, c, cfg.dt, factors)
        if track_energy_budget:
            budget += (cfg.dt / 6.0) * (budget_rate(s1) + 2 * budget_rate(s2)
                                        + 2 * budget_rate(s3) + budget_rate(s4))
        if step % cfg.sample_every == 0 or step == nsteps:
            sample(step, c)
    e_alpha_end = float(np.sum(w_alpha * np.abs(c) ** 2))
    residual = (e_alpha_end - e_alpha_start + budget) if track_energy_budget else None

    t, e_l2, ens, e_al = (np.asarray(col) for col in zip(*rows))
    counts = np.arange(1, t.size + 1)
    columns = {"t": t, "energy_l2": e_l2, "enstrophy": ens, "energy_alpha": e_al,
               "avg_enstrophy": np.cumsum(ens) / counts,
               "avg_grad_l1": np.cumsum(np.asarray([math.sqrt(e) for e in ens])) / counts}
    return sp.velocity_of(grid, c), columns, snapshots, residual


def evolve_frame_band(cfg, n, t_end, burn_in, seed, warmup, reorth_every=10):
    """lyapunov.evolve_tangent_frame with its warmup as explicit
    allocating_rk4_step loops on the band streamfunction, in its arithmetic
    order: the diagonal (L theta_j, theta_j)_alpha from the linearized stack
    directly.  Returns (event times, diagonal, exponents, final base velocity
    coeffs)."""
    grid = cfg.grid
    rhs, factors = allocating_scheme(cfg, dyn.forcing_stream(cfg))
    linear, inverse = stream_multipliers(cfg)
    base = dyn.initial_state(cfg)[0]
    for _ in range(int(round(warmup / cfg.dt))):
        base, _ = allocating_rk4_step(rhs, base, cfg.dt, factors)
    frame = lyp.TangentFrame.random(grid, n, cfg.metric, seed=seed)
    weights = frame.weights
    state = np.concatenate([base[None], frame.vectors])

    def inner(a, b):
        return TORUS_AREA * float(np.sum(weights * (a * np.conj(b)).real))

    nsteps = int(round(t_end / cfg.dt))
    times, diag, logs, prev_ts = [], [], [], []
    for step in range(1, nsteps + 1):
        state, _ = allocating_rk4_step(rhs, state, cfg.dt, factors)
        if step % reorth_every == 0 or step == nsteps:
            state[1:], norms = lyp.alpha_gram_schmidt(state[1:], weights)
            lv = linear * state[1:]
            if state[0].any():
                lv -= inverse * allocating_bilinear_coeffs(grid, state)[1:]
            prev_ts.append(times[-1] if times else 0.0)
            times.append(step * cfg.dt)
            diag.append([inner(lv[j], state[1 + j]) for j in range(n)])
            logs.append(np.log(norms))
    times, prev_ts, logs = np.asarray(times), np.asarray(prev_ts), np.asarray(logs)
    inside = prev_ts >= burn_in
    exponents = logs[inside].sum(axis=0) / (times[inside][-1] - prev_ts[inside][0])
    return times, np.asarray(diag), exponents, sp.velocity_of(grid, state[0])


# ----------------------------------------------------------------------------
# what the run functions derived inline from their records, before TraceSeries,
# NStarScan and DiagnosticsSeries derived it on construction


def trace_series_derived(times, diag, logs, burn_in):
    """evolve_tangent_frame's derivation after its loop, verbatim: {trace_inst,
    trace_avg, q_hats, exponents, window}, warning as it did."""
    n = diag.shape[1]
    prev_ts = np.concatenate([[0.0], times[:-1]])   # where each growth interval starts
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
        exp_sel = prev_ts >= burn_in
        if np.any(exp_sel):
            exponents = logs[exp_sel].sum(axis=0) / (times[exp_sel][-1] - prev_ts[exp_sel][0])
        else:
            warnings.warn(f"no growth interval starts at t >= burn_in = {burn_in:.3g} (last "
                          f"starts at t = {prev_ts[-1]:.3g}); exponents withheld",
                          dyn.InsufficientDurationWarning, stacklevel=2)
    else:
        warnings.warn(
            f"no re-orthonormalization at t >= burn_in = {burn_in:.3g} (run ends at "
            f"t = {times[-1]:.3g}); q_hat and exponents withheld",
            dyn.InsufficientDurationWarning, stacklevel=2)
    return {"trace_inst": traces, "trace_avg": trace_avg, "q_hats": q_hats,
            "exponents": exponents, "window": window}


def n_star_derived(q_hats):
    """scan_n_star's verdict on its final run's prefixes, verbatim: {q_hats,
    n_star, eventually_decreasing}."""
    negative = np.flatnonzero(q_hats < 0)
    return {"q_hats": {m: None if math.isnan(q) else float(q)
                       for m, q in enumerate(q_hats, start=1)},
            "n_star": int(negative[0]) + 1 if negative.size else None,
            "eventually_decreasing": bool(np.all(np.diff(q_hats[-3:]) < 0))}


def _cesaro(values):
    return np.cumsum(values) / np.arange(1, values.size + 1)


def diagnostics_derived(enstrophy, g_norm, nu):
    """integrate's running means and Grashof numbers, verbatim."""
    return {"avg_enstrophy": _cesaro(enstrophy), "avg_grad_l1": _cesaro(np.sqrt(enstrophy)),
            "grashof_g": g_norm / nu**2, "grashof_cal_g": g_norm * TORUS_AREA / nu**2}


# ----------------------------------------------------------------------------
# random draws, Gram-Schmidt and the trace diagonal on their earlier layouts


def random_field(grid, role, seed, decay=3.0, rng=None):
    """spectral.random_field filtered, masked and Leray-projected on the full
    layout (production draws on the band and expands once)."""
    if rng is None:
        rng = np.random.default_rng(seed)
    noise = rng.standard_normal(grid.coeff_shape(role))
    c = sp.full_layout(sp.from_physical(noise))
    c *= wavenumbers(grid).k2_safe ** (-decay / 2.0)
    c *= wavenumbers(grid).mask
    c[..., 0, 0] = 0.0
    f = SpectralField(grid, role, c)
    if role == VELOCITY:
        f = leray_project(f)
    return f


def full_of_band(grid, band):
    """The full (..., n, n) layout of a real field's band (..., 2K+1, K+1): each
    coefficient at its k, and off the k2 = 0 column its conjugate at -k."""
    n, k = grid.n, grid.dealias_cutoff
    k1, k2 = np.r_[0:k + 1, -k:0][:, None], np.arange(k + 1)
    full = np.zeros(band.shape[:-2] + (n, n), dtype=complex)
    full[..., k1 % n, k2] = band
    full[..., -k1 % n, -k2[1:] % n] = np.conj(band[..., 1:])
    return full


def weighted_inner(a, b, w):
    return TORUS_AREA * float(np.sum(w * (a * np.conj(b)).real))


def mgs_gram_schmidt(vectors, weights, tol=1e-12):
    """Modified Gram-Schmidt, one inner product per pair: the vectors, factors
    and DegenerateFrameError rule of lyapunov.alpha_gram_schmidt."""
    v = vectors.copy()
    factors = np.empty(v.shape[0])
    for j in range(v.shape[0]):
        original = math.sqrt(max(weighted_inner(v[j], v[j], weights), 0.0))
        for i in range(j):
            v[j] -= weighted_inner(v[j], v[i], weights) * v[i]
        r = math.sqrt(max(weighted_inner(v[j], v[j], weights), 0.0))
        if r <= tol * max(original, tol):
            raise DegenerateFrameError(index=j)
        v[j] /= r
        factors[j] = r
    return v, factors


def gram_matrix(vectors, weights):
    """lyapunov.gram_matrix as one complex product, TORUS_AREA Re((v w) v^H)."""
    v = vectors.reshape(len(vectors), -1)
    w = np.broadcast_to(weights, vectors.shape[1:]).reshape(-1)
    return TORUS_AREA * np.real((v * w) @ np.conj(v).T)


def sample_alpha_orthonormal(grid, n, seed, role, metric, decay=2.0, max_retries=5):
    """inequalities.sample_suborthonormal's alpha-orthonormal family drawn on
    the full layout (random_field) and orthonormalized there by
    mgs_gram_schmidt with the weights 1 + alpha|k|^2: (vectors, sub-seed)."""
    for attempt in range(max_retries):
        sub_seed = seed + 1000 * attempt
        rng = np.random.default_rng(sub_seed)
        vecs = np.stack([random_field(grid, role, 0, decay, rng).coeffs for _ in range(n)])
        try:
            return mgs_gram_schmidt(vecs, alpha_weights(metric, grid))[0], sub_seed
        except DegenerateFrameError as err:
            last_error = err
    raise last_error


def per_vector_bands(grid, role, decay, rng, m):
    """m fields drawn one spectral.random_band call at a time, stacked."""
    return np.stack([sp.random_band(grid, role, decay, rng) for _ in range(m)])


def per_vector_family(grid, n, kind="alpha-orthonormal", seed=0, role=VELOCITY,
                      metric=sp.AlphaMetric(1.0), decay=2.0, max_retries=5):
    """inequalities.sample_suborthonormal drawing its family one vector at a
    time (per_vector_bands), each attempt's draw and certificate in one loop."""
    last_error = None
    for attempt in range(max_retries):
        sub_seed = seed + 1000 * attempt
        bands = per_vector_bands(grid, role, decay, np.random.default_rng(sub_seed), n)
        if kind == "alpha-orthonormal":
            try:
                bands, _ = ineq.alpha_gram_schmidt(
                    bands, grid.band_count * (1.0 + metric.alpha * grid.band_k2))
            except DegenerateFrameError as err:
                last_error = err
                continue
        else:
            top = float(np.linalg.eigvalsh(ineq.gram_matrix(bands, grid.band_count))[-1])
            if top <= 0:
                last_error = DegenerateFrameError(index=0, message="zero random draw")
                continue
            bands = bands / math.sqrt(top)
        return ineq.SuborthonormalFamily(
            grid=grid, role=role, metric=metric, vectors=bands, kind=kind, seed=sub_seed,
            certificate=float(np.linalg.eigvalsh(ineq.gram_matrix(bands, grid.band_count))[-1]))
    raise DegenerateFrameError(
        index=getattr(last_error, "index", 0),
        message=f"no independent family after {max_retries} draws (seed {seed})")


def first_worst_sweep(target, families, check):
    """inequalities' sweep over families in report order: check(fam) gives a
    family's reports, and the family behind the first report of the largest
    ratio is kept."""
    reports, worst, witness = [], None, None
    for fam in families:
        for rep in check(fam):
            reports.append(rep)
            if worst is None or rep.ratio > worst.ratio:
                worst, witness = rep, fam
    return ineq.SweepReport(
        target=target, count=len(reports), worst_ratio=worst.ratio, worst_seed=worst.seed,
        all_passed=all(r.passed for r in reports),
        near_saturation=[r.seed for r in reports if r.extras.get("near_saturation")],
        reports=reports, witness=witness)


def alpha_major_rho_l2_sweep(grid, seeds, alphas, n=8, decay=2.0):
    """inequalities.run_rho_l2_sweep as a generator of every (alpha, seed)
    family in report order, each drawn from scratch (per_vector_family)."""
    def check(fam):
        rep = ineq.verify_rho_l2(fam)
        rep.extras["alpha"] = fam.metric.alpha
        return [rep]

    return first_worst_sweep("rho-l2", (
        per_vector_family(grid, n, "alpha-orthonormal", seed, VELOCITY, sp.AlphaMetric(alpha),
                          decay)
        for alpha in alphas for seed in seeds), check)


def whole_stack_rho_profile(vectors, grid, quad_factor=None):
    """inequalities.rho_profile sampling the whole family as one stack and
    summing its squared samples over the leading axes."""
    if vectors.shape[-2:] != grid.band_shape:
        sp.require_band(grid, vectors, "family")
        vectors = sp.band_of(grid, vectors)
    nq = ineq._exact_quad_n(grid) if quad_factor is None else quad_factor * grid.n
    phys = sp.to_physical(sp.half_of(grid, vectors, nq))
    np.square(phys, out=phys)
    return ineq.RhoProfile(values=np.sum(phys, axis=tuple(range(phys.ndim - 2))), quad_n=nq)


def positioned_sweep(target, checked):
    """inequalities' sweep of checked, triples (position, family, its reports)
    in any order: the reports listed by position, and the family behind the
    first of them with the largest ratio kept."""
    placed, worst, witness = [], None, None
    for position, fam, reps in checked:
        for k, rep in enumerate(reps):
            key = (-rep.ratio, position, k)
            placed.append((position, k, rep))
            if worst is None or key < worst[0]:
                worst, witness = (key, rep), fam
    if worst is None:
        raise InvalidParameterError(f"the {target} sweep needs at least one family")
    reports = [rep for *_, rep in sorted(placed, key=lambda p: p[:2])]
    return ineq.SweepReport(
        target=target, count=len(reports), worst_ratio=worst[1].ratio, worst_seed=worst[1].seed,
        all_passed=all(r.passed for r in reports),
        near_saturation=[r.seed for r in reports if r.extras.get("near_saturation")],
        reports=reports, witness=witness)


def sequential_lt_sweep(grid, seeds, n=8, kind="alpha-orthonormal", alpha=1.0):
    """inequalities.run_lt_sweep checking one family after another."""
    metric = sp.AlphaMetric(alpha)
    families = (ineq.sample_suborthonormal(grid, n, kind, seed, VELOCITY, metric)
                for seed in seeds)
    return positioned_sweep("lt", ((j, fam, [ineq.verify_lieb_thirring(fam)])
                              for j, fam in enumerate(families)))


def sequential_rho_l2_sweep(grid, seeds, alphas, n=8):
    """inequalities.run_rho_l2_sweep checking one seed's draw after another."""
    metrics = [sp.AlphaMetric(alpha) for alpha in alphas]

    def checked():
        for j, seed in enumerate(seeds):
            draw = ineq._draw(grid, n, seed, VELOCITY)
            for i, metric in enumerate(metrics):
                fam = ineq._family(grid, n, "alpha-orthonormal", seed, VELOCITY, metric, draw)
                rep = ineq.verify_rho_l2(fam)
                rep.extras["alpha"] = metric.alpha
                yield (i, j), fam, [rep]

    return positioned_sweep("rho-l2", checked())


def sequential_rho_linf_sweep(grid, seeds, lam_caps, n=8, alpha=1.0):
    """inequalities.run_rho_linf_sweep checking one family after another."""
    lam_caps = list(lam_caps)
    spectrum = ineq.LatticeSpectrum(max_e=max(16 * max(lam_caps), 64))
    sums = {cap: ineq.spectral_sum_extras(int(cap), spectrum) for cap in lam_caps}
    metric = sp.AlphaMetric(alpha)
    families = (ineq.sample_suborthonormal(grid, n, "alpha-orthonormal", seed, VORTICITY, metric)
                for seed in seeds)
    return positioned_sweep("rho-linf", ((j, fam, ineq._linf_reports(fam, lam_caps, sums))
                                         for j, fam in enumerate(families)))


def frame_random(grid, n, metric, seed):
    """lyapunov.TangentFrame.random's vectors through the full layout: each
    random_field's stream_of, orthonormalized by the production Gram-Schmidt."""
    rng = np.random.default_rng(seed)
    vecs = np.stack([sp.stream_of(grid, random_field(grid, VELOCITY, 0, 3.0, rng).coeffs)
                     for _ in range(n)])
    return lyp.alpha_gram_schmidt(vecs, metric.band_weights(grid))[0]


def trace_diagonal(cfg, state, weights):
    """lyapunov.trace_diagonal with its multipliers taken per call and one
    weighted inner product per theta row."""
    linear, inverse = stream_multipliers(cfg)
    lv = linear * state[1:]
    if state[0].any():
        lv -= inverse * sp.bilinear_coeffs(cfg.grid, state)[1:]
    return np.array([weighted_inner(lv[j], state[1 + j], weights) for j in range(len(lv))])


# ----------------------------------------------------------------------------
# criterion 7's forcing


def c7_forcing(grid, cal_g):
    """Criterion 7's two-mode forcing, a k = (0, 2) shear plus a k = (1, 1)
    mode, scaled to calG = ||g|| 4 pi^2 = cal_g at nu = 1: (ForcingSpec,
    ||g||).  Each caller forms its own alpha from ||g||."""
    raw = [((0, 2), (1.0 / 2j, 0.0)), ((1, 1), (0.1, -0.1))]
    probe = dyn.ForcingSpec.from_modes(raw).build(grid)
    scale = cal_g / (4 * math.pi**2) / math.sqrt(sp.l2_norm_sq(probe))
    forcing = dyn.ForcingSpec.from_modes([(k, (a[0] * scale, a[1] * scale)) for k, a in raw])
    return forcing, math.sqrt(sp.l2_norm_sq(forcing.build(grid)))


# ----------------------------------------------------------------------------
# snapshot writer


def save_field_text(f, alpha=0.0):
    """The text of a field snapshot, one Python-formatted row per coefficient."""
    lines = [
        fieldio.FIELD_MAGIC,
        f"# resolution_n={f.grid.n} dealias_cutoff={f.grid.dealias_cutoff} "
        f"role={f.role} alpha={alpha:.17g}",
        "# columns: component k1 k2 re im",
    ]
    n = f.grid.n
    coeffs = f.coeffs if f.role == VELOCITY else f.coeffs[None, ...]
    half = n // 2
    freq = [(i if i < n - half else i - n) for i in range(n)]
    for comp in range(coeffs.shape[0]):
        nonzero = np.argwhere(coeffs[comp] != 0)
        for i, j in nonzero:
            c = coeffs[comp, i, j]
            lines.append(f"{comp} {freq[i]} {freq[j]} {c.real:.17g} {c.imag:.17g}")
    return "\n".join(lines) + "\n"


# ----------------------------------------------------------------------------
# bounds and inequality reports with every formula and record field spelled out


def bound_entry_dict(e):
    return {
        "name": e.name,
        "formula_id": e.formula_id,
        "formula": e.formula,
        "value": e.value,
        "validity": e.validity,
        "detail": e.detail,
    }


def inequality_report_dict(rep):
    return {
        "target": rep.target, "n": rep.n, "seed": rep.seed,
        "lhs": rep.lhs, "rhs": rep.rhs, "ratio": rep.ratio,
        "passed": rep.passed, "warnings": rep.warnings, "extras": rep.extras,
    }


def _bound_basic(inp):
    a = inp.alpha_lambda1
    g = inp.grashof
    if inp.d == 2:
        formula = "(a+1)^2/(8*pi*a) * G^2"
        value = math.inf if a == 0 else (a + 1) ** 2 / (8 * math.pi * a) * g**2
    else:
        formula = "(a+1)^2/(6*pi*a^(3/2)) * G^2"
        value = math.inf if a == 0 else (a + 1) ** 2 / (6 * math.pi * a**1.5) * g**2
    validity = B.OUT_OF_RANGE if a == 0 else B.OK
    detail = "diverges at alpha=0" if a == 0 else ""
    return B.BoundEntry("basic trace bound", f"basic-{inp.d}d", formula, value, validity, detail)


def _bound_3d_refined(inp):
    a = inp.alpha_lambda1
    g = inp.grashof
    if a == 0:
        return B.BoundEntry(
            "refined 3d bound", "refined-3d", "C*(1+a)*G^(5/2)*((1+a)*a^(-3/4)*G^(3/2)+1)",
            math.inf, B.OUT_OF_RANGE, "diverges at alpha=0",
        )
    value = (1 + a) * g**2.5 * ((1 + a) * a**-0.75 * g**1.5 + 1)
    return B.BoundEntry(
        "refined 3d bound", "refined-3d",
        "C*(1+a)*G^(5/2)*((1+a)*a^(-3/4)*G^(3/2)+1)",
        value, B.MODULO_CONSTANT, "prefactor C set to 1",
    )


def _bound_3d_symmetric(inp):
    a = inp.alpha_lambda1
    g = inp.grashof
    if a == 0:
        return B.BoundEntry(
            "symmetric 3d form", "symmetric-3d", "a^(-3/4)*G^2*min[a^(-3/4), G^2]",
            math.inf, B.OUT_OF_RANGE, "diverges at alpha=0",
        )
    first, second = a**-0.75, g**2
    branch = "alpha" if first <= second else "grashof"
    value = a**-0.75 * g**2 * min(first, second)
    return B.BoundEntry(
        "symmetric 3d form", "symmetric-3d", "a^(-3/4)*G^2*min[a^(-3/4), G^2]",
        value, B.MODULO_CONSTANT, f"min attained by {branch} branch",
    )


def _bound_2d_log(inp):
    cg = inp.grashof_cal
    linear = B.CONSTANTS.linear_torus_coeff * cg
    logged = B.CONSTANTS.log_branch_coeff * cg ** (2 / 3) * (
        math.log(cg) + B.CONSTANTS.log_branch_offset) ** (1 / 3)
    value = min(linear, logged)
    branch = "linear" if linear <= logged else "log"
    alpha0 = inp.alpha0_linear
    validity = B.OK if inp.alpha <= alpha0 else B.OUT_OF_RANGE
    detail = f"min attained by {branch} branch; alpha0={alpha0:.6g}"
    if validity == B.OUT_OF_RANGE:
        detail += f"; alpha={inp.alpha:g} exceeds alpha0"
    return B.BoundEntry("log-form 2d torus bound", "log-2d-torus",
                        "min[c1*calG, c2*calG^(2/3)*(ln calG + b)^(1/3)]",
                        value, validity, detail)


def _classical_ns_bounds(inp):
    cg = inp.grashof_cal
    general = B.CONSTANTS.classical_calg_coeff * cg
    torus_linear = B.CONSTANTS.classical_torus_coeff * cg
    torus_log = B.CONSTANTS.log_branch_coeff_classical * cg ** (2 / 3) * (
        math.log(cg) + B.CONSTANTS.log_branch_offset_classical) ** (1 / 3)
    values = {
        "classical_calg": general,
        "classical_torus_linear": torus_linear,
        "classical_torus_log": torus_log,
    }
    values["min"] = min(values.values())
    return values


def thresholds_dict():
    """bounds.compute_thresholds() with its threshold fields listed."""
    p = {name: printed for name, _, _, printed in B.DECIMAL_SUMMARIES}

    def gap(linear, coeff, off):
        return lambda x: linear * x - coeff * x ** (2 / 3) * (math.log(x) + off) ** (1 / 3)

    def g0_fn(off):
        return B.bisect_root(gap(1.0, p["log_coeff"], off), 1e2, 1e6)

    cross_log = B.bisect_root(gap(p["linear_torus"], p["log_coeff"], p["log_offset"]), 1e6, 1e12)
    cross_classical = B.bisect_root(
        gap(p["classical_torus"], p["log_coeff_classical"], p["log_offset_classical"]), 1e6, 1e12)
    return {
        "g0": g0_fn(p["log_offset"]),
        "g0_variant_524": g0_fn(5.24),
        "crossover_log_vs_linear": cross_log,
        "crossover_classical": cross_classical,
    }


def bounds_report(inp):
    """bounds.build_report(inp)'s as_dict() and to_text(): each log branch,
    each alpha = 0 entry and each record's fields written out in full.  The
    quadratic and linear 2D entries are the production ones."""
    entries = [_bound_basic(inp)]
    derived = {
        "G": inp.grashof,
        "calG": inp.grashof_cal,
        "alpha_lambda1": inp.alpha_lambda1,
    }
    if inp.d == 3:
        entries.append(_bound_3d_refined(inp))
        entries.append(_bound_3d_symmetric(inp))
    else:
        entries.append(B.bound_2d_quadratic(inp))
        if inp.grashof_cal > 0:
            entries.append(B.bound_2d_linear(inp))
            derived["alpha0_linear"] = inp.alpha0_linear
            if inp.geometry == B.TORUS:
                entries.append(_bound_2d_log(inp))
        if inp.alpha == 0 and inp.grashof_cal > 0:
            classical = _classical_ns_bounds(inp)
            keys = (("classical_calg", "classical_torus_linear", "classical_torus_log")
                    if inp.geometry == B.TORUS else ("classical_calg",))
            for key in keys:
                entries.append(B.BoundEntry(
                    key.replace("_", " "), key.replace("_", "-"), key, classical[key], B.OK,
                ))
            if inp.geometry == B.TORUS:
                entries.append(B.BoundEntry(
                    "classical minimum", "classical-min", "min of the three",
                    classical["min"], B.OK,
                ))
        if inp.geometry == B.TORUS:
            derived.update({f"threshold_{k}": v for k, v in thresholds_dict().items()})
    payload = {
        "input": {
            "d": inp.d, "nu": inp.nu, "alpha": inp.alpha,
            "g_norm": inp.g_norm, "lambda1": inp.lambda1,
            "domain_measure": inp.domain_measure, "geometry": inp.geometry,
        },
        "derived": derived,
        "bounds": [bound_entry_dict(e) for e in entries],
    }
    rows = [("bound", "formula id", "value", "validity", "detail")]
    for e in entries:
        rows.append((e.name, e.formula_id, f"{e.value:.6g}", e.validity, e.detail))
    widths = [max(len(r[i]) for r in rows) for i in range(5)]
    lines = ["  ".join(c.ljust(w) for c, w in zip(r, widths)).rstrip() for r in rows]
    lines.insert(1, "  ".join("-" * w for w in widths))
    head = [f"{k} = {v:.6g}" for k, v in derived.items()]
    return payload, "\n".join(["; ".join(head)] + lines)


# ----------------------------------------------------------------------------
# the forcing and initial-data specs as two classes, each with its CLI mapper


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

    def build(self, grid) -> SpectralField:
        if self.kind == "zero":
            return sp.zero_field(grid, VELOCITY)
        if self.kind == "shear":
            return sp.shear_field(grid, self.amplitude, self.wavenumber)
        if self.kind == "modes":
            return sp.field_from_modes(grid, VELOCITY, self.modes)
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

    def build(self, grid) -> SpectralField:
        if self.kind == "zero":
            return sp.zero_field(grid, VELOCITY)
        if self.kind == "shear":
            return sp.shear_field(grid, self.amplitude, self.wavenumber)
        if self.kind == "random":
            f = sp.random_field(grid, VELOCITY, seed=self.seed, decay=self.decay)
            return f * self.amplitude
        if self.kind == "file":
            try:
                f = fieldio.load_field(self.path)
            except FileNotFoundError as err:
                raise InvalidParameterError(f"initial snapshot not found: {self.path}") from err
            return dyn._checked_velocity(grid, f, f"{self.path}: snapshot")
        if self.kind == "field":
            return dyn._checked_velocity(grid, self.fld, "initial field")
        raise InvalidParameterError(f"unknown initial kind {self.kind!r}")


def forcing_from(params: dict) -> ForcingSpec:
    f = params["forcing"]
    kind = f.get("kind", "zero")
    if kind == "zero":
        return ForcingSpec.zero()
    if kind == "shear":
        return ForcingSpec.shear(float(f.get("amplitude", 1.0)), int(f.get("wavenumber", 1)))
    modes = [((int(m[0]), int(m[1])), (m[2] + 1j * m[3], m[4] + 1j * m[5]))
             for m in f["modes"]]
    return ForcingSpec.from_modes(modes)


def initial_from(params: dict, seed: int) -> InitialSpec:
    ic = params["initial"]
    kind = ic.get("kind", "zero")
    if kind == "zero":
        return InitialSpec.zero()
    if kind == "shear":
        return InitialSpec.shear(float(ic.get("amplitude", 1.0)), int(ic.get("wavenumber", 1)))
    if kind == "random":
        return InitialSpec.random(seed=int(ic.get("seed", seed)),
                                  decay=float(ic.get("decay", 3.0)),
                                  amplitude=float(ic.get("amplitude", 1.0)))
    return InitialSpec.from_file(ic["path"])


# ----------------------------------------------------------------------------
# the CLI validator with every single-key range rule written out, as
# cli._constraint_problems checked them before SCHEMAS rows held the ranges


def constraint_problems(subcommand: str, p: dict) -> list[str]:
    problems = []

    def positive(name):
        if p.get(name) is not None and p[name] <= 0:
            problems.append(f"{name} must be > 0, got {p[name]}")

    def nonneg(name):
        if p.get(name) is not None and p[name] < 0:
            problems.append(f"{name} must be >= 0, got {p[name]}")

    if subcommand == "bounds":
        if p["d"] not in (2, 3):
            problems.append(f"d must be 2 or 3, got {p['d']}")
        positive("nu")
        nonneg("alpha")
        nonneg("gnorm")
        positive("lambda1")
        positive("measure")
        if p["geometry"] not in ("torus", "domain"):
            problems.append(f"geometry must be torus|domain, got {p['geometry']!r}")
    elif subcommand in ("simulate", "lyapunov"):
        positive("nu")
        nonneg("alpha")
        positive("dt")
        if p["n"] < 8 or p["n"] % 2:
            problems.append(f"n must be even and >= 8, got {p['n']}")
        for spec_key in ("forcing", "initial"):
            kind = p[spec_key].get("kind")
            allowed = {"forcing": ("zero", "shear", "modes"),
                       "initial": ("zero", "shear", "random", "file")}[spec_key]
            if kind not in allowed:
                problems.append(f"{spec_key}.kind must be one of {allowed}, got {kind!r}")
        rows = p["forcing"].get("modes")
        if p["forcing"].get("kind") == "modes" and not (
                isinstance(rows, list) and all(map(cli._is_mode_row, rows))):
            problems.append("forcing.modes must be a list of 6-number rows [k1, k2, re0, im0, "
                            f"re1, im1], finite, k1 and k2 integral, got {rows!r}")
        path = p["initial"].get("path")
        if p["initial"].get("kind") == "file" and not isinstance(path, str):
            problems.append(f"initial.path must be a string, got {path!r}")
        for block, flag_keys in cli.FLOW_FLAGS.items():
            keys = {**flag_keys, **cli.FLOW_CONFIG_KEYS[block]}
            problems.extend(f"unknown config key '{block}.{key}' for {subcommand}"
                            for key in sorted(p[block].keys() - keys.keys()))
            for key in sorted(keys.keys() & p[block].keys() - {"kind", "path", "modes"}):
                cli._coerce(f"{block}.{key}", p[block][key], keys[key], problems)
        ic_seed = p["initial"].get("seed")
        if isinstance(ic_seed, (int, float)) and ic_seed < 0:
            problems.append(f"initial.seed must be >= 0, got {ic_seed}")
        if subcommand == "simulate":
            nonneg("t_end")
            nonneg("snapshot_every")
            if p["sample_every"] < 1:
                problems.append(f"sample_every must be >= 1, got {p['sample_every']}")
        else:
            positive("window")
            nonneg("warmup")
            for key in ("frame_n", "reorth_every", "n_max"):
                if p[key] < 1:
                    problems.append(f"{key} must be >= 1, got {p[key]}")
            if p["burn_in"] < 0 and p["burn_in"] != -1:
                problems.append(f"burn_in must be >= 0, or -1 for the default, got {p['burn_in']}")
    elif subcommand == "verify":
        if p["target"] not in cli.VERIFY_TARGETS:
            problems.append(f"target must be one of {cli.VERIFY_TARGETS}, got {p['target']!r}")
        for key in ("jmax", "mmax", "families", "family_n", "lam_min", "lam_max", "sums_lam_max"):
            least = 2 if key == "jmax" else 1
            if p[key] < least:
                problems.append(f"{key} must be >= {least}, got {p[key]}")
        nonneg("alpha")
        if p["grid_n"] < 8 or p["grid_n"] % 2:
            problems.append(f"grid_n must be even and >= 8, got {p['grid_n']}")
        kinds = (ineq.ALPHA_ORTHONORMAL, ineq.GRAM_SCALED)
        if p["kind"] not in kinds:
            problems.append(f"kind must be one of {kinds}, got {p['kind']!r}")
        if p["lam_min"] > p["lam_max"]:
            problems.append(f"lam_min must be <= lam_max, got {p['lam_min']} > {p['lam_max']}")
        if not p["alphas"] or not all(isinstance(a, (int, float)) and not isinstance(a, bool)
                                      and 0 < a < math.inf for a in p["alphas"]):
            problems.append(f"alphas must be non-empty, each finite and > 0, got {p['alphas']!r}")
    return problems
