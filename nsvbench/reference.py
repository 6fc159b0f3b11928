"""Independent references for the benchmark's correctness checks.

Everything here is written from the equations with plain numpy; nothing is
imported from nsvlab.  Conventions follow the documented file format and the
analytic Fourier convention u(x) = sum_k u_hat(k) exp(i k.x) on [0, 2pi]^2.
"""

from __future__ import annotations

import math

import numpy as np

TORUS_AREA = 4.0 * math.pi**2


def read_field(path):
    """Parse a `# nsvlab-field v1` velocity snapshot into (2, n, n) coefficients."""
    with open(path) as fh:
        if fh.readline().strip() != "# nsvlab-field v1":
            raise ValueError(f"{path}: not a field snapshot")
        header = dict(tok.split("=", 1) for tok in fh.readline().lstrip("# ").split())
        fh.readline()
        rows = np.loadtxt(fh, ndmin=2)
    n = int(header["resolution_n"])
    coeffs = np.zeros((2, n, n), dtype=complex)
    if rows.size:
        comp = rows[:, 0].astype(int)
        i = rows[:, 1].astype(int) % n
        j = rows[:, 2].astype(int) % n
        coeffs[comp, i, j] = rows[:, 3] + 1j * rows[:, 4]
    return coeffs


def read_csv_columns(path):
    """A diagnostics CSV as {column: float array}."""
    with open(path) as fh:
        names = fh.readline().strip().split(",")
        data = np.loadtxt(fh, delimiter=",", ndmin=2)
    return {name: data[:, i] for i, name in enumerate(names)}


def wavenumbers(n):
    k = np.fft.fftfreq(n, d=1.0 / n)
    kx, ky = np.meshgrid(k, k, indexing="ij")
    return kx, ky


def modes_to_coeffs(n, modes):
    """Real velocity field from rows [k1, k2, re0, im0, re1, im1] (amplitude at
    +k, conjugate at -k), Leray-projected."""
    c = np.zeros((2, n, n), dtype=complex)
    for k1, k2, re0, im0, re1, im1 in modes:
        amp = np.array([re0 + 1j * im0, re1 + 1j * im1])
        c[:, int(k1) % n, int(k2) % n] += amp
        c[:, -int(k1) % n, -int(k2) % n] += np.conj(amp)
    return leray(c)


def leray(c):
    kx, ky = wavenumbers(c.shape[-1])
    k2 = kx**2 + ky**2
    k2[0, 0] = 1.0
    kdot = (kx * c[0] + ky * c[1]) / k2
    return np.stack([c[0] - kx * kdot, c[1] - ky * kdot])


def energy(c, alpha):
    """Parseval ||u||^2 + alpha ||grad u||^2 of a (2, n, n) coefficient array."""
    kx, ky = wavenumbers(c.shape[-1])
    return TORUS_AREA * float(np.sum((1.0 + alpha * (kx**2 + ky**2)) * np.abs(c) ** 2))


def band_and_divergence(c):
    """(largest |coefficient| outside the 2/3 band, largest |k.u_hat|), both
    relative to the largest |coefficient|."""
    n = c.shape[-1]
    kx, ky = wavenumbers(n)
    cutoff = n // 3
    outside = (np.abs(kx) > cutoff) | (np.abs(ky) > cutoff)
    scale = max(float(np.max(np.abs(c))), 1e-300)
    return (float(np.max(np.abs(c[:, outside]), initial=0.0)) / scale,
            float(np.max(np.abs(kx * c[0] + ky * c[1]))) / scale)


class ForcedNSV:
    """du/dt = -nu A (1 + alpha A)^{-1} u + (1 + alpha A)^{-1} (g - P (u.grad) u)
    on an n x n grid, 2/3-rule dealiased, advanced by classical RK4 for
    alpha > 0 and by integrating-factor RK4 (Lawson) for alpha = 0."""

    def __init__(self, n, nu, alpha, g):
        self.n, self.nu, self.alpha, self.g = n, nu, alpha, g
        self.kx, self.ky = wavenumbers(n)
        self.k2 = self.kx**2 + self.ky**2
        cutoff = n // 3
        self.mask = (np.abs(self.kx) <= cutoff) & (np.abs(self.ky) <= cutoff)

    def _phys(self, c):
        return np.fft.ifft2(c).real * (self.n * self.n)

    def advection(self, c):
        """P[(u.grad) u], dealiased."""
        ch = c * self.mask
        u = [self._phys(ch[0]), self._phys(ch[1])]
        out = np.empty_like(c)
        for i in range(2):
            dx = self._phys(1j * self.kx * ch[i])
            dy = self._phys(1j * self.ky * ch[i])
            out[i] = np.fft.fft2(u[0] * dx + u[1] * dy) / (self.n * self.n)
        out *= self.mask
        out[:, 0, 0] = 0.0
        return leray(out)

    def rk4(self, c, dt, steps):
        def rhs(v):
            out = (self.g - self.advection(v) - self.nu * self.k2 * v) / (1.0 + self.alpha * self.k2)
            out[:, 0, 0] = 0.0
            return out

        for _ in range(steps):
            k1 = rhs(c)
            k2 = rhs(c + 0.5 * dt * k1)
            k3 = rhs(c + 0.5 * dt * k2)
            k4 = rhs(c + dt * k3)
            c = c + dt / 6.0 * (k1 + 2 * k2 + 2 * k3 + k4)
        return c

    def if_rk4(self, c, dt, steps):
        if self.alpha != 0:
            raise ValueError("the integrating-factor stepper is the alpha = 0 scheme")
        full = np.exp(-self.nu * self.k2 * dt)
        half = np.exp(-self.nu * self.k2 * dt / 2)

        def nl(v):
            out = self.g - self.advection(v)
            out[:, 0, 0] = 0.0
            return out

        for _ in range(steps):
            n1 = nl(c)
            a = half * (c + 0.5 * dt * n1)
            n2 = nl(a)
            b = half * c + 0.5 * dt * n2
            n3 = nl(b)
            d = full * c + dt * half * n3
            n4 = nl(d)
            c = full * c + dt / 6.0 * (full * n1 + 2 * half * (n2 + n3) + n4)
        return c


def count_eigenvalues(e):
    """N(E): nonzero integer points k with |k|^2 <= E, counted row by row."""
    r = math.isqrt(int(e))
    return sum(2 * math.isqrt(int(e) - k1 * k1) + 1 for k1 in range(-r, r + 1)) - 1
