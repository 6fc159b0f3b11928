"""Reference implementations that exist only to cross-check nsvlab's kernels.

The velocity-form advection term B(u,v) on full complex FFTs (np.fft
directly, no nsvlab transform), field-level right-hand sides and
linearizations of the velocity and vorticity forms, a quadrature of the two
terms of the trace bound, plain steppers over them (classical RK4, Lawson
integrating-factor RK4, and a per-vector product-system RK4 for tangent
frames), and the per-coefficient snapshot writer.  Nothing here is fast;
each function is a direct transcription of its equation.

Velocity form:   du/dt = -nu A (1+aA)^{-1} u - (1+aA)^{-1} B(u,u) + (1+aA)^{-1} g
Vorticity form:  dw/dt = -(1-aD)^{-1} (u.grad w) + nu D (1-aD)^{-1} w + (1-aD)^{-1} rot g
"""

import numpy as np

from nsvlab import fieldio
from nsvlab import lyapunov as lyp
from nsvlab import spectral as sp
from nsvlab.errors import GridMismatchError
from nsvlab.inequalities import pad_coeffs
from nsvlab.spectral import VELOCITY, VORTICITY, SpectralField

# ----------------------------------------------------------------------------
# full complex transforms and the velocity-form advection terms


def to_physical(coeffs):
    """Full-layout inverse transform; shares no code with nsvlab.spectral's pair."""
    n = coeffs.shape[-1]
    return np.fft.ifft2(coeffs, axes=(-2, -1)).real * (n * n)


def from_physical(values):
    n = values.shape[-1]
    return np.fft.fft2(values, axes=(-2, -1)) / (n * n)


def bilinear_b(u, v):
    """Dealiased B(u, v) = P((u.grad) v) in the velocity form: both inputs
    truncated to the 2/3 band, (u.grad) v formed in physical space, then
    truncated and Leray-projected."""
    sp.require_role(u, VELOCITY, "bilinear_b")
    sp.require_role(v, VELOCITY, "bilinear_b")
    if u.grid != v.grid:
        raise GridMismatchError("bilinear_b requires both fields on the same grid")
    grid = u.grid
    mask = grid.dealias_mask
    uh = u.coeffs * mask
    vh = v.coeffs * mask
    u_phys = to_physical(uh)
    adv = u_phys[0] * to_physical(1j * grid.kx * vh) + u_phys[1] * to_physical(1j * grid.ky * vh)
    out = from_physical(adv) * mask
    out[..., 0, 0] = 0.0
    return sp.leray_project(SpectralField(grid, VELOCITY, out))


def advect_scalar_coeffs(grid, uc, sc):
    """Dealiased pseudo-spectral u.grad s for a scalar s (2/3 truncation)."""
    mask = grid.dealias_mask
    uh = uc * mask
    sh = sc * mask
    u_phys = to_physical(uh)
    dsdx = to_physical(1j * grid.kx * sh)
    dsdy = to_physical(1j * grid.ky * sh)
    adv = u_phys[..., 0, :, :] * dsdx + u_phys[..., 1, :, :] * dsdy
    out = from_physical(adv) * mask
    out[..., 0, 0] = 0.0
    return out


def advect_scalar(u, s):
    sp.require_role(u, VELOCITY, "advect_scalar")
    sp.require_role(s, VORTICITY, "advect_scalar")
    if u.grid != s.grid:
        raise GridMismatchError("advect_scalar requires both fields on the same grid")
    if not u.coeffs.any() or not s.coeffs.any():
        return sp.zero_field(s.grid, VORTICITY)
    return SpectralField(s.grid, VORTICITY, advect_scalar_coeffs(s.grid, u.coeffs, s.coeffs))


def rhs_velocity(u, cfg, g=None):
    """-nu A(1+aA)^{-1} u - (1+aA)^{-1} B(u,u) + (1+aA)^{-1} g."""
    if g is None:
        g = cfg.forcing.build(u.grid)
    total = g - bilinear_b(u, u) - cfg.nu * sp.stokes_apply(u, 2.0)
    return sp.helmholtz_solve(total, cfg.metric)


def rhs_vorticity(w, cfg, rot_g=None):
    """-(1-aD)^{-1}(u.grad w) + nu D (1-aD)^{-1} w + (1-aD)^{-1} rot g."""
    sp.require_role(w, VORTICITY, "rhs_vorticity")
    if rot_g is None:
        rot_g = sp.vorticity_of(cfg.forcing.build(w.grid))
    u = sp.velocity_from_vorticity(w)
    total = rot_g - advect_scalar(u, w) - cfg.nu * sp.stokes_apply(w, 2.0)
    return sp.helmholtz_solve(total, cfg.metric)


# ----------------------------------------------------------------------------
# linearized operators and traces


def linearized_apply_velocity(theta, u, cfg):
    """L_u theta = -nu A(1+aA)^{-1} theta - (1+aA)^{-1}[B(theta,u) + B(u,theta)]."""
    sp.require_role(theta, VELOCITY, "linearized_apply_velocity")
    sp.require_role(u, VELOCITY, "linearized_apply_velocity")
    total = (-cfg.nu) * sp.stokes_apply(theta, 2.0) \
        - bilinear_b(theta, u) - bilinear_b(u, theta)
    return sp.helmholtz_solve(total, cfg.metric)


def linearized_apply_vorticity(phi, omega, cfg):
    """L_w phi = -(1-aD)^{-1}[u.grad phi + v_phi.grad w - nu D phi] with
    u, v_phi the divergence-free velocities of w and phi."""
    sp.require_role(phi, VORTICITY, "linearized_apply_vorticity")
    sp.require_role(omega, VORTICITY, "linearized_apply_vorticity")
    u = sp.velocity_from_vorticity(omega)
    v_phi = sp.velocity_from_vorticity(phi)
    total = (-cfg.nu) * sp.stokes_apply(phi, 2.0) \
        - advect_scalar(u, phi) - advect_scalar(v_phi, omega)
    return sp.helmholtz_solve(total, cfg.metric)


def trace_vorticity(frame, omega, cfg):
    """sum_j (L_w phi_j, phi_j)_alpha over a scalar frame."""
    return sum(sp.alpha_inner(linearized_apply_vorticity(frame.field(j), omega, cfg),
                              frame.field(j), frame.metric) for j in range(frame.n))


def trace_velocity_reduced(frame, u, cfg):
    """The algebraically reduced velocity-form trace
    -nu sum ||grad theta_j||^2 - sum ((theta_j.grad) u, theta_j);
    the alpha weights cancel against (1+aA)^{-1} in the full trace."""
    total = 0.0
    for j in range(frame.n):
        theta = frame.field(j)
        total -= cfg.nu * sp.grad_norm_sq(theta)
        total -= sp.l2_inner(bilinear_b(theta, u), theta)
    return total


def trace_vorticity_reduced(frame, omega, cfg):
    """Scalar-form counterpart: -nu sum ||grad phi_j||^2 - sum (v_j.grad w, phi_j)
    with v_j the stream-velocity of phi_j (the u.grad phi term is skew)."""
    total = 0.0
    for j in range(frame.n):
        phi = frame.field(j)
        total -= cfg.nu * sp.grad_norm_sq(phi)
        total -= sp.l2_inner(advect_scalar(sp.velocity_from_vorticity(phi), omega), phi)
    return total


def advection_trace_terms(frame, u):
    """(sum_j ((theta_j.grad) u, theta_j),  integral of rho |grad u|) with
    rho = sum |theta_j|^2; both by collocation quadrature on a doubled grid.
    The second times c_2 = sqrt(1/2) dominates the first for divergence-free u."""
    nq = 2 * frame.grid.n
    th = to_physical(pad_coeffs(frame.vectors, nq))
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
    return lambda c: if_rk4(nonlinear, c, cfg.dt, cfg.nu * grid.k2)


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
            rows.append((step * cfg.dt, sp.l2_norm_sq(u), sp.grad_norm_sq(u),
                         sp.alpha_norm_sq(u, cfg.metric)))
    t, e_l2, ens, e_al = (np.array(col) for col in zip(*rows))
    counts = np.arange(1, t.size + 1)
    columns = {"t": t, "energy_l2": e_l2, "enstrophy": ens, "energy_alpha": e_al,
               "avg_enstrophy": np.cumsum(ens) / counts,
               "avg_grad_l1": np.cumsum(np.sqrt(ens)) / counts}
    return SpectralField(grid, VELOCITY, c), columns


def integrate_vorticity(cfg, w0):
    """Advance a scalar vorticity field with classical RK4 on rhs_vorticity."""
    grid = cfg.grid
    rot_g = sp.vorticity_of(cfg.forcing.build(grid))

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
    y = np.concatenate([cfg.initial.build(grid).coeffs[None], frame.vectors])
    times, traces, logs = [], [], np.zeros(n)
    nsteps = int(round(t_end / cfg.dt))
    for step in range(1, nsteps + 1):
        y = rk4(f, y, cfg.dt)
        if step % reorth_every == 0 or step == nsteps:
            frame, norms = lyp.alpha_gram_schmidt(lyp.TangentFrame.from_fields(
                [field(th) for th in y[1:]], cfg.metric))
            y[1:] = frame.vectors
            logs += np.log(norms)
            u = field(y[0])
            times.append(step * cfg.dt)
            traces.append(sum(sp.alpha_inner(linearized_apply_velocity(frame.field(j), u, cfg),
                                             frame.field(j), cfg.metric) for j in range(n)))
    return np.array(times), np.array(traces), logs / times[-1]


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
