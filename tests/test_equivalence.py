"""The production stepper against the field-level oracles in tests/oracles.py.

dynamics.integrate and lyapunov.evolve_tangent_frame step through one
shared RK4 / integrating-factor RK4 function on coefficient arrays; the
oracles step the SpectralField right-hand sides with plain RK4 loops.  The
arithmetic order differs, so agreement is to round-off, not bitwise.
"""

import warnings

import numpy as np
import pytest

from nsvlab import dynamics as dyn
from nsvlab import lyapunov as lyp
from nsvlab.spectral import SpectralGrid

import oracles

GRID = SpectralGrid(16)
RTOL = 1e-12
FORCING = dyn.ForcingSpec.from_modes([((0, 2), (-2.0j, 0.0)), ((1, 1), (0.4, -0.4))])


def rel_err(got, ref):
    return float(np.max(np.abs(got - ref))) / float(np.max(np.abs(ref)))


def forced_cfg(alpha, t_end, **kw):
    return dyn.SimConfig(nu=1.0, alpha=alpha, grid=GRID, dt=0.01, t_end=t_end,
                         forcing=FORCING, initial=dyn.InitialSpec.random(seed=4, amplitude=2.0),
                         **kw)


@pytest.mark.parametrize("alpha", [0.3, 0.0])
def test_integrate_matches_oracle_stepper(alpha):
    cfg = forced_cfg(alpha, 1.2, sample_every=7)         # 120 steps
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", dyn.CflWarning)
        res = dyn.integrate(cfg)
    final, columns = oracles.integrate_velocity(cfg)
    assert rel_err(res.final.coeffs, final.coeffs) <= RTOL
    assert rel_err(res.final.coeffs, cfg.initial.build(GRID).coeffs) > 1e-3   # the state moved
    for name, ref in columns.items():
        got = getattr(res.diagnostics, name)
        assert got.shape == ref.shape, name
        assert rel_err(got, ref) <= RTOL, name


def test_tangent_frame_matches_product_system_oracle():
    cfg = forced_cfg(0.3, 1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", dyn.InsufficientDurationWarning)
        series = lyp.evolve_tangent_frame(cfg, 3, 1.0, burn_in=0.0, seed=2, reorth_every=10)
    times, traces, exponents = oracles.evolve_frame(cfg, 3, 1.0, seed=2, reorth_every=10)
    np.testing.assert_array_equal(series.times, times)
    assert rel_err(series.trace_inst, traces) <= RTOL
    assert rel_err(series.exponents, exponents) <= RTOL


def test_tangent_frame_base_follows_integrate():
    # at alpha = 0 the frame's base flow takes the integrating-factor steps of
    # integrate itself: the same scheme, so the same state bit for bit
    cfg = forced_cfg(0.0, 1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        series = lyp.evolve_tangent_frame(cfg, 2, 1.0, burn_in=0.0, seed=1)
        res = dyn.integrate(cfg)
    np.testing.assert_array_equal(series.base_final.coeffs, res.final.coeffs)
