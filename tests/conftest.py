"""Shared fixtures."""

import pytest

from nsvlab import inequalities as ineq


@pytest.fixture
def profile_grids(monkeypatch):
    """The quad_factor of each rho_profile call the verifiers make in the test
    (None for the default exact-size grid)."""
    grids, real = [], ineq.rho_profile

    def counted(*args, **kwargs):
        grids.append(kwargs.get("quad_factor"))
        return real(*args, **kwargs)

    monkeypatch.setattr(ineq, "rho_profile", counted)
    return grids
