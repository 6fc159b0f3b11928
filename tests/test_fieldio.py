"""Snapshot format round-trips, atomic writes, and manifests."""

import hashlib
import json
import math
import os
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from nsvlab import dynamics as dyn, fieldio, lyapunov as lyp, spectral as sp
from nsvlab.errors import InvalidParameterError
from nsvlab.spectral import VELOCITY, VORTICITY, SpectralField, SpectralGrid

import oracles

GRID = SpectralGrid(32)


def holed_field():
    # exact zeros inside the band, a lone imaginary-only and a real-only row
    f = sp.random_field(GRID, VELOCITY, seed=2, decay=2.0)
    c = f.coeffs.copy()
    c[0, 1:4, 2] = 0.0
    c[1, 5, :] = 0.0
    c[0, 3, 3] = 1j * c[0, 3, 3].imag
    c[1, 2, 7] = c[1, 2, 7].real
    return SpectralField(GRID, VELOCITY, c)


def forced_snapshot():
    # an n = 64 state of the forced flow at alpha = 0.99 alpha0, as a forced run
    # writes it: every +-k pair stored as conjugates
    grid = SpectralGrid(64)
    forcing, g_norm = oracles.c7_forcing(grid, 1000.0)
    cfg = dyn.SimConfig(nu=1.0, alpha=0.99 / (g_norm * math.pi**2), grid=grid, dt=0.01,
                        t_end=0.1, forcing=forcing,
                        initial=dyn.InitialSpec.random(seed=42, decay=3.0, amplitude=2.0))
    return dyn.integrate(cfg).final


def non_hermitian_field():
    # independent random parts over the full layout: no two magnitudes pair up
    rng = np.random.default_rng(7)
    shape = GRID.coeff_shape(VELOCITY)
    coeffs = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    return SpectralField(GRID, VELOCITY, coeffs)


#: (re, im) parts that test the sign and notation of %.17g: signed zeros beside a
#: nonzero partner, infinities, NaN with and without its sign bit, the smallest
#: subnormal, and the magnitudes where %g switches notation (exponent -5 and 17);
#: the last coefficient has two zero parts and is not stored
SPECIAL_PARTS = [
    (-0.0, 1.5), (2.5, -0.0), (0.0, -3.0), (-4.0, 0.0), (math.inf, -math.inf),
    (-math.inf, 0.0), (math.nan, 1.0), (np.copysign(math.nan, -1.0), -1.0),
    (-2.0, np.copysign(math.nan, -1.0)), (5e-324, -5e-324), (-0.0, 5e-324),
    (1e-5, -1e-5), (np.nextafter(1e-5, 0.0), np.nextafter(1e-5, 1.0)), (1e-4, -9.999e-5),
    (1e16, -1e16), (np.nextafter(1e16, 0.0), 9999999999999998.0), (1e17, -1e17),
    (np.nextafter(1e17, 0.0), np.nextafter(1e17, math.inf)), (-0.0, -0.0),
]


def parts_field(parts, grid=GRID, role=VELOCITY):
    """A field holding the (re, im) parts in its first coefficients, row-major."""
    coeffs = np.zeros(grid.coeff_shape(role), dtype=complex)
    flat = coeffs.reshape(-1)
    flat.real[:len(parts)] = [re for re, _ in parts]
    flat.imag[:len(parts)] = [im for _, im in parts]
    return SpectralField(grid, role, coeffs)


class TestSnapshots:
    def test_velocity_roundtrip_exact(self, tmp_path):
        f = sp.random_field(GRID, VELOCITY, seed=0, decay=2.0)
        path = tmp_path / "u.field"
        fieldio.save_field(f, path, alpha=0.75)
        back, meta = fieldio.load_snapshot(path)
        np.testing.assert_array_equal(back.coeffs, f.coeffs)
        assert back.role == VELOCITY
        assert meta == {"resolution_n": 32, "dealias_cutoff": 10,
                        "role": "velocity", "alpha": 0.75}

    def test_vorticity_roundtrip_exact(self, tmp_path):
        f = sp.random_field(GRID, VORTICITY, seed=1, decay=2.0)
        path = tmp_path / "w.field"
        fieldio.save_field(f, path)
        back = fieldio.load_field(path)
        np.testing.assert_array_equal(back.coeffs, f.coeffs)
        assert back.role == VORTICITY

    def test_header_format(self, tmp_path):
        f = sp.shear_field(GRID, 1.0)
        path = tmp_path / "s.field"
        fieldio.save_field(f, path, alpha=1.0)
        lines = path.read_text().splitlines()
        assert lines[0] == "# nsvlab-field v1"
        assert lines[1] == "# resolution_n=32 dealias_cutoff=10 role=velocity alpha=1"
        assert lines[2] == "# columns: component k1 k2 re im"
        # shear mode: exactly two stored coefficients, component 0
        assert len(lines) == 5
        assert all(row.split()[0] == "0" for row in lines[3:])

    @pytest.mark.parametrize("make", [
        lambda: sp.random_field(GRID, VELOCITY, seed=0, decay=2.0),
        lambda: sp.random_field(GRID, VORTICITY, seed=1, decay=2.0),
        holed_field,
        forced_snapshot,
        non_hermitian_field,
        lambda: parts_field(SPECIAL_PARTS),
        lambda: parts_field(SPECIAL_PARTS, role=VORTICITY),
    ], ids=["velocity", "vorticity", "zeros-in-band", "forced-n64", "non-hermitian",
            "special-parts", "special-parts-scalar"])
    def test_writer_bytes_match_the_per_coefficient_writer(self, tmp_path, make):
        f = make()
        path = tmp_path / "f.field"
        for alpha in (0.0, 0.3, 1 / 3):
            digest = fieldio.save_field(f, path, alpha=alpha)
            assert path.read_bytes() == oracles.save_field_text(f, alpha=alpha).encode()
            assert digest == hashlib.sha256(path.read_bytes()).hexdigest()
        # the writer process writes the same bytes, and a copy of them, and
        # replies with their hash
        written, saved, copied = [], tmp_path / "w.field", tmp_path / "c.field"
        with fieldio.FieldWriter(lambda *reply: written.append(reply)) as writer:
            writer.save(f, saved, 1 / 3)
            writer.copy(saved, copied)
        assert saved.read_bytes() == copied.read_bytes() == path.read_bytes()
        assert written == [(str(saved), digest), (str(copied), digest)]

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(st.floats(), st.floats()), min_size=1, max_size=64))
    def test_rows_print_each_part_as_17g(self, parts):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "f.field"
            fieldio.save_field(parts_field(parts, SpectralGrid(8), VORTICITY), path)
            rows = path.read_text().splitlines()[3:]
        stored = [(re, im) for re, im in parts if not (re == 0 and im == 0)]
        assert [row.split()[3:] for row in rows] == [["%.17g" % re, "%.17g" % im]
                                                     for re, im in stored]

    def test_special_parts_round_trip(self, tmp_path):
        # every finite or infinite part comes back bit for bit, -0 included; a
        # NaN part comes back as NaN without its sign; an unstored coefficient as +0
        path = tmp_path / "f.field"
        f = parts_field(SPECIAL_PARTS)
        fieldio.save_field(f, path)
        back = fieldio.load_field(path).coeffs
        stored = f.coeffs != 0
        for sent, got in ((f.coeffs.real, back.real), (f.coeffs.imag, back.imag)):
            want = np.where(stored, sent, 0.0)
            nan = np.isnan(want)
            np.testing.assert_array_equal(np.isnan(got), nan)
            assert not np.signbit(got[nan]).any()
            assert (got[~nan].view(np.uint64) == want[~nan].view(np.uint64)).all()

    def test_rejects_garbage(self, tmp_path):
        path = tmp_path / "bad.field"
        path.write_text("not a snapshot\n")
        with pytest.raises(InvalidParameterError):
            fieldio.load_snapshot(path)

    def test_rejects_malformed_rows(self, tmp_path):
        f = sp.shear_field(GRID, 1.0)
        path = tmp_path / "s.field"
        fieldio.save_field(f, path)
        text = path.read_text() + "0 1\n"
        path.write_text(text)
        with pytest.raises(InvalidParameterError):
            fieldio.load_snapshot(path)


class TestAtomicWrite:
    def test_no_partial_after_success(self, tmp_path):
        path = tmp_path / "x.json"
        fieldio.atomic_write_text(path, "{}")
        assert path.exists()
        assert not (tmp_path / "x.json.partial").exists()

    def test_partial_left_on_failure(self, tmp_path, monkeypatch):
        path = tmp_path / "y.json"

        def boom(*args):
            raise OSError("disk full")

        monkeypatch.setattr(os, "replace", boom)
        with pytest.raises(OSError):
            fieldio.atomic_write_text(path, "data")
        assert not path.exists()
        assert (tmp_path / "y.json.partial").read_text() == "data"


class TestCsv:
    def test_series_csv_bytes(self, tmp_path):
        # both series write through fieldio.write_csv: %.12g cells, \r\n line ends
        diag = dyn.DiagnosticsSeries(
            t=np.array([0.0, 0.5]), energy_l2=np.array([1.0, 0.25]),
            enstrophy=np.array([2.0, 1 / 3]), energy_alpha=np.array([3.0, 1e-20]),
            g_norm=1 / 7, nu=1.0)
        diag.write_csv(tmp_path / "diag.csv")
        assert (tmp_path / "diag.csv").read_bytes() == (
            b"t,energy_l2,enstrophy,energy_alpha,avg_enstrophy,avg_grad_l1,grashof_G,grashof_calG\r\n"
            b"0,1,2,3,2,1.41421356237,0.142857142857,5.63977394348\r\n"
            b"0.5,0.25,0.333333333333,1e-20,1.16666666667,0.995781915781,"
            b"0.142857142857,5.63977394348\r\n")
        with pytest.warns(dyn.InsufficientDurationWarning, match="exponents withheld"):
            trace = lyp.TraceSeries(times=np.array([0.1, 0.2]), diag=np.array([[-2.0], [-1.5]]),
                                    log_factors=np.zeros((2, 1)), burn_in=0.15, base_final=None)
        trace.write_csv(tmp_path / "trace.csv")
        assert (tmp_path / "trace.csv").read_bytes() == (
            b"t,trace_inst,trace_avg\r\n0.1,-2,nan\r\n0.2,-1.5,-1.5\r\n")


class TestManifest:
    def test_hash_changes_iff_config_changes(self):
        a = fieldio.config_hash({"subcommand": "bounds", "params": {"nu": 1.0}, "seed": 0})
        b = fieldio.config_hash({"subcommand": "bounds", "params": {"nu": 1.0}, "seed": 0})
        c = fieldio.config_hash({"subcommand": "bounds", "params": {"nu": 2.0}, "seed": 0})
        assert a == b != c

    def test_manifest_lists_artifacts(self, tmp_path):
        art = tmp_path / "report.json"
        digest = fieldio.write_json(art, {"ok": True})
        manifest = fieldio.RunManifest(config={"subcommand": "bounds", "params": {}, "seed": 0})
        manifest.add_artifact(art, digest)
        manifest.summary = {"passed": True}
        mpath = tmp_path / "manifest.json"
        manifest.write(mpath)
        payload = json.loads(mpath.read_text())
        assert payload["artifacts"][0]["path"] == "report.json"
        assert payload["artifacts"][0]["sha256"] == hashlib.sha256(art.read_bytes()).hexdigest()
        assert payload["complete"] is True
        assert payload["config_hash"] == fieldio.config_hash(manifest.config)
