"""Stable on-disk formats: field snapshots, reports, and run manifests.

Field snapshot (text, version 1):

    # nsvlab-field v1
    # resolution_n=<n> dealias_cutoff=<c> role=<velocity|vorticity> alpha=<a>
    # columns: component k1 k2 re im
    <component> <k1> <k2> <re> <im>
    ...

One row per stored Fourier coefficient (exact zeros omitted), %.17g floats
so values round-trip bit-exactly.  Scalar fields use component 0 only.

All writers go through a temp-then-rename step; on failure the partial file
is left behind with a .partial suffix.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import os
import time
from dataclasses import dataclass, field as dc_field
from pathlib import Path

import numpy as np

from . import __version__
from .errors import InvalidParameterError
from .spectral import VELOCITY, VORTICITY, SpectralField, SpectralGrid

FIELD_MAGIC = "# nsvlab-field v1"


def atomic_write_text(path, text: str):
    path = Path(path)
    partial = path.with_name(path.name + ".partial")
    with open(partial, "w") as fh:
        fh.write(text)
    os.replace(partial, path)


def save_field(f: SpectralField, path, alpha: float = 0.0):
    """Write a field snapshot; alpha records the metric of the producing run."""
    header = (f"{FIELD_MAGIC}\n# resolution_n={f.grid.n} dealias_cutoff={f.grid.dealias_cutoff} "
              f"role={f.role} alpha={alpha:.17g}\n# columns: component k1 k2 re im\n")
    coeffs = f.coeffs if f.role == VELOCITY else f.coeffs[None, ...]
    comp, i, j = np.nonzero(coeffs)           # component-major, then row-major
    freq = np.fft.fftfreq(f.grid.n, d=1.0 / f.grid.n).astype(int)
    vals = coeffs[comp, i, j]
    columns = (comp.tolist(), freq[i].tolist(), freq[j].tolist(),
               vals.real.tolist(), vals.imag.tolist())
    rows = ("%d %d %d %.17g %.17g\n" * comp.size) % tuple(x for row in zip(*columns) for x in row)
    atomic_write_text(path, header + rows)


def load_snapshot(path) -> tuple[SpectralField, dict]:
    """Read a field snapshot; returns the field and its header metadata.  A
    malformed header or row is refused with InvalidParameterError naming
    path:line."""
    with open(path) as fh:
        magic = fh.readline().rstrip("\n")
        if magic != FIELD_MAGIC:
            raise InvalidParameterError(f"{path}: not a field snapshot (header {magic!r})")
        header = fh.readline().rstrip("\n").lstrip("# ")
        meta = {}
        for token in header.split():
            key, _, value = token.partition("=")
            meta[key] = value
        fh.readline()  # column comment
        try:
            n = int(meta["resolution_n"])
            cutoff = int(meta["dealias_cutoff"])
            role = meta["role"]
            alpha = float(meta["alpha"])
            if role not in (VELOCITY, VORTICITY):
                raise InvalidParameterError(f"unknown role {role!r}")
            grid = SpectralGrid(n, cutoff)
        except (KeyError, ValueError, InvalidParameterError) as err:
            raise InvalidParameterError(f"{path}:2: malformed snapshot header: {err}") from err
        components, half = (2 if role == VELOCITY else 1), n // 2
        coeffs = np.zeros((components, n, n), dtype=complex)
        for line_no, line in enumerate(fh, start=4):
            parts = line.split()
            if not parts:
                continue
            if len(parts) != 5:
                raise InvalidParameterError(f"{path}:{line_no}: expected 5 columns")
            try:
                comp, k1, k2 = int(parts[0]), int(parts[1]), int(parts[2])
                value = float(parts[3]) + 1j * float(parts[4])
            except ValueError as err:
                raise InvalidParameterError(f"{path}:{line_no}: {err}") from err
            if not 0 <= comp < components:
                raise InvalidParameterError(
                    f"{path}:{line_no}: component {comp} of a {role} field")
            if not (-half <= k1 < half and -half <= k2 < half):
                raise InvalidParameterError(
                    f"{path}:{line_no}: wavenumber ({k1}, {k2}) outside [-{half}, {half})")
            coeffs[comp, k1 % n, k2 % n] = value
    meta_out = {"resolution_n": n, "dealias_cutoff": cutoff, "role": role, "alpha": alpha}
    return SpectralField(grid, role, coeffs if role == VELOCITY else coeffs[0]), meta_out


def load_field(path) -> SpectralField:
    return load_snapshot(path)[0]


# ----------------------------------------------------------------------------
# reports and manifests

def write_json(path, obj):
    atomic_write_text(path, json.dumps(obj, indent=2, sort_keys=True) + "\n")


def write_csv(path, header, rows):
    """Write a header and rows of cells as CSV (csv.writer's \\r\\n line ends)."""
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(header)
    writer.writerows(rows)
    atomic_write_text(path, buf.getvalue())


def sha256_of(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 16), b""):
            h.update(chunk)
    return h.hexdigest()


def config_hash(config: dict) -> str:
    canonical = json.dumps(config, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


@dataclass
class RunManifest:
    """Ledger of one CLI run: what was asked, what was written, how it went."""

    config: dict
    tool_version: str = __version__
    wall_clock_s: float = 0.0
    created_utc: str = ""
    artifacts: list = dc_field(default_factory=list)
    summary: dict = dc_field(default_factory=dict)
    complete: bool = True
    schemas: dict = dc_field(default_factory=lambda: {"csv": "v1", "json": "v1", "field": "v1"})

    def add_artifact(self, path):
        self.artifacts.append({"path": str(Path(path).name), "sha256": sha256_of(path)})

    def write(self, path):
        payload = {
            "config_hash": config_hash(self.config),
            "config": self.config,
            "tool": "nsvlab",
            "tool_version": self.tool_version,
            "wall_clock_s": round(self.wall_clock_s, 3),
            "created_utc": self.created_utc or time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
            "artifacts": sorted(self.artifacts, key=lambda a: a["path"]),
            "summary": self.summary,
            "complete": self.complete,
            "schemas": self.schemas,
        }
        write_json(path, payload)
