"""Stable on-disk formats: field snapshots, reports, and run manifests.

Field snapshot (text, version 1):

    # nsvlab-field v1
    # resolution_n=<n> dealias_cutoff=<c> role=<velocity|vorticity> alpha=<a>
    # columns: component k1 k2 re im
    <component> <k1> <k2> <re> <im>
    ...

One row per stored Fourier coefficient (exact zeros omitted), %.17g floats:
every finite or infinite part round-trips bit-exactly, the sign of a -0 part
included; a NaN part reads back unsigned.  Scalar fields use component 0 only.

All writers go through a temp-then-rename step; on failure the partial file
is left behind with a .partial suffix.  Each writer hashes the bytes as it
writes them and returns their sha256, which the run manifest records.

FieldWriter formats a run's snapshots in one forked writer process (POSIX
fork), in the order they are handed to it, while its caller goes on; the
bytes, and so the hashes, are those save_field writes in process.  Every
write handed over before the caller fails is still made and reported, so a
diverged simulate run keeps the snapshots taken before the divergence.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import multiprocessing
import os
import signal
import time
from contextlib import contextmanager
from dataclasses import dataclass, field as dc_field
from pathlib import Path

import numpy as np

from . import __version__
from .errors import InvalidParameterError
from .spectral import VELOCITY, VORTICITY, SpectralField, SpectralGrid

FIELD_MAGIC = "# nsvlab-field v1"


class _HashedText:
    """A text file's write(), hashing the bytes each call writes."""

    def __init__(self, fh):
        self._fh, self.sha256 = fh, hashlib.sha256()

    def write(self, text: str):
        self._fh.write(text)
        self.sha256.update(text.encode(self._fh.encoding))


@contextmanager
def atomic_open(path):
    """A text file written at path.partial and renamed to path when the block
    ends without an error; on an error the partial file is left behind.  What
    it yields has write() alone, and its sha256 hashes the bytes written."""
    path = Path(path)
    partial = path.with_name(path.name + ".partial")
    with open(partial, "w") as fh:
        yield _HashedText(fh)
    os.replace(partial, path)


def atomic_write_text(path, text: str) -> str:
    """Write text at path; returns the sha256 hex digest of its bytes."""
    with atomic_open(path) as fh:
        fh.write(text)
    return fh.sha256.hexdigest()


def save_field(f: SpectralField, path, alpha: float = 0.0) -> str:
    """Write a field snapshot; alpha records the metric of the producing run.
    Returns the sha256 hex digest of the bytes written.

    The bytes are those of one "%d %d %d %.17g %.17g" row per stored
    coefficient, but each distinct |part| is formatted once: a full-layout
    field stores every +-k pair as conjugates, so about half its parts
    share a magnitude.  A "-" goes back on as a prefix wherever the sign bit
    is set, except on NaN, which %.17g prints unsigned."""
    n = f.grid.n
    header = (f"{FIELD_MAGIC}\n# resolution_n={n} dealias_cutoff={f.grid.dealias_cutoff} "
              f"role={f.role} alpha={alpha:.17g}\n# columns: component k1 k2 re im\n")
    coeffs = f.coeffs if f.role == VELOCITY else f.coeffs[None, ...]
    comp, i, j = np.nonzero(coeffs)           # component-major, then row-major
    vals = coeffs[comp, i, j]
    parts = np.stack((vals.real, vals.imag), axis=1)
    mags, which = np.unique(np.abs(parts), return_inverse=True)
    which = which.reshape(parts.shape)
    digits = np.array(("%.17g " * mags.size % tuple(mags.tolist())).split(), dtype=object)
    signs = np.array(["", "-", " ", " -"], dtype=object)[
        (np.signbit(parts) & ~np.isnan(parts)) + np.array([0, 2])]
    freq = np.fft.fftfreq(n, d=1.0 / n).astype(int).tolist()
    heads = np.array([f"{c} {k} " for c in range(coeffs.shape[0]) for k in freq], dtype=object)
    tails = np.array([f"{k} " for k in freq], dtype=object)
    # rows go out in blocks, each joined from seven cells a row ("c k1 ", "k2 ",
    # sign, |re|, " " and sign, |im|, "\n"), so the text is never held whole
    cells = np.empty((1024, 7), dtype=object)
    cells[:, 6] = "\n"
    with atomic_open(path) as fh:
        fh.write(header)
        for start in range(0, vals.size, len(cells)):
            rows = slice(start, start + len(cells))
            block = cells[:comp[rows].size]
            block[:, 0] = heads[comp[rows] * n + i[rows]]
            block[:, 1] = tails[j[rows]]
            block[:, [2, 4]] = signs[rows]
            block[:, [3, 5]] = digits[which[rows]]
            fh.write("".join(block.ravel().tolist()))
    return fh.sha256.hexdigest()


class FieldWriter:
    """Field files written by one forked worker process, in the order asked.

    save(f, path, alpha) and copy(source, path) hand a write to the worker
    and return at once, so the caller goes on while the worker formats the
    field with save_field (or copies a file written before it), hashing the
    bytes as it writes them.  The worker replies to each write with its
    path and sha256, or with the OSError that stopped it, and goes on to
    the next.  Replies are read by each later write and by close(), which
    waits for them all and joins the worker: each written file goes to
    on_written(path, sha256), and the first OSError is raised.  A worker
    that dies is an OSError too.  As a context manager, the block ends with
    close(), and an error already raised in the block wins over one of
    close().  The worker is started with fork (POSIX): it runs the program
    as loaded, and writes the bytes save_field writes in process.
    """

    def __init__(self, on_written):
        context = multiprocessing.get_context("fork")
        self._conn, worker_end = context.Pipe()
        self._worker = context.Process(target=_write_fields, args=(worker_end, self._conn),
                                       name="nsvlab-field-writer", daemon=True)
        self._worker.start()
        worker_end.close()
        self._on_written, self._pending, self._error = on_written, 0, None

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        try:
            self.close()
        except OSError:
            if exc is None:
                raise

    def save(self, f: SpectralField, path, alpha: float):
        self._request(("save", f, str(path), alpha))

    def copy(self, source, path):
        self._request(("copy", str(source), str(path), None))

    def close(self):
        """Wait for every reply and join the worker; raises the first OSError."""
        if self._worker is None:
            return
        try:
            self._pipe(self._conn.send, None)
            while self._pending:
                self._receive()
        finally:
            self._conn.close()
            self._worker.join()
            self._worker = None
        if self._error is not None:
            raise self._error

    def _request(self, request):
        while self._pending and self._pipe(self._conn.poll):
            self._receive()
        if self._error is not None:
            raise self._error
        self._pipe(self._conn.send, request)
        self._pending += 1

    def _receive(self):
        reply = self._pipe(self._conn.recv)
        self._pending -= 1
        if isinstance(reply, OSError):
            self._error = self._error or reply
        else:
            self._on_written(*reply)

    def _pipe(self, op, *args):
        """op(*args) on the pipe to the worker, whose death is an OSError."""
        try:
            return op(*args)
        except (EOFError, OSError) as err:
            self._pending = 0
            self._worker.join()
            raise OSError(f"the field writer process exited (status {self._worker.exitcode}) "
                          "with writes unanswered") from err


def _write_fields(conn, parent_end):
    """FieldWriter's worker: one reply per request, until a None request.
    Interrupts are left to the parent, which ends the worker by close()."""
    parent_end.close()
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    for kind, source, path, alpha in iter(conn.recv, None):
        try:
            if kind == "save":
                digest = save_field(source, path, alpha)
            else:
                digest = atomic_write_text(path, Path(source).read_text())
        except OSError as err:
            conn.send(err)
        else:
            conn.send((path, digest))


def load_snapshot(path) -> tuple[SpectralField, dict]:
    """Read a field snapshot; returns the field and its header metadata.  A
    malformed header or row, or a second row for one coefficient, is refused
    with InvalidParameterError naming path:line."""
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
        seen = set()
        for line_no, line in enumerate(fh, start=4):
            parts = line.split()
            if not parts:
                continue
            if len(parts) != 5:
                raise InvalidParameterError(f"{path}:{line_no}: expected 5 columns")
            try:
                comp, k1, k2 = int(parts[0]), int(parts[1]), int(parts[2])
                value = complex(float(parts[3]), float(parts[4]))
            except ValueError as err:
                raise InvalidParameterError(f"{path}:{line_no}: {err}") from err
            if not 0 <= comp < components:
                raise InvalidParameterError(
                    f"{path}:{line_no}: component {comp} of a {role} field")
            if not (-half <= k1 < half and -half <= k2 < half):
                raise InvalidParameterError(
                    f"{path}:{line_no}: wavenumber ({k1}, {k2}) outside [-{half}, {half})")
            if (comp, k1, k2) in seen:
                raise InvalidParameterError(
                    f"{path}:{line_no}: component {comp} at ({k1}, {k2}) given twice")
            seen.add((comp, k1, k2))
            coeffs[comp, k1 % n, k2 % n] = value
    meta_out = {"resolution_n": n, "dealias_cutoff": cutoff, "role": role, "alpha": alpha}
    return SpectralField(grid, role, coeffs if role == VELOCITY else coeffs[0]), meta_out


def load_field(path) -> SpectralField:
    return load_snapshot(path)[0]


# ----------------------------------------------------------------------------
# reports and manifests

def write_json(path, obj) -> str:
    """Write obj as indented JSON; returns the sha256 hex digest of its bytes."""
    return atomic_write_text(path, json.dumps(obj, indent=2, sort_keys=True) + "\n")


def write_csv(path, header, rows) -> str:
    """Write a header and rows of cells as CSV (csv.writer's \\r\\n line ends);
    returns the sha256 hex digest of its bytes."""
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(header)
    writer.writerows(rows)
    return atomic_write_text(path, buf.getvalue())


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

    def add_artifact(self, path, sha256: str):
        """List the file at path, whose bytes hash to sha256 (as its writer returned)."""
        self.artifacts.append({"path": str(Path(path).name), "sha256": sha256})

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
