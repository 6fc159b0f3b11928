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

FieldWriter writes a run's field files through a pool of one worker process
(concurrent.futures, started with POSIX fork), in the order they are handed
to it, while its caller goes on; the bytes, and so the hashes, are those
save_field writes in process.  The worker binds itself to a usable CPU other
than the caller's (placement.spare_cpus), so each hand-over wakes it beside
the caller rather than on the caller's CPU.  Every write handed over before
the caller fails is still made and reported, so a diverged simulate run
keeps the snapshots taken before the divergence.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import multiprocessing
import os
import signal
import time
from collections import deque
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from contextlib import contextmanager
from dataclasses import dataclass, field as dc_field
from pathlib import Path

import numpy as np

from . import __version__, placement
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

    save(f, path, alpha) and copy(source, path) submit a write to a
    one-process pool and return at once, so the caller goes on while the
    worker formats the field with save_field (or copies a file written
    before it), hashing the bytes as it writes them.  Each later write, and
    close(), which waits for them all and shuts the pool down, hands the
    finished writes in the order asked to on_written(path, sha256) and
    raises the first OSError; a worker that dies is an OSError too.  As a
    context manager, the block ends with close(), and an error already
    raised in the block wins over one of close().  The worker is started
    with fork (POSIX): it runs the program as loaded, and writes the bytes
    save_field writes in process.  It ignores interrupts, which are left to
    the caller, and binds itself to the first of the caller's spare CPUs as
    the writer is made (placement), or to none where there is none.
    """

    def __init__(self, on_written):
        cpu = next(iter(placement.spare_cpus()), None)
        self._pool = ProcessPoolExecutor(
            1, mp_context=multiprocessing.get_context("fork"),
            initializer=_start_worker, initargs=(cpu,))
        self._on_written, self._writes, self._error = on_written, deque(), None

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        try:
            self.close()
        except OSError:
            if exc is None:
                raise

    def save(self, f: SpectralField, path, alpha: float):
        self._submit(str(path), f, alpha)

    def copy(self, source, path):
        self._submit(str(path), Path(source), None)

    def close(self):
        """Wait for every write and shut the worker down; raises the first OSError."""
        if self._pool is None:
            return
        try:
            self._collect(wait=True)
        finally:
            self._pool.shutdown()
            self._pool = None
        if self._error is not None:
            raise self._error

    def _submit(self, path, source, alpha):
        self._collect(wait=False)
        if self._error is not None:
            raise self._error
        try:
            self._writes.append((path, self._pool.submit(_write_field, path, source, alpha)))
        except BrokenProcessPool as err:
            self._error = _worker_died(err)
            raise self._error from err

    def _collect(self, wait: bool):
        """Hand on the writes at the head of the queue that are done, or
        with wait all of them; keeps the first error."""
        while self._writes and (wait or self._writes[0][1].done()):
            path, future = self._writes.popleft()
            try:
                digest = future.result()
            except BrokenProcessPool as err:
                self._error = self._error or _worker_died(err)
            except OSError as err:
                self._error = self._error or err
            else:
                self._on_written(path, digest)


def _start_worker(cpu):
    """FieldWriter's worker, as it starts: interrupts are left to the caller,
    and it binds itself to cpu (placement.bind)."""
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    placement.bind(cpu)


def _worker_died(err: BrokenProcessPool) -> OSError:
    return OSError(f"the field writer process exited with writes unanswered: {err}")


def _write_field(path, source, alpha):
    """FieldWriter's worker: save the field source at path, or copy the file
    at source there; returns the sha256 of the bytes written.  save_field is
    looked up here, in the worker, so it is the one the worker runs."""
    if isinstance(source, Path):
        return atomic_write_text(path, source.read_text())
    return save_field(source, path, alpha)


def load_snapshot(path) -> tuple[SpectralField, dict]:
    """Read a field snapshot; returns the field and its header metadata.  A
    malformed header or row, or a second row for one coefficient, is refused
    with InvalidParameterError naming path:line, and so is a file whose bytes
    do not decode as text."""
    try:
        text = Path(path).read_text()
    except UnicodeDecodeError as err:
        raise InvalidParameterError(f"{path}: not a text field snapshot: {err}") from err
    with io.StringIO(text) as fh:
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

def _recordable(value):
    """value with each non-finite float in it as its repr: "inf", "-inf" or "nan"."""
    if isinstance(value, dict):
        return {key: _recordable(v) for key, v in value.items()}
    if isinstance(value, (list, tuple)):
        return list(map(_recordable, value))
    return repr(float(value)) if isinstance(value, float) and not math.isfinite(value) else value


def write_json(path, obj) -> str:
    """Write obj as indented strict JSON, each non-finite float as its repr
    string; returns the sha256 hex digest of its bytes."""
    text = json.dumps(_recordable(obj), indent=2, sort_keys=True, allow_nan=False)
    return atomic_write_text(path, text + "\n")


def write_csv(path, header, rows) -> str:
    """Write a header and rows of cells as CSV (csv.writer's \\r\\n line ends);
    returns the sha256 hex digest of its bytes."""
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(header)
    writer.writerows(rows)
    return atomic_write_text(path, buf.getvalue())


def config_hash(config: dict) -> str:
    """The sha256 of config's values as write_json records them."""
    canonical = json.dumps(_recordable(config), sort_keys=True, separators=(",", ":"),
                           allow_nan=False)
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
