"""Span tracing of nsvlab's public functions, installed from outside the package.

A Tracer replaces module attributes (functions, methods, classmethods) with
wrappers that record one span per call: name, start, end, parent span and an
optional integer value (bytes, steps, a quadrature factor).  A function is
replaced in every nsvlab module that imported it under the same name, so
`alpha_gram_schmidt` is traced whether `lyapunov` or `inequalities` calls it.
`remove()` puts every original object back.  Spans stay in memory until
`write()` is called at the end of a run.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict


def _value_nbytes(args, kwargs, out):
    return int(args[0].nbytes + out.nbytes)


def _value_steps(args, kwargs, out):
    return int(out.steps)


def _value_frame_steps(args, kwargs, out):
    cfg = args[0]
    t_end = kwargs["t_end"] if "t_end" in kwargs else args[2]
    return int(round(t_end / cfg.dt))


def _value_quad_factor(args, kwargs, out):
    return int(kwargs.get("quad_factor", args[2] if len(args) > 2 else 2))


def _value_saved_bytes(args, kwargs, out):
    return int(args[0].coeffs.nbytes)


def _value_size(args, kwargs, out):
    return int(out.size)


def _value_useful_refinements(args, kwargs, out):
    # one refinement pass per family (per family and alpha on rho-l2); the
    # sup-norm sweep copies a family's warnings into each of its cap reports
    passes = {}
    for rep in out.reports:
        key = (rep.seed, rep.extras.get("alpha"))
        passes[key] = any("under grid refinement" in w for w in rep.warnings)
    return sum(passes.values())


#: (module, attribute path, span name, value function).  The attribute path is
#: "function" or "Class.method".
TARGETS = (
    ("nsvlab.spectral", "to_physical", "spectral.fft", _value_nbytes),
    ("nsvlab.spectral", "from_physical", "spectral.fft", _value_nbytes),
    ("nsvlab.spectral", "bilinear_coeffs", "spectral.bilinear", None),
    ("nsvlab.spectral", "leray_project_coeffs", "spectral.leray", None),
    ("nsvlab.dynamics", "integrate", "dynamics.integrate", _value_steps),
    ("nsvlab.dynamics", "DiagnosticsSeries.write_csv", "dynamics.write_csv", None),
    ("nsvlab.lyapunov", "evolve_tangent_frame", "lyapunov.evolve", _value_frame_steps),
    ("nsvlab.lyapunov", "alpha_gram_schmidt", "lyapunov.gram_schmidt", None),
    ("nsvlab.lyapunov", "TangentFrame.random", "lyapunov.frame_random", None),
    ("nsvlab.inequalities", "sample_suborthonormal", "inequalities.sample", None),
    ("nsvlab.inequalities", "rho_profile", "inequalities.rho_profile", _value_quad_factor),
    ("nsvlab.inequalities", "verify_lieb_thirring", "inequalities.verify", None),
    ("nsvlab.inequalities", "verify_rho_l2", "inequalities.verify", None),
    ("nsvlab.inequalities", "verify_rho_linf", "inequalities.verify", None),
    ("nsvlab.inequalities", "run_lt_sweep", "inequalities.sweep", _value_useful_refinements),
    ("nsvlab.inequalities", "run_rho_l2_sweep", "inequalities.sweep", _value_useful_refinements),
    ("nsvlab.inequalities", "run_rho_linf_sweep", "inequalities.sweep", _value_useful_refinements),
    ("nsvlab.lattice", "_enumerate_sq_norms", "lattice.enumerate", _value_size),
    ("nsvlab.lattice", "verify_eigenvalue_bounds", "lattice.verify", None),
    ("nsvlab.lattice", "verify_liyau", "lattice.verify", None),
    ("nsvlab.lattice", "verify_spectral_sums", "lattice.verify", None),
    ("nsvlab.lattice", "sum_inverse_below", "lattice.sum", None),
    ("nsvlab.lattice", "sum_inverse_square_above", "lattice.sum", None),
    ("nsvlab.fieldio", "save_field", "fieldio.save", _value_saved_bytes),
    ("nsvlab.fieldio", "load_field", "fieldio.load", None),
    ("nsvlab.fieldio", "RunManifest.write", "fieldio.manifest", None),
    ("nsvlab.fieldio", "RunManifest.add_artifact", "fieldio.manifest", None),
    ("nsvlab.cli", "run", "cli.run", None),
)


class Tracer:
    """Records spans from wrappers it installs; one instance per traced section."""

    def __init__(self):
        self.spans = []       # [name, start, end, parent index, value]
        self.missing = []     # targets not found in the program
        self._stack = []
        self._saved = []      # (owner, attribute, original object)

    # -- installation ---------------------------------------------------------

    def install(self):
        """Wrap every target the program has.  Targets it no longer has are
        listed in `missing`, and their metrics read 0."""
        if self._saved:
            raise RuntimeError("tracer is already installed")
        self.missing = []
        try:
            for module_name, path, span_name, value_fn in TARGETS:
                cls_name, _, attr = path.rpartition(".")
                owner = sys.modules.get(module_name)
                if cls_name:
                    owner = getattr(owner, cls_name, None)
                if owner is None or attr not in vars(owner):
                    self.missing.append(f"{module_name}.{path}")
                    continue
                original = vars(owner)[attr]
                if isinstance(original, classmethod):
                    wrapped = classmethod(self._wrap(original.__func__, span_name, value_fn))
                    self._replace(owner, attr, original, wrapped)
                elif cls_name:
                    self._replace(owner, attr, original, self._wrap(original, span_name, value_fn))
                else:
                    wrapped = self._wrap(original, span_name, value_fn)
                    for importer in self._importers(original, attr):
                        self._replace(importer, attr, original, wrapped)
        except BaseException:
            self.remove()
            raise

    def remove(self):
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved = []

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.remove()
        return False

    def wrapped_names(self):
        return [(owner, attr) for owner, attr, _ in self._saved]

    @staticmethod
    def _importers(original, name):
        return [mod for mod_name, mod in sorted(sys.modules.items())
                if mod_name.split(".")[0] == "nsvlab" and mod is not None
                and getattr(mod, name, None) is original]

    def _replace(self, owner, attr, original, wrapped):
        self._saved.append((owner, attr, original))
        setattr(owner, attr, wrapped)

    def _wrap(self, fn, span_name, value_fn):
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [span_name, clock(), 0.0, stack[-1] if stack else -1, 0]
            stack.append(len(spans))
            spans.append(rec)
            try:
                out = fn(*args, **kwargs)
            finally:
                stack.pop()
                rec[2] = clock()
            if value_fn is not None:
                rec[4] = value_fn(args, kwargs, out)
            return out

        return traced

    # -- output ---------------------------------------------------------------

    def write(self, path):
        with open(path, "w") as fh:
            for name, start, end, parent, value in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "value": value}) + "\n")


def span_totals(spans):
    """name -> {"calls", "s", "self_s", "value", "top_s"} aggregated over spans.

    self_s is a span's duration minus its direct children's durations; top_s
    sums only spans whose parent belongs to another layer (the first word of
    the span name), so nested calls inside one layer are not counted twice.
    """
    child = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    totals = defaultdict(lambda: {"calls": 0, "s": 0.0, "self_s": 0.0, "value": 0, "top_s": 0.0})
    for i, (name, start, end, parent, value) in enumerate(spans):
        t = totals[name]
        dur = end - start
        t["calls"] += 1
        t["s"] += dur
        t["self_s"] += dur - child[i]
        t["value"] += value
        layer = name.split(".")[0]
        if parent < 0 or spans[parent][0].split(".")[0] != layer:
            t["top_s"] += dur
    return totals


def layer_metrics(spans):
    """The per-layer metrics of one traced section, by name: (value, unit)."""
    t = span_totals(spans)

    def get(name, key):
        return t[name][key] if name in t else (0 if key in ("calls", "value") else 0.0)

    refine = [s for s in spans if s[0] == "inequalities.rho_profile" and s[4] == 4]
    return {
        "spectral.fft.calls": (get("spectral.fft", "calls"), "count"),
        "spectral.fft.s": (get("spectral.fft", "s"), "s"),
        "spectral.fft.mb": (get("spectral.fft", "value") / 1e6, "MB"),
        "spectral.bilinear.calls": (get("spectral.bilinear", "calls"), "count"),
        "spectral.bilinear.s": (get("spectral.bilinear", "s"), "s"),
        "spectral.leray.s": (get("spectral.leray", "s"), "s"),
        "dynamics.integrate.s": (get("dynamics.integrate", "s"), "s"),
        "dynamics.integrate.self_s": (get("dynamics.integrate", "self_s"), "s"),
        "dynamics.steps": (get("dynamics.integrate", "value"), "count"),
        "dynamics.write_csv.s": (get("dynamics.write_csv", "s"), "s"),
        "lyapunov.evolve.s": (get("lyapunov.evolve", "s"), "s"),
        "lyapunov.evolve.self_s": (get("lyapunov.evolve", "self_s"), "s"),
        "lyapunov.steps": (get("lyapunov.evolve", "value"), "count"),
        "lyapunov.gram_schmidt.calls": (get("lyapunov.gram_schmidt", "calls"), "count"),
        "lyapunov.gram_schmidt.s": (get("lyapunov.gram_schmidt", "s"), "s"),
        "inequalities.sample.s": (get("inequalities.sample", "s"), "s"),
        "inequalities.rho_profile.calls": (get("inequalities.rho_profile", "calls"), "count"),
        "inequalities.rho_profile.s": (get("inequalities.rho_profile", "s"), "s"),
        "inequalities.refine.calls": (len(refine), "count"),
        "inequalities.refine.s": (sum(s[2] - s[1] for s in refine), "s"),
        "inequalities.refine.useful": (get("inequalities.sweep", "value"), "count"),
        "inequalities.verify.self_s": (get("inequalities.verify", "self_s")
                                       + get("inequalities.sweep", "self_s"), "s"),
        "lattice.s": (sum(get(n, "top_s") for n in
                          ("lattice.enumerate", "lattice.verify", "lattice.sum")), "s"),
        "lattice.eigenvalues": (get("lattice.enumerate", "value"), "count"),
        "fieldio.save.calls": (get("fieldio.save", "calls"), "count"),
        "fieldio.save.s": (get("fieldio.save", "s"), "s"),
        "fieldio.save.mb": (get("fieldio.save", "value") / 1e6, "MB"),
        "fieldio.load.s": (get("fieldio.load", "s"), "s"),
        "fieldio.manifest.s": (get("fieldio.manifest", "s"), "s"),
        "cli.run.self_s": (get("cli.run", "self_s"), "s"),
    }
