"""Command-line harness: simulate | lyapunov | bounds | verify.

Exit status contract: 0 all checks passed, 1 verification failure,
2 configuration error, 3 runtime/numerical failure.

Every run writes its artifacts plus a manifest.json (config hash, version,
wall clock, artifact hashes, pass/fail summary) into the output directory;
--output-dir beats the NSVLAB_OUTPUT_DIR environment variable, which beats
the default ./nsvlab_runs/<subcommand>.  Values from --config <file> (JSON)
are overridden by explicit flags.  Runs are deterministic given the same
effective configuration and seed.
"""

from __future__ import annotations

import argparse
import json
import math
import operator
import os
import sys
import time
from pathlib import Path

import numpy as np

from . import bounds as bounds_mod
from . import dynamics as dyn
from . import inequalities as ineq
from . import lattice
from . import lyapunov as lyp
from . import spectral as sp
from .errors import (
    ConfigError,
    DegenerateFrameError,
    GridMismatchError,
    IntegrationDivergedError,
    InvalidParameterError,
    RoleMismatchError,
    WrongRegimeError,
)
from .fieldio import FieldWriter, RunManifest, atomic_write_text, save_field, write_json

EXIT_OK = 0
EXIT_VERIFICATION = 1
EXIT_CONFIG = 2
EXIT_RUNTIME = 3

VERIFY_TARGETS = ("spectrum", "liyau", "lt", "rho-l2", "rho-linf")

#: simulate and lyapunov flags --<block>-<key> that fold into the nested
#: forcing / initial config blocks: block -> {key: type}
FLOW_FLAGS = {
    "forcing": {"kind": str, "amplitude": float, "wavenumber": int},
    "initial": {"kind": str, "amplitude": float, "path": str},
}

#: keys of the nested blocks that only a config file sets: block -> {key: type};
#: with FLOW_FLAGS, every key a nested block may hold
FLOW_CONFIG_KEYS = {"forcing": {"modes": list},
                    "initial": {"seed": int, "decay": float, "wavenumber": int}}


# ----------------------------------------------------------------------------
# configuration

#: the rows simulate and lyapunov share
FLOW_ROWS = {
    "n": (int, 64, None),
    "nu": (float, 1.0, (">", 0)),
    "alpha": (float, 1.0, (">=", 0)),
    "forcing": (dict, {"kind": "zero"}, None),
    "initial": (dict, {"kind": "zero"}, None),
}

#: subcommand -> {param: (type, default, range)}: a range (op, bound) holds
#: each value to value op bound; the rules no one row states are in
#: _constraint_problems
SCHEMAS = {
    "bounds": {
        "d": (int, 2, None),
        "nu": (float, 1.0, (">", 0)),
        "alpha": (float, 0.0, (">=", 0)),
        "gnorm": (float, 1.0, (">=", 0)),
        "lambda1": (float, 1.0, (">", 0)),
        "measure": (float, 4 * np.pi**2, (">", 0)),
        "geometry": (str, "torus", None),
    },
    "simulate": {
        **FLOW_ROWS,
        "dt": (float, 1e-3, (">", 0)),
        "t_end": (float, 1.0, (">=", 0)),
        "sample_every": (int, 10, (">=", 1)),
        "snapshot_every": (int, 0, (">=", 0)),
    },
    "lyapunov": {
        **FLOW_ROWS,
        "dt": (float, 1e-2, (">", 0)),
        "frame_n": (int, 4, (">=", 1)),
        "window": (float, 60.0, (">", 0)),
        "warmup": (float, 0.0, (">=", 0)),
        "burn_in": (float, -1.0, None),  # -1: default min(5/gamma, window/2)
        "reorth_every": (int, 10, (">=", 1)),
        "scan": (bool, False, None),
        "n_max": (int, 64, (">=", 1)),
    },
    "verify": {
        "target": (str, "", None),
        "jmax": (int, 100_000, (">=", 2)),   # lambda_j <= j/2 is checked from j = 2
        "mmax": (int, 10_000, (">=", 1)),
        "families": (int, 100, (">=", 1)),
        "family_n": (int, 16, (">=", 1)),
        "grid_n": (int, 64, None),
        "alpha": (float, 1.0, (">=", 0)),
        "alphas": (list, [0.01, 0.1, 1.0], None),
        "kind": (str, ineq.ALPHA_ORTHONORMAL, None),
        "lam_min": (int, 1, (">=", 1)),
        "lam_max": (int, 64, (">=", 1)),
        "sums_lam_max": (int, 10_000, (">=", 1)),
    },
}

#: a range's op as a test of value op bound
RANGE_OPS = {">": operator.gt, ">=": operator.ge}


def _coerce(name, value, typ, problems):
    if typ is bool and isinstance(value, bool):
        return value
    if typ in (int, float) and isinstance(value, (int, float)) and not isinstance(value, bool):
        if not -math.inf < value < math.inf or (typ is int and int(value) != value):
            problems.append(f"{name}: expected a finite {typ.__name__}, got {value!r}")
            return None
        return typ(value)
    if typ is str and isinstance(value, str):
        return value
    if typ is dict and isinstance(value, dict):
        return value
    if typ is list and isinstance(value, list):
        return value
    problems.append(f"{name}: expected {typ.__name__}, got {type(value).__name__} {value!r}")
    return None


def parse_config(subcommand: str, file_path: str | None, overrides: dict) -> dict:
    """Merge defaults <- config file <- explicit flags, validating everything.

    All problems (unknown keys, type mismatches, each row's range, then the
    rules of _constraint_problems) are aggregated into one ConfigError.
    """
    schema = SCHEMAS[subcommand]
    problems: list[str] = []
    params = {k: default for k, (_, default, _) in schema.items()}

    if file_path:
        try:
            with open(file_path) as fh:
                data = json.load(fh)
        except FileNotFoundError:
            raise ConfigError([f"config file not found: {file_path}"])
        except (OSError, UnicodeDecodeError) as err:
            raise ConfigError([f"config file cannot be read: {file_path}: {err}"])
        except json.JSONDecodeError as err:
            raise ConfigError([f"config file is not valid JSON: {err}"])
        if not isinstance(data, dict):
            raise ConfigError(["config file must hold a JSON object"])
        for key, value in data.items():
            if key not in schema:
                problems.append(f"unknown config key {key!r} for {subcommand}")
                continue
            coerced = _coerce(key, value, schema[key][0], problems)
            if coerced is not None:
                params[key] = coerced

    for key, value in overrides.items():
        if value is None:
            continue
        coerced = _coerce(key, value, schema[key][0], problems)
        if coerced is not None:
            params[key] = coerced

    problems.extend(f"{key} must be {rng[0]} {rng[1]}, got {params[key]}"
                    for key, (_, _, rng) in schema.items()
                    if rng and not RANGE_OPS[rng[0]](params[key], rng[1]))
    problems.extend(_constraint_problems(subcommand, params))
    if problems:
        raise ConfigError(problems)
    return params


def _is_mode_row(row) -> bool:
    """A forcing row [k1, k2, re0, im0, re1, im1], read as _coerce reads an int or float key."""
    return isinstance(row, list) and len(row) == 6 and all(
        _coerce("", x, typ, []) is not None for x, typ in zip(row, (int, int) + (float,) * 4))


def _constraint_problems(subcommand: str, p: dict) -> list[str]:
    """The rules no single SCHEMAS row states: choices, evenness, the nested
    blocks, burn_in's -1, lam_min <= lam_max and the alphas list."""
    problems = []
    if subcommand == "bounds":
        if p["d"] not in (2, 3):
            problems.append(f"d must be 2 or 3, got {p['d']}")
        if p["geometry"] not in ("torus", "domain"):
            problems.append(f"geometry must be torus|domain, got {p['geometry']!r}")
    elif subcommand in ("simulate", "lyapunov"):
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
                isinstance(rows, list) and all(map(_is_mode_row, rows))):
            problems.append("forcing.modes must be a list of 6-number rows [k1, k2, re0, im0, "
                            f"re1, im1], finite, k1 and k2 integral, got {rows!r}")
        path = p["initial"].get("path")
        if p["initial"].get("kind") == "file" and not isinstance(path, str):
            problems.append(f"initial.path must be a string, got {path!r}")
        for block, flag_keys in FLOW_FLAGS.items():  # kind, path and modes are checked above
            keys = {**flag_keys, **FLOW_CONFIG_KEYS[block]}
            problems.extend(f"unknown config key '{block}.{key}' for {subcommand}"
                            for key in sorted(p[block].keys() - keys.keys()))
            for key in sorted(keys.keys() & p[block].keys() - {"kind", "path", "modes"}):
                _coerce(f"{block}.{key}", p[block][key], keys[key], problems)
        ic_seed = p["initial"].get("seed")
        if isinstance(ic_seed, (int, float)) and ic_seed < 0:
            problems.append(f"initial.seed must be >= 0, got {ic_seed}")
        if subcommand == "lyapunov" and p["burn_in"] < 0 and p["burn_in"] != -1:
            problems.append(f"burn_in must be >= 0, or -1 for the default, got {p['burn_in']}")
    elif subcommand == "verify":
        if p["target"] not in VERIFY_TARGETS:
            problems.append(f"target must be one of {VERIFY_TARGETS}, got {p['target']!r}")
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


def _spec_from(block: dict, seed: int) -> dyn.FieldSpec:
    """A validated forcing or initial block as the FieldSpec its keys name,
    each key typed by FLOW_FLAGS and FLOW_CONFIG_KEYS (which type a shared key
    alike) and a random field's seed defaulting to the run's; a modes block's
    rows [k1, k2, re0, im0, re1, im1] go through FieldSpec.from_modes."""
    if block["kind"] == "modes":
        return dyn.FieldSpec.from_modes(
            ((int(m[0]), int(m[1])), (m[2] + 1j * m[3], m[4] + 1j * m[5])) for m in block["modes"])
    types = {key: typ for table in (FLOW_FLAGS, FLOW_CONFIG_KEYS) for keys in table.values()
             for key, typ in keys.items()}
    fields = {key: types[key](value) for key, value in block.items() if key != "modes"}
    return dyn.FieldSpec(**{"seed": seed, **fields})


# ----------------------------------------------------------------------------
# subcommand runners (return (exit_code, summary))

def _run_bounds(params: dict, outdir: Path, seed: int, manifest: RunManifest):
    inp = bounds_mod.BoundsInput(
        d=params["d"], nu=params["nu"], alpha=params["alpha"], g_norm=params["gnorm"],
        lambda1=params["lambda1"], domain_measure=params["measure"],
        geometry=params["geometry"])
    report = bounds_mod.build_report(inp)
    report_path = outdir / "bounds.json"
    manifest.add_artifact(report_path, write_json(report_path, report.as_dict()))
    table_path = outdir / "bounds.txt"
    table = report.to_text()
    manifest.add_artifact(table_path, atomic_write_text(table_path, table + "\n"))
    print(table)
    return EXIT_OK, {"passed": True, "entries": len(report.entries)}


def _sim_config(params: dict, seed: int) -> dyn.SimConfig:
    grid = sp.SpectralGrid(params["n"])
    return dyn.SimConfig(
        nu=params["nu"], alpha=params["alpha"], grid=grid, dt=params["dt"],
        t_end=params.get("t_end", 0.0), forcing=_spec_from(params["forcing"], seed),
        initial=_spec_from(params["initial"], seed),
        sample_every=params.get("sample_every", 10))


def _run_simulate(params: dict, outdir: Path, seed: int, manifest: RunManifest):
    """Integrate, with every field file written by one FieldWriter while the
    loop steps; the writer is shut down, and what it wrote listed, before the
    manifest is written, on every exit path."""
    cfg = _sim_config(params, seed)
    with FieldWriter(manifest.add_artifact) as writer:
        last = None                     # the last snapshot handed on: (path, field)

        def snapshot(t, u):
            nonlocal last
            last = (outdir / f"snapshot_t{t:.6g}.field", u)
            writer.save(u, last[0], cfg.alpha)

        result = dyn.integrate(cfg, snapshot_every=params["snapshot_every"], snapshots=snapshot)
        final_path = outdir / "final_state.field"
        if last and last[1].coeffs.tobytes() == result.final.coeffs.tobytes():
            writer.copy(last[0], final_path)       # the final state, formatted once
        else:
            writer.save(result.final, final_path, cfg.alpha)
    csv_path = outdir / "diagnostics.csv"
    manifest.add_artifact(csv_path, result.diagnostics.write_csv(csv_path))

    checks = [dyn.check_dissipative_bound(result.diagnostics, cfg)]
    checks.extend(dyn.check_time_averages(result.diagnostics, cfg))
    passed = all(c.passed for c in checks)
    summary = {
        "passed": passed,
        "steps": result.steps,
        "checks": [{"name": c.name, "passed": c.passed, "max_violation": c.max_violation}
                   for c in checks],
    }
    return (EXIT_OK if passed else EXIT_VERIFICATION), summary


def _run_lyapunov(params: dict, outdir: Path, seed: int, manifest: RunManifest):
    cfg = _sim_config(params, seed)
    burn_in = None if params["burn_in"] < 0 else params["burn_in"]
    kwargs = dict(warmup=params["warmup"], burn_in=burn_in,
                  reorth_every=params["reorth_every"], seed=seed)
    if params["scan"]:
        scan = lyp.scan_n_star(cfg, t_end=params["window"], n_max=params["n_max"], **kwargs)
        series, summary = scan.series, scan.summary()
    else:
        series = lyp.evolve_tangent_frame(cfg, params["frame_n"], params["window"], **kwargs)
        summary = series.summary()
    csv_path = outdir / f"trace_n{series.n}.csv"
    manifest.add_artifact(csv_path, series.write_csv(csv_path))
    summary_path = outdir / "summary.json"
    manifest.add_artifact(summary_path, write_json(summary_path, summary))
    return EXIT_OK, {"passed": True, **summary}


def _run_verify(params: dict, outdir: Path, seed: int, manifest: RunManifest):
    target = params["target"]
    grid = sp.SpectralGrid(params["grid_n"])
    seeds = range(seed, seed + params["families"])
    sweep = None

    if target == "spectrum":
        rep = lattice.verify_eigenvalue_bounds(params["jmax"])
        payload = {
            "target": target, "range": {"j_max": params["jmax"]},
            "worst_ratio": max(1.0 / rep.min_ratio_lower, 1.0 / rep.min_ratio_upper),
            "pass": rep.passed, "violations": rep.violations, "note": rep.counting_note,
        }
    elif target == "liyau":
        rep = lattice.verify_liyau(params["mmax"])
        payload = {
            "target": target, "range": {"m_max": params["mmax"]},
            "worst_ratio": 1.0 / rep.min_sum_ratio,
            "pass": rep.passed, "violations": rep.violations,
        }
    elif target == "lt":
        sweep = ineq.run_lt_sweep(grid, seeds, n=params["family_n"],
                                  kind=params["kind"], alpha=params["alpha"])
        payload = {"target": target,
                   "range": {"families": params["families"], "n": params["family_n"]},
                   **sweep.as_dict()}
    elif target == "rho-l2":
        sweep = ineq.run_rho_l2_sweep(grid, seeds, alphas=params["alphas"],
                                      n=params["family_n"])
        payload = {"target": target,
                   "range": {"families": params["families"], "alphas": params["alphas"]},
                   **sweep.as_dict()}
    else:  # rho-linf
        sums = lattice.verify_spectral_sums(params["sums_lam_max"])
        sweep = ineq.run_rho_linf_sweep(
            grid, seeds, lam_caps=range(params["lam_min"], params["lam_max"] + 1),
            n=params["family_n"], alpha=params["alpha"])
        payload = {"target": target,
                   "range": {"families": params["families"],
                             "lam": [params["lam_min"], params["lam_max"]],
                             "sums_lam_max": params["sums_lam_max"]},
                   **sweep.as_dict()}
        payload["spectral_sums_pass"] = sums.passed
        payload["pass"] = sweep.all_passed and sums.passed

    if sweep is not None and sweep.near_saturation:
        # keep the family behind the worst report on disk for inspection
        fam = sweep.witness
        for j, coeffs in enumerate(sp.full_layout(sp.half_of(grid, fam.vectors))):
            wpath = outdir / f"witness_seed{fam.seed}_vec{j}.field"
            manifest.add_artifact(wpath, save_field(sp.SpectralField(grid, fam.role, coeffs),
                                                    wpath, alpha=fam.metric.alpha))
        payload["witness_persisted"] = True

    report_path = outdir / f"report_{target}.json"
    manifest.add_artifact(report_path, write_json(report_path, payload))
    print(json.dumps(payload, indent=2, sort_keys=True, default=str))
    return (EXIT_OK if payload["pass"] else EXIT_VERIFICATION), {"passed": payload["pass"]}


# ----------------------------------------------------------------------------
# entry point

SUBCOMMAND_HELP = {"bounds": "evaluate every dimension bound for given parameters",
                   "simulate": "integrate the regularized flow, write diagnostics",
                   "lyapunov": "trace averages q_hat(n) and the n* scan",
                   "verify": "brute-force verification targets"}


def build_parser() -> argparse.ArgumentParser:
    """One flag per SCHEMAS key (the verify target is positional) and per
    FLOW_FLAGS key, each read as a string: parse_config refuses bad values."""
    parser = argparse.ArgumentParser(prog="nsvlab", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for subcommand, schema in SCHEMAS.items():
        p = sub.add_parser(subcommand, help=SUBCOMMAND_HELP[subcommand])
        p.add_argument("--config", help="JSON config file; flags override its values")
        p.add_argument("--seed", default="0", help="base random seed")
        p.add_argument("--output-dir", help="artifact directory "
                       "(default $NSVLAB_OUTPUT_DIR or ./nsvlab_runs/<subcommand>)")
        for key, (typ, *_) in schema.items():
            flag = f"--{key.replace('_', '-')}"
            if key == "target":
                p.add_argument(key, nargs="?", help=f"one of {', '.join(VERIFY_TARGETS)}")
            elif typ is dict:
                for sub_key in FLOW_FLAGS[key]:
                    p.add_argument(f"{flag}-{sub_key}", dest=f"{key}_{sub_key}")
            elif typ is bool:
                p.add_argument(flag, dest=key, action="store_const", const=True)
            else:
                p.add_argument(flag, dest=key, nargs="*" if typ is list else None)
    return parser


def _from_flag(text, typ):
    """A flag's string as typ where it parses; otherwise the string itself,
    which parse_config refuses by name."""
    try:
        return typ(text)
    except ValueError:
        return text


def _collect_overrides(args: argparse.Namespace, subcommand: str) -> dict:
    overrides = {}
    for key, (typ, default, _) in SCHEMAS[subcommand].items():
        if typ is dict:
            # flat forcing/initial flags fold into their nested dicts
            given = {sub_key: _from_flag(getattr(args, f"{key}_{sub_key}"), sub_typ)
                     for sub_key, sub_typ in FLOW_FLAGS[key].items()
                     if getattr(args, f"{key}_{sub_key}") is not None}
            if given:
                overrides[key] = {**default, **given}
        elif getattr(args, key) is not None:
            value = getattr(args, key)
            overrides[key] = [_from_flag(v, float) for v in value] if typ is list \
                else _from_flag(value, typ)
    return overrides


RUNNERS = {
    "bounds": _run_bounds,
    "simulate": _run_simulate,
    "lyapunov": _run_lyapunov,
    "verify": _run_verify,
}


#: errors a runner can raise, by exit status: the configuration was refused
#: (2), or the run failed numerically or on I/O (3)
CONFIG_ERRORS = (InvalidParameterError, ConfigError, RoleMismatchError, GridMismatchError,
                 WrongRegimeError)
RUNTIME_ERRORS = (IntegrationDivergedError, DegenerateFrameError, ArithmeticError,
                  np.linalg.LinAlgError, OSError)


def _record_failure(manifest: RunManifest, err: Exception) -> int:
    """Mark the manifest incomplete with the error; return the exit status."""
    code = EXIT_CONFIG if isinstance(err, CONFIG_ERRORS) else EXIT_RUNTIME
    manifest.summary = {"passed": False, "error": str(err)}
    if isinstance(err, IntegrationDivergedError):
        manifest.summary["diverged_step"] = err.step
    manifest.complete = False
    label = "configuration error" if code == EXIT_CONFIG else "error"
    print(f"{label}: {err}", file=sys.stderr)
    return code


def _write_manifest(manifest: RunManifest, output_dir: Path):
    try:
        output_dir.mkdir(parents=True, exist_ok=True)
        manifest.write(output_dir / "manifest.json")
    except OSError:
        if manifest.complete:
            raise
        # the run already failed; partial artifacts keep their .partial suffix


def run(subcommand: str, params: dict, seed: int, output_dir: Path) -> int:
    """Dispatch a validated configuration and write the run manifest.

    A failed run still writes manifest.json, with complete = false and the
    error in its summary, and returns EXIT_CONFIG or EXIT_RUNTIME.  An
    output_dir that cannot be made (a path through a regular file) is
    EXIT_RUNTIME with one error line, and no manifest can be written there.
    """
    manifest = RunManifest(config={"subcommand": subcommand, "params": params, "seed": seed})
    started = time.time()
    try:
        output_dir.mkdir(parents=True, exist_ok=True)
        code, manifest.summary = RUNNERS[subcommand](params, output_dir, seed, manifest)
    except CONFIG_ERRORS + RUNTIME_ERRORS as err:
        code = _record_failure(manifest, err)
    manifest.wall_clock_s = time.time() - started
    _write_manifest(manifest, output_dir)
    return code


def main(argv=None) -> int:
    """Parse flags and config, then run; a refused configuration still leaves
    a manifest (complete = false) in the output directory and exits 2."""
    args = build_parser().parse_args(argv)
    subcommand = args.subcommand
    overrides = _collect_overrides(args, subcommand)
    seed = _from_flag(args.seed, int)
    outdir = Path(args.output_dir or os.environ.get("NSVLAB_OUTPUT_DIR")
                  or Path("nsvlab_runs") / subcommand)
    try:
        if not isinstance(seed, int) or seed < 0:
            raise ConfigError([f"seed: expected an int >= 0, got {seed!r}"])
        params = parse_config(subcommand, args.config, overrides)
    except (ConfigError, InvalidParameterError) as err:
        manifest = RunManifest(config={"subcommand": subcommand, "config_file": args.config,
                                       "overrides": overrides, "seed": seed})
        code = _record_failure(manifest, err)
        _write_manifest(manifest, outdir)
        return code
    return run(subcommand, params, seed, outdir)


if __name__ == "__main__":
    sys.exit(main())
