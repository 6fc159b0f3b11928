"""CLI harness: config parsing, dispatch, exit codes, determinism."""

import hashlib
import json
import multiprocessing
import os
import re
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from nsvlab import cli, fieldio
from nsvlab import dynamics as dyn
from nsvlab import spectral as sp
from nsvlab.errors import ConfigError
from nsvlab.fieldio import load_field, save_field

import oracles


#: (argv, config file or None, problem) for a value refused with exit status 2, by id
REFUSALS = {
    "empty-lam-range": (["verify", "rho-linf", "--lam-min", "5", "--lam-max", "3"], None,
                        "lam_min must be <= lam_max, got 5 > 3"),
    "no-alphas": (["verify", "rho-l2"], {"alphas": []},
                  "alphas must be non-empty, each finite and > 0"),
    "ill-typed-alphas": (["verify", "rho-l2"], {"alphas": ["x"]},
                         "alphas must be non-empty, each finite and > 0"),
    "geometry": (["bounds", "--geometry", "foo"], None,
                 "geometry must be torus|domain, got 'foo'"),
    "n": (["simulate", "--n", "abc"], None, "n: expected int, got str 'abc'"),
    "kind": (["verify", "lt", "--kind", "nope"], None, "kind must be one of"),
    "nan": (["simulate", "--dt", "nan"], None, "dt: expected a finite float, got nan"),
    "initial-seed-type": (["simulate", "--n", "16", "--dt", "0.01", "--t-end", "0.1"],
                          {"initial": {"kind": "random", "seed": "x"}},
                          "initial.seed: expected int, got str 'x'"),
    "initial-seed-negative": (["simulate", "--n", "16", "--dt", "0.01", "--t-end", "0.1"],
                              {"initial": {"kind": "random", "seed": -1}},
                              "initial.seed must be >= 0, got -1"),
    "negative-seed": (["verify", "lt", "--grid-n", "16", "--seed=-1"], None,
                      "seed: expected an int >= 0, got -1"),
    "forcing-unknown-key": (["simulate", "--n", "16", "--dt", "0.01", "--t-end", "0.1"],
                            {"forcing": {"kind": "shear", "amplitud": 9}},
                            "unknown config key 'forcing.amplitud' for simulate"),
    "initial-unknown-key": (["lyapunov", "--n", "16", "--dt", "0.01", "--window", "0.1"],
                            {"initial": {"kind": "random", "sed": 3}},
                            "unknown config key 'initial.sed' for lyapunov"),
    "initial-snapshot-missing": (["simulate", "--n", "16", "--dt", "0.01", "--t-end", "0.1"],
                                 {"initial": {"kind": "file", "path": "missing.field"}},
                                 "initial snapshot not found: missing.field"),
    # a path that names a directory had exited 3 (IsADirectoryError)
    "initial-snapshot-directory": (["simulate", "--n", "16", "--dt", "0.01", "--t-end", "0.1"],
                                   {"initial": {"kind": "file", "path": "."}},
                                   "initial snapshot cannot be read: .: "),
    # g0 is taken at the printed offset 5.74 alone: a config setting it is refused
    "bounds-g0-offset": (["bounds"], {"g0_offset": -10},
                         "unknown config key 'g0_offset' for bounds"),
    # -1 alone stands for the default burn-in; -3 had run with the default
    "lyapunov-burn-in-negative": (
        ["lyapunov", "--n", "16", "--dt", "0.01", "--window", "1", "--burn-in", "-3"], None,
        "burn_in must be >= 0, or -1 for the default, got -3.0"),
}


def range_refusals() -> dict:
    """Rows as REFUSALS holds them, one per SCHEMAS range, each range broken
    alone by a flag at the bound of a ">" range or one below that of a ">="
    range.  Among them, a verify --jmax of 1 (lambda_j <= j/2 is checked from
    j = 2) and a lyapunov --n-max of 0, which without --scan had run and
    exited 0."""
    rows = {}
    for subcommand, schema in cli.SCHEMAS.items():
        head = [subcommand] + (["spectrum"] if subcommand == "verify" else [])
        for key, (typ, _, rng) in schema.items():
            if rng:
                op, bound = rng
                value, flag = bound - (op == ">="), key.replace("_", "-")
                problem = f"{key} must be {op} {bound}, got {typ(value)}"
                rows[f"{subcommand}-{flag}-{value}"] = (head + [f"--{flag}={value}"], None, problem)
    return rows


RANGE_REFUSALS = range_refusals()


def strict_json(path):
    """The JSON file at path, refusing the NaN and Infinity tokens strict JSON lacks."""
    def refuse(token):
        raise ValueError(f"non-standard JSON constant {token}")
    return json.loads(Path(path).read_text(), parse_constant=refuse)


class TestParseConfig:
    def test_minimal_bounds_config(self):
        params = cli.parse_config("bounds", None, {"d": 2, "nu": 1.0, "alpha": 0.0,
                                                   "gnorm": 1.0, "geometry": "torus"})
        assert params["d"] == 2 and params["geometry"] == "torus"

    def test_constraint_violation_names_field(self):
        with pytest.raises(ConfigError) as exc:
            cli.parse_config("bounds", None, {"alpha": -1.0})
        assert any("alpha" in p for p in exc.value.problems)

    def test_aggregates_all_problems(self):
        with pytest.raises(ConfigError) as exc:
            cli.parse_config("bounds", None, {"alpha": -1.0, "d": 7, "nu": -2.0})
        joined = " ".join(exc.value.problems)
        assert "alpha" in joined and "d must be" in joined and "nu" in joined
        assert len(exc.value.problems) == 3

    def test_unknown_key_in_file(self, tmp_path):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"bogus": 1}))
        with pytest.raises(ConfigError) as exc:
            cli.parse_config("bounds", str(cfg), {})
        assert any("bogus" in p for p in exc.value.problems)

    def test_flag_overrides_file(self, tmp_path):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"dt": 0.5, "n": 16}))
        params = cli.parse_config("simulate", str(cfg), {"dt": 1e-3})
        assert params["dt"] == 1e-3 and params["n"] == 16

    def test_type_mismatch_reported(self, tmp_path):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"dt": "soon"}))
        with pytest.raises(ConfigError) as exc:
            cli.parse_config("simulate", str(cfg), {})
        assert any("dt" in p for p in exc.value.problems)

    def test_config_round_trips_losslessly(self, tmp_path):
        # the effective params embedded in a manifest are themselves a valid
        # config file reproducing the same effective params
        params = cli.parse_config("simulate", None, {"dt": 2e-3, "n": 16})
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps(params))
        again = cli.parse_config("simulate", str(cfg), {})
        assert again == params


class TestExitCodes:
    def test_config_error_is_2(self, tmp_path, capsys):
        assert cli.main(["bounds", "--d", "7", "--output-dir", str(tmp_path)]) == cli.EXIT_CONFIG
        assert "configuration error" in capsys.readouterr().err
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["complete"] is False
        assert "d must be 2 or 3" in manifest["summary"]["error"]

    @pytest.mark.parametrize("block, problem", [
        ({"forcing": {"kind": "modes"}}, "forcing.modes must be a list of 6-number rows"),
        ({"initial": {"kind": "file"}}, "initial.path must be a string"),
    ], ids=["forcing-modes", "initial-path"])
    def test_incomplete_nested_block_is_2(self, tmp_path, capsys, block, problem):
        config = tmp_path / "c.json"
        config.write_text(json.dumps({"n": 16, **block}))
        out = tmp_path / "out"
        code = cli.main(["simulate", "--config", str(config), "--output-dir", str(out)])
        assert code == cli.EXIT_CONFIG
        assert problem in capsys.readouterr().err
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["complete"] is False
        assert problem in manifest["summary"]["error"]

    @pytest.mark.parametrize("argv, config, problem", [*REFUSALS.values(),
                                                       *RANGE_REFUSALS.values()],
                             ids=[*REFUSALS, *RANGE_REFUSALS])
    def test_bad_value_is_2_with_manifest(self, tmp_path, capsys, argv, config, problem):
        if config is not None:
            (tmp_path / "c.json").write_text(json.dumps(config))
            argv = argv + ["--config", str(tmp_path / "c.json")]
        out = tmp_path / "out"
        assert cli.main(argv + ["--output-dir", str(out)]) == cli.EXIT_CONFIG
        assert problem in capsys.readouterr().err
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["complete"] is False
        assert problem in manifest["summary"]["error"]

    @pytest.mark.parametrize("argv, recorded", [
        (["simulate", "--dt", "nan"], {"dt": "nan"}),
        (["verify", "rho-l2", "--alphas", "0.1", "inf"], {"target": "rho-l2",
                                                           "alphas": [0.1, "inf"]}),
    ], ids=["simulate-dt-nan", "rho-l2-alphas-inf"])
    def test_refusal_manifest_is_strict_json(self, tmp_path, capsys, argv, recorded):
        # a non-finite flag is recorded as a string: no NaN or Infinity token
        assert cli.main(argv + ["--output-dir", str(tmp_path)]) == cli.EXIT_CONFIG
        manifest = strict_json(tmp_path / "manifest.json")
        assert manifest["complete"] is False
        assert manifest["config"]["overrides"] == recorded

    def test_default_bounds_run_is_strict_json(self, tmp_path, capsys):
        # at alpha = 0 the basic trace bound diverges: it had been written as Infinity
        assert cli.main(["bounds", "--output-dir", str(tmp_path)]) == cli.EXIT_OK
        report = strict_json(tmp_path / "bounds.json")
        assert {b["name"]: b["value"] for b in report["bounds"]}["basic trace bound"] == "inf"
        assert strict_json(tmp_path / "manifest.json")["complete"] is True

    def test_bounds_ok_is_0(self, tmp_path, capsys):
        code = cli.main(["bounds", "--d", "2", "--nu", "1", "--alpha", "0.5",
                         "--gnorm", "2.0", "--output-dir", str(tmp_path)])
        assert code == cli.EXIT_OK
        assert (tmp_path / "bounds.json").exists()
        assert (tmp_path / "manifest.json").exists()

    @pytest.mark.parametrize("extra", [[], ["--alpha", "0.1"], ["--geometry", "domain"]],
                             ids=["torus", "alpha", "domain"])
    def test_bounds_at_small_forcing_is_0(self, tmp_path, extra):
        # below cal-G ~ 3.2e-3 the log branch bounds nothing and the linear branch is the min
        code = cli.main(["bounds", "--gnorm", "1e-5"] + extra + ["--output-dir", str(tmp_path)])
        assert code == cli.EXIT_OK
        assert (tmp_path / "bounds.json").exists()
        assert json.loads((tmp_path / "manifest.json").read_text())["complete"] is True

    #: bytes that do not decode as text: 0x80 cannot start a UTF-8 character
    UNDECODABLE = bytes(range(128, 256)) * 3

    @pytest.mark.parametrize("argv, directory", [
        (["simulate", "--config"], True),
        (["simulate", "--config"], False),
        (["simulate", "--n", "16", "--dt", "0.01", "--t-end", "0.1",
          "--initial-kind", "file", "--initial-path"], False),
        (["lyapunov", "--n", "16", "--dt", "0.01", "--window", "0.1",
          "--initial-kind", "file", "--initial-path"], False),
    ], ids=["config-directory", "config-undecodable", "simulate-initial-undecodable",
            "lyapunov-initial-undecodable"])
    def test_unreadable_input_is_2_with_manifest(self, tmp_path, capsys, argv, directory):
        bad = tmp_path / "bad"
        if directory:
            bad.mkdir()
        else:
            bad.write_bytes(self.UNDECODABLE)
        out = tmp_path / "out"
        assert cli.main(argv + [str(bad), "--output-dir", str(out)]) == cli.EXIT_CONFIG
        assert str(bad) in capsys.readouterr().err
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["complete"] is False
        assert str(bad) in manifest["summary"]["error"]

    def test_verify_pass_is_0(self, tmp_path, capsys):
        code = cli.main(["verify", "liyau", "--mmax", "200", "--output-dir", str(tmp_path)])
        assert code == cli.EXIT_OK
        payload = json.loads((tmp_path / "report_liyau.json").read_text())
        assert payload["pass"] is True and payload["target"] == "liyau"

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # overflow precedes detection
    def test_simulate_divergence_is_3(self, tmp_path, capsys):
        code = cli.main([
            "simulate", "--n", "16", "--nu", "1e-8", "--alpha", "0", "--dt", "10",
            "--t-end", "100", "--sample-every", "1",
            "--forcing-kind", "shear", "--forcing-amplitude", "1e8",
            "--initial-kind", "random", "--output-dir", str(tmp_path)])
        assert code == cli.EXIT_RUNTIME
        err = capsys.readouterr().err
        assert re.search(r"diverged at step \d+", err)
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["complete"] is False

    @pytest.mark.parametrize("below", ["", "sub"])
    def test_unusable_output_dir_is_3(self, tmp_path, capsys, below):
        # a regular file, or a path through one: no directory and no manifest
        blocker = tmp_path / "a_file"
        blocker.write_text("")
        target = blocker / below if below else blocker
        code = cli.main(["simulate", "--n", "16", "--t-end", "0.1", "--output-dir", str(target)])
        assert code == cli.EXIT_RUNTIME
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1 and str(target) in err
        assert blocker.read_text() == "" and sorted(tmp_path.iterdir()) == [blocker]

    def test_verification_failure_is_1(self, tmp_path, monkeypatch):
        from nsvlab import lattice

        failing = lattice.LiYauReport(m_max=5, violations=["synthetic"],
                                      min_sum_ratio=0.9, ratio_at_small_m=0.9,
                                      ratio_at_m_max=0.9, passed=False)
        monkeypatch.setattr(lattice, "verify_liyau", lambda m: failing)
        code = cli.main(["verify", "liyau", "--mmax", "5", "--output-dir", str(tmp_path)])
        assert code == cli.EXIT_VERIFICATION
        payload = json.loads((tmp_path / "report_liyau.json").read_text())
        assert payload["pass"] is False

    def test_degenerate_frame_is_3_with_manifest(self, tmp_path, capsys):
        # an n = 8 grid holds 24 dealiased divergence-free real modes, so a
        # 40-vector frame cannot be orthonormalized
        code = cli.main(["lyapunov", "--n", "8", "--frame-n", "40", "--window", "1",
                         "--output-dir", str(tmp_path)])
        assert code == cli.EXIT_RUNTIME
        assert "span of its predecessors" in capsys.readouterr().err
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["complete"] is False
        assert "frame vector 24" in manifest["summary"]["error"]

    def test_unstable_dt_is_2_with_manifest(self, tmp_path, capsys):
        # the forced-study default at calG = 4000: dt * band max nu|k|^2/(1+alpha|k|^2) = 3.113
        code = cli.main(["simulate", "--n", "48", "--alpha", str(0.99 * 4 / 4000),
                         "--dt", "0.01", "--t-end", "1", "--output-dir", str(tmp_path)])
        assert code == cli.EXIT_CONFIG
        assert "stability bound 2.785" in capsys.readouterr().err
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["complete"] is False
        assert not (tmp_path / "diagnostics.csv").exists()

    def test_non_solenoidal_snapshot_is_2(self, tmp_path, capsys):
        # u = (cos x1, 0) as a hand-written snapshot: div u = -sin x1
        snap = tmp_path / "u.field"
        snap.write_text("# nsvlab-field v1\n"
                        "# resolution_n=16 dealias_cutoff=5 role=velocity alpha=0\n"
                        "# columns: component k1 k2 re im\n0 1 0 0.5 0\n0 -1 0 0.5 0\n")
        out = tmp_path / "out"
        code = cli.main(["simulate", "--n", "16", "--dt", "0.01", "--t-end", "0.1",
                         "--initial-kind", "file", "--initial-path", str(snap),
                         "--output-dir", str(out)])
        assert code == cli.EXIT_CONFIG
        assert "not divergence-free" in capsys.readouterr().err
        assert json.loads((out / "manifest.json").read_text())["complete"] is False

    @pytest.mark.parametrize("block", ["forcing", "initial"])
    def test_off_band_data_is_2_with_manifest(self, tmp_path, capsys, block):
        # n = 16 keeps |k_i| <= 5: a wavenumber-6 shear lies outside the band
        config = tmp_path / "config.json"
        config.write_text(json.dumps(
            {block: {"kind": "shear", "amplitude": 1.0, "wavenumber": 6}}))
        out = tmp_path / "out"
        code = cli.main(["simulate", "--config", str(config), "--n", "16", "--dt", "0.01",
                         "--t-end", "0.1", "--output-dir", str(out)])
        assert code == cli.EXIT_CONFIG
        assert "outside the 2/3 band |k_i| <= 5" in capsys.readouterr().err
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["complete"] is False
        assert not (out / "diagnostics.csv").exists()

    @pytest.mark.parametrize("edit, line", [
        (lambda text: text + "0 x 1 0.5 0\n", 6),
        (lambda text: text + "5 0 1 0.5 0\n", 6),
        (lambda text: text + "0 0 17 0.5 0\n", 6),
        (lambda text: text.replace("dealias_cutoff=5", "dealias_cutoff=-2"), 2),
        (lambda text: text + "0 0 1 7 7\n", 6),
    ], ids=["non-numeric", "component", "wavenumber", "negative-cutoff", "repeated-row"])
    def test_malformed_snapshot_is_2_with_manifest(self, tmp_path, capsys, edit, line):
        # a row or header the reader cannot place is refused by path and line: it had
        # died with a traceback (exit 1, no manifest) or been read as another mode,
        # and a second row for one coefficient had silently replaced the first
        path = tmp_path / "s.field"
        save_field(sp.shear_field(sp.SpectralGrid(16), 1.0), path)   # rows on lines 4 and 5
        path.write_text(edit(path.read_text()))
        out = tmp_path / "out"
        code = cli.main(["simulate", "--n", "16", "--dt", "0.01", "--t-end", "0.05",
                         "--initial-kind", "file", "--initial-path", str(path),
                         "--output-dir", str(out)])
        assert code == cli.EXIT_CONFIG
        assert f"{path}:{line}: " in capsys.readouterr().err
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["complete"] is False
        assert f"{path}:{line}: " in manifest["summary"]["error"]

    def test_file_started_run_writes_its_input_at_t0(self, tmp_path):
        # a velocity -> psi -> velocity round trip is not bitwise, so the t = 0
        # snapshot of a file-started run must be the field it read
        common = ["simulate", "--n", "16", "--alpha", "0.5", "--dt", "0.01",
                  "--forcing-kind", "shear", "--forcing-amplitude", "2.0"]
        first, second = tmp_path / "first", tmp_path / "second"
        assert cli.main(common + ["--t-end", "0.2", "--snapshot-every", "10",
                                  "--initial-kind", "random", "--output-dir", str(first)]) == 0
        start = first / "snapshot_t0.1.field"
        assert cli.main(common + ["--t-end", "0.1", "--snapshot-every", "5", "--initial-kind",
                                  "file", "--initial-path", str(start),
                                  "--output-dir", str(second)]) == 0
        assert (second / "snapshot_t0.field").read_bytes() == start.read_bytes()
        u = load_field(start)
        assert not np.array_equal(sp.velocity_of(u.grid, sp.stream_of(u.grid, u.coeffs)), u.coeffs)

    @staticmethod
    def writer_replies(monkeypatch):
        """What cli asks its FieldWriters to write, and their replies, read
        after the run: (kind, name, sha256) per file, kind "save" (formatted
        in the writer process) or "copy", in the order asked; the writer
        replies in that order."""
        asked, replies = [], []

        class Recording(fieldio.FieldWriter):
            def __init__(self, on_written):
                def record(path, digest):
                    replies.append((Path(path).name, digest))
                    on_written(path, digest)
                super().__init__(record)

            def save(self, f, path, alpha):
                asked.append(("save", Path(path).name))
                super().save(f, path, alpha)

            def copy(self, source, path):
                asked.append(("copy", Path(path).name))
                super().copy(source, path)
        monkeypatch.setattr(cli, "FieldWriter", Recording)

        def read():
            assert [name for _, name in asked] == [name for name, _ in replies]
            return [(kind, name, digest) for (kind, name), (_, digest) in zip(asked, replies)]
        return read

    @pytest.mark.filterwarnings("ignore:no sample at t")
    def test_final_snapshot_is_the_final_state_formatted_once(self, tmp_path, monkeypatch):
        # t_end = 3 is a snapshot time: final_state.field and snapshot_t3.field
        # hold the same bytes, and only the snapshot is formatted (by the
        # writer process, so its replies say what it formatted and copied)
        replies = self.writer_replies(monkeypatch)
        code = cli.main(["simulate", "--n", "32", "--alpha", "0", "--dt", "0.01", "--t-end", "3",
                         "--snapshot-every", "50", "--forcing-kind", "shear",
                         "--initial-kind", "random", "--output-dir", str(tmp_path)])
        assert code == cli.EXIT_OK
        assert [(kind, name) for kind, name, _ in replies()] == [
            ("save", f"snapshot_t{t:g}.field") for t in (0, 0.5, 1, 1.5, 2, 2.5, 3)] + [
            ("copy", "final_state.field")]
        final = (tmp_path / "final_state.field").read_bytes()
        assert (tmp_path / "snapshot_t3.field").read_bytes() == final
        assert (tmp_path / "snapshot_t2.5.field").read_bytes() != final
        hashes = {a["path"]: a["sha256"] for a in
                  json.loads((tmp_path / "manifest.json").read_text())["artifacts"]}
        assert hashes["snapshot_t3.field"] == hashes["final_state.field"]
        assert len(hashes) == 9
        assert {name: digest for _, name, digest in replies()} == {
            name: digest for name, digest in hashes.items() if name.endswith(".field")}

    @pytest.mark.filterwarnings("ignore:no sample at t")
    def test_zero_step_final_state_is_the_initial_velocity(self, tmp_path, monkeypatch):
        # a run of no step ends at its initial velocity itself, not at its
        # velocity -> psi -> velocity round trip: the t = 0 snapshot's bytes,
        # formatted once
        replies = self.writer_replies(monkeypatch)
        code = cli.main(["simulate", "--n", "16", "--t-end", "0", "--dt", "0.01",
                         "--snapshot-every", "10", "--initial-kind", "random",
                         "--output-dir", str(tmp_path)])
        assert code == cli.EXIT_OK
        assert [(kind, name) for kind, name, _ in replies()] == [
            ("save", "snapshot_t0.field"), ("copy", "final_state.field")]
        assert ((tmp_path / "final_state.field").read_bytes()
                == (tmp_path / "snapshot_t0.field").read_bytes())

    SHORT_SIMULATE = ["simulate", "--n", "16", "--nu", "1", "--alpha", "1",
                      "--dt", "0.01", "--t-end", "0.1",
                      "--forcing-kind", "shear", "--forcing-amplitude", "1.0",
                      "--initial-kind", "shear", "--initial-amplitude", "1.0"]

    def test_simulate_ok_is_0(self, tmp_path):
        code = cli.main(self.SHORT_SIMULATE + ["--output-dir", str(tmp_path)])
        assert code == cli.EXIT_OK
        assert (tmp_path / "diagnostics.csv").exists()
        assert (tmp_path / "final_state.field").exists()
        # t_end = 0.1 holds no sample past the 5/gamma burn-in: no time-average verdict
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert [c["name"] for c in manifest["summary"]["checks"]] == ["dissipative-envelope"]

    MODES_SIMULATE = ["simulate", "--n", "16", "--nu", "1", "--alpha", "1",
                      "--dt", "0.01", "--t-end", "0.05"]

    def run_modes(self, tmp_path, rows):
        tmp_path.mkdir(exist_ok=True)
        (tmp_path / "m.json").write_text(json.dumps({"forcing": {"kind": "modes", "modes": rows}}))
        out = tmp_path / "out"
        code = cli.main(self.MODES_SIMULATE + ["--config", str(tmp_path / "m.json"),
                                               "--output-dir", str(out)])
        return code, out

    @pytest.mark.parametrize("row", [
        [float("nan"), 1, 0, 0.5, 0, 0], [0, 1.5, 0, 0.5, 0, 0], [0, float("inf"), 0, 0.5, 0, 0],
        [0, 1, float("nan"), 0.5, 0, 0], [0, 1, 0, 0.5, 0, float("-inf")],
    ], ids=["nan-k1", "fractional-k2", "inf-k2", "nan-amplitude", "inf-amplitude"])
    def test_bad_forcing_row_is_2_with_manifest(self, tmp_path, capsys, row):
        # wavenumbers go through int(): unchecked, NaN dies with a traceback
        # (exit 1, no manifest) and 1.5 runs silently as mode (0, 1)
        code, out = self.run_modes(tmp_path, [[0, 2, 0, 0.5, 0, 0], row])
        assert code == cli.EXIT_CONFIG
        problem = "forcing.modes must be a list of 6-number rows"
        assert problem in capsys.readouterr().err
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["complete"] is False
        assert problem in manifest["summary"]["error"]

    def test_integral_float_wavenumber_reads_as_int(self, tmp_path):
        # 1.0 is accepted as 1, as any int key accepts it: the same run, byte for byte
        code, out = self.run_modes(tmp_path / "int", [[0, 1, 0, 0.5, 0, 0]])
        code_f, out_f = self.run_modes(tmp_path / "float", [[0.0, 1.0, 0, 0.5, 0, 0]])
        assert code == code_f == cli.EXIT_OK
        for name in ("final_state.field", "diagnostics.csv"):
            assert (out / name).read_bytes() == (out_f / name).read_bytes()

    def test_repeated_forcing_row_is_2_with_manifest(self, tmp_path, capsys):
        # a second row naming k = (1, 1) had silently replaced the first
        code, out = self.run_modes(tmp_path, [[1, 1, 0.5, 0, -0.5, 0], [1, 1, 0.25, 0, -0.25, 0]])
        assert code == cli.EXIT_CONFIG
        problem = "mode (1, 1) is listed more than once"
        assert problem in capsys.readouterr().err
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["complete"] is False
        assert problem in manifest["summary"]["error"]
        assert not (out / "diagnostics.csv").exists()

    def test_short_run_warning_names_the_burn_in(self, tmp_path):
        # gamma = nu/(alpha+1) = 0.5: the burn-in ends at t = 10, the run at t = 0.1
        with pytest.warns(dyn.InsufficientDurationWarning,
                          match=re.escape("no sample at t >= 5/gamma = 10 (run ends at t = 0.1)")):
            assert cli.main(self.SHORT_SIMULATE + ["--output-dir", str(tmp_path)]) == cli.EXIT_OK


#: valid values of every flag at small sizes: n and grid_n <= 16, dt >= 0.01,
#: t_end and window <= 0.2, jmax and mmax <= 200, families <= 2
VALID = {
    "bounds": {"d": ("2", "3"), "nu": ("0.5", "1"), "alpha": ("0", "0.01", "1"),
               "gnorm": ("1", "25"), "lambda1": ("1",), "measure": (repr(4 * np.pi**2), "2"),
               "geometry": ("torus", "domain")},
    "simulate": {"n": ("8", "12", "16"), "nu": ("0.5", "1"), "alpha": ("0", "0.1", "1"),
                 "dt": ("0.01", "0.05"), "t_end": ("0", "0.1", "0.2"),
                 "sample_every": ("1", "5"), "snapshot_every": ("0", "3")},
    "lyapunov": {"n": ("8", "16"), "nu": ("0.5", "1"), "alpha": ("0", "1"),
                 "dt": ("0.01", "0.05"), "frame_n": ("1", "3", "30"), "window": ("0.1", "0.2"),
                 "warmup": ("0", "0.1"), "burn_in": ("-1", "0", "0.1"),
                 "reorth_every": ("1", "5"), "n_max": ("1", "4")},
    "verify": {"target": cli.VERIFY_TARGETS, "jmax": ("2", "200"), "mmax": ("1", "200"),
               "families": ("1", "2"), "family_n": ("1", "3"), "grid_n": ("8", "16"),
               "alpha": ("0", "0.5"), "kind": ("alpha-orthonormal", "gram-scaled"),
               "lam_min": ("1", "2"), "lam_max": ("2", "8"), "sums_lam_max": ("10", "200")},
}
#: the snapshot files a run may name: a valid header over one row with a
#: malformed wavenumber or value, a bad magic line, and no file at all
FIELD_HEADER = ("# nsvlab-field v1\n# resolution_n=16 dealias_cutoff=5 role=velocity alpha=0\n"
                "# columns: component k1 k2 re im\n")
FIELD_FILES = {"malformed.field": FIELD_HEADER + "0 x 1 0.5 0\n",
               "bad_value.field": FIELD_HEADER + "0 0 1 y 0\n",
               "garbage.field": "not a field\n"}
SNAPSHOT_PATHS = tuple(FIELD_FILES) + ("missing.field",)
FLOW_VALID = {"forcing": {"kind": ("zero", "shear"), "amplitude": ("0.5", "2"),
                          "wavenumber": ("1", "2", "9")},
              "initial": {"kind": ("zero", "shear", "random", "file"), "amplitude": ("0.5", "2"),
                          "path": SNAPSHOT_PATHS}}
#: valid values of the config-only nested keys, and JSON values of the wrong
#: type or range for them
CONFIG_VALID = {"forcing": {"modes": ([[0, 1, 0.0, -0.5, 0.0, 0.0]],)},
                "initial": {"seed": (0, 3), "decay": (1.0, 3), "wavenumber": (1, 2, 9)}}
CONFIG_INVALID = (-1, 0, -0.5, 1.5, "x", "", None, True, float("nan"))
OUT_OF_RANGE = ("-1", "0", "-0.5", "nope")
ILL_TYPED = ("abc", "", "1e", "0x10", "nan", "inf")


@st.composite
def argument_vectors(draw):
    """A subcommand and a value for each of its flags: valid, out of range or
    ill-typed (in half the vectors, valid only); the nested-block flags and
    --seed only sometimes.  A simulate or lyapunov vector starts from its
    --initial-* flags, from a config file's shear or random initial block
    (with config-only keys and a modes forcing block, each valid or not, in
    any vector), or from a snapshot file a config file names.  A snapshot
    start keeps every flag valid, since a refused flag stops the run before
    the file is read.  Returns (argv, config or None)."""
    subcommand = draw(st.sampled_from(sorted(cli.SCHEMAS)))
    start = "flags"
    if subcommand in ("simulate", "lyapunov"):
        start = draw(st.sampled_from(("snapshot", "config", "flags")))
    mixed = start != "snapshot" and draw(st.booleans())

    def flag_value(valid):
        if not mixed:
            return st.sampled_from(valid)
        return st.one_of(st.sampled_from(valid), st.sampled_from(OUT_OF_RANGE),
                         st.sampled_from(ILL_TYPED))

    def config_value(valid):
        return draw(st.one_of(st.sampled_from(valid), st.sampled_from(CONFIG_INVALID)))

    config = None
    if start == "snapshot":
        config = {"initial": {"kind": "file", "path": draw(st.sampled_from(SNAPSHOT_PATHS))}}
    elif start == "config":
        initial = {"kind": draw(st.sampled_from(("shear", "random")))}
        for sub_key, valid in CONFIG_VALID["initial"].items():
            if draw(st.booleans()):
                initial[sub_key] = config_value(valid)
        config = {"initial": initial}
        if draw(st.booleans()):
            config["forcing"] = {"kind": "modes",
                                 "modes": config_value(CONFIG_VALID["forcing"]["modes"])}

    argv = [subcommand]
    for key, (typ, *_) in cli.SCHEMAS[subcommand].items():
        flag = "--" + key.replace("_", "-")
        if key == "target":
            argv.insert(1, draw(st.sampled_from(VALID["verify"]["target"] + ("nope",))))
        elif typ is bool:
            argv += [flag] if draw(st.booleans()) else []
        elif typ is list:
            argv += [flag] + draw(st.lists(flag_value(("0.1", "1")), min_size=1 - mixed,
                                           max_size=3))
        elif typ is dict:
            if config is not None and key in config:
                continue
            for sub_key in cli.FLOW_FLAGS[key]:
                if draw(st.booleans()):
                    argv.append(f"{flag}-{sub_key}={draw(flag_value(FLOW_VALID[key][sub_key]))}")
        else:
            argv.append(f"{flag}={draw(flag_value(VALID[subcommand][key]))}")
    if draw(st.booleans()):
        argv.append(f"--seed={draw(flag_value(('0', '3')))}")
    return argv, config


class TestExitContract:
    def test_every_flag_has_small_values(self):
        for subcommand, schema in cli.SCHEMAS.items():
            scalars = {k for k, (typ, *_) in schema.items() if typ not in (bool, list, dict)}
            assert scalars == set(VALID[subcommand]), subcommand
        for block, keys in cli.FLOW_FLAGS.items():
            assert set(keys) == set(FLOW_VALID[block]), block
        for block, keys in cli.FLOW_CONFIG_KEYS.items():
            assert set(keys) == set(CONFIG_VALID.get(block, {})), block

    @settings(max_examples=100, deadline=None)
    @given(drawn=argument_vectors())
    def test_every_run_exits_in_contract_with_a_manifest(self, drawn):
        argv, config = drawn
        with tempfile.TemporaryDirectory() as tmp, warnings.catch_warnings():
            warnings.simplefilter("ignore")
            config_text = json.dumps(config)
            for name, text in FIELD_FILES.items():
                (Path(tmp) / name).write_text(text)
                argv = [a.replace(name, str(Path(tmp) / name)) for a in argv]
                config_text = config_text.replace(name, str(Path(tmp) / name))
            out = Path(tmp) / "out"
            if config is not None:
                (Path(tmp) / "c.json").write_text(config_text)
                argv += ["--config", str(Path(tmp) / "c.json")]
            code = cli.main(argv + ["--output-dir", str(out)])
            assert code in (0, 1, 2, 3)
            manifest = json.loads((out / "manifest.json").read_text())
            assert manifest["complete"] is (code in (0, 1))


class TestDeterminism:
    def test_bounds_reports_byte_identical(self, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        args = ["bounds", "--d", "2", "--nu", "1", "--alpha", "0.001", "--gnorm", "25.33"]
        assert cli.main(args + ["--output-dir", str(out1)]) == 0
        assert cli.main(args + ["--output-dir", str(out2)]) == 0
        assert (out1 / "bounds.json").read_bytes() == (out2 / "bounds.json").read_bytes()
        # manifests differ only in timestamps/wall-clock
        m1 = json.loads((out1 / "manifest.json").read_text())
        m2 = json.loads((out2 / "manifest.json").read_text())
        for volatile in ("created_utc", "wall_clock_s"):
            m1.pop(volatile), m2.pop(volatile)
        assert m1 == m2

    def test_verify_report_byte_identical(self, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        args = ["verify", "lt", "--families", "3", "--family-n", "4",
                "--grid-n", "16", "--seed", "7"]
        assert cli.main(args + ["--output-dir", str(out1)]) == 0
        assert cli.main(args + ["--output-dir", str(out2)]) == 0
        assert (out1 / "report_lt.json").read_bytes() == (out2 / "report_lt.json").read_bytes()

    def test_env_var_output_dir(self, tmp_path, monkeypatch):
        monkeypatch.setenv("NSVLAB_OUTPUT_DIR", str(tmp_path / "env_out"))
        assert cli.main(["bounds", "--d", "2", "--gnorm", "1.0"]) == 0
        assert (tmp_path / "env_out" / "bounds.json").exists()


class TestVerifyTargets:
    def test_spectrum_target(self, tmp_path):
        code = cli.main(["verify", "spectrum", "--jmax", "500",
                         "--output-dir", str(tmp_path)])
        assert code == 0
        payload = json.loads((tmp_path / "report_spectrum.json").read_text())
        assert payload["pass"] and payload["worst_ratio"] <= 1.0 + 1e-12

    def test_lt_target_small(self, tmp_path):
        code = cli.main(["verify", "lt", "--families", "2", "--family-n", "3",
                         "--grid-n", "16", "--output-dir", str(tmp_path)])
        assert code == 0
        payload = json.loads((tmp_path / "report_lt.json").read_text())
        assert payload["worst_ratio"] < 1.0

    def test_rho_l2_target_small(self, tmp_path):
        code = cli.main(["verify", "rho-l2", "--families", "2", "--family-n", "3",
                         "--grid-n", "16", "--alphas", "0.1", "1.0",
                         "--output-dir", str(tmp_path)])
        assert code == 0
        payload = json.loads((tmp_path / "report_rho-l2.json").read_text())
        assert payload["range"]["alphas"] == [0.1, 1.0]

    def test_rho_linf_target_small(self, tmp_path):
        code = cli.main(["verify", "rho-linf", "--families", "2", "--family-n", "3",
                         "--grid-n", "16", "--lam-max", "4", "--sums-lam-max", "100",
                         "--output-dir", str(tmp_path)])
        assert code == 0
        payload = json.loads((tmp_path / "report_rho-linf.json").read_text())
        assert payload["spectral_sums_pass"] is True


class TestWitnessPersistence:
    def test_near_saturation_family_written(self, tmp_path, monkeypatch):
        # force the sweep to report a near-saturated family; the runner must
        # persist its vectors as field snapshots next to the report
        from nsvlab import inequalities as ineq

        real_sweep = ineq.run_lt_sweep

        def doctored(*args, **kwargs):
            sweep = real_sweep(*args, **kwargs)
            sweep.near_saturation = [sweep.worst_seed]
            return sweep

        monkeypatch.setattr(ineq, "run_lt_sweep", doctored)
        code = cli.main(["verify", "lt", "--families", "2", "--family-n", "3",
                         "--grid-n", "16", "--output-dir", str(tmp_path)])
        assert code == 0
        payload = json.loads((tmp_path / "report_lt.json").read_text())
        assert payload["witness_persisted"] is True
        witnesses = sorted(tmp_path.glob("witness_seed*_vec*.field"))
        assert len(witnesses) == 3
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        listed = {a["path"] for a in manifest["artifacts"]}
        assert {w.name for w in witnesses} <= listed

    def test_rho_l2_witness_keeps_the_sweep_alpha(self, tmp_path, monkeypatch):
        # rho-l2 draws alpha-orthonormal families at each of --alphas whatever
        # --kind says; the witness must be that family, at that alpha
        from nsvlab import inequalities as ineq
        from nsvlab import spectral as sp
        from nsvlab.fieldio import load_snapshot

        real_sweep = ineq.run_rho_l2_sweep
        sweeps = []

        def doctored(*args, **kwargs):
            sweep = real_sweep(*args, **kwargs)
            sweep.near_saturation = [sweep.worst_seed]
            sweeps.append(sweep)
            return sweep

        monkeypatch.setattr(ineq, "run_rho_l2_sweep", doctored)
        code = cli.main(["verify", "rho-l2", "--families", "2", "--family-n", "3",
                         "--grid-n", "16", "--kind", "gram-scaled", "--alphas", "0.1", "1.0",
                         "--output-dir", str(tmp_path)])
        assert code == 0
        worst_alpha = max(sweeps[0].reports, key=lambda r: r.ratio).extras["alpha"]
        loaded = [load_snapshot(w) for w in sorted(tmp_path.glob("witness_seed*_vec*.field"))]
        assert len(loaded) == 3
        assert {meta["alpha"] for _, meta in loaded} == {worst_alpha}
        metric = sp.AlphaMetric(worst_alpha)
        gram = [[oracles.alpha_inner(u, v, metric) for v, _ in loaded] for u, _ in loaded]
        np.testing.assert_allclose(gram, np.eye(3), atol=1e-8)


def assert_manifest_lists_the_files_present(out):
    """The manifest lists every file of the run directory but itself and a
    .partial left by a failed write, each with the sha256 of its bytes; and
    no writer process is left."""
    listed = {a["path"]: a["sha256"]
              for a in json.loads((out / "manifest.json").read_text())["artifacts"]}
    present = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in out.iterdir()
               if p.is_file() and p.name != "manifest.json" and p.suffix != ".partial"}
    assert listed == present
    assert multiprocessing.active_children() == []
    return listed


class TestArtifactHashes:
    @pytest.mark.filterwarnings("ignore::nsvlab.dynamics.InsufficientDurationWarning")
    def test_simulate_with_snapshots(self, tmp_path):
        assert cli.main(TestExitCodes.SHORT_SIMULATE + [
            "--sample-every", "1", "--snapshot-every", "3", "--output-dir", str(tmp_path)]) == 0
        listed = assert_manifest_lists_the_files_present(tmp_path)
        assert len(listed) == 2 + 4      # csv, final state, snapshots at t = 0, 0.03, 0.06, 0.09

    def test_lyapunov(self, tmp_path):
        assert cli.main(["lyapunov", "--n", "16", "--dt", "0.02", "--frame-n", "2",
                         "--window", "3", "--output-dir", str(tmp_path)]) == 0
        assert set(assert_manifest_lists_the_files_present(tmp_path)) == {
            "trace_n2.csv", "summary.json"}

    def test_verify_with_witnesses(self, tmp_path, monkeypatch):
        from nsvlab import inequalities as ineq

        real_sweep = ineq.run_lt_sweep

        def doctored(*args, **kwargs):
            sweep = real_sweep(*args, **kwargs)
            sweep.near_saturation = [sweep.worst_seed]
            return sweep

        monkeypatch.setattr(ineq, "run_lt_sweep", doctored)
        assert cli.main(["verify", "lt", "--families", "2", "--family-n", "3",
                         "--grid-n", "16", "--output-dir", str(tmp_path)]) == 0
        listed = assert_manifest_lists_the_files_present(tmp_path)
        assert len([name for name in listed if name.startswith("witness_")]) == 3


class TestWriterExitPaths:
    """simulate's writer process is joined on every exit path, and the
    manifest lists exactly the field files it wrote."""

    #: SHORT_SIMULATE with snapshots at t = 0, 0.05 and 0.1
    SNAPSHOTTING = TestExitCodes.SHORT_SIMULATE + ["--sample-every", "1", "--snapshot-every", "5"]

    def test_ok_run(self, tmp_path):
        with pytest.warns(dyn.InsufficientDurationWarning):
            code = cli.main(self.SNAPSHOTTING + ["--output-dir", str(tmp_path)])
        assert code == cli.EXIT_OK
        assert set(assert_manifest_lists_the_files_present(tmp_path)) == {
            "diagnostics.csv", "final_state.field", "snapshot_t0.field", "snapshot_t0.05.field",
            "snapshot_t0.1.field"}

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # overflow precedes detection
    def test_divergence_keeps_the_snapshots_before_it(self, tmp_path, capsys):
        code = cli.main([
            "simulate", "--n", "16", "--nu", "1e-8", "--alpha", "0", "--dt", "10",
            "--t-end", "100", "--sample-every", "1", "--snapshot-every", "1",
            "--forcing-kind", "shear", "--forcing-amplitude", "1e8",
            "--initial-kind", "random", "--output-dir", str(tmp_path)])
        assert code == cli.EXIT_RUNTIME
        step = int(re.search(r"diverged at step (\d+)", capsys.readouterr().err).group(1))
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["complete"] is False and manifest["summary"]["diverged_step"] == step
        listed = assert_manifest_lists_the_files_present(tmp_path)
        assert sorted(listed) == sorted(f"snapshot_t{10 * s:g}.field" for s in range(step))

    @pytest.mark.filterwarnings("ignore::nsvlab.dynamics.InsufficientDurationWarning")
    def test_write_error_in_the_worker_is_3(self, tmp_path, capsys):
        (tmp_path / "snapshot_t0.05.field").mkdir()       # the worker cannot rename onto it
        code = cli.main(self.SNAPSHOTTING + ["--output-dir", str(tmp_path)])
        assert code == cli.EXIT_RUNTIME
        assert "Is a directory" in capsys.readouterr().err
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["complete"] is False
        assert "snapshot_t0.05.field" in manifest["summary"]["error"]
        listed = assert_manifest_lists_the_files_present(tmp_path)
        assert "snapshot_t0.field" in listed and "snapshot_t0.05.field" not in listed

    @pytest.mark.filterwarnings("ignore::nsvlab.dynamics.InsufficientDurationWarning")
    def test_dead_worker_is_3(self, tmp_path, capsys, monkeypatch):
        # the worker runs the program as forked: this save_field ends it at its first write
        monkeypatch.setattr(fieldio, "save_field", lambda *args, **kwargs: os._exit(1))
        code = cli.main(self.SNAPSHOTTING + ["--output-dir", str(tmp_path)])
        assert code == cli.EXIT_RUNTIME
        err = capsys.readouterr().err
        assert "field writer process exited" in err and "terminated abruptly" in err
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["complete"] is False
        assert not [name for name in assert_manifest_lists_the_files_present(tmp_path)
                    if name.endswith(".field")]


class TestLyapunovCommand:
    def test_burn_in_past_the_end_warns_once(self, tmp_path):
        # no event passes the burn-in: the withheld verdict is the one warning,
        # with no "trace window -4" before it
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = cli.main(["lyapunov", "--n", "16", "--dt", "0.1", "--window", "1",
                             "--frame-n", "2", "--burn-in", "5", "--output-dir", str(tmp_path)])
        assert code == cli.EXIT_OK
        duration = [w for w in caught if issubclass(w.category, dyn.InsufficientDurationWarning)]
        assert len(duration) == 1
        assert "no re-orthonormalization at t >= burn_in = 5" in str(duration[0].message)

    def test_scan_summary_written(self, tmp_path):
        code = cli.main(["lyapunov", "--n", "16", "--nu", "1", "--alpha", "1",
                         "--dt", "0.02", "--window", "4", "--scan", "--n-max", "4",
                         "--output-dir", str(tmp_path)])
        assert code == 0
        payload = json.loads((tmp_path / "summary.json").read_text())
        assert payload["n_star"] == 1  # unforced flow contracts everywhere
        assert list(payload["q_hats"]) == ["1"]
        assert [p.name for p in tmp_path.glob("trace_n*.csv")] == ["trace_n1.csv"]

    def test_summary_written(self, tmp_path):
        code = cli.main(["lyapunov", "--n", "16", "--nu", "1", "--alpha", "1",
                         "--dt", "0.02", "--frame-n", "2", "--window", "3",
                         "--output-dir", str(tmp_path)])
        assert code == 0
        payload = json.loads((tmp_path / "summary.json").read_text())
        assert payload["n"] == 2 and "q_hat" in payload
        assert (tmp_path / "trace_n2.csv").exists()
