"""CLI harness: config parsing, dispatch, exit codes, determinism."""

import json
import re

import numpy as np
import pytest

from nsvlab import cli
from nsvlab import dynamics as dyn
from nsvlab import spectral as sp
from nsvlab.errors import ConfigError
from nsvlab.fieldio import load_field

import oracles


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

    def test_bounds_ok_is_0(self, tmp_path, capsys):
        code = cli.main(["bounds", "--d", "2", "--nu", "1", "--alpha", "0.5",
                         "--gnorm", "2.0", "--output-dir", str(tmp_path)])
        assert code == cli.EXIT_OK
        assert (tmp_path / "bounds.json").exists()
        assert (tmp_path / "manifest.json").exists()

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
        # the forced-study default at calG = 4000: dt * max nu|k|^2/(1+alpha|k|^2) = 5.38
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

    def test_short_run_warning_names_the_burn_in(self, tmp_path):
        # gamma = nu/(alpha+1) = 0.5: the burn-in ends at t = 10, the run at t = 0.1
        with pytest.warns(dyn.InsufficientDurationWarning,
                          match=re.escape("no sample at t >= 5/gamma = 10 (run ends at t = 0.1)")):
            assert cli.main(self.SHORT_SIMULATE + ["--output-dir", str(tmp_path)]) == cli.EXIT_OK


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


class TestLyapunovCommand:
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
