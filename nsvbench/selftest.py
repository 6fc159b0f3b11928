"""Self-tests of the benchmark: every check fails on a deliberately wrong
output and passes on the right one, tracing leaves nsvlab as it found it,
and the stopwatch scales by its samples and puts the SIGALRM timer back.

    python3 nsvbench/selftest.py        (from the repository root)
"""

import math
import signal
import sys
import time
import unittest
from pathlib import Path

import numpy as np

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR.parent / "src"))
sys.path.insert(0, str(BENCH_DIR))

import nsvlab.cli  # noqa: E402,F401
from nsvlab import inequalities as ineq  # noqa: E402
from nsvlab import spectral as sp  # noqa: E402

import checks as C  # noqa: E402
import hostclock  # noqa: E402
import reference as R  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


class SnapshotChecks(unittest.TestCase):
    def setUp(self):
        rows, _ = workloads.forcing_modes(32)
        self.good = R.modes_to_coeffs(32, rows)

    def test_band_limited_field_passes(self):
        self.assertTrue(C.band_limited_divergence_free(self.good)[0])

    def test_coefficient_outside_band_fails(self):
        bad = self.good.copy()
        bad[0, 0, 11] = 1e-3          # k = (0, 11), past the n/3 = 10 cutoff
        self.assertFalse(C.band_limited_divergence_free(bad)[0])

    def test_divergent_field_fails(self):
        bad = self.good.copy()
        bad[1, 0, 2] += 1e-3          # k2 u_2 != 0 at k = (0, 2)
        self.assertFalse(C.band_limited_divergence_free(bad)[0])

    def test_reference_mismatch_fails(self):
        start = self.good
        moved = 1.01 * start
        self.assertTrue(C.matches_reference(moved, moved.copy(), start)[0])
        self.assertFalse(C.matches_reference(moved, moved * (1 + 1e-8), start)[0])
        self.assertFalse(C.matches_reference(start, start.copy(), start)[0])  # nothing moved


class ExponentChecks(unittest.TestCase):
    def test_zero_attractor(self):
        exact = np.full(4, -0.5)
        self.assertTrue(C.zero_attractor_exponents(exact, -2.0, 1.0, 1.0)[0])
        shifted = exact + np.array([0.0, 0.0, 2 * C.EXPONENT_TOL, 0.0])
        self.assertFalse(C.zero_attractor_exponents(shifted, -2.0, 1.0, 1.0)[0])
        self.assertFalse(C.zero_attractor_exponents(exact, -2.0 + 8 * C.EXPONENT_TOL, 1.0, 1.0)[0])

    def test_liouville(self):
        exps = np.array([-0.9, -1.0, -1.1, -2.0])
        q = float(np.sum(exps))
        self.assertTrue(C.liouville(exps, q)[0])
        self.assertFalse(C.liouville(exps + 2 * C.LIOUVILLE_RTOL * abs(q) / 4, q)[0])

    def test_dimension_bound(self):
        self.assertTrue(C.dimension_below_bound(np.array([0.5, -0.2, -0.6]), 38.9)[0])
        self.assertFalse(C.dimension_below_bound(np.array([0.5, -0.2, -0.6]), 2.5)[0])
        self.assertFalse(C.dimension_below_bound(np.array([0.5, 0.2]), 38.9)[0])


class DensityChecks(unittest.TestCase):
    def test_shear_integral(self):
        fam = workloads.VerifySweep(seed=0)._shear_family()
        value = ineq.rho_profile(fam, sp.SpectralGrid(64)).integral(2.0)
        self.assertTrue(C.close(value, C.shear_density_integral(), "")[0])
        self.assertFalse(C.close(value * (1 + 1e-9), C.shear_density_integral(), "")[0])

    def test_constant_density(self):
        wl = workloads.VerifySweep(seed=0)
        self.assertTrue(wl._constant_rho(sp.SpectralGrid(64))[0])
        integral, peak = C.constant_density([1.0, 1.0, 1.0, 1.0])
        self.assertAlmostEqual(integral, 16.0 / (4 * math.pi**2))
        self.assertAlmostEqual(peak, 4.0 / (4 * math.pi**2))
        self.assertFalse(C.close(integral * 1.001, integral, "")[0])

    def test_ratio_above_one_fails(self):
        self.assertTrue(C.ratios_in_unit_interval([0.01, 0.5, 1.0])[0])
        self.assertFalse(C.ratios_in_unit_interval([0.01, 1.0 + 1e-12])[0])
        self.assertFalse(C.ratios_in_unit_interval([0.0, 0.5])[0])

    def test_counting(self):
        self.assertEqual([R.count_eigenvalues(e) for e in (1, 2, 4, 5)], [4, 8, 12, 20])
        self.assertFalse(C.counts_equal([4, 8], [4, 9])[0])


class EnergyChecks(unittest.TestCase):
    def test_envelope_and_average(self):
        t = np.linspace(0.0, 20.0, 201)
        e = 2.0 * np.exp(-t)
        self.assertTrue(C.dissipative_envelope(t, e, 1.0, 0.0, 1.0)[0])
        self.assertFalse(C.dissipative_envelope(t, e + 0.1 * t, 1.0, 0.0, 1.0)[0])
        self.assertTrue(C.mean_enstrophy(t, np.full_like(t, 0.5), e, 1.0, 0.0, 1.0)[0])
        self.assertFalse(C.mean_enstrophy(t, np.full_like(t, 2.0), e, 1.0, 0.0, 1.0)[0])
        self.assertFalse(C.mean_enstrophy(t[:150], np.full(150, 0.5), e[:150], 1.0, 0.0, 1.0)[0])

    def test_csv_energy(self):
        c = R.modes_to_coeffs(32, workloads.forcing_modes(32)[0])
        t = np.array([0.0, 1.0])
        e = np.array([R.energy(c, 0.1)] * 2)
        self.assertTrue(C.csv_energy_matches(t, e, {1.0: c}, 0.1)[0])
        self.assertFalse(C.csv_energy_matches(t, e * (1 + 1e-8), {1.0: c}, 0.1)[0])

    def test_shear_decay(self):
        exact = math.exp(-1.0 / 1.5)
        self.assertTrue(C.shear_decay(1.0, exact, 1.0, 0.5, 1, 1.0, 1e-12)[0])
        self.assertFalse(C.shear_decay(1.0, exact * (1 + 1e-9), 1.0, 0.5, 1, 1.0, 1e-12)[0])


class TracerRestores(unittest.TestCase):
    def _bindings(self):
        found = {}
        for module_name, path, _, _ in tracing.TARGETS:
            module = sys.modules[module_name]
            if "." in path:
                cls_name, attr = path.split(".")
                owner = getattr(module, cls_name)
                found[(id(owner), attr)] = owner.__dict__[attr]
            else:
                original = getattr(module, path)
                for owner in tracing.Tracer._importers(original, path):
                    found[(id(owner), path)] = getattr(owner, path)
        return found

    def test_every_wrapped_name_is_restored(self):
        before = self._bindings()
        self.assertIn((id(ineq), "alpha_gram_schmidt"), before)   # imported by name
        tracer = tracing.Tracer()
        with tracer:
            wrapped = tracer.wrapped_names()
            self.assertEqual(len(wrapped), len(before))
            for owner, attr in wrapped:
                self.assertIsNot(owner.__dict__[attr], before[(id(owner), attr)])
            ineq.run_lt_sweep(sp.SpectralGrid(16), range(1), n=2)
        self.assertEqual(self._bindings(), before)
        names = {s[0] for s in tracer.spans}
        self.assertTrue({"inequalities.sweep", "inequalities.sample", "lyapunov.gram_schmidt",
                         "inequalities.rho_profile", "spectral.fft"} <= names)
        metrics = tracing.layer_metrics(tracer.spans)
        self.assertEqual(metrics["inequalities.refine.calls"][0], 1)
        self.assertEqual(metrics["inequalities.rho_profile.calls"][0], 2)

    def test_absent_target_is_skipped(self):
        before = self._bindings()
        saved = tracing.TARGETS
        tracing.TARGETS = saved + (("nsvlab.spectral", "no_such_kernel", "spectral.x", None),)
        try:
            with tracing.Tracer() as tracer:
                self.assertEqual(tracer.missing, ["nsvlab.spectral.no_such_kernel"])
        finally:
            tracing.TARGETS = saved
        self.assertEqual(self._bindings(), before)

    def test_restored_after_an_exception(self):
        before = self._bindings()
        with self.assertRaises(ZeroDivisionError):
            with tracing.Tracer():
                1 / 0
        self.assertEqual(self._bindings(), before)


class StopwatchScales(unittest.TestCase):
    def test_scaled_time_and_restored_timer(self):
        previous = signal.getsignal(signal.SIGALRM)
        sw = hostclock.Stopwatch()
        out, scaled = sw.time("sleep", time.sleep, 0.35)
        self.assertIsNone(out)
        section = sw.sections[0]
        self.assertGreaterEqual(section["samples"], 4)    # before, >= 2 inside, after
        self.assertAlmostEqual(section["wall_s"], 0.35, delta=0.05)   # samples taken out
        self.assertAlmostEqual(scaled, section["wall_s"] * hostclock.REF_S / section["ref_s"])
        self.assertIs(signal.getsignal(signal.SIGALRM), previous)
        self.assertEqual(signal.getitimer(signal.ITIMER_REAL), (0.0, 0.0))

    def test_no_sample_inside_a_traced_section(self):
        sw = hostclock.Stopwatch(inside=False)
        sw.time("sleep", time.sleep, 0.25)
        self.assertEqual(sw.sections[0]["samples"], 2)    # before and after only

    def test_restored_after_an_exception(self):
        previous = signal.getsignal(signal.SIGALRM)
        with self.assertRaises(ZeroDivisionError):
            hostclock.Stopwatch().time("fail", lambda: 1 / 0)
        self.assertIs(signal.getsignal(signal.SIGALRM), previous)
        self.assertEqual(signal.getitimer(signal.ITIMER_REAL), (0.0, 0.0))


if __name__ == "__main__":
    unittest.main()
