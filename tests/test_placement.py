"""Where helpers run: the spare-CPU rule, the bind, and the helpers that use them."""

import io
import os
import threading

import numpy as np
import pytest

from nsvlab import cli, fieldio, placement
from nsvlab import inequalities as ineq
from nsvlab.errors import DegenerateFrameError
from nsvlab.spectral import SpectralGrid

REAL_CPUS = sorted(os.sched_getaffinity(0))


def place(monkeypatch, usable, here):
    """Patch the usable CPUs and the CPU the caller reads as its own."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(usable))
    monkeypatch.setattr(placement, "caller_cpu", lambda: here)


class TestSpareCpus:
    @pytest.mark.parametrize("usable", [{0, 1}, {0, 1, 2, 3}, {1, 4, 6}, {0, 2, 3, 7, 8}])
    def test_others_distinct_and_in_turn(self, monkeypatch, usable):
        for here in sorted(usable):
            place(monkeypatch, usable, here)
            spare = placement.spare_cpus()
            assert here not in spare and len(set(spare)) == len(spare) == len(usable) - 1
            assert set(spare) == usable - {here}
            # in turn from the CPU after the caller's, wrapping round
            ring = sorted(usable)
            start = ring.index(here)
            assert spare == ring[start + 1:] + ring[:start]

    def test_caller_off_the_usable_cpus_leaves_one_for_itself(self, monkeypatch):
        place(monkeypatch, {0, 1, 2}, 5)
        assert placement.spare_cpus() == [0, 1]

    @pytest.mark.parametrize("here", [0, 1, None])
    def test_none_on_one_usable_cpu(self, monkeypatch, here):
        place(monkeypatch, {0}, here)
        assert placement.spare_cpus() == []

    def test_unread_caller_cpu_leaves_every_helper_unbound(self, monkeypatch):
        place(monkeypatch, {0, 1, 2, 3}, None)
        assert placement.spare_cpus() == [None, None, None]

    def test_without_affinity_every_cpu_counts_and_none_is_bound(self, monkeypatch):
        monkeypatch.delattr(os, "sched_getaffinity")
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        assert placement.spare_cpus() == [None, None]


class TestCallerCpu:
    def test_reads_a_usable_cpu(self):
        here = placement.caller_cpu()
        if here is None:
            pytest.skip("/proc/thread-self/stat cannot be read here")
        assert here in REAL_CPUS

    def test_unreadable_or_malformed_stat_reads_none(self, monkeypatch):
        def refused(*args, **kwargs):
            raise PermissionError("refused")
        monkeypatch.setattr(placement, "open", refused, raising=False)
        assert placement.caller_cpu() is None
        monkeypatch.setattr(placement, "open", lambda *a, **k: io.StringIO("1 (x) R 2"),
                            raising=False)
        assert placement.caller_cpu() is None
        monkeypatch.setattr(placement, "open", lambda *a, **k: io.StringIO("1 (x) " + "z " * 40),
                            raising=False)
        assert placement.caller_cpu() is None


class TestBind:
    def test_refused_bind_binds_nothing(self, monkeypatch):
        calls = []

        def refused(pid, cpus):
            calls.append(cpus)
            raise OSError(22, "Invalid argument")
        monkeypatch.setattr(os, "sched_setaffinity", refused)
        placement.bind(7)
        placement.bind(None)
        assert calls == [{7}]

    @pytest.mark.skipif(len(REAL_CPUS) < 2, reason="needs two usable CPUs")
    def test_binds_the_calling_thread_alone(self):
        seen = []

        def helper():
            placement.bind(REAL_CPUS[-1])
            seen.append(os.sched_getaffinity(0))
        thread = threading.Thread(target=helper)
        thread.start()
        thread.join()
        assert seen == [{REAL_CPUS[-1]}]
        assert sorted(os.sched_getaffinity(0)) == REAL_CPUS


class TestHelpers:
    GRID = SpectralGrid(16)

    def test_caller_affinity_kept_by_sweeps(self, monkeypatch):
        ineq.run_lt_sweep(self.GRID, range(4), n=3)
        ineq.run_rho_linf_sweep(self.GRID, range(3), range(1, 4), n=3)
        assert sorted(os.sched_getaffinity(0)) == REAL_CPUS
        real_draw = ineq._draw

        def draw(grid, n, seed, role):   # seed 2 draws zeros at every sub-seed
            bands = real_draw(grid, n, seed, role)
            return np.zeros_like(bands) if seed % 1000 == 2 else bands
        monkeypatch.setattr(ineq, "_draw", draw)
        with pytest.raises(DegenerateFrameError):
            ineq.run_rho_l2_sweep(self.GRID, range(4), (0.1, 1.0), n=3)
        assert sorted(os.sched_getaffinity(0)) == REAL_CPUS

    def test_worker_error_outside_a_check_is_raised(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        monkeypatch.setattr(placement, "caller_cpu", lambda: 0)

        def bind(cpu):
            raise RuntimeError(f"cannot bind to {cpu}")
        monkeypatch.setattr(placement, "bind", bind)
        threads = threading.active_count()
        with pytest.raises(RuntimeError, match="cannot bind to 1"):
            ineq.run_lt_sweep(self.GRID, range(3), n=3)
        assert threading.active_count() == threads

    @pytest.mark.filterwarnings("ignore::nsvlab.dynamics.InsufficientDurationWarning")
    def test_caller_affinity_kept_by_simulate(self, tmp_path):
        code = cli.main(["simulate", "--n", "16", "--dt", "0.01", "--t-end", "0.1",
                         "--sample-every", "1", "--snapshot-every", "5", "--initial-kind", "random",
                         "--output-dir", str(tmp_path)])
        assert code == cli.EXIT_OK
        assert len(list(tmp_path.glob("snapshot_t*.field"))) == 3
        assert sorted(os.sched_getaffinity(0)) == REAL_CPUS

    @pytest.mark.skipif(len(REAL_CPUS) < 2, reason="needs two usable CPUs")
    @pytest.mark.parametrize("here", REAL_CPUS + [None])
    def test_writer_runs_off_the_caller_cpu(self, tmp_path, monkeypatch, here):
        # the forked worker runs this save_field, which answers with its affinity;
        # here None reads the caller's CPU as the program does
        monkeypatch.setattr(fieldio, "save_field",
                            lambda f, path, alpha: sorted(os.sched_getaffinity(0)))
        if here is None and placement.caller_cpu() is None:
            pytest.skip("/proc/thread-self/stat cannot be read here")
        if here is not None:
            monkeypatch.setattr(placement, "caller_cpu", lambda: here)
        written = []
        with fieldio.FieldWriter(lambda *reply: written.append(reply)) as writer:
            writer.save(None, tmp_path / "a.field", 0.0)
            writer.save(None, tmp_path / "b.field", 0.0)
        (_, first), (_, second) = written
        assert len(first) == 1 and first == second
        if here is not None:
            assert first == placement.spare_cpus()[:1] and first != [here]
        assert sorted(os.sched_getaffinity(0)) == REAL_CPUS
