"""nsvlab benchmark: one workload per invocation, result as the last stdout line.

    python3 nsvbench/run.py --workload forced-sim --seed 1 --seconds 35 --trace 0

Run from the repository root; nsvlab is imported from ./src.  After an
untimed warm-up, rounds (set-up, timed section, checks, then the other
workloads' throughput probes) repeat while another round fits in --seconds,
and more probes fill what is left of it; timings are medians over rounds.
Every timing is scaled to a fixed host speed by hostclock.Stopwatch (see
hostclock.py); result.json keeps the wall times beside them.  With --trace 1
one more round runs with every public nsvlab function wrapped in a span, and
the per-layer metrics come from that round.
Each run writes result.json (machine, seed, per-round figures, checks) and,
when traced, spans.jsonl to nsvbench/runs/<workload>-seed<seed>-trace<0|1>/.
"""

import os

# one BLAS thread: the workloads are single-process and the timings should
# not depend on how many cores happen to be idle
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import contextlib  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import warnings  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

import hostclock  # noqa: E402

WORKLOAD_NAMES = ("forced-sim", "tangent-frame", "verify-sweep")
IMPORT_REPEATS = 15
THROUGHPUT = {"sim.steps_per_s": "steps/s", "sim_ns.steps_per_s": "steps/s",
              "tangent.steps_per_s": "steps/s", "tangent_linear.steps_per_s": "steps/s",
              "verify.families_per_s": "families/s"}


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def import_program():
    """Import nsvlab from ./src IMPORT_REPEATS times, each time from scratch;
    returns the Stopwatch sections of the imports.  numpy, a dependency, is
    imported once before and not timed.  The last import is the one the run
    uses."""
    if not (ROOT / "src" / "nsvlab" / "__init__.py").is_file():
        raise SystemExit(f"nsvbench: no nsvlab sources under {ROOT / 'src'}")
    sys.path.insert(0, str(ROOT / "src"))
    sw = hostclock.Stopwatch()
    for _ in range(IMPORT_REPEATS):
        for name in [m for m in sys.modules if m == "nsvlab" or m.startswith("nsvlab.")]:
            del sys.modules[name]
        sw.time("import", importlib.import_module, "nsvlab.cli")   # imports every nsvlab module
    return sw.sections


def machine():
    import numpy as np

    model = ""
    try:
        with open("/proc/cpuinfo") as fh:
            model = next((line.split(":", 1)[1].strip() for line in fh
                          if line.startswith("model name")), "")
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
            "cpu_model": model or platform.processor(), "platform": platform.platform(),
            "python": platform.python_version(), "numpy": np.__version__,
            "blas_threads": BLAS_THREADS}


def one_round(workload, rdir, tracer=None):
    rdir.mkdir(parents=True)
    sw = hostclock.Stopwatch(inside=tracer is None)
    ctx, setup_s = sw.time("setup", workload.setup, rdir)
    with tracer if tracer is not None else contextlib.nullcontext():
        out = workload.run(ctx, sw)
    checks = workload.check(ctx, out)
    shutil.rmtree(rdir)
    return {"setup_s": setup_s, "run_s": sw.total(skip=("setup",)),
            "metrics": {k: out[k] for k in workload.owns}, "checks": checks,
            "sections": sw.sections}


def probe_round(probes, rdir):
    """One run of each probe's timed section; returns the throughputs they own."""
    metrics = {}
    for probe in probes:
        pdir = rdir / probe.name
        pdir.mkdir(parents=True)
        out = probe.run(probe.setup(pdir), hostclock.Stopwatch())
        metrics.update({k: out[k] for k in probe.owns})
    shutil.rmtree(rdir)
    return metrics


def main(argv=None):
    args = parse_args(argv)
    hostclock.warm_up()
    imports = import_program()
    import_s = statistics.median(s["s"] for s in imports)
    warnings.simplefilter("ignore")   # nsvlab's duration/CFL warnings, once per sample
    import tracing
    import workloads

    workload = workloads.WORKLOADS[args.workload](args.seed)
    small = {name: cls(args.seed, **workloads.PROBES[name])
             for name, cls in workloads.WORKLOADS.items()}
    probes = [w for name, w in small.items() if name != args.workload]
    out_dir = BENCH_DIR / "runs" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.mkdir(parents=True)

    # warm-ups, not timed: the first pass through each code path in a process
    # runs 20-50% slower (allocator and FFT caches), which would otherwise
    # weigh on the first round's figures
    t = time.perf_counter()
    probe_round([small[args.workload]], out_dir / "warmup")
    warmup_s = time.perf_counter() - t

    rounds, round_s = [], 0.0
    start = time.perf_counter()
    while not rounds or time.perf_counter() - start + round_s <= args.seconds:
        t = time.perf_counter()
        rounds.append(one_round(workload, out_dir / f"round{len(rounds)}"))
        if len(rounds) == 1:
            # every round does the same work, so the first sets the workload's
            # own peak; it is read before any probe has run
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            t_warm = time.perf_counter()
            probe_round(probes, out_dir / "warmup")
            t_warm = time.perf_counter() - t_warm
            warmup_s += t_warm
            t += t_warm   # the next round has no warm-up to fit
        probe_dir = out_dir / f"round{len(rounds) - 1}-probes"
        t_probe = time.perf_counter()
        rounds[-1]["metrics"].update(probe_round(probes, probe_dir))
        probe_s = time.perf_counter() - t_probe
        round_s = time.perf_counter() - t
    # what is left of --seconds goes to more probes, so that a workload whose
    # own round fills most of the run has several samples of the other
    # workloads' throughputs; they feed only the untraced metrics
    extra = []
    while not args.trace and time.perf_counter() - start + probe_s <= args.seconds:
        t = time.perf_counter()
        extra.append(probe_round(probes, out_dir / f"extra{len(extra)}-probes"))
        probe_s = time.perf_counter() - t
    traced = None
    if args.trace:
        tracer = tracing.Tracer()
        traced = one_round(workload, out_dir / "traced", tracer)
        tracer.write(out_dir / "spans.jsonl")
        rounds.append(traced)

    checks = [c for r in rounds for c in r["checks"]]
    failed = sum(not c["passed"] for c in checks)
    untraced = [r for r in rounds if r is not traced]
    run_s = statistics.median(r["run_s"] for r in untraced)
    if traced is None:
        metrics = {
            "setup_s": (import_s + statistics.median(r["setup_s"] for r in untraced), "s"),
            "run_s": (run_s, "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
        samples = [r["metrics"] for r in untraced] + extra
        for name, unit in THROUGHPUT.items():
            metrics[name] = (statistics.median(m[name] for m in samples if name in m), unit)
    else:
        metrics = tracing.layer_metrics(tracer.spans)
        for name in tracer.missing:
            print(f"# not traced (absent from nsvlab): {name}")
        metrics["trace.run_s"] = (traced["run_s"], "s")
        metrics["trace.overhead_s"] = (traced["run_s"] - run_s, "s")

    result = {"correct": failed == 0, "attempted": len(checks), "failed": failed,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "machine": machine(), "import_s": import_s,
              "ref_s_nominal": hostclock.REF_S, "imports": imports,
              "warmup_s": warmup_s, "not_traced": tracer.missing if args.trace else [],
              "rounds": [{k: r[k] for k in ("setup_s", "run_s", "metrics", "sections")}
                         for r in rounds],
              "extra_probes": extra,
              "checks": rounds[-1]["checks"], **result}
    (out_dir / "result.json").write_text(json.dumps(record, indent=1) + "\n")

    m = record["machine"]
    print(f"# {args.workload} seed={args.seed} rounds={len(rounds)} nproc={m['nproc']} "
          f"cpu={m['cpu_model']!r} numpy={m['numpy']} blas_threads={m['blas_threads']}")
    for c in checks:
        if not c["passed"]:
            print(f"# FAILED {c['name']}: {c['detail']}")
    for c in rounds[-1]["checks"]:
        print(f"# check {'pass' if c['passed'] else 'FAIL'}: {c['name']}: {c['detail']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
