"""Benchmark of the multitile package: one workload per process.

    python3 bench/run.py --workload {recon_perfect,cli_roundtrip,certify} \
        --seed N --seconds S --trace {0,1}

The load is a closed loop with one caller: a pass over the workload's
domain list starts when the previous pass (and its correctness check)
has ended, until S seconds of passes have run.  Library calls run in
this process with BLAS pinned to one thread; command line children get
the same environment.  Inputs are generated from the seed into
.bench_run/<workload>-seed<N>-trace<T>/ inside the checkout.

The report is human-readable lines followed by one JSON line (the last
line of standard output).  --trace 0 reports the end-to-end metrics,
measured with tracing off.  --trace 1 first runs untraced passes, then
traced passes, then per-layer diagnostics; it reports the per-layer
metrics and the tracing overhead and writes every span to spans.json in
the run directory.
"""

from __future__ import annotations

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
WORKLOAD_NAMES = ("recon_perfect", "cli_roundtrip", "certify")
SETUP_REPS = 5        # setup_s is the median of this many setups
PROBE_TIMEOUT_S = 60
RUN_CAP_S = 120       # no new pass starts after this much wall time
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float, help="seconds of passes to measure")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true", help="smallest inputs (smoke test only)")
    p.add_argument("--setup-probe", action="store_true",
                   help="only import and set up, print the seconds it took (used for setup_s)")
    return p.parse_args(argv)


def pin_threads() -> None:
    """One BLAS thread and one reconstruction worker, for this process
    and every child; must run before numpy is imported."""
    for var in THREAD_VARS:
        os.environ[var] = "1"
    os.environ.pop("MULTITILE_THREADS", None)


def git_commit(root: Path) -> str:
    """Commit of the checkout from .git, without running git; 'unknown'
    outside a git work tree."""
    head = root / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = root / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (root / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def fingerprint(args) -> dict:
    from importlib.metadata import PackageNotFoundError, version

    import numpy as np

    try:
        click_version = version("click")
    except PackageNotFoundError:
        click_version = "missing"
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "click": click_version,
        "blas": {key: blas.get(key) for key in ("name", "version", "openblas configuration")},
        "threads": {var: os.environ[var] for var in THREAD_VARS},
        "git_commit": git_commit(ROOT),
    }


def probe_setups(args, run_dir: Path) -> list[float]:
    """Seconds from interpreter start to a finished setup, measured in
    SETUP_REPS fresh processes one after another."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "0", "--setup-probe"]
    cmd += ["--tiny"] if args.tiny else []
    out = []
    for _ in range(SETUP_REPS):
        proc = subprocess.run(cmd, capture_output=True, text=True, check=True, timeout=PROBE_TIMEOUT_S)
        out.append(float(proc.stdout.strip().splitlines()[-1]))
    return out


def run_passes(workload, cases, clock_for, budget: float, outcome):
    """Closed loop: pass, check, repeat until `budget` seconds of passes."""
    times = []
    while True:
        clock = clock_for(len(times))
        t0 = time.perf_counter()
        with clock.span("bench.pass"):
            output = workload.run_pass(cases, clock)
        times.append(time.perf_counter() - t0)
        result = workload.check(cases, output)
        outcome.attempted += result.attempted
        outcome.failed += result.failed
        outcome.known += result.known
        outcome.err_max = max(outcome.err_max, result.err_max)
        if sum(times) >= budget or time.perf_counter() - T_START > RUN_CAP_S:
            return times


def main(argv=None) -> int:
    args = parse_args(argv)
    pin_threads()
    package = ROOT / "src" / "multitile"
    if not (package / "__init__.py").is_file() or not (ROOT / "domains").is_dir():
        print(f"error: {ROOT} is not a multitile checkout (needs src/multitile and domains/)",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import multitile

    if Path(multitile.__file__).resolve().parent != package.resolve():
        print(f"error: imported multitile from {multitile.__file__}, not {package}", file=sys.stderr)
        return 2

    import workloads as wl
    from spans import Clock, Tracer

    name = "probe" if args.setup_probe else f"trace{args.trace}"
    run_dir = ROOT / ".bench_run" / f"{args.workload}-seed{args.seed}-{name}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    workload = wl.WORKLOADS[args.workload](wl.Context(ROOT, run_dir, args.seed, args.tiny))
    if args.setup_probe:
        workload.setup(Clock())
        print(time.perf_counter() - T_START)
        shutil.rmtree(run_dir, ignore_errors=True)
        return 0

    setups = probe_setups(args, run_dir)
    setup_s = statistics.median(setups)
    fp = fingerprint(args)
    (run_dir / "fingerprint.json").write_text(json.dumps(fp, indent=1) + "\n")
    print("fingerprint " + json.dumps(fp, sort_keys=True))

    tracer = Tracer(args.workload) if args.trace else None
    cases = workload.setup(tracer if tracer is not None else Clock())

    outcome = wl.Outcome()
    plain = Clock()
    if tracer is None:
        times = run_passes(workload, cases, lambda n: plain, args.seconds, outcome)
        traced_times = []
    else:
        times = run_passes(workload, cases, lambda n: plain, args.seconds / 2, outcome)
        tracer.phase = "pass"

        def traced_clock(n):
            tracer.pass_no = n
            return tracer

        traced_times = run_passes(workload, cases, traced_clock, args.seconds / 2, outcome)
        tracer.phase, tracer.pass_no = "diagnostics", None
        diagnostics = workload.diagnostics(cases, tracer)

    rows = workload.rows_per_pass(cases)
    pass_s = statistics.median(times)
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if workload.spawns_children:
        peak_kb += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    correct = outcome.failed == outcome.known

    print(f"workload {args.workload}: closed loop, one caller, seed {args.seed}, "
          f"{len(times)} untraced + {len(traced_times)} traced passes, "
          f"{len(cases)} domains ({', '.join(c.name for c in cases)})")
    for c in cases:
        draws = c.extra.get("draws")
        print(f"  domain {c.name}: d={c.dom.dimension} k={c.dom.k} cells={len(c.dom.cells)} "
              f"rows={c.rows} certificate={c.cert.kind} q={c.cert.q}"
              + (f" draws={draws}" if draws else ""))
    print(f"setup_s = {setup_s:.6f} s (median of {SETUP_REPS} fresh-process setups: "
          + ", ".join(f"{t:.4f}" for t in setups) + ")")
    print(f"pass_s = {pass_s:.6f} s (median of {len(times)} untraced passes: "
          + ", ".join(f"{t:.4f}" for t in times) + ")")
    print(f"rows_per_s = {rows / pass_s:.3f} 1/s ({rows} rows per pass)")
    for name, value, unit, note in workload.rates(cases, plain, len(times)):
        print(f"{name} = {value:.3f} {unit} ({note})")
    print(f"peak_rss_mb = {peak_kb / 1024:.3f} MB"
          + (" (self + largest child)" if workload.spawns_children else " (self)"))
    print(f"failed_frac = {outcome.failed / outcome.attempted:.6f} "
          f"(ops={outcome.attempted}, failed={outcome.failed})")
    if outcome.known:
        for name, why in wl.KNOWN_DEFECTS.items():
            if any(c.name == name for c in cases):
                print(f"known seed defect {name}: {outcome.known} failed ops counted above; {why}")
    print(f"worst relative error = {outcome.err_max:.3e} (tolerance {wl.REL_TOL:g})")
    print(f"correct = {str(correct).lower()}"
          + ("" if correct else " (a check failed outside the documented seed defects)"))

    if tracer is None:
        metrics = {
            "setup_s": (setup_s, "s"),
            "pass_s": (pass_s, "s"),
            "rows_per_s": (rows / pass_s, "1/s"),
            "peak_rss_mb": (peak_kb / 1024, "MB"),
        }
    else:
        layer = {name: 0.0 for name, _ in wl.PER_LAYER}
        for name in wl.SETUP_LAYERS:
            layer[name + "_s"] = tracer.phase_total("setup", name)
        layer.update(diagnostics)
        layer["reconstruction.roundtrip_err_max"] = outcome.err_max
        overhead = statistics.median(traced_times) - pass_s
        layer["bench.trace_overhead_s"] = overhead
        metrics = {name: (layer[name], unit) for name, unit in wl.PER_LAYER}
        for name, (value, unit) in metrics.items():
            print(f"  {name} = {value:.6g} {unit}")
        print(f"tracing overhead = {overhead:.6f} s per pass (traced median "
              f"{statistics.median(traced_times):.6f} s - untraced median {pass_s:.6f} s)")
        n_traced = len(traced_times)
        for phase, scale, label in (("setup", 1, "setup"),
                                    ("pass", n_traced, "per traced pass, mean"),
                                    ("diagnostics", 1, "diagnostics")):
            selfs = tracer.self_time_by_module(phase)
            print(f"self time by module ({label}): "
                  + ", ".join(f"{m} {v / scale:.6f} s" for m, v in selfs.items()))
        tracer.write(run_dir / "spans.json")
        print(f"spans: {len(tracer.spans)} written to {run_dir / 'spans.json'}")

    for leftover in run_dir.glob("*.csv*"):
        leftover.unlink()
    result = {
        "correct": correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    (run_dir / "result.json").write_text(json.dumps(result, indent=1) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
