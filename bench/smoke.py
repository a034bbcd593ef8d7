"""Smoke test of the benchmark itself, at tiny sizes.

    python3 bench/smoke.py

Checks that
- every workload, untraced and traced, ends with one JSON line carrying
  exactly the metric names and units BENCHMARK.json lists;
- the correctness gate counts results that are deliberately corrupted
  (always the benchmark's own copy of an output, never the program);
- outside a checkout (only BENCHMARK.json and bench/) the benchmark
  exits non-zero without printing a result.
Exits non-zero on the first failed check.
"""

from __future__ import annotations

import dataclasses
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORK_DIR = ROOT / ".bench_run" / "smoke"


def fail(msg: str) -> None:
    print(f"FAIL: {msg}")
    sys.exit(1)


def run_bench(cwd: Path, workload: str, trace: int, tiny: bool = True):
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", "3",
           "--seconds", "0.5", "--trace", str(trace)] + (["--tiny"] if tiny else [])
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def check_report(workload: str, trace: int) -> None:
    proc = run_bench(ROOT, workload, trace)
    if proc.returncode != 0:
        fail(f"{workload} trace={trace} exited {proc.returncode}: {proc.stderr[-1500:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"{workload}: result keys {sorted(result)}")
    if not (isinstance(result["attempted"], int) and result["attempted"] >= 1
            and isinstance(result["failed"], int)):
        fail(f"{workload}: attempted/failed {result['attempted']}/{result['failed']}")
    want = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != want:
        fail(f"{workload} trace={trace}: metrics {got} differ from BENCHMARK.json {want}")
    for name, m in result["metrics"].items():
        value = m["value"]
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            fail(f"{workload}: {name} = {value!r}")
        if not trace and value <= 0:
            fail(f"{workload}: end-to-end metric {name} = {value}")
    print(f"ok  {workload} trace={trace}: {len(got)} metrics, correct={result['correct']}, "
          f"attempted={result['attempted']}, failed={result['failed']}")


def check_gates() -> None:
    """Corrupt the benchmark's copy of one output per workload; the gate
    must count exactly the corrupted operations."""
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(ROOT / "bench"))
    import workloads as wl
    from spans import Clock

    run_dir = WORK_DIR / "gates"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    ctx = wl.Context(ROOT, run_dir, 3, True)

    recon = wl.ReconPerfect(ctx)
    cases = recon.setup(Clock())
    results = recon.run_pass(cases, Clock())
    base = recon.check(cases, results)
    first = next(i for i, c in enumerate(cases) if c.name not in wl.KNOWN_DEFECTS)
    bad = dataclasses.replace(results[first], values=results[first].values.copy())
    bad.values[0] += 1e-6 * abs(bad.values[0]) + 1e-6
    corrupted = recon.check(cases, results[:first] + [bad] + results[first + 1:])
    if (corrupted.failed, corrupted.known) != (base.failed + 1, base.known):
        fail(f"recon gate: {base.failed} -> {corrupted.failed} failed after corrupting one value")
    print(f"ok  recon_perfect gate counts a corrupted value ({base.failed} -> {corrupted.failed})")

    cli = wl.CliRoundtrip(ctx)
    cases = cli.setup(Clock())
    runs = cli.run_pass(cases, Clock())
    c, (synth, recon_run) = cases[0], runs[0]
    if cli.check_case(c, synth, recon_run)[0] != 0:
        fail("cli gate rejects an untouched round trip")
    values = wl.read_result_values(c.extra["result"], c.dom.dimension)
    values[3] *= 1 + 1e-6
    failed, _ = cli.check_case(c, synth, recon_run, values)
    if failed != 1:
        fail(f"cli gate counted {failed} rows after corrupting one result value")
    failed, _ = cli.check_case(c, (1, ""), recon_run)
    if failed != c.rows:
        fail(f"cli gate counted {failed} of {c.rows} rows for a failed child")
    print("ok  cli_roundtrip gate counts a corrupted result value and a failed child")

    cert = wl.Certify(ctx)
    cases = cert.setup(Clock())
    results = cert.run_pass(cases, Clock())
    base = cert.check(cases, results)
    residual, bounds, ortho, duals, coeff = results[0]
    duals = duals.copy()
    duals[0, 0] *= 1 + 1e-6
    tampered = [(1.0, bounds, ortho, duals, coeff)] + results[1:]
    corrupted = cert.check(cases, tampered)
    if corrupted.failed != base.failed + 2:
        fail(f"certify gate: {base.failed} -> {corrupted.failed} after corrupting two outputs")
    print(f"ok  certify gate counts a bad residual and a corrupted dual value "
          f"({base.failed} -> {corrupted.failed})")
    shutil.rmtree(run_dir, ignore_errors=True)


def check_outside_checkout() -> None:
    bare = WORK_DIR / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(ROOT / "bench", bare / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench(bare, "recon_perfect", 0, tiny=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode == 0 or (lines and lines[-1].startswith("{")):
        fail(f"outside a checkout: exit {proc.returncode}, stdout {proc.stdout[-300:]!r}")
    shutil.rmtree(bare, ignore_errors=True)
    print(f"ok  outside a checkout: exit {proc.returncode}, no result printed")


def main() -> int:
    for workload in (w["name"] for w in SPEC["workloads"]):
        for trace in (0, 1):
            check_report(workload, trace)
    check_gates()
    check_outside_checkout()
    print("smoke test passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
