"""Acceptance suite: one test per release criterion.

Each test prints a single [PASS]/[FAIL] line with the measured worst
case (visible under pytest -s, and in the failure message otherwise)
and asserts at the stated tolerance.
"""

import json
import math
import time
from pathlib import Path

import numpy as np

from multitile import (
    NoPairFound,
    build_tree,
    cell_system,
    check,
    coefficient_data,
    dual_eval,
    find_pair,
    flatten_grid,
    forward_data,
    frequency_vector,
    load_domain,
    make_frequency_set,
    make_shifts,
    omega,
    perfect_shift_1d,
    reconstruct_direct,
    reconstruct_grid,
    riesz_bounds,
    sample_grid,
    shift_index_set,
    verify_biorthogonality,
)

from builders import ALL, PERFECT, domain_of, nested_values, random_offsets, run_cli
from oracles import shift_indices_reference
from test_freqtree import M4

DOMAINS = Path(__file__).resolve().parent.parent / "domains"


def _report(name: str, ok: bool, detail: str) -> None:
    line = f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}"
    print(line)
    assert ok, line


def _hundred_sets():
    """The shared corpus of 100 random integer frequency sets."""
    rng = np.random.default_rng(101)
    sets = []
    for _ in range(100):
        d = int(rng.integers(1, 5))
        k = int(rng.integers(1, 13))
        sets.append(random_offsets(rng, d, k))
    return sets


def test_01_counting_law():
    t0 = time.perf_counter()
    checked = 0
    for vecs in _hundred_sets():
        fs = make_frequency_set(vecs)
        tree = build_tree(fs)
        assert len(shift_index_set(tree)) == len(fs.vectors)
        for level, lv in enumerate(tree.levels, start=1):
            counts = [len(ch) for ch in lv.children]
            assert counts == sorted(counts)
            m = len(counts)
            c = [0] + counts
            telescoped = sum(
                (c[p] - c[p - 1]) * (m - p + 1) for p in range(1, m + 1)
            )
            prefixes = {tuple(v[:level]) for v in fs.vectors}
            assert telescoped == sum(counts) == len(prefixes)
        checked += 1
    elapsed = time.perf_counter() - t0
    ok = checked == 100 and elapsed < 1.0
    _report(
        "counting law",
        ok,
        f"index count = frequency count on {checked} random sets, "
        f"telescoping sums agree, {elapsed:.3f}s",
    )


def test_02_reference_port_parity():
    cases = [M4] + _hundred_sets()
    for vecs in cases:
        built = set(shift_index_set(build_tree(make_frequency_set(vecs))))
        ported = set(shift_indices_reference(np.asarray(vecs, dtype=float)))
        assert built == ported
    _report(
        "reference port parity",
        True,
        f"identical index sets on the worked 10-vector set and {len(cases) - 1} "
        f"random sets",
    )


def _offsets_in_cube(rng, d, k, span=5):
    side = 2 * span + 1
    picks = rng.choice(side**d, size=k, replace=False)
    out = np.empty((k, d), dtype=int)
    for i, p in enumerate(picks):
        for j in range(d):
            out[i, j] = int(p % side) - span
            p //= side
    return out


def test_03_nested_solver_matches_dense():
    rng = np.random.default_rng(303)
    t0 = time.perf_counter()
    worst_solve = 0.0
    worst_trip = 0.0
    done = 0
    while done < 200:
        d = int(rng.integers(1, 4))
        k = int(rng.integers(1, 11))
        offs = _offsets_in_cube(rng, d, k)
        dom = domain_of(np.eye(d).tolist(), [([[0, 1]] * d, offs.tolist())])
        try:
            cert = find_pair(dom, q_max=2 * k)
        except NoPairFound:
            continue
        assert max(cert.q) <= 2 * k
        sh = make_shifts(dom, cert)
        ps = cell_system(dom, sh, 0)
        tree = build_tree(make_frequency_set(dom.cells[0].offsets))
        F = rng.normal(size=k) + 1j * rng.normal(size=k)
        nested = nested_values(tree.frequencies.vectors, shift_index_set(tree), sh.delta, F)
        dense = reconstruct_direct(ps.V, F)
        worst_solve = max(
            worst_solve,
            np.linalg.norm(nested - dense) / max(np.linalg.norm(dense), 1e-300),
        )
        ids, pts = flatten_grid(sample_grid(dom, 1))
        y = rng.normal(size=(len(ids), k)) + 1j * rng.normal(size=(len(ids), k))
        res = reconstruct_grid(dom, sh, forward_data(dom, sh, ids, pts, y))
        for i in range(len(res.values)):
            err = abs(res.values[i] - y[res.source_rows[i], res.regions[i] - 1])
            worst_trip = max(worst_trip, err)
        done += 1
    elapsed = time.perf_counter() - t0
    ok = worst_solve <= 1e-9 and worst_trip <= 1e-9 and elapsed < 30.0
    _report(
        "nested vs dense solver",
        ok,
        f"200 instances, worst rel solve err {worst_solve:.2e}, "
        f"worst round trip err {worst_trip:.2e}, {elapsed:.1f}s",
    )


def test_04_biorthogonality():
    dom1 = ALL["split_2tile"]()
    sh1 = make_shifts(dom1, check(dom1, [1], [4]))
    r1 = verify_biorthogonality(dom1, sh1, radius=4)
    dom2 = ALL["strip_3tile_2d"]()
    cert2 = check(dom2, [1, 1], [4, 1])
    assert cert2.kind == "strong"
    sh2 = make_shifts(dom2, cert2)
    r2 = verify_biorthogonality(dom2, sh2, radius=4)
    worst = max(r1, r2)
    _report(
        "biorthogonality",
        worst <= 1e-10,
        f"closed-form pairing residual {worst:.2e} "
        f"(1D split tile {r1:.2e}, 2D strong 3-tile {r2:.2e})",
    )


def test_05_orthogonal_fixtures():
    worst_had = 0.0
    worst_kappa = 0.0
    worst_dual = 0.0
    points_used = []
    for name in PERFECT:
        dom = ALL[name]()
        cert = find_pair(dom)
        assert cert.kind == "perfect", name
        sh = make_shifts(dom, cert)
        for ci in range(len(dom.cells)):
            V = cell_system(dom, sh, ci).V
            worst_had = max(
                worst_had,
                np.abs(V.conj().T @ V - dom.k * np.eye(dom.k)).max(),
            )
            sig = np.linalg.svd(V, compute_uv=False)
            worst_kappa = max(worst_kappa, sig[0] / sig[-1] - 1.0)
        n_axis = max(2, math.ceil((1000 / dom.k) ** (1.0 / dom.dimension)))
        _, pts = flatten_grid(sample_grid(dom, n_axis))
        labels = [(np.zeros(dom.dimension, dtype=int), 1),
                  (np.eye(dom.dimension, dtype=int)[0], dom.k)]
        count = 0
        for n0, s0 in labels:
            lab = frequency_vector(dom, sh, n0, s0)
            for r in range(1, dom.k + 1):
                ys = np.array([omega(dom, r, u) for u in pts])
                dv = dual_eval(dom, sh, n0, s0, ys)
                ev = np.exp(2j * np.pi * (ys @ lab))
                worst_dual = max(worst_dual, np.abs(dv - ev).max())
                count += len(ys)
        points_used.append(count // len(labels))
    ok = worst_had <= 1e-10 and worst_kappa <= 1e-10 and worst_dual <= 1e-10
    _report(
        "orthogonal fixtures",
        ok and min(points_used) >= 1000,
        f"{len(PERFECT)} fixtures: max |V*V-kI| {worst_had:.2e}, "
        f"kappa-1 {worst_kappa:.2e}, dual vs exponential {worst_dual:.2e} "
        f"on >= {min(points_used)} points each",
    )


def _kappa_of_nodes(z, delta):
    w = np.exp(-2j * np.pi * delta * np.asarray(z, dtype=float))
    V = w[None, :] ** np.arange(len(z))[:, None]
    return np.linalg.cond(V, 2)


def test_06_gcd_shift_rule_1d():
    for z, want in ([0, 1], 1.0), ([0, 2], 0.5), ([0, 2, 4], 0.5):
        assert perfect_shift_1d(z) == want
    rng = np.random.default_rng(606)
    hits = 0
    for _ in range(50):
        k = int(rng.integers(1, 9))
        z = np.sort(rng.choice(np.arange(-20, 21), size=k, replace=False))
        tau = perfect_shift_1d(z)
        g = 0
        for x in z:
            g = math.gcd(g, abs(int(x)))
        induced = (tau if tau is not None else 1.0 / max(g, 1)) / k
        kappa = _kappa_of_nodes(z, induced)
        if tau is not None:
            assert kappa <= 1 + 1e-10, (z, tau, kappa)
            hits += 1
        else:
            assert kappa > 1 + 1e-10, (z, kappa)
    _report(
        "1D gcd shift rule",
        True,
        f"worked examples give tau = 1, 1/2, 1/2; over 50 random sets the "
        f"rule and kappa(V) = 1 agree exactly ({hits} successes)",
    )


def test_07_riesz_sandwich():
    slack = 1e-9
    worst_gap = 0.0
    for path in sorted(DOMAINS.glob("*.json")):
        dom = load_domain(str(path))
        sh = make_shifts(dom, find_pair(dom))
        bounds = riesz_bounds(dom, sh)
        assert bounds.alpha == min(cb.sigma_min**2 for cb in bounds.cells)
        assert bounds.beta == max(cb.sigma_max**2 for cb in bounds.cells)
        for cb in bounds.cells:
            lo, hi = cb.factored_lower, cb.factored_upper
            assert lo <= cb.sigma_min**2 + slack, path.name
            assert cb.sigma_max**2 <= hi + slack, path.name
            worst_gap = max(worst_gap, lo - cb.sigma_min**2, cb.sigma_max**2 - hi)
    dom = ALL["interval_2tile"]()
    sh = make_shifts(dom, check(dom, [1], [4]))
    b = riesz_bounds(dom, sh)
    da = abs(b.alpha - (2 - math.sqrt(2)))
    db = abs(b.beta - (2 + math.sqrt(2)))
    ok = worst_gap <= slack and da <= 1e-10 and db <= 1e-10
    _report(
        "Riesz bound sandwich",
        ok,
        f"factored bounds enclose the singular values on all 7 fixtures "
        f"(worst overshoot {worst_gap:.2e}); quarter-shift interval gives "
        f"alpha, beta = 2 -/+ sqrt(2) within {max(da, db):.2e}",
    )


def test_08_truncation_convergence():
    dom = ALL["split_2tile"]()
    sh = make_shifts(dom, check(dom, [1], [3]))
    ids, pts = flatten_grid(sample_grid(dom, 6))
    l0 = frequency_vector(dom, sh, np.array([1]), 2)
    errs = []
    for R in (2, 4, 8, 16):
        dat = coefficient_data(dom, sh, {((1,), 2): 1.0}, ids, pts, R)
        res = reconstruct_grid(dom, sh, dat)
        errs.append(
            max(
                abs(res.values[i] - np.exp(2j * np.pi * (l0 @ res.points[i])))
                for i in range(len(res.values))
            )
        )
    monotone = all(errs[i + 1] <= errs[i] * 1.1 for i in range(len(errs) - 1))

    dom2 = ALL["interval_2tile"]()
    sh2 = make_shifts(dom2, check(dom2, [1], [2]))
    ids2, pts2 = flatten_grid(sample_grid(dom2, 6))
    l1 = frequency_vector(dom2, sh2, np.array([1]), 2)
    radius = math.ceil(np.abs(l1).max())  # R >= |label|_inf
    dat2 = coefficient_data(dom2, sh2, {((1,), 2): 1.0}, ids2, pts2, radius)
    res2 = reconstruct_grid(dom2, sh2, dat2)
    exact_err = max(
        abs(res2.values[i] - np.exp(2j * np.pi * (l1 @ res2.points[i])))
        for i in range(len(res2.values))
    )
    ok = monotone and exact_err <= 1e-9
    _report(
        "truncation convergence",
        ok,
        f"non-orthogonal errors {['%.3f' % e for e in errs]} non-increasing; "
        f"orthogonal single-term data exact to {exact_err:.2e} at R={radius}",
    )


def test_09_cli_end_to_end(tmp_path):
    worst = 0.0
    for path in sorted(DOMAINS.glob("*.json")):
        dom = str(path)
        samples = tmp_path / f"{path.stem}.csv"
        for step in (
            run_cli("check", "--domain", dom),
            run_cli("shifts", "--domain", dom),
            run_cli("synthesize", "--domain", dom, "--grid", "2",
                    "--out", str(samples)),
        ):
            assert step.returncode == 0, (path.name, step.stderr)
        rec = run_cli("reconstruct", "--domain", dom, "--samples", str(samples),
                      "--oracle")
        assert rec.returncode == 0, (path.name, rec.stderr)
        worst = max(worst, float(rec.stdout.split("max oracle residual =")[1]))
        ver = run_cli("verify", "--domain", dom)
        assert ver.returncode == 0, (path.name, ver.stderr)

    bad = tmp_path / "malformed.json"
    bad.write_text('{"dimension": 1}')
    assert run_cli("check", "--domain", str(bad)).returncode == 1

    clash = run_cli("check", "--domain", str(DOMAINS / "split_2tile.json"),
                    "--v", "1", "--q", "2")
    named = "z=0 and z=2" in clash.stderr and "mod 2" in clash.stderr
    ok = worst <= 1e-9 and named and clash.returncode == 2
    _report(
        "CLI end to end",
        ok,
        f"7 domain files pass check/shifts/synthesize/reconstruct/verify, "
        f"max oracle residual {worst:.2e}; malformed file exits 1; "
        f"collision exits 2 naming the witness",
    )
