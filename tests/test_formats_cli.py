import csv
import functools
import json
import os
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import given, reject, strategies as st

from multitile import (
    InputError,
    MathError,
    MultitileError,
    NoPairFound,
    ReconstructionResult,
    SpecFormatError,
    SpectralData,
    atomic_write_text,
    canonical_json,
    check,
    coefficient_data,
    find_pair,
    flatten_grid,
    forward_data,
    frequency_vector,
    load_domain,
    make_domain,
    make_lattice,
    make_shifts,
    omega,
    parse_domain,
    read_samples,
    reconstruct_grid,
    riesz_bounds,
    sample_grid,
    save_domain,
    write_result,
    write_samples,
)

from builders import ALL, domain_of, large_offset_tilings, run_cli, tilings, twocell_2tile_2d
from multitile import cli, errors, formats
from multitile.cli import main
from oracles import (
    exponential_exact,
    read_samples_reference,
    system_exact,
    write_result_reference,
    write_samples_reference,
)

DOMAINS = Path(__file__).resolve().parent.parent / "domains"


def _sample_set(name, v, q, n=4):
    dom = ALL[name]()
    sh = make_shifts(dom, check(dom, v, q))
    ids, pts = flatten_grid(sample_grid(dom, n))
    rng = np.random.default_rng(3)
    y = rng.normal(size=(len(ids), dom.k)) + 1j * rng.normal(size=(len(ids), dom.k))
    return dom, sh, forward_data(dom, sh, ids, pts, y)


def test_canonical_json_values():
    obj = {"b": 1, "a": [True, None, 0.1, np.float64(2.5)], "c": np.arange(3)}
    assert (
        canonical_json(obj)
        == '{"a":[true,null,0.10000000000000001,2.5],"b":1,"c":[0,1,2]}'
    )


def test_canonical_json_stable_under_reparse():
    obj = {"x": [1.0 / 3.0, 1e-17, -0.0], "y": {"nested": [2, "s"]}}
    text = canonical_json(obj)
    assert canonical_json(json.loads(text)) == text


def test_canonical_json_rejects_bad_input():
    with pytest.raises(SpecFormatError):
        canonical_json(float("nan"))
    with pytest.raises(SpecFormatError):
        canonical_json([float("inf")])
    with pytest.raises(SpecFormatError):
        canonical_json({1: "non-string key"})
    with pytest.raises(SpecFormatError):
        canonical_json(object())


def test_shipped_domains_byte_stable(tmp_path):
    files = sorted(DOMAINS.glob("*.json"))
    assert len(files) == 7
    for path in files:
        dom = load_domain(str(path))
        out = tmp_path / path.name
        save_domain(dom, str(out))
        assert out.read_text() == path.read_text(), path.name


def test_domain_roundtrip_fixtures(tmp_path):
    for name, build in sorted(ALL.items()):
        dom = build()
        path = tmp_path / f"{name}.json"
        save_domain(dom, str(path))
        back = load_domain(str(path))
        assert back.dimension == dom.dimension
        assert np.array_equal(back.lattice.basis, dom.lattice.basis)
        assert len(back.cells) == len(dom.cells)
        for a, b in zip(back.cells, dom.cells):
            assert np.array_equal(a.box, b.box)
            assert np.array_equal(a.offsets, b.offsets)


BAD_DOMAINS = [
    ({"dimension": 1, "lattice_basis": [[1.0]], "cells": [], "x": 0}, "unknown"),
    ({"dimension": 1, "lattice_basis": [[1.0]]}, "missing"),
    ({"dimension": 0, "lattice_basis": [], "cells": []}, "dimension"),
    ({"dimension": 1, "lattice_basis": [[1.0, 0.0]], "cells": []}, "lattice_basis"),
    ({"dimension": 1, "lattice_basis": [[1.0]], "cells": []}, "nonempty"),
    (
        {
            "dimension": 1,
            "lattice_basis": [[1.0]],
            "cells": [{"box": [[0, 1], [0, 1]], "offsets": [[0]]}],
        },
        "box",
    ),
    (
        {
            "dimension": 1,
            "lattice_basis": [[1.0]],
            "cells": [{"box": [[0, 1]], "offsets": [[0]], "label": "a"}],
        },
        "unknown",
    ),
    (
        {
            "dimension": 2,
            "lattice_basis": [[1.0, 0.0], [0.0, 1.0]],
            "cells": [{"box": [[0, 1], [0, 1]], "offsets": [[0]]}],
        },
        "offsets",
    ),
]


@pytest.mark.parametrize("obj,hint", BAD_DOMAINS)
def test_parse_domain_rejects(obj, hint):
    with pytest.raises(SpecFormatError):
        parse_domain(obj)


def test_load_domain_invalid_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{\n")
    with pytest.raises(SpecFormatError, match="invalid JSON"):
        load_domain(str(path))


def test_samples_roundtrip(tmp_path):
    dom, sh, data = _sample_set("split_2tile", [1], [3])
    path = tmp_path / "samples.csv"
    write_samples(str(path), dom, sh, data, {"note": "hello"})
    back, meta = read_samples(str(path), dom)
    assert np.array_equal(back.cell_ids, data.cell_ids)
    assert np.array_equal(back.points, data.points)
    assert np.array_equal(back.values, data.values)
    assert back.provenance == "exact-pointwise" and back.radius is None
    assert meta["format"] == "multitile-samples"
    assert meta["dimension"] == 1 and meta["k"] == 2
    assert meta["delta"] == list(sh.delta)
    assert meta["eta"] == list(sh.eta_coords)
    assert meta["note"] == "hello"
    stored = [
        tuple(tuple(int(x) for x in j) for j in idx) for idx in meta["index_sets"]
    ]
    assert stored == [tuple(idx) for idx in sh.index_sets]


def test_samples_truncated_provenance(tmp_path):
    dom = ALL["interval_2tile"]()
    sh = make_shifts(dom, check(dom, [1], [2]))
    ids, pts = flatten_grid(sample_grid(dom, 3))
    data = coefficient_data(dom, sh, {((1,), 2): 1.0}, ids, pts, 3)
    path = tmp_path / "trunc.csv"
    write_samples(str(path), dom, sh, data)
    back, meta = read_samples(str(path), dom)
    assert back.provenance == "coefficient-truncated"
    assert back.radius == 3 and meta["radius"] == 3


def test_samples_without_sidecar(tmp_path):
    dom, sh, data = _sample_set("interval_2tile", [1], [2])
    path = tmp_path / "bare.csv"
    write_samples(str(path), dom, sh, data)
    os.unlink(str(path) + ".meta.json")
    back, meta = read_samples(str(path), dom)
    assert meta is None
    assert back.provenance == "exact-pointwise"


def test_samples_column_mismatch(tmp_path):
    dom, sh, data = _sample_set("interval_2tile", [1], [2])
    path = tmp_path / "bad.csv"
    path.write_text("cell,u_1,Re_F_0\n0,0.5,1.0\n")
    with pytest.raises(SpecFormatError, match="columns"):
        read_samples(str(path), dom)
    good = tmp_path / "good.csv"
    write_samples(str(good), dom, sh, data)
    lines = good.read_text().splitlines()
    lines[2] = lines[2].rsplit(",", 1)[0] + ",soup"
    good.write_text("\n".join(lines) + "\n")
    with pytest.raises(SpecFormatError, match="row 3"):
        read_samples(str(good), dom)


def test_samples_reject_non_finite(tmp_path):
    dom, sh, data = _sample_set("interval_2tile", [1], [2])
    path = tmp_path / "samples.csv"
    bad = SpectralData(data.cell_ids, data.points, data.values.copy(), data.provenance)
    bad.values[1, 0] = np.nan
    with pytest.raises(SpecFormatError) as err:
        write_samples(str(path), dom, sh, bad)
    assert str(err.value) == "cannot serialize non-finite value nan"
    write_samples(str(path), dom, sh, data)
    lines = path.read_text().splitlines()
    for row, field, text in ((2, -1, "nan"), (4, 1, "inf")):
        broken = list(lines)
        parts = broken[row].split(",")
        parts[field] = text
        broken[row] = ",".join(parts)
        path.write_text("\n".join(broken) + "\n")
        with pytest.raises(SpecFormatError, match=f"row {row + 1}: non-finite"):
            read_samples(str(path), dom)


def test_write_result_residual_column(tmp_path):
    dom, sh, data = _sample_set("interval_2tile", [1], [2], n=2)
    plain = reconstruct_grid(dom, sh, data)
    checked = reconstruct_grid(dom, sh, data, oracle=True)
    p1, p2 = tmp_path / "plain.csv", tmp_path / "checked.csv"
    write_result(str(p1), plain, dom.dimension)
    write_result(str(p2), checked, dom.dimension)
    rows1 = list(csv.reader(p1.open()))
    rows2 = list(csv.reader(p2.open()))
    assert rows1[0] == ["y_1", "Re_f", "Im_f", "residual"]
    assert len(rows1) == 1 + len(plain.values)
    assert all(r[-1] == "" for r in rows1[1:])
    assert all(float(r[-1]) <= 1e-12 for r in rows2[1:])


def test_atomic_writes_leave_no_temp_files(tmp_path):
    dom, sh, data = _sample_set("split_2tile", [1], [3])
    save_domain(dom, str(tmp_path / "d.json"))
    write_samples(str(tmp_path / "s.csv"), dom, sh, data)
    atomic_write_text(str(tmp_path / "t.txt"), "x")
    leftovers = [n for n in os.listdir(tmp_path) if n.startswith(".tmp-")]
    assert leftovers == []


# Values whose printed form is easiest to get wrong: signed zero, the
# smallest subnormal and the largest finite double.
EDGE_FLOATS = [-0.0, 0.0, 5e-324, -5e-324, 1.7976931348623157e308, -1.7976931348623157e308]
FLOATS = st.one_of(st.sampled_from(EDGE_FLOATS), st.floats(allow_nan=False, allow_infinity=False))
CELL_IDS = np.array([0, 1, 2, 7, -1, 2**63 - 1, -(2**63)])


@functools.lru_cache(maxsize=None)
def _box_domain(d, k):
    offsets = [[i] + [0] * (d - 1) for i in range(k)]
    dom = domain_of(np.eye(d).tolist(), [([[0, 1]] * d, offsets)])
    return dom, make_shifts(dom, np.full(d, 1.0 / k))


def _draw_table(data, shape):
    """Floats mixing a drawn pool (edge values included) with values of
    random sign and magnitude; sometimes up to two entries are NaN or
    infinite, so the error must name the first in row-major order."""
    pool = np.array(data.draw(st.lists(FLOATS, min_size=1, max_size=12)))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    wide = rng.normal(size=shape) * 10.0 ** rng.integers(-320, 308, size=shape)
    table = np.where(rng.random(shape) < 0.5, rng.choice(pool, size=shape), wide)
    if table.size:
        for bad in data.draw(st.lists(st.sampled_from([np.nan, np.inf, -np.inf]), max_size=2)):
            table.flat[rng.integers(table.size)] = bad
    return table, rng


def _outcome(write, path):
    """The bytes a writer leaves (CSV and any sidecar), or its error."""
    try:
        write(path)
    except SpecFormatError as exc:
        return "error", str(exc)
    sidecar = Path(path + ".meta.json")
    return Path(path).read_bytes(), sidecar.read_bytes() if sidecar.exists() else None


@given(st.data())
def test_write_samples_matches_reference(data):
    _check_write_samples(data, formats.CHUNK_FIELDS)


@given(st.data())
def test_write_samples_in_chunks_matches_reference(data):
    """A budget of 20 chunk fields splits the rows (4 to 20 fields
    each) into chunks of 1 to 5."""
    _check_write_samples(data, 20)


def _check_write_samples(data, fields):
    """write_samples, formatting `fields` CSV fields at a time, gives
    the bytes or the error of the one-shot reference writer."""
    d, k = data.draw(st.integers(1, 3)), data.draw(st.integers(1, 8))
    n = data.draw(st.integers(0, 50))
    dom, sh = _box_domain(d, k)
    table, rng = _draw_table(data, (n, d + 2 * k))
    samples = SpectralData(
        cell_ids=rng.choice(CELL_IDS, size=n),
        points=table[:, :d],
        values=np.ascontiguousarray(table[:, d:]).view(complex),
        provenance="exact-pointwise",
    )
    with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as patch:
        patch.setattr(formats, "CHUNK_FIELDS", fields)
        got = _outcome(lambda p: write_samples(p, dom, sh, samples), f"{tmp}/a.csv")
        want = _outcome(lambda p: write_samples_reference(p, dom, sh, samples), f"{tmp}/b.csv")
    assert got == want


@given(st.data())
def test_write_result_matches_reference(data):
    """write_result equals the per-line reference writer on records of
    random kept rows: gaps between the rows, random cells (whose boxes
    need not hold the points), edge-case floats with at times a
    non-finite point or value, and residuals that are all NaN (no
    oracle) or finite with NaN at the skipped rows."""
    dom = data.draw(tilings())
    d, k = dom.dimension, dom.k
    n = data.draw(st.integers(0, 40))
    table, rng = _draw_table(data, (n, d + 2 * k))
    kept = np.flatnonzero(rng.random(n) < data.draw(st.sampled_from([0.3, 0.8, 1.0])))
    residuals, _ = _draw_table(data, (n,))
    skipped = np.setdiff1d(np.arange(n), kept)
    if data.draw(st.booleans()):
        residuals[skipped] = np.nan
    else:
        residuals[:] = np.nan
    result = ReconstructionResult(
        values=np.ascontiguousarray(table[kept, d:]).view(complex).ravel(),
        residuals=residuals,
        skipped=tuple(skipped.tolist()),
        kept_rows=kept,
        kept_cells=rng.integers(0, len(dom.cells), size=len(kept)),
        kept_points=table[kept, :d],
        domain=dom,
    )
    with tempfile.TemporaryDirectory() as tmp, warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # huge points overflow to inf
        got = _outcome(lambda p: write_result(p, result, d), f"{tmp}/a.csv")
        want = _outcome(lambda p: write_result_reference(p, result, d), f"{tmp}/b.csv")
    assert got == want


def test_write_result_chunks_do_not_change_bytes(tmp_path, monkeypatch):
    """Chunks of one kept row, or of a row count that does not divide
    the kept rows, write the same bytes as the default chunk size, on a
    sheared lattice (whose region points round) with rows out of cell
    order, one skipped row and the oracle on."""
    basis = [[1.3, -0.7], [0.2, 0.9]]
    dom = make_domain(make_lattice(np.array(basis)), twocell_2tile_2d().cells)
    sh = make_shifts(dom, find_pair(dom))
    ids, pts = flatten_grid(sample_grid(dom, 5))
    rng = np.random.default_rng(8)
    perm = rng.permutation(len(ids))
    ids, pts = ids[perm], pts[perm]
    pts[3] = [0.5, 1.5]  # outside the domain
    y = rng.normal(size=(len(ids), dom.k)) + 1j * rng.normal(size=(len(ids), dom.k))
    data = forward_data(dom, sh, ids, pts, y)
    result = reconstruct_grid(dom, sh, data, oracle=True)
    assert result.skipped == (3,)
    kept = len(result.kept_rows)
    row_fields = dom.k * (dom.dimension + 3)  # k lines of point, value and residual
    assert kept == 49 and formats.CHUNK_FIELDS >= kept * row_fields
    write_result(str(tmp_path / "whole.csv"), result, dom.dimension)
    want = (tmp_path / "whole.csv").read_bytes()
    assert want.count(b"\r\n") == 1 + kept * dom.k
    for fields in (1, 3 * row_fields, 5 * row_fields + 1):  # 1, 3 and 5 rows per chunk
        monkeypatch.setattr(formats, "CHUNK_FIELDS", fields)
        write_result(str(tmp_path / "chunked.csv"), result, dom.dimension)
        assert (tmp_path / "chunked.csv").read_bytes() == want, fields


def _set_field(row, col, text):
    def edit(lines):
        parts = lines[row].split(",")
        parts[col] = text
        lines[row] = ",".join(parts)
    return edit


def _short(row):
    def edit(lines):
        lines[row] = lines[row].rsplit(",", 1)[0]
    return edit


READ_CASES = {
    "valid": [],
    "short row": [_short(3)],
    "trailing blank line": [lambda lines: lines.append("")],
    "soup": [_set_field(3, 4, "soup")],
    "cell id 0.0": [_set_field(2, 0, "0.0")],
    "underscore digits": [_set_field(2, 1, "1_0"), _set_field(4, 5, "1_0")],
    "leading space": [_set_field(2, 3, " 1.5")],
    "soup before short row": [_set_field(2, 6, "soup"), _short(4)],
    "short row before soup": [_short(2), _set_field(4, 6, "soup")],
    "bad id after bad float": [_set_field(2, 2, "x"), _set_field(3, 0, "y")],
    "nan": [_set_field(3, 2, "nan")],
    "renamed column": [_set_field(0, 2, "u_9")],
    "swapped value columns": [_set_field(0, 3, "Im_F_0"), _set_field(0, 4, "Re_F_0")],
    "renamed column before soup": [_set_field(0, 7, "Re_F_x"), _set_field(3, 4, "soup")],
}


@pytest.mark.parametrize("case", sorted(READ_CASES))
def test_read_samples_matches_reference(tmp_path, case):
    _check_read_case(tmp_path, case)


@pytest.mark.parametrize("case", sorted(READ_CASES))
@pytest.mark.parametrize("chunk", [1, 7])
def test_read_samples_in_chunks_matches_reference(tmp_path, monkeypatch, chunk, case):
    """Parsed a few body rows at a time (9 rows in chunks of 1 or 7), the
    reader gives the same data and the same first error.  Each row has 9
    fields, so a budget of 9 chunk fields is one row a chunk."""
    monkeypatch.setattr(formats, "CHUNK_FIELDS", 9 * chunk)
    _check_read_case(tmp_path, case)


def _check_read_case(tmp_path, case):
    dom, sh, data = _sample_set("strip_3tile_2d", [1, 1], [3, 2], n=3)
    path = tmp_path / "samples.csv"
    write_samples(str(path), dom, sh, data)
    lines = path.read_text().split("\n")[:-1]
    for edit in READ_CASES[case]:
        edit(lines)
    path.write_text("\n".join(lines) + "\n")

    def outcome(read):
        try:
            back, meta = read(str(path), dom)
        except Exception as exc:
            return type(exc), str(exc)
        return back, meta

    got, want = outcome(read_samples), outcome(read_samples_reference)
    if isinstance(want[0], type):
        assert got == want
        return
    for name in ("cell_ids", "points", "values"):
        a, b = getattr(got[0], name), getattr(want[0], name)
        assert a.dtype == b.dtype and np.array_equal(a, b), name
    assert (got[0].provenance, got[0].radius, got[1]) == (
        want[0].provenance, want[0].radius, want[1]
    )


def test_samples_oversized_cell_id_exit_1(tmp_path):
    dom, sh, data = _sample_set("split_2tile", [1], [3])
    path = tmp_path / "samples.csv"
    write_samples(str(path), dom, sh, data)
    lines = path.read_text().split("\n")
    lines[2] = "99999999999999999999999" + lines[2][1:]
    path.write_text("\n".join(lines))
    with pytest.raises(SpecFormatError, match="row 3: "):
        read_samples(str(path), dom)
    out = CliRunner().invoke(
        main, ["reconstruct", "--domain", str(DOMAINS / "split_2tile.json"), "--samples", str(path)]
    )
    assert out.exit_code == 1, out.output
    assert "row 3: " in out.stderr


@pytest.mark.parametrize(
    "fields,drop,key",
    [
        ({"index_sets": 5}, (), "index_sets"),
        ({"index_sets": [[["a"]]]}, (), "index_sets"),
        ({"delta": "x"}, ("v", "q"), "delta"),
        ({"delta": [float("nan")]}, ("v", "q"), "delta"),
        ({"v": [1], "q": ["a"]}, (), "q"),
        ({"v": [1.5], "q": [3]}, (), "v"),
        ({"q": [10**30]}, (), "q"),
        ({"eta": ["x"]}, (), "eta"),
        ({"eta": 5}, (), "eta"),
    ],
)
def test_cli_reconstruct_rejects_malformed_sidecar_field(tmp_path, fields, drop, key):
    dom, sh, data = _sample_set("split_2tile", [1], [3])
    path = tmp_path / "samples.csv"
    write_samples(str(path), dom, sh, data, {"v": [1], "q": [3]})
    sidecar = tmp_path / "samples.csv.meta.json"
    meta = json.loads(sidecar.read_text())
    for name in drop:
        del meta[name]
    meta.update(fields)
    sidecar.write_text(json.dumps(meta))
    out = CliRunner().invoke(
        main, ["reconstruct", "--domain", str(DOMAINS / "split_2tile.json"), "--samples", str(path)]
    )
    assert out.exit_code == 1, out.output
    assert f"sample sidecar {key} must be" in out.stderr


def test_cli_function_values_match_per_row_omega(tmp_path):
    dom = twocell_2tile_2d()
    domain = tmp_path / "twocell_2tile_2d.json"
    save_domain(dom, str(domain))
    terms = [((1, 0), 1, 1.0 + 0.5j), ((0, -1), 2, -0.25 + 0.0j), ((2, 1), 1, 0.0 - 1.5j)]
    coeffs = tmp_path / "coeffs.json"
    coeffs.write_text(json.dumps(
        [{"n": list(n), "s": s, "re": c.real, "im": c.imag} for n, s, c in terms]
    ))
    samples = tmp_path / "samples.csv"
    out = CliRunner().invoke(main, [
        "synthesize", "--domain", str(domain), "--grid", "4",
        "--function", str(coeffs), "--out", str(samples),
    ])
    assert out.exit_code == 0, out.output
    got, _ = read_samples(str(samples), dom)

    sh = make_shifts(dom, find_pair(dom))
    ids, pts = flatten_grid(sample_grid(dom, 4))
    assert set(ids) == {0, 1}
    values = np.zeros((len(ids), dom.k), dtype=complex)
    for i in range(len(ids)):
        for r in range(1, dom.k + 1):
            y = omega(dom, r, pts[i])
            for n, s, c in terms:
                values[i, r - 1] += c * np.exp(2j * np.pi * (y @ frequency_vector(dom, sh, np.array(n), s)))
    want = forward_data(dom, sh, ids, pts, values)
    assert np.array_equal(got.cell_ids, want.cell_ids)
    assert np.max(np.abs(got.values - want.values)) <= 1e-12 * np.max(np.abs(want.values))


# ---------------------------------------------------------------- CLI


def test_cli_check_search():
    out = run_cli("check", "--domain", str(DOMAINS / "strip_3tile_2d.json"))
    assert out.returncode == 0, out.stderr
    assert "admissible (searched): kind=perfect" in out.stdout
    assert "delta = " in out.stdout


def test_cli_check_explicit_and_cert_json(tmp_path):
    cert = tmp_path / "cert.json"
    out = run_cli(
        "check",
        "--domain", str(DOMAINS / "interval_2tile.json"),
        "--q", "2",
        "--out", str(cert),
    )
    assert out.returncode == 0, out.stderr
    obj = json.loads(cert.read_text())
    assert obj["kind"] == "perfect"
    assert obj["v"] == [1] and obj["q"] == [2] and obj["delta"] == [0.5]
    assert obj["witnesses"][0]["cell"] == 0
    assert cert.read_text() == canonical_json(obj) + "\n"
    # the keys are the field names of AdmissibilityCertificate and LevelWitness
    assert obj.keys() == {"kind", "v", "q", "delta", "witnesses"}
    for witness in obj["witnesses"]:
        assert witness.keys() == {"cell", "level", "parent", "children", "residues"}


def test_cli_bounds_json_is_the_record(tmp_path):
    path = tmp_path / "bounds.json"
    domain = DOMAINS / "twocell_2tile_1d.json"
    out = CliRunner().invoke(main, ["bounds", "--domain", str(domain), "--out", str(path)])
    assert out.exit_code == 0, out.output
    obj = json.loads(path.read_text())
    dom = load_domain(str(domain))
    bounds = riesz_bounds(dom, make_shifts(dom, find_pair(dom)))
    assert obj.keys() == {"alpha", "beta", "frame_lower", "frame_upper", "cells"}
    assert [obj["alpha"], obj["beta"], obj["frame_lower"], obj["frame_upper"]] == [
        bounds.alpha, bounds.beta, bounds.frame_lower, bounds.frame_upper
    ]
    assert len(obj["cells"]) == len(bounds.cells) == 2
    for cell, cb in zip(obj["cells"], bounds.cells):
        assert cell == {
            "cell": cb.cell,
            "sigma_min": cb.sigma_min,
            "sigma_max": cb.sigma_max,
            "kappa": cb.kappa,
            "factored_lower": cb.factored_lower,
            "factored_upper": cb.factored_upper,
        }


def test_error_classes_define_exit_codes(monkeypatch):
    classes = {
        name: cls for name, cls in vars(errors).items()
        if isinstance(cls, type) and issubclass(cls, MultitileError)
        and cls not in (MultitileError, InputError, MathError)
    }
    for cls in classes.values():
        assert issubclass(cls, InputError) != issubclass(cls, MathError), cls
    assert {n for n, c in classes.items() if issubclass(c, InputError)} == {
        "SpecFormatError", "SingularBasis", "DimensionMismatch", "NotATiling",
        "InconsistentK", "DuplicateOffset", "OutOfDomain",
    }
    assert {n for n, c in classes.items() if issubclass(c, MathError)} == {
        "NoPairFound", "ResidueCollision", "NonUniformShifts", "SingularCell",
        "SingularMatrix", "DuplicateNodes", "PointOnGap",
    }

    def exit_code(exc):
        # the error escapes a command run through the group, as from the library
        def fail(path):
            raise exc

        monkeypatch.setattr(cli, "load_domain", fail)
        return run_cli("check", "--domain", "unused.json").returncode

    cases = [(cls("x"), 1 if issubclass(cls, InputError) else 2) for cls in classes.values()]
    cases += [(OSError("x"), 1), (ValueError("x"), 3), (MultitileError("x"), 3)]
    for exc, code in cases:
        assert exit_code(exc) == code, exc


SPLIT = str(DOMAINS / "split_2tile.json")


@pytest.mark.parametrize(
    "args",
    [
        (),
        ("bogus",),
        ("--bogus", "check"),
        ("check",),
        ("check", "--domain", SPLIT, "--bogus"),
        ("check", "--domain", SPLIT, "--eta", "1"),
        ("dual", "--domain", SPLIT, "--grid", "abc"),
        ("dual", "--domain", SPLIT, "--grid", "2", "--s", "abc"),
        ("synthesize", "--domain", SPLIT),
    ],
    ids=["no-command", "unknown-command", "unknown-group-option", "missing-domain",
         "unknown-option", "check-eta", "bad-grid", "bad-s", "missing-out"],
)
def test_cli_usage_error_exit_1(args):
    """A command line click refuses, while parsing the group or a
    command, exits 1, the code of malformed input."""
    out = run_cli(*args)
    assert out.returncode == 1, out.stderr
    assert out.stdout == "" and "Usage: " in out.stderr


def test_cli_help_exit_0():
    out = run_cli("--help")
    assert out.returncode == 0 and "Commands:" in out.stdout, out.stderr
    out = run_cli("check", "--help")
    assert out.returncode == 0 and "--q TEXT" in out.stdout, out.stderr
    assert "--eta" not in out.stdout
    assert "--eta TEXT" in run_cli("shifts", "--help").stdout


def test_cli_prints_integers_exactly():
    """Integers are printed as themselves, not through a float: 10^18 + 1
    would print as 1e+18."""
    out = run_cli("check", "--domain", SPLIT, "--q", "1000000000000000001")
    assert out.returncode == 0, out.stderr
    assert "v = (1)\nq = (1000000000000000001)\ndelta = (1e-18)\n" in out.stdout


def test_cli_malformed_sidecar_refused_under_flags(tmp_path):
    """read_samples checks every sidecar shift field that is present, so
    a malformed v is refused also when --v/--q would override it."""
    dom, sh, data = _sample_set("split_2tile", [1], [3])
    path = tmp_path / "samples.csv"
    write_samples(str(path), dom, sh, data, {"v": [1.5], "q": [3]})
    with pytest.raises(SpecFormatError, match="^sample sidecar v must be a list of 1 integers$"):
        read_samples(str(path), dom)
    out = run_cli("reconstruct", "--domain", SPLIT, "--samples", str(path), "--v", "1", "--q", "3")
    assert out.returncode == 1
    assert out.stderr == "error: sample sidecar v must be a list of 1 integers\n"


def test_cli_reconstruct_names_mismatched_header_column(tmp_path):
    """A 1D sample file of k = 2 has the 6 columns a one-cell 3D domain
    of k = 1 expects; without a sidecar to tell them apart, the header
    names still refuse it, naming the first column that differs."""
    samples = tmp_path / "s.csv"
    out = run_cli("synthesize", "--domain", str(DOMAINS / "interval_2tile.json"),
                  "--grid", "4", "--out", str(samples))
    assert out.returncode == 0, out.stderr
    os.unlink(str(samples) + ".meta.json")
    cube = tmp_path / "cube.json"
    save_domain(domain_of(np.eye(3).tolist(), [([[0, 1]] * 3, [[0, 0, 0]])]), str(cube))
    out = run_cli("reconstruct", "--domain", str(cube), "--samples", str(samples))
    assert out.returncode == 1
    assert out.stderr == f"error: {samples}: column 3 is 'Re_F_0', expected 'u_2'\n"


@pytest.mark.parametrize("z", [2**63, -(2**63) - 1])
def test_integer_outside_int64_is_named(tmp_path, z):
    """An integer outside int64 is named with the range, after the
    message of the list that holds it."""
    domain = tmp_path / "domain.json"
    domain.write_text(INTERVAL.replace('"offsets":[[0],[1]]', '"offsets":[[0],[%d]]' % z))
    out = run_cli("check", "--domain", str(domain))
    assert out.returncode == 1
    assert out.stderr == (
        f"error: cell 0: offsets must be rows of 1 finite numbers: {z} is outside the 64-bit integer range\n"
    )
    dom, sh, data = _sample_set("split_2tile", [1], [3])
    path = tmp_path / "samples.csv"
    write_samples(str(path), dom, sh, data, {"v": [1], "q": [z]})
    with pytest.raises(SpecFormatError) as err:
        read_samples(str(path), dom)
    assert str(err.value) == f"sample sidecar q must be a list of 1 integers: {z} is outside the 64-bit integer range"


def _two_offset_domain(tmp_path, z: int) -> str:
    """A 1D domain file on offsets 0 and z, written as JSON integers."""
    path = tmp_path / f"offsets_{z}.json"
    path.write_text(
        '{"cells":[{"box":[[0,1]],"offsets":[[0],[%d]]}],"dimension":1,"lattice_basis":[[1]]}' % z
    )
    return str(path)


def test_cli_offsets_past_2_53_are_exact(tmp_path):
    """10^18 + 1 is read as itself, not as the float 10^18: it is odd,
    so q = 2 is perfect and found, and sigma_min is sqrt 2.  10^18 is 1
    mod 3, so at the certified q = 3 sigma_min is 1 exactly."""
    odd = _two_offset_domain(tmp_path, 10**18 + 1)
    out = run_cli("check", "--domain", odd, "--q", "2")
    assert out.returncode == 0 and "kind=perfect" in out.stdout, out.stderr
    out = run_cli("check", "--domain", odd)
    assert out.returncode == 0 and "v = (1)\nq = (2)\n" in out.stdout, out.stderr
    # a whole-number float in another row does not turn the column to floats
    mixed = tmp_path / "mixed.json"
    mixed.write_text(Path(odd).read_text().replace("[0]", "[2.0]"))
    out = run_cli("check", "--domain", str(mixed), "--q", "2")
    assert out.returncode == 0 and "kind=perfect" in out.stdout, out.stderr
    bounds = tmp_path / "b.json"
    for z, want in ((10**18 + 1, np.sqrt(2.0)), (10**18, 1.0)):
        out = run_cli("bounds", "--domain", _two_offset_domain(tmp_path, z), "--out", str(bounds))
        assert out.returncode == 0, out.stderr
        assert abs(json.loads(bounds.read_text())["cells"][0]["sigma_min"] - want) <= 1e-12
    report = tmp_path / "v.json"
    out = run_cli("verify", "--domain", _two_offset_domain(tmp_path, 100001), "--radius", "2", "--out", str(report))
    assert out.returncode == 0, out.stderr
    assert json.loads(report.read_text())["orthogonality_deviation"] <= 1e-15


def _result_values(path, d: int) -> np.ndarray:
    """The complex values of a result CSV (dual --out, reconstruct --out)."""
    with open(path, newline="") as handle:
        body = list(csv.reader(handle))[1:]
    return np.array([complex(float(row[d]), float(row[d + 1])) for row in body])


def _exact_dual(dom, cert, index_set, n, s, eta, ids, us) -> np.ndarray:
    """The Fraction oracle for `dual`: at region r above a grid row u of
    cell c, exp(2 pi i <u + z_r, n + delta*j_s + eta>) k V[s, r] V^-1[r, s],
    row by row, regions in order."""
    out = []
    for c, u in zip(ids, us):
        offsets = dom.cells[c].offsets.tolist()
        V = system_exact(cert, index_set, offsets)
        factors = dom.k * V[s - 1] * np.linalg.inv(V)[:, s - 1]
        out += [exponential_exact(u, z, cert, n, index_set[s - 1], eta) * f for z, f in zip(offsets, factors)]
    return np.array(out)


def test_cli_dual_and_function_exact_past_2_53(tmp_path):
    """On offsets {0, 10^18} (q = 3), `dual --s 2` and a `--function`
    round trip give the exact values at region 2, whose float region
    points 10^18 + u cannot hold u; 10^18 is 1 mod 3."""
    domain = _two_offset_domain(tmp_path, 10**18)
    dom = load_domain(domain)
    cert = find_pair(dom)
    assert (cert.v, cert.q) == ((1,), (3,))
    js = make_shifts(dom, cert).index_sets[0]
    ids, us = flatten_grid(sample_grid(dom, 4))
    out = run_cli("dual", "--domain", domain, "--grid", "4", "--s", "2", "--out", str(tmp_path / "d.csv"))
    assert out.returncode == 0, out.stderr
    got = _result_values(tmp_path / "d.csv", 1)
    assert abs(got[1] - (-1.1153550716504106 + 0.2988584907226843j)) <= 1e-12
    assert np.abs(got - _exact_dual(dom, cert, js, [0], 2, [0], ids, us)).max() <= 1e-12
    (tmp_path / "c.json").write_text('[{"n": [0], "s": 2, "re": 1}]')
    samples = str(tmp_path / "s.csv")
    out = run_cli("synthesize", "--domain", domain, "--grid", "4", "--function", str(tmp_path / "c.json"), "--out", samples)
    assert out.returncode == 0, out.stderr
    out = run_cli("reconstruct", "--domain", domain, "--samples", samples, "--oracle", "--out", str(tmp_path / "r.csv"))
    assert out.returncode == 0, out.stderr
    want = [exponential_exact(u, z, cert, [0], js[1], [0]) for u in us for z in ([0], [10**18])]
    assert abs(want[1] - (-0.7071067811865476 + 0.7071067811865476j)) <= 1e-15
    assert np.abs(_result_values(tmp_path / "r.csv", 1) - want).max() <= 1e-12


@given(large_offset_tilings(), st.data())
def test_cli_row_values_match_exact_phases(dom, data):
    """On tilings in d = 1..3 with offsets up to 2^62, at the certificate
    find_pair takes, `dual` and `synthesize --function` agree with a
    Fraction oracle to 1e-12 (relative to the largest value): the dual
    is _exact_dual's, and the data of a coefficient function are vol V y
    of its exact region values y, sums of exp(2 pi i <u + z_r, n +
    delta*j_s + eta>), with V of exact phases."""
    try:
        cert = find_pair(dom)
    except NoPairFound:
        reject()
    d, k = dom.dimension, dom.k
    js = make_shifts(dom, cert).index_sets[0]
    small = st.lists(st.integers(-3, 3), min_size=d, max_size=d)
    n, eta, s = data.draw(small), data.draw(small), data.draw(st.integers(1, k))
    terms = data.draw(st.lists(st.tuples(small, st.integers(1, k), st.floats(-2, 2)), min_size=1, max_size=3))
    ids, us = flatten_grid(sample_grid(dom, 2))
    with tempfile.TemporaryDirectory() as tmp:
        domain = os.path.join(tmp, "dom.json")
        save_domain(dom, domain)
        flags = ("--domain", domain, "--grid", "2", "--eta", ",".join(map(str, eta)))
        out = run_cli("dual", *flags, "--s", str(s), "--n", ",".join(map(str, n)), "--out", f"{tmp}/d.csv")
        assert out.returncode == 0, out.stderr
        got = _result_values(f"{tmp}/d.csv", d)
        want = _exact_dual(dom, cert, js, n, s, eta, ids, us)
        assert np.abs(got - want).max() <= 1e-12 * max(1.0, np.abs(want).max())
        with open(f"{tmp}/c.json", "w") as handle:
            json.dump([{"n": tn, "s": ts, "re": c} for tn, ts, c in terms], handle)
        out = run_cli("synthesize", *flags, "--function", f"{tmp}/c.json", "--out", f"{tmp}/s.csv")
        assert out.returncode == 0, out.stderr
        got = read_samples(f"{tmp}/s.csv", dom)[0].values
    for row, (c, u) in enumerate(zip(ids, us)):
        offsets = dom.cells[c].offsets.tolist()
        y = [sum(cf * exponential_exact(u, z, cert, tn, js[ts - 1], eta) for tn, ts, cf in terms) for z in offsets]
        want = dom.lattice.volume * system_exact(cert, js, offsets) @ y
        assert np.abs(got[row] - want).max() <= 1e-12 * max(1.0, np.abs(want).max())


def test_cli_eta_over_phase_limit_exit_1(tmp_path):
    """An eta whose label arguments pass PHASE_LIMIT is refused, exit
    code 1, naming eta: by `dual` and by `synthesize --mode coeff`."""
    strip = str(DOMAINS / "strip_3tile_2d.json")
    (tmp_path / "c.json").write_text('[{"n": [1, 0], "s": 1, "re": 1.0}]')
    for args in (
        ("dual", "--grid", "2"),
        ("synthesize", "--mode", "coeff", "--radius", "3", "--grid", "4",
         "--function", str(tmp_path / "c.json"), "--out", str(tmp_path / "s.csv")),
    ):
        out = run_cli(*args, "--domain", strip, "--eta", "10000000000,0")
        assert out.returncode == 1, out.stdout
        assert "with eta = [10000000000, 0] gives phase arguments up to 1.000e+10" in out.stderr
        assert not (tmp_path / "s.csv").exists()


def test_cli_raw_spacing_over_phase_limit_exit_1(tmp_path):
    """A sidecar spacing with no v and q is refused, exit code 1, when
    its phases on the domain's offsets cannot be formed accurately."""
    domain = _two_offset_domain(tmp_path, 10**18)
    samples = tmp_path / "s.csv"
    assert run_cli("synthesize", "--domain", domain, "--grid", "4", "--out", str(samples)).returncode == 0
    meta_path = tmp_path / "s.csv.meta.json"
    meta = json.loads(meta_path.read_text())
    meta.update(delta=[1 / 3], v=None, q=None)
    meta_path.write_text(json.dumps(meta))
    out = run_cli("reconstruct", "--domain", domain, "--samples", str(samples), "--out", str(tmp_path / "r.csv"))
    assert out.returncode == 1
    assert out.stderr.startswith("error: cell 0: the raw spacing delta = [0.3333333333333333]")


def test_cli_check_inadmissible_exit_2():
    """Run as a real `python -m multitile.cli` process, the one test of
    the module entry point and of its exit status."""
    out = subprocess.run(
        [sys.executable, "-m", "multitile.cli", "check",
         "--domain", str(DOMAINS / "split_2tile.json"), "--v", "1", "--q", "2"],
        capture_output=True,
        text=True,
    )
    assert out.returncode == 2
    assert out.stderr == (
        "error: collision in cell 0, level 1, prefix (): "
        "children z=0 and z=2 give 0 = 0 (mod 2)\n"
    )


def test_cli_v_without_q_exit_1():
    out = run_cli("check", "--domain", str(DOMAINS / "split_2tile.json"), "--v", "1")
    assert out.returncode == 1
    assert "--v needs --q" in out.stderr


HUGE = "99999999999999999999999"  # beyond int64


@pytest.mark.parametrize(
    "command,flags",
    [
        ("check", ("--q", HUGE)),
        ("check", ("--q", "4", "--v", HUGE)),
        ("shifts", ("--eta", HUGE)),
        ("dual", ("--n", HUGE)),
    ],
    ids=["q", "v", "eta", "n"],
)
def test_cli_int_flag_overflow_exit_1(command, flags):
    out = CliRunner().invoke(
        main, [command, "--domain", str(DOMAINS / "split_2tile.json"), *flags]
    )
    assert out.exit_code == 1, out.output
    assert f"{flags[-2]} must be comma-separated 64-bit integers" in out.stderr


def test_cli_malformed_domain_exit_1(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"dimension": 1, "lattice_basis": [[1.0]], "cells": [], "x": 1}')
    out = run_cli("check", "--domain", str(bad))
    assert out.returncode == 1
    assert "unknown keys" in out.stderr
    bad.write_text("not json")
    assert run_cli("check", "--domain", str(bad)).returncode == 1
    assert run_cli("check", "--domain", str(tmp_path / "absent.json")).returncode == 1


INTERVAL = (DOMAINS / "interval_2tile.json").read_text()


def _interval(old, new):
    assert old in INTERVAL
    return INTERVAL.replace(old, new).encode()


def _replace(old, new):
    def edit(text):
        assert old in text
        return text.replace(old, new, 1)
    return edit


# name: (file, its new bytes or an edit of its bytes, whether the
# message names the file); each file is one that a command reads
MALFORMED_FILES = {
    "domain-non-utf8": ("domain", INTERVAL.encode().replace(b"[[1]]", b"[[1\xff]]"), True),
    "domain-huge-int": ("domain", _interval('"dimension":1', '"dimension":1' + "0" * 4300), True),
    "domain-deep": ("domain", b"[" * 100_000 + b"]" * 100_000, True),
    "basis-string": ("domain", _interval('"lattice_basis":[[1]]', '"lattice_basis":[["a"]]'), False),
    "box-string": ("domain", _interval('"box":[[0,1]]', '"box":"x"'), False),
    "offsets-ragged": ("domain", _interval('"offsets":[[0],[1]]', '"offsets":[[0],[2,3]]'), False),
    "box-nan-string": ("domain", _interval('"box":[[0,1]]', '"box":[[0,"nan"]]'), False),
    "box-number-string": ("domain", _interval('"box":[[0,1]]', '"box":[[0,"1"]]'), False),
    "offsets-string-bool": ("domain", _interval('"offsets":[[0],[1]]', '"offsets":[["0"],[true]]'), False),
    "offset-1e400": ("domain", _interval('"offsets":[[0],[1]]', '"offsets":[[0],[1e400]]'), False),
    "offset-1e30": ("domain", _interval('"offsets":[[0],[1]]', '"offsets":[[0],[1e30]]'), False),
    "samples-non-utf8": ("samples", _replace(b"\r\n0,", b"\r\n0\xff,"), True),
    "samples-long-field": ("samples", _replace(b"\r\n0,", b"\r\n0," + b"1" * 131_073), True),
    "sidecar-non-utf8": ("sidecar", _replace(b'"format"', b'"form\xffat"'), True),
    "sidecar-deep": ("sidecar", b"[" * 100_000 + b"]" * 100_000, True),
    "coeffs-non-utf8": ("coeffs", b'[{"n": [0], "s": 1, "re": 1.0\xff}]', True),
    "coeffs-huge-int": ("coeffs", b'[{"n": [0], "s": 1, "re": 1' + b"0" * 4300 + b"}]", True),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_FILES))
def test_cli_malformed_file_exit_1(tmp_path, case):
    """Every input file that cannot be decoded, parsed or read as the
    documented numbers exits 1 with a one-line message, naming the file
    when it cannot be decoded or parsed, and writes no output."""
    kind, content, named = MALFORMED_FILES[case]
    domain = tmp_path / "domain.json"
    samples = tmp_path / "samples.csv"
    domain.write_text(INTERVAL)
    assert run_cli("synthesize", "--domain", str(domain), "--grid", "2", "--out", str(samples)).returncode == 0
    paths = {
        "domain": domain,
        "samples": samples,
        "sidecar": tmp_path / "samples.csv.meta.json",
        "coeffs": tmp_path / "coeffs.json",
    }
    target = paths[kind]
    if callable(content):
        content = content(target.read_bytes())
    target.write_bytes(content)
    out_path = tmp_path / "out"
    args = {
        "domain": ("check",),
        "samples": ("reconstruct", "--samples", str(samples)),
        "sidecar": ("reconstruct", "--samples", str(samples)),
        "coeffs": ("synthesize", "--function", str(target)),
    }[kind]
    out = run_cli(*args, "--domain", str(domain), "--out", str(out_path))
    assert out.returncode == 1, out.stderr
    assert out.stderr.startswith("error: ") and out.stderr.count("\n") == 1, out.stderr
    assert not named or str(target) in out.stderr, out.stderr
    assert not out_path.exists()


def test_cli_pipeline_roundtrip(tmp_path):
    domain = str(DOMAINS / "plane_4tile_2d.json")
    samples = tmp_path / "samples.csv"
    result = tmp_path / "result.csv"
    out = run_cli(
        "synthesize", "--domain", domain,
        "--grid", "3", "--seed", "7",
        "--out", str(samples),
    )
    assert out.returncode == 0, out.stderr
    assert "wrote 9 sample rows" in out.stdout
    out = run_cli(
        "reconstruct", "--domain", domain,
        "--samples", str(samples),
        "--oracle", "--out", str(result),
    )
    assert out.returncode == 0, out.stderr
    assert "reconstructed 36 values from 9 rows (0 skipped)" in out.stdout
    worst = float(out.stdout.split("max oracle residual =")[1].strip())
    assert worst <= 1e-9
    rows = list(csv.reader(result.open()))
    assert rows[0] == ["y_1", "y_2", "Re_f", "Im_f", "residual"]
    assert len(rows) == 37


def test_cli_reconstruct_rejects_foreign_sidecar(tmp_path):
    other = domain_of(
        np.eye(2).tolist(),
        [([[0, 1], [0, 1]], [[0, 0], [1, 0], [1, 1]])],
    )
    other_path = tmp_path / "bent_3tile.json"
    save_domain(other, str(other_path))
    samples = tmp_path / "samples.csv"
    out = run_cli(
        "synthesize",
        "--domain", str(DOMAINS / "strip_3tile_2d.json"),
        "--v", "1,1", "--q", "3,2",
        "--grid", "2",
        "--out", str(samples),
    )
    assert out.returncode == 0, out.stderr
    out = run_cli(
        "reconstruct",
        "--domain", str(other_path),
        "--samples", str(samples),
    )
    assert out.returncode == 1
    assert "different domain file" in out.stderr


def test_cli_reconstruct_rejects_sidecar_not_object(tmp_path):
    domain = str(DOMAINS / "split_2tile.json")
    samples = tmp_path / "samples.csv"
    out = run_cli("synthesize", "--domain", domain, "--grid", "2", "--out", str(samples))
    assert out.returncode == 0, out.stderr
    (tmp_path / "samples.csv.meta.json").write_text("[1, 2]\n")
    out = run_cli("reconstruct", "--domain", domain, "--samples", str(samples))
    assert out.returncode == 1, out.stderr
    assert "expected a JSON object" in out.stderr


def test_cli_reconstruct_every_row_skipped_exit_1(tmp_path):
    """Samples whose rows all name the other cell, or all lie outside
    [0,1), reconstruct nothing: exit 1 naming the first row and why,
    with no output file.  A header-only file still reconstructs its
    zero rows."""
    domain = str(DOMAINS / "twocell_2tile_1d.json")
    samples = tmp_path / "samples.csv"
    out = run_cli("synthesize", "--domain", domain, "--grid", "4", "--out", str(samples))
    assert out.returncode == 0, out.stderr
    head, *body = samples.read_text().splitlines(keepends=True)
    swapped = "".join(str(1 - int(line[0])) + line[1:] for line in body)
    outside = "".join(line.split(",", 2)[0] + ",1.25," + line.split(",", 2)[2] for line in body)
    result = tmp_path / "r.csv"
    for rows, reason in (
        (swapped, "point [0.0625] lies outside the box of cell 1, which the row names"),
        (outside, "point [1.25] lies outside [0,1)^d"),
    ):
        samples.write_text(head + rows)
        out = run_cli("reconstruct", "--domain", domain, "--samples", str(samples),
                      "--oracle", "--out", str(result))
        assert out.returncode == 1, out.stderr
        assert out.stdout == ""
        assert out.stderr == f"error: {samples}: every sample row was skipped; row 2: {reason}\n"
        assert not result.exists()
    samples.write_text(head)
    out = run_cli("reconstruct", "--domain", domain, "--samples", str(samples), "--oracle", "--out", str(result))
    assert out.returncode == 0, out.stderr
    assert out.stdout == "reconstructed 0 values from 0 rows (0 skipped)\nmax oracle residual = nan\n"
    assert result.read_bytes() == b"y_1,Re_f,Im_f,residual\r\n"


@pytest.mark.parametrize("oracle", [(), ("--oracle",)], ids=["plain", "oracle"])
def test_cli_reconstruct_singular_sidecar_exit_2(tmp_path, oracle):
    """A sidecar spacing of 2e-13 makes interval_2tile's only cell
    singular (sigma_min 6.3e-13) though its nodes are 1.26e-12 apart:
    reconstruct exits 2 naming the cell, with or without --oracle, and
    writes no output file."""
    domain = str(DOMAINS / "interval_2tile.json")
    samples = tmp_path / "samples.csv"
    out = run_cli("synthesize", "--domain", domain, "--grid", "4", "--out", str(samples))
    assert out.returncode == 0, out.stderr
    sidecar = tmp_path / "samples.csv.meta.json"
    meta = json.loads(sidecar.read_text())
    meta.update(delta=[2e-13], v=None, q=None)
    sidecar.write_text(json.dumps(meta))
    result = tmp_path / "r.csv"
    out = run_cli("reconstruct", "--domain", domain, "--samples", str(samples), *oracle, "--out", str(result))
    assert out.returncode == 2, out.stderr
    assert out.stderr == (
        "error: cell 0 system is singular (sigma_min=6.283e-13); "
        "the spacing is not admissible for this cell\n"
    )
    assert not result.exists()


def test_cli_work_budget_exit_1(tmp_path):
    plane = str(DOMAINS / "plane_4tile_2d.json")
    coeffs = tmp_path / "coeffs.json"
    coeffs.write_text('[{"n": [0], "s": 1, "re": 1.0}, {"n": [1], "s": 2, "re": 1.0}]')
    coeffs_2d = tmp_path / "coeffs_2d.json"
    coeffs_2d.write_text('[{"n": [0, 1], "s": 3, "re": 1.0}]')
    cases = (
        (("verify", "--domain", plane, "--radius", "100"),
         "tests 2572816 label pairs"),
        (("dual", "--domain", plane, "--grid", "1001"),
         "gives 1002001 sample rows"),
        (("synthesize", "--domain", str(DOMAINS / "twocell_2tile_1d.json"),
          "--grid", "500001", "--out", str(tmp_path / "never.csv")),
         "gives 1000002 sample rows"),
        (("synthesize", "--domain", str(DOMAINS / "interval_2tile.json"), "--mode", "coeff",
          "--radius", "400000", "--function", str(coeffs), "--out", str(tmp_path / "never.csv")),
         "gives 9600012 coefficient work units"),
        (("synthesize", "--domain", str(DOMAINS / "strip_3tile_2d.json"), "--mode", "coeff",
          "--radius", "2000", "--function", str(coeffs_2d), "--out", str(tmp_path / "never.csv")),
         "gives 1072536067 coefficient work units"),
    )
    for args, size in cases:
        out = run_cli(*args)
        assert out.returncode == 1, out.stderr
        assert size in out.stderr and "work budget of 1000000" in out.stderr
    assert not (tmp_path / "never.csv").exists()


def test_cli_synthesize_coeff_mode(tmp_path):
    coeffs = tmp_path / "coeffs.json"
    coeffs.write_text('[{"n": [1], "s": 2, "re": 1.0, "im": 0.0}]')
    samples = tmp_path / "samples.csv"
    out = run_cli(
        "synthesize",
        "--domain", str(DOMAINS / "split_2tile.json"),
        "--q", "3",
        "--mode", "coeff", "--radius", "6",
        "--function", str(coeffs),
        "--out", str(samples),
    )
    assert out.returncode == 0, out.stderr
    meta = json.loads((tmp_path / "samples.csv.meta.json").read_text())
    assert meta["provenance"] == "coefficient-truncated"
    assert meta["radius"] == 6
    assert meta["coeffs"] == [{"im": 0.0, "n": [1], "re": 1.0, "s": 2}]
    out = run_cli(
        "reconstruct",
        "--domain", str(DOMAINS / "split_2tile.json"),
        "--samples", str(samples),
    )
    assert out.returncode == 0, out.stderr


def test_cli_coeff_mode_needs_function():
    out = run_cli(
        "synthesize",
        "--domain", str(DOMAINS / "split_2tile.json"),
        "--mode", "coeff",
        "--out", "/tmp/never-written.csv",
    )
    assert out.returncode == 1
    assert "coeff mode needs --function" in out.stderr


def test_cli_bad_coeff_file_exit_1(tmp_path):
    coeffs = tmp_path / "coeffs.json"
    coeffs.write_text('[{"n": [1], "s": 9, "re": 1.0, "im": 0.0}]')
    out = run_cli(
        "synthesize",
        "--domain", str(DOMAINS / "split_2tile.json"),
        "--mode", "coeff",
        "--function", str(coeffs),
        "--out", str(tmp_path / "never.csv"),
    )
    assert out.returncode == 1
    assert "s must lie in 1..2" in out.stderr


# finite coefficients whose sum overflows in the data
OVERFLOW = '[{"n": [0], "s": 1, "re": 1e308}, {"n": [1], "s": 1, "re": 1e308}]'


@pytest.mark.parametrize(
    "coeffs,flags,message",
    [
        (None, ("--seed", "-1"), "--seed must be nonnegative, got -1"),
        ('[{"n": [0.5], "s": 1, "re": 1.0}]', (), "term 0: n must be a list of 1 integers"),
        ('[{"n": "0", "s": 1, "re": 1.0}]', (), "term 0: n must be a list of 1 integers"),
        ('[{"n": [0], "s": 1}, {"n": [99999999999999999999999], "s": 1}]', (), "term 1: n must be a list of 1 integers"),
        ('[{"n": [0], "s": 1.9, "re": 1.0}]', (), "term 0: s must lie in 1..2"),
        ('[{"n": [0], "s": 1, "re": "1e999"}]', (), "term 0: re and im must be finite numbers"),
        ('[{"n": [0], "s": 1, "im": 1e999}]', (), "term 0: re and im must be finite numbers"),
        (OVERFLOW, (), "data values of sample row 0 are not finite"),
        (OVERFLOW, ("--mode", "coeff"), "data values of sample row 0 are not finite"),
        ('[{"n": [0], "s": 1, "re": 1e308}, {"n": [0], "s": 1, "re": 1e308}]', (),
         "region values of sample row 0 are not finite"),
    ],
    ids=["seed", "n-float", "n-string", "n-huge", "s-float", "re-string", "im-inf",
         "overflow-data", "overflow-coeff-data", "overflow-region-values"],
)
def test_cli_synthesize_malformed_input_exit_1(tmp_path, coeffs, flags, message):
    """Exit 1 naming the term, flag or row, with no numpy warning leaked
    (huge but finite coefficients overflow in the arithmetic)."""
    if coeffs is not None:
        (tmp_path / "coeffs.json").write_text(coeffs)
        flags = (*flags, "--function", str(tmp_path / "coeffs.json"))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = CliRunner().invoke(main, [
            "synthesize", "--domain", str(DOMAINS / "interval_2tile.json"), "--grid", "2",
            *flags, "--out", str(tmp_path / "never.csv"),
        ])
    assert out.exit_code == 1, out.output
    assert message in out.stderr
    assert not (tmp_path / "never.csv").exists()


def test_cli_verify_and_bounds(tmp_path):
    report = tmp_path / "verify.json"
    out = run_cli(
        "verify",
        "--domain", str(DOMAINS / "interval_2tile.json"),
        "--q", "2", "--radius", "3",
        "--out", str(report),
    )
    assert out.returncode == 0, out.stderr
    obj = json.loads(report.read_text())
    assert obj["residual"] <= 1e-10
    assert obj["radius"] == 3
    assert obj["orthogonal"] is True
    out = run_cli("bounds", "--domain", str(DOMAINS / "interval_2tile.json"), "--q", "2")
    assert out.returncode == 0, out.stderr
    assert "A = " in out.stdout and "B = " in out.stdout


def test_cli_dual_csv(tmp_path):
    table = tmp_path / "dual.csv"
    out = run_cli(
        "dual",
        "--domain", str(DOMAINS / "interval_2tile.json"),
        "--q", "2",
        "--n", "0", "--s", "2", "--grid", "2",
        "--out", str(table),
    )
    assert out.returncode == 0, out.stderr
    rows = list(csv.reader(table.open()))
    assert rows[0] == ["y_1", "Re_f", "Im_f", "residual"]
    assert len(rows) == 1 + 2 * 2
