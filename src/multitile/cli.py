"""Command line front end: wiring only, since ``formats`` reads and
checks every input file, the sample sidecar included.

Exit codes, mapped once by the command group: 0 success; 1 a usage
error (a bad value, an unknown option or command, a missing option), or
malformed or unreadable input, that is an ``errors.InputError``
(SpecFormatError, SingularBasis, DimensionMismatch, NotATiling,
InconsistentK, DuplicateOffset, OutOfDomain) or an OSError; 2
mathematical failure, that is an ``errors.MathError`` (NoPairFound,
ResidueCollision, NonUniformShifts, SingularCell, SingularMatrix,
DuplicateNodes, PointOnGap); 3 unexpected internal error.

A ShiftSet comes from --v/--q (--q alone means v is all ones), else a
sample sidecar's v and q, else its delta, else find_pair.

``check --out`` and ``bounds --out`` write the result records
(AdmissibilityCertificate, RieszBounds) as canonical JSON, so their keys
are the records' field names.
"""

from __future__ import annotations

import dataclasses
import sys

import click
import numpy as np

from .admissibility import (
    AdmissibilityFailure,
    check as check_admissible,
    find_pair,
)
from .domain import MultiTileDomain, _cell_rows, _unowned, sample_grid
from .errors import InputError, MathError, ResidueCollision, SpecFormatError
from .expsystem import (
    _dual_factors,
    _unit_phases,
    frequency_vector,
    is_orthogonal,
    make_shifts,
    riesz_bounds,
    verify_biorthogonality,
)
from .formats import (
    _load_coeffs,
    atomic_write_text,
    canonical_json,
    load_domain,
    read_samples,
    write_result,
    write_samples,
)
from .reconstruction import (
    ReconstructionResult,
    coefficient_data,
    flatten_grid,
    forward_data,
    reconstruct_grid,
)

# largest label-pair count (verify), sample-row count (dual,
# synthesize) or coefficient work (synthesize --mode coeff) a command
# accepts; the work grows linearly with it
WORK_BUDGET = 10**6


def _parse_int_vector(text: str, d: int, name: str) -> np.ndarray:
    try:
        vec = np.array([int(part) for part in text.split(",")], dtype=int)
    except (ValueError, OverflowError):
        raise SpecFormatError(f"{name} must be comma-separated 64-bit integers, got {text!r}")
    if vec.shape != (d,):
        raise SpecFormatError(f"{name} must have {d} components, got {len(vec)}")
    return vec


domain_option = click.option(
    "--domain", "domain_path", required=True, type=click.Path(), help="Domain JSON file."
)


def certificate_options(fn):
    fn = click.option("--q", "q_text", help="Per-axis moduli, comma-separated positive integers.")(fn)
    return click.option("--v", "v_text", help="Per-axis direction integers, comma-separated.")(fn)


def shift_options(fn):
    fn = click.option("--eta", "eta_text",
                      help="Dual-lattice coordinates of the common translation, comma-separated integers.")(fn)
    return certificate_options(fn)


def _flag_vectors(domain: MultiTileDomain, v_text, q_text):
    """The --v and --q flags as integer vectors, None where omitted; --v
    alone is an error since there is no canonical modulus to pair it
    with."""
    if v_text is not None and q_text is None:
        raise SpecFormatError("--v needs --q")
    d = domain.dimension
    return tuple(None if text is None else _parse_int_vector(text, d, name)
                 for text, name in ((v_text, "--v"), (q_text, "--q")))


def _resolve_certificate(domain: MultiTileDomain, v, q):
    """Certificate for integer vectors v and q (v all ones when None),
    or by search when q is None."""
    if q is None:
        return find_pair(domain), "searched"
    if v is None:
        v = np.ones(domain.dimension, dtype=int)
    result = check_admissible(domain, v, q)
    if isinstance(result, AdmissibilityFailure):
        raise ResidueCollision(result.message)
    return result, "given"


def _resolve_shifts(domain, v_text, q_text, eta_text, meta=None):
    """ShiftSet from flags, falling back to a sample sidecar that
    formats.read_samples has checked; the sidecar's index sets, if any,
    must be the ones built."""
    meta = meta or {}
    eta = meta.get("eta") if eta_text is None else _parse_int_vector(eta_text, domain.dimension, "--eta")
    v, q = _flag_vectors(domain, v_text, q_text)
    if q is None and meta.get("v") is not None and meta.get("q") is not None:
        v, q = meta["v"], meta["q"]
    if q is None and meta.get("delta") is not None:
        shifts, cert = make_shifts(domain, meta["delta"], eta), None
    else:
        cert, _ = _resolve_certificate(domain, v, q)
        shifts = make_shifts(domain, cert, eta)
    stored = meta.get("index_sets")
    if stored is not None and stored != [[list(j) for j in idx] for idx in shifts.index_sets]:
        raise SpecFormatError(
            "sample sidecar index sets do not match the domain; "
            "the samples were built against a different domain file"
        )
    return shifts, cert


def _check_grid_budget(domain: MultiTileDomain, grid_n: int) -> int:
    """The sample-row count of a --grid; SpecFormatError unless the grid
    is positive and the count within budget."""
    if grid_n < 1:
        raise SpecFormatError(f"--grid must be positive, got {grid_n}")
    rows = grid_n**domain.dimension * len(domain.cells)
    if rows > WORK_BUDGET:
        raise SpecFormatError(
            f"--grid {grid_n} gives {rows} sample rows (grid^d x cells), "
            f"over the work budget of {WORK_BUDGET}"
        )
    return rows


def _check_coeff_budget(domain: MultiTileDomain, radius: int, terms: int, rows: int) -> None:
    """Coefficient data builds a (2r+1)^d-label table per term and
    shift position, and sums over those labels at every sample row."""
    if radius < 0:
        raise SpecFormatError(f"--radius must be nonnegative, got {radius}")
    work = (2 * radius + 1) ** domain.dimension * (terms * domain.k + rows)
    if work > WORK_BUDGET:
        raise SpecFormatError(
            f"--radius {radius} with {terms} terms and {rows} sample rows gives "
            f"{work} coefficient work units ((2r+1)^d x (terms k + rows)), "
            f"over the work budget of {WORK_BUDGET}"
        )


def _check_finite_rows(values: np.ndarray, what: str) -> None:
    """SpecFormatError naming the first row of an (N, k) array that
    holds a non-finite value."""
    bad = np.flatnonzero(~np.isfinite(values).all(axis=1))
    if len(bad):
        raise SpecFormatError(
            f"{what} of sample row {bad[0]} are not finite; "
            "the --function coefficients are too large"
        )


def _skip_reason(domain: MultiTileDomain, cell: int, u: np.ndarray) -> str:
    """Why reconstruct_grid skips a sample row naming the cell with the
    point u: u lies outside [0,1)^d, on a gap between cell boxes, or
    outside the box of the cell."""
    if _cell_rows(domain, u[None, :])[0] < 0:
        return str(_unowned(u))
    return f"point {u} lies outside the box of cell {cell}, which the row names"


def _vec_str(vec) -> str:
    return "(" + ", ".join(_num_str(x) for x in np.asarray(vec).ravel()) + ")"


def _num_str(x) -> str:
    if float(x).is_integer():  # integers exactly: 10**18 + 1 is not 1e+18
        return str(int(x))
    return repr(float(x))


class _Main(click.Group):
    """The command group; it alone maps errors to exit codes."""

    def make_context(self, *args, **kwargs):
        try:
            return super().make_context(*args, **kwargs)
        except click.UsageError as exc:
            exc.exit_code = 1
            raise

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except click.UsageError as exc:
            exc.exit_code = 1
            raise
        except (click.ClickException, click.exceptions.Exit, click.exceptions.Abort):
            raise
        except (InputError, OSError, MathError) as exc:
            click.echo(f"error: {exc}", err=True)
            sys.exit(2 if isinstance(exc, MathError) else 1)
        except Exception as exc:  # anything else is a bug, not bad input
            click.echo(f"internal error: {exc!r}", err=True)
            sys.exit(3)


@click.group(cls=_Main)
def main():
    """Exponential bases on multi-tiling domains: admissibility checks,
    dual generators, Riesz bounds, synthetic data and reconstruction."""


@main.command("check")
@domain_option
@certificate_options
@click.option("--out", "out_path", default=None, type=click.Path(), help="Write the certificate as JSON.")
def cmd_check(domain_path, v_text, q_text, out_path):
    """Check or search for an admissible direction/modulus pair."""
    domain = load_domain(domain_path)
    cert, how = _resolve_certificate(domain, *_flag_vectors(domain, v_text, q_text))
    click.echo(f"admissible ({how}): kind={cert.kind}")
    click.echo(f"v = {_vec_str(cert.v)}")
    click.echo(f"q = {_vec_str(cert.q)}")
    click.echo(f"delta = {_vec_str(cert.delta)}")
    if out_path:
        atomic_write_text(out_path, canonical_json(dataclasses.asdict(cert)) + "\n")


@main.command("shifts")
@domain_option
@shift_options
@click.option("--out", "out_path", default=None, type=click.Path(), help="Write the shift set as JSON.")
def cmd_shifts(domain_path, v_text, q_text, eta_text, out_path):
    """Print the shift index sets and realized shift vectors."""
    domain = load_domain(domain_path)
    shifts, _ = _resolve_shifts(domain, v_text, q_text, eta_text)
    click.echo(f"delta = {_vec_str(shifts.delta)}")
    click.echo(f"eta = {_vec_str(shifts.eta_coords)}")
    click.echo(f"uniform = {shifts.uniform}")
    for ci, (idx, vecs) in enumerate(zip(shifts.index_sets, shifts.shifts)):
        click.echo(f"cell {ci}:")
        for s in range(domain.k):
            click.echo(f"  s={s + 1}  j={_vec_str(idx[s])}  a={_vec_str(vecs[s])}")
    if out_path:
        obj = {
            "delta": shifts.delta.tolist(),
            "eta": shifts.eta_coords.tolist(),
            "uniform": bool(shifts.uniform),
            "cells": [
                {"indices": [list(j) for j in idx], "shifts": vecs.tolist()}
                for idx, vecs in zip(shifts.index_sets, shifts.shifts)
            ],
        }
        atomic_write_text(out_path, canonical_json(obj) + "\n")


@main.command("dual")
@domain_option
@shift_options
@click.option("--n", "n_text", default=None, help="Integer label coordinates, comma-separated (default zeros).")
@click.option("--s", "s_pos", default=1, type=int, help="Shift position, 1-based.")
@click.option("--grid", "grid_n", default=16, type=int, help="Midpoint grid resolution per axis.")
@click.option("--out", "out_path", default=None, type=click.Path(), help="Write sampled values as CSV.")
def cmd_dual(domain_path, v_text, q_text, eta_text, n_text, s_pos, grid_n, out_path):
    """Evaluate one dual generator on a grid over the domain."""
    domain = load_domain(domain_path)
    shifts, _ = _resolve_shifts(domain, v_text, q_text, eta_text)
    d = domain.dimension
    n = np.zeros(d, dtype=int) if n_text is None else _parse_int_vector(n_text, d, "--n")
    if not 1 <= s_pos <= domain.k:
        raise SpecFormatError(f"--s must lie in 1..{domain.k}, got {s_pos}")
    _check_grid_budget(domain, grid_n)
    ids, us = flatten_grid(sample_grid(domain, grid_n))
    vals = _unit_phases(domain, shifts, n, s_pos)(us)[:, None] * _dual_factors(domain, shifts, s_pos)[ids]
    click.echo(f"label = {_vec_str(frequency_vector(domain, shifts, n, s_pos))}")
    click.echo(f"evaluated {vals.size} points")
    if out_path:
        result = ReconstructionResult(
            values=vals.ravel(),
            residuals=np.full(len(ids), np.nan),
            skipped=(),
            kept_rows=np.arange(len(ids)),
            kept_cells=ids,
            kept_points=us,
            domain=domain,
        )
        write_result(out_path, result, d)


@main.command("verify")
@domain_option
@shift_options
@click.option("--radius", default=4, type=int, help="Dual-lattice truncation radius for the residual scan.")
@click.option("--out", "out_path", default=None, type=click.Path(), help="Write the report as JSON.")
def cmd_verify(domain_path, v_text, q_text, eta_text, radius, out_path):
    """Report the worst pairing residual between the basis and its dual."""
    domain = load_domain(domain_path)
    shifts, _ = _resolve_shifts(domain, v_text, q_text, eta_text)
    if radius < 0:
        raise SpecFormatError(f"--radius must be nonnegative, got {radius}")
    pairs = (4 * radius + 1) ** domain.dimension * domain.k**2
    if pairs > WORK_BUDGET:
        raise SpecFormatError(
            f"--radius {radius} tests {pairs} label pairs "
            f"((4r+1)^d k^2), over the work budget of {WORK_BUDGET}"
        )
    residual = verify_biorthogonality(domain, shifts, radius=radius)
    ortho, dev = is_orthogonal(domain, shifts)
    click.echo(f"max biorthogonality residual = {residual:.6e} (radius {radius})")
    click.echo(f"orthogonal = {ortho} (deviation {dev:.6e})")
    if out_path:
        obj = {
            "residual": float(residual),
            "radius": radius,
            "orthogonal": bool(ortho),
            "orthogonality_deviation": float(dev),
        }
        atomic_write_text(out_path, canonical_json(obj) + "\n")


@main.command("bounds")
@domain_option
@shift_options
@click.option("--out", "out_path", default=None, type=click.Path(), help="Write bounds as JSON.")
def cmd_bounds(domain_path, v_text, q_text, eta_text, out_path):
    """Print Riesz bounds for the shifted exponential system."""
    domain = load_domain(domain_path)
    shifts, _ = _resolve_shifts(domain, v_text, q_text, eta_text)
    bounds = riesz_bounds(domain, shifts)
    click.echo(f"alpha = {bounds.alpha!r}  beta = {bounds.beta!r}")
    click.echo(f"A = {bounds.frame_lower!r}  B = {bounds.frame_upper!r}")
    for cb in bounds.cells:
        click.echo(
            f"cell {cb.cell}: sigma_min={cb.sigma_min!r} sigma_max={cb.sigma_max!r} "
            f"kappa={cb.kappa!r} factored=[{cb.factored_lower!r}, {cb.factored_upper!r}]"
        )
    if out_path:
        atomic_write_text(out_path, canonical_json(dataclasses.asdict(bounds)) + "\n")


@main.command("synthesize")
@domain_option
@shift_options
@click.option("--grid", "grid_n", default=8, type=int, help="Midpoint grid resolution per axis.")
@click.option("--seed", default=0, type=int, help="Seed for random region values.")
@click.option("--mode", type=click.Choice(["pointwise", "coeff"]), default="pointwise",
              help="pointwise: exact data from region samples; coeff: radius-truncated coefficient data.")
@click.option("--radius", default=4, type=int, help="Truncation radius for coeff mode.")
@click.option("--function", "function_spec", default="random",
              help="'random' or a JSON file of exponential coefficients.")
@click.option("--out", "out_path", required=True, type=click.Path(), help="Output CSV path.")
def cmd_synthesize(domain_path, v_text, q_text, eta_text, grid_n, seed, mode,
                   radius, function_spec, out_path):
    """Generate sample data for a known function on a midpoint grid."""
    domain = load_domain(domain_path)
    shifts, cert = _resolve_shifts(domain, v_text, q_text, eta_text)
    rows = _check_grid_budget(domain, grid_n)
    if seed < 0:
        raise SpecFormatError(f"--seed must be nonnegative, got {seed}")
    k = domain.k

    coeffs = None
    if function_spec != "random":
        coeffs = _load_coeffs(function_spec, domain.dimension, k)
    if mode == "coeff":
        if coeffs is None:
            raise SpecFormatError("coeff mode needs --function <coeffs.json>")
        _check_coeff_budget(domain, radius, len(coeffs), rows)
    ids, pts = flatten_grid(sample_grid(domain, grid_n))
    # huge coefficients overflow; the checks below name the first row
    with np.errstate(over="ignore", invalid="ignore"):
        if mode == "coeff":
            data = coefficient_data(domain, shifts, coeffs, ids, pts, radius)
        else:
            if coeffs is None:
                rng = np.random.default_rng(seed)
                values = rng.normal(size=(len(ids), k)) + 1j * rng.normal(size=(len(ids), k))
            else:
                # e_(n,s) at region r above a row of cell c: phases times conj V_c[s, r]
                conj_v = np.stack([ps.V.conj() for ps in shifts.systems])
                values = np.zeros((len(ids), k), dtype=complex)
                for (n, s), c in coeffs.items():
                    values += c * _unit_phases(domain, shifts, n, s)(pts)[:, None] * conj_v[ids, s - 1]
                _check_finite_rows(values, "region values")
            data = forward_data(domain, shifts, ids, pts, values)
    _check_finite_rows(data.values, "data values")

    extra = {"grid": grid_n, "mode": mode, "seed": seed,
             "function": "random" if coeffs is None else "coeffs"}
    if cert is not None:
        extra["v"] = list(cert.v)
        extra["q"] = list(cert.q)
        extra["kind"] = cert.kind
    if coeffs is not None:
        extra["coeffs"] = [
            {"n": list(n), "s": s, "re": c.real, "im": c.imag}
            for (n, s), c in sorted(coeffs.items())
        ]
    write_samples(out_path, domain, shifts, data, extra)
    click.echo(f"wrote {len(ids)} sample rows to {out_path}")


@main.command("reconstruct")
@domain_option
@shift_options
@click.option("--samples", "samples_path", required=True, type=click.Path(), help="Sample CSV produced by synthesize.")
@click.option("--oracle", is_flag=True, help="Cross-check every solve against a dense solver.")
@click.option("--out", "out_path", default=None, type=click.Path(), help="Output CSV of reconstructed values.")
def cmd_reconstruct(domain_path, v_text, q_text, eta_text, samples_path, oracle, out_path):
    """Reconstruct region values from sample data."""
    domain = load_domain(domain_path)
    data, meta = read_samples(samples_path, domain)
    shifts, _ = _resolve_shifts(domain, v_text, q_text, eta_text, meta=meta)
    result = reconstruct_grid(domain, shifts, data, oracle=oracle)
    if len(result.skipped) == len(data.cell_ids) > 0:
        raise SpecFormatError(
            f"{samples_path}: every sample row was skipped; row 2: "
            + _skip_reason(domain, int(data.cell_ids[0]), data.points[0])
        )
    click.echo(
        f"reconstructed {len(result.values)} values from "
        f"{len(data.cell_ids) - len(result.skipped)} rows "
        f"({len(result.skipped)} skipped)"
    )
    if oracle:
        finite = result.residuals[np.isfinite(result.residuals)]
        worst = float(finite.max()) if len(finite) else float("nan")
        click.echo(f"max oracle residual = {worst:.6e}")
    if out_path:
        write_result(out_path, result, domain.dimension)


if __name__ == "__main__":
    main()
