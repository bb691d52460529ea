"""Command-line front end: analyze curves, check the Jacobian identity,
and run the operator estimators.

Exit codes: 0 success, 2 usage (including out-of-range and non-finite
option values), 3 input/parse (including degenerate curves), 4 numerical
failure, 5 verification failure.  Failures print a machine-readable error
JSON to stdout and write no partial outputs; all stochastic commands
require explicit seeds.
"""

from __future__ import annotations

import functools
import json
import math
import os
import sys
from pathlib import Path

import click
import numpy as np

from . import reports
from .curves import CurveGamma
from .decomposition import admissible, classify_regions, decompose
from .errors import CurveTorsionError, DegenerateTorsion
from .jacobian import QuadratureSpec, Triple, jacobian_identity_trials
from .operators import (
    BallSpec,
    GridSpec,
    MeasurableSet,
    PQPair,
    _extension_values,
    ball_measure_check,
    norm_ratio_scan,
    pairing,
    weighted_l1_mass,
)
from .verification import geometric_ratio, verify_region

EXIT_INPUT = 3
EXIT_VERIFICATION = 5


class _Failure(Exception):
    """An input error from outside the library; it exits with EXIT_INPUT."""

    def __init__(self, exc: BaseException):
        super().__init__(str(exc))
        self.exc = exc


def _load_curve(path: str) -> CurveGamma:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
        return CurveGamma.from_json(data)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        raise _Failure(exc)


class _FiniteRange(click.FloatRange):
    """A float range that also rejects nan and the infinities."""

    def convert(self, value, param, ctx):
        rv = super().convert(value, param, ctx)
        if not math.isfinite(rv):
            self.fail(f"{rv} is not a finite number.", param, ctx)
        return rv


_FINITE = _FiniteRange()
_POSITIVE = _FiniteRange(min=0, min_open=True)
_QUAD_NODES = click.IntRange(min=4)


def _comma_list(item, count=None):
    """Click callback parsing a comma-separated option value with ``item``.

    Empty entries are skipped.  An entry that ``item`` rejects (ValueError,
    or BadParameter from a click type) and a number of entries other than
    ``count`` are usage errors.
    """

    def callback(ctx, param, text):
        try:
            vals = [item(v) for v in text.split(",") if v.strip()]
        except ValueError as exc:
            raise click.BadParameter(str(exc)) from exc
        if count is not None and len(vals) != count:
            raise click.BadParameter(f"expected {count} comma-separated values")
        return vals

    return callback


def _center(vals) -> tuple:
    """Three complex entries from six reals (re1,im1,...)."""
    return tuple(complex(re, im) for re, im in zip(vals[0::2], vals[1::2]))


def _pq_pair(text: str) -> PQPair:
    """'p:q' with a finite p; q may be inf, not nan (PQPair checks both)."""
    if text.count(":") != 1:
        raise ValueError(f"expected 'p:q', got {text!r}")
    p_txt, q_txt = text.split(":")
    return PQPair(p=float(p_txt), q=float(q_txt))


def _run(command):
    """Run a command body and emit what it returns.

    The body returns (files, summary, ok).  ``files`` maps a file name to a
    JSON payload (dict) or to text (str); they are written to ``--out``
    (default $CURVETORSION_OUT, else the working directory).  ``summary``
    is printed, and a false ``ok`` exits with EXIT_VERIFICATION.  A failure
    prints its error JSON and exits with its code, having written nothing.
    """

    @functools.wraps(command)
    def guarded(*args, out=None, **kwargs):
        try:
            files, summary, ok = command(*args, **kwargs)
        except _Failure as failure:
            click.echo(reports.canonical_json(reports.error_json(failure.exc)), nl=False)
            sys.exit(EXIT_INPUT)
        except CurveTorsionError as exc:
            click.echo(reports.canonical_json(reports.error_json(exc)), nl=False)
            sys.exit(exc.exit_code)
        if files:
            out_dir = Path(out or os.environ.get("CURVETORSION_OUT", "."))
            out_dir.mkdir(parents=True, exist_ok=True)
            for name, content in files.items():
                if isinstance(content, str):
                    (out_dir / name).write_text(content, encoding="utf-8")
                else:
                    reports.write_json(out_dir / name, content)
        click.echo(summary)
        if not ok:
            sys.exit(EXIT_VERIFICATION)

    return guarded


@click.group()
def main():
    """Torsion decompositions and operator estimates for polynomial curves."""


@main.command()
@click.argument("curve_file", type=click.Path(exists=True, dir_okay=False))
@click.option("--seed", type=int, required=True, help="Master seed for all sampling.")
@click.option("--eps", type=_POSITIVE, default=None, help="Sector width override.")
@click.option("--samples", type=click.IntRange(min=1), default=1000,
              help="Triples per region for ratio verification.")
@click.option("--retry/--no-retry", default=True,
              help="Perturb the curve when inadmissible regions appear.")
@click.option("--exploratory", is_flag=True,
              help="Also sample inadmissible regions (reported, never asserted).")
@click.option("--out", type=click.Path(file_okay=False), default=None)
@_run
def analyze(curve_file, seed, eps, samples, retry, exploratory):
    """Decompose, verify, and map a curve: writes decomposition.json,
    verification.json, and regions.svg."""
    curve = _load_curve(curve_file)
    if retry:
        curve, report = decompose(curve, eps, seed=seed)
    else:
        report = classify_regions(curve.torsion, eps=eps, seed=seed)
    entries = []
    skipped = []
    failed = 0
    for idx, region in enumerate(report.regions):
        region_seed = int(
            np.random.default_rng([seed & 0x7FFFFFFF, idx]).integers(0, 2**31 - 1)
        )
        if admissible(region.sigma) or exploratory:
            rep = verify_region(curve, region, region.sigma, samples, region_seed,
                                exploratory=not admissible(region.sigma))
            failed += not rep.exploratory and not 0.0 < rep.min_ratio < math.inf
            entries.append(rep.to_json())
        else:
            skipped.append({"region_id": region.region_id,
                            "reason": "inadmissible",
                            "sigma": list(region.sigma.sigma)})
    curve_json = curve.to_json()
    files = {
        "decomposition.json": reports.decomposition_json(report, curve_json),
        "verification.json": reports.verification_json(curve_json, entries, skipped, seed),
        "regions.svg": reports.svg_region_map(report),
    }
    # A flagged region is over its aperture budget, so the bound was not
    # verified on a region of the decomposition it assumes.
    flagged = sum(region.sector_flag for region in report.regions)
    ok = not failed and not flagged
    summary = (f"regions={report.region_count} verified={len(entries)} "
               f"skipped={len(skipped)}")
    if not ok:
        summary += f" failed={failed} flagged={flagged}"
    return files, summary, ok


@main.command("jacobian-check")
@click.argument("curve_file", type=click.Path(exists=True, dir_okay=False))
@click.option("--trials", type=click.IntRange(min=1), required=True)
@click.option("--seed", type=int, required=True)
@click.option("--nodes", type=_QUAD_NODES, default=16)
@click.option("--box-radius", type=_POSITIVE, default=1.0,
              help="Half-width of the sampling box for triples.")
@click.option("--margin", type=_FiniteRange(min=0), default=0.35,
              help="Minimum pole distance for a triple to count as admissible.")
@click.option("--out", type=click.Path(file_okay=False), default=None)
@_run
def jacobian_check(curve_file, trials, seed, nodes, box_radius, margin):
    """Compare the integral and direct Jacobian on random admissible triples."""
    curve = _load_curve(curve_file)
    if curve.torsion.degenerate:
        raise DegenerateTorsion("curve torsion vanishes identically")
    result = jacobian_identity_trials(
        curve, trials, seed,
        q=QuadratureSpec(nodes_per_segment=nodes),
        box_radius=box_radius, margin=margin,
    )
    payload = reports.artifact("jacobian_check", curve=curve.to_json(), nodes=nodes,
                               seed=seed, box_radius=box_radius, margin=margin, **result)
    summary = (f"passes={result['passes']} failures={result['failures']} "
               f"excluded={result['excluded_count']} "
               f"worst={result['worst_relative_deviation']:.3e}")
    ok = result["failures"] == 0 and result["passes"] >= trials
    return {"jacobian_check.json": payload}, summary, ok


@main.group()
def operator():
    """Convolution, pairing, and extension estimators."""


@operator.command("pairing")
@click.argument("curve_file", type=click.Path(exists=True, dir_okay=False))
@click.option("--seed", type=int, required=True)
@click.option("--n-mc", type=click.IntRange(min=1), default=100_000)
@click.option("--disk-radius", type=_POSITIVE, default=1.0)
@click.option("--e-kind", type=click.Choice(["ball", "box"]), default="ball")
@click.option("--e-center", default="0,0,0,0,0,0", callback=_comma_list(_FINITE, 6),
              help="Six comma-separated reals re1,im1,...,im3.")
@click.option("--e-size", type=_POSITIVE, default=1.0)
@click.option("--f-kind", type=click.Choice(["ball", "box"]), default="ball")
@click.option("--f-center", default="0,0,0,0,0,0", callback=_comma_list(_FINITE, 6),
              help="Six comma-separated reals re1,im1,...,im3.")
@click.option("--f-size", type=_POSITIVE, default=1.0)
@click.option("--out", type=click.Path(file_okay=False), default=None)
@_run
def operator_pairing(curve_file, seed, n_mc, disk_radius, e_kind, e_center,
                     e_size, f_kind, f_center, f_size):
    """Restricted weak-type pairing estimate for a set pair."""
    curve = _load_curve(curve_file)
    E = MeasurableSet(kind=e_kind, center=_center(e_center), size=e_size)
    F = MeasurableSet(kind=f_kind, center=_center(f_center), size=f_size)
    rep = pairing(curve, E, F, disk_radius, n_mc, seed)
    payload = reports.artifact("weak_type", curve=curve.to_json(), seed=seed,
                               disk_radius=disk_radius, set_e=E.to_json(),
                               set_f=F.to_json(), report=rep.to_json())
    fields = ["pairing", "alpha", "beta", "rwt_ratio", "mc_samples", "mc_stderr",
              "volume_e", "volume_f", "weak_type_gap"]
    files = {"weaktype.json": payload,
             "weaktype.csv": reports.rows_to_csv([rep.to_json()], fields)}
    return files, f"pairing={rep.pairing:.6g} rwt_ratio={rep.rwt_ratio:.6g}", True


@operator.command("ball-measure")
@click.option("--k-prime", type=click.IntRange(min=0), required=True)
@click.option("--x", type=_POSITIVE, required=True)
@click.option("--out", type=click.Path(file_okay=False), default=None)
@_run
def operator_ball_measure(k_prime, x):
    """Weighted measure of the calibrated ball against x / 8."""
    spec = BallSpec(x=x, k_prime=k_prime)
    sigma, target = ball_measure_check(spec)
    payload = reports.artifact("ball_measure", k_prime=k_prime, x=x, nu=spec.nu,
                               radius=spec.radius, sigma_measure=sigma, target=target)
    ok = abs(sigma - target) <= 1e-12 * max(1.0, abs(target))
    return {"ball_measure.json": payload}, f"{sigma:.6g} vs target {target:.6g}", ok


def _scan_family():
    def bump(w):
        mag2 = np.abs(w) ** 2
        return np.exp(-2.0 * mag2)

    def ramp(w):
        return w * np.exp(-np.abs(w) ** 2)

    def plateau(w):
        return np.where(np.abs(w) <= 1.0, 1.0 + 0.0j, 0.0j)

    return [("bump", bump, 3.0), ("ramp", ramp, 3.0), ("plateau", plateau, 1.0)]


@operator.command("scan")
@click.argument("curve_file", type=click.Path(exists=True, dir_okay=False))
@click.option("--theta", default="0.25,0.5,0.75",
              callback=_comma_list(lambda t: PQPair.from_theta(float(t))),
              help="Comma-separated theta values in (0, 1) for the exponent family.")
@click.option("--q-extra", default="", callback=_comma_list(_pq_pair),
              help="Extra rows 'p:q' separated by commas (q may be 'inf').")
@click.option("--dilations", default="1.0", callback=_comma_list(_POSITIVE),
              help="Comma-separated positive dilation factors.")
@click.option("--grid-half-width", type=_POSITIVE, default=4.0)
@click.option("--grid-points", type=click.IntRange(min=2), default=4)
@click.option("--n-quad", type=_QUAD_NODES, default=16)
@click.option("--out", type=click.Path(file_okay=False), default=None)
@_run
def operator_scan(curve_file, theta, q_extra, dilations, grid_half_width,
                  grid_points, n_quad):
    """Output/input norm-ratio table over exponent pairs and test functions."""
    curve = _load_curve(curve_file)
    grid = GridSpec(half_width=grid_half_width, points_per_axis=grid_points)
    table = norm_ratio_scan(curve, theta + q_extra, _scan_family(), grid,
                            n_quad=n_quad, dilations=tuple(dilations))
    payload = reports.artifact(
        "norm_scan", curve=curve.to_json(),
        grid={"half_width": grid_half_width, "points_per_axis": grid_points},
        n_quad=n_quad, rows=reports.json_sanitize(table["rows"]),
        flatness=reports.json_sanitize(table["flatness"]),
    )
    fields = ["p", "q", "theta", "function", "dilation", "lq_norm", "lp_norm", "ratio"]
    files = {"scan.json": payload, "scan.csv": reports.rows_to_csv(table["rows"], fields)}
    return files, f"rows={len(table['rows'])}", True


@operator.command("extension-endpoint")
@click.argument("curve_file", type=click.Path(exists=True, dir_okay=False))
@click.option("--seed", type=int, required=True)
@click.option("--points", type=click.IntRange(min=1), default=50)
@click.option("--n-quad", type=_QUAD_NODES, default=24)
@click.option("--out", type=click.Path(file_okay=False), default=None)
@_run
def operator_extension_endpoint(curve_file, seed, points, n_quad):
    """Check |extension(f)(z)| <= weighted L1 mass of f at sampled z."""
    curve = _load_curve(curve_file)
    rng = np.random.default_rng(seed)
    rows = []
    violations = 0
    for name, f, support in _scan_family():
        mass = weighted_l1_mass(curve, f, n_quad, support)
        coords = rng.uniform(-5.0, 5.0, size=(points, 6))
        zs = coords[:, :3] + 1j * coords[:, 3:]
        for z, v in zip(zs, _extension_values(curve, f, zs, n_quad, support)):
            val = abs(complex(v))
            ok = val <= mass * (1.0 + 1e-12)
            violations += 0 if ok else 1
            rows.append({"function": name,
                         "z": [[c.real, c.imag] for c in z],
                         "value": val, "mass": mass, "ok": ok})
    payload = reports.artifact("extension_endpoint", curve=curve.to_json(), seed=seed,
                               n_quad=n_quad, violations=violations, rows=rows)
    return ({"extension_endpoint.json": payload},
            f"checked={len(rows)} violations={violations}", not violations)


@main.command("replay")
@click.argument("verification_file", type=click.Path(exists=True, dir_okay=False))
@click.option("--region-id", type=str, required=True)
@_run
def replay(verification_file, region_id):
    """Recompute the stored worst witness of a region report."""
    try:
        with open(verification_file, "r", encoding="utf-8") as fh:
            data = json.load(fh)
        curve = CurveGamma.from_json(data["curve"])
        entry = next(r for r in data["reports"] if r["region_id"] == region_id)
        witness = entry["worst_witness"]
        t = Triple(*(complex(re, im) for re, im in witness["triple"]))
        stored = float(witness["ratio"])
    except (OSError, ValueError, KeyError, TypeError, StopIteration) as exc:
        raise _Failure(exc)
    sample = geometric_ratio(curve, t)
    match = abs(sample.ratio - stored) <= 1e-9 * max(1.0, stored)
    summary = reports.canonical_json({
        "region_id": region_id,
        "stored_ratio": stored,
        "recomputed_ratio": sample.ratio,
        "match": match,
    })
    return {}, summary.rstrip("\n"), match


if __name__ == "__main__":
    main()
