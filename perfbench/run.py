"""curvetorsion benchmark: one closed-loop caller, one process.

    python3 perfbench/run.py --workload refine --seed 1 --seconds 30 --trace 0

Runs from the root of a source checkout and imports the library from
``src/``.  Set-up (the library import, timed in a fresh interpreter;
input generation from ``--seed``; curve parse and torsion; one warm-up
call on the moment curve) is repeated several times; then workload
iterations run back to back until ``--seconds`` of iterations have been
measured.  Every iteration's outputs are checked.
With ``--trace 0`` the last stdout line carries the end-to-end metrics;
with ``--trace 1`` iterations alternate untraced and traced, and it
carries the per-layer metrics of the traced ones.  README.md in this
directory describes the workloads and metrics.
"""

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SCHEMAS = ROOT / "schemas"
SETUPS = 7
# peak_rss_mb covers set-up and this many iterations, so that it does not
# depend on how many iterations fit in --seconds (a rare quadrature input
# needs about 110 MB more than the rest).
RSS_ITERATIONS = 3
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")

# Coefficients constant term first.
MOMENT = ([0, 1], [0, 0, 1], [0, 0, 0, 1])            # (z, z^2, z^3)
MIXED = ([0, 1], [0, 0, 1, 1], [0, 0, 0, 0, 1])       # (z, z^2 + z^3, z^4)

# Sizes of the quadrature workload, per curve and iteration.
JACOBIAN_TRIALS = 100
TRIPLE_CALLS = 30


def curve_json(components) -> dict:
    comps = [[[float(complex(c).real), float(complex(c).imag)] for c in comp]
             for comp in components]
    return {"N": max(max(len(c) - 1 for c in comps), 1), "components": comps}


def write_curve(path: Path, components) -> Path:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(curve_json(components)), encoding="utf-8")
    return path


def derived_seed(rng) -> int:
    return int(rng.integers(0, 2**31 - 1))


class Checker:
    """Counts checked outcomes and the failed ones among them."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.notes: list[str] = []

    def tally(self, total: int, bad: int, what: str) -> None:
        self.attempted += total
        self.failed += bad
        if bad:
            self.notes.append(f"{what}: {bad} of {total} failed")

    def check(self, ok: bool, what: str) -> None:
        self.tally(1, 0 if ok else 1, what)


@dataclass
class Iteration:
    recipe_s: float
    results: dict
    files: list


# ---------------------------------------------------------------------------
# workloads: inputs from the seed, warm-up, one timed iteration, checks and
# the counters that feed the per-layer metrics


class Workload:
    """One workload; ``recipe_metric`` names its main recipe's time."""

    recipe_metric = ""

    def __init__(self, seed: int, run_dir: Path):
        self.seed = seed
        self.input_dir = run_dir / "inputs"

    def write_curve(self, name: str, components) -> Path:
        return write_curve(self.input_dir / f"{name}.json", components)

    def generate(self, rep: int) -> dict:
        raise NotImplementedError

    def warm_up(self, moment: Path, out: Path) -> None:
        raise NotImplementedError

    def iterate(self, inputs: dict, out: Path, tracer) -> Iteration:
        raise NotImplementedError

    def check(self, it: Iteration, checker: Checker) -> None:
        raise NotImplementedError

    def counters(self, it: Iteration) -> dict:
        return {}


class Refine(Workload):
    """The analyze recipe on the mixed curve; the seed picks analyze's ``--seed``."""

    recipe_metric = "analyze_s"
    expected_regions = 3872

    def generate(self, rep):
        rng = np.random.default_rng(self.seed)
        return {"curve": self.write_curve("mixed", MIXED), "seed": derived_seed(rng)}

    def warm_up(self, moment, out):
        recipes.analyze(moment, 0, out, NULL_TRACER)

    def iterate(self, inputs, out, tracer):
        t0 = time.perf_counter()
        with tracer.span("recipe.analyze"):
            res = recipes.analyze(inputs["curve"], inputs["seed"], out, tracer)
        return Iteration(time.perf_counter() - t0, res, [out / f for f in res["files"]])

    def check(self, it, checker):
        res = it.results
        bad = sum(1 for e in res["entries"] if not e["min_ratio"] > 0.0)
        checker.tally(len(res["entries"]), bad, "admissible regions with min_ratio <= 0")
        checker.check(not res["skipped"], "inadmissible regions left")
        checker.check(res["report"] is res["initial"], "no affine retry needed")
        checker.check(res["report"].region_count == self.expected_regions,
                      f"region count {res['report'].region_count} != {self.expected_regions}")

    def counters(self, it):
        res = it.results
        report = res["report"]
        residuals = [v["residual"] for v in report.root_info.values()]
        n_samples = sum(e["n_samples"] for e in res["entries"])
        return {
            "decomposition.regions": report.region_count,
            "decomposition.flagged": sum(1 for r in report.regions if r.sector_flag),
            "decomposition.max_depth": max((r.depth for r in report.regions), default=0),
            "polynomials.root_sets_logged": len(report.root_info),
            "polynomials.root_residual_max": max(residuals, default=0.0),
            "verification.regions": len(res["entries"]),
            "verification.samples": n_samples,
            "verification.triples_excluded": sum(e["excluded_count"] for e in res["entries"]),
            "verification.min_ratio": min((e["min_ratio"] for e in res["entries"]),
                                          default=0.0),
        }


class Quadrature(Workload):
    """jacobian-check plus single-triple calls on the mixed curve and two
    random cubics.  Each iteration draws fresh cubics and seeds from
    (seed, iteration), so a run's median covers many curves."""

    recipe_metric = "jacobian_check_s"

    def generate(self, rep):
        rng = np.random.default_rng([self.seed, rep])
        curves = {"mixed": MIXED}
        for name in ("cubic_a", "cubic_b"):
            curves[name] = tuple(rng.normal(size=4) + 1j * rng.normal(size=4)
                                 for _ in range(3))
        return {name: {"curve": self.write_curve(name, comps),
                       "trials_seed": derived_seed(rng), "triples_seed": derived_seed(rng)}
                for name, comps in curves.items()}

    def warm_up(self, moment, out):
        recipes.jacobian_check(moment, 10, 0, out, NULL_TRACER)
        recipes.triple_calls(moment, 5, 0, NULL_TRACER)

    def iterate(self, inputs, out, tracer):
        recipe_s = 0.0
        res = {"checks": {}, "calls": {}}
        files = []
        for name, spec in inputs.items():
            t0 = time.perf_counter()
            with tracer.span("recipe.jacobian_check"):
                res["checks"][name] = recipes.jacobian_check(
                    spec["curve"], JACOBIAN_TRIALS, spec["trials_seed"], out / name, tracer)
            recipe_s += time.perf_counter() - t0
            files += [out / name / f for f in res["checks"][name]["files"]]
        for name, spec in inputs.items():
            with tracer.span("recipe.triple_calls"):
                res["calls"][name] = recipes.triple_calls(
                    spec["curve"], TRIPLE_CALLS, spec["triples_seed"], tracer)
        return Iteration(recipe_s, res, files)

    def check(self, it, checker):
        for name, chk in it.results["checks"].items():
            r = chk["result"]
            checker.tally(JACOBIAN_TRIALS, JACOBIAN_TRIALS - r["passes"],
                          f"{name}: Jacobian trials failed or missing")
            checker.check(r["failures"] == 0 and r["passes"] == r["trials"],
                          f"{name}: passes == trials and failures == 0")
        for name, calls in it.results["calls"].items():
            checker.tally(calls["calls"], calls["failures"],
                          f"{name}: single-triple Jacobian deviations above tolerance")
            checker.check(calls["calls"] == TRIPLE_CALLS, f"{name}: all triple calls made")
            checker.check(calls["moduli_ok"], f"{name}: modulus-inside integral finite")

    def counters(self, it):
        results = [c["result"] for c in it.results["checks"].values()]
        trials = sum(r["trials"] for r in results)
        excluded = sum(r["excluded_count"] for r in results)
        worst = [r["worst_relative_deviation"] for r in results]
        worst += [c["worst_relative_deviation"] for c in it.results["calls"].values()]
        return {"jacobian.trials": trials, "jacobian.attempts": trials + excluded,
                "jacobian.excluded": excluded, "jacobian.worst_rel_dev": max(worst)}


class Extension(Workload):
    """scan (3^6 grid), extension-endpoint and a 10^6-sample pairing on the
    moment curve; the seed picks the endpoint and pairing seeds."""

    recipe_metric = "scan_s"
    grid_points = 3
    n_mc = 1_000_000
    endpoint_points = 50

    def generate(self, rep):
        rng = np.random.default_rng(self.seed)
        return {"curve": self.write_curve("moment", MOMENT),
                "endpoint_seed": derived_seed(rng), "pairing_seed": derived_seed(rng)}

    def warm_up(self, moment, out):
        recipes.scan(moment, out, NULL_TRACER, thetas=(0.5,), grid_points=2, n_quad=8)
        recipes.extension_endpoint(moment, 0, out, NULL_TRACER, points=2)
        recipes.operator_pairing(moment, 0, out, NULL_TRACER, n_mc=10_000)

    def iterate(self, inputs, out, tracer):
        curve = inputs["curve"]
        t0 = time.perf_counter()
        with tracer.span("recipe.scan"):
            scan = recipes.scan(curve, out, tracer, grid_points=self.grid_points)
        recipe_s = time.perf_counter() - t0
        with tracer.span("recipe.extension_endpoint"):
            endpoint = recipes.extension_endpoint(curve, inputs["endpoint_seed"], out, tracer,
                                                  points=self.endpoint_points)
        with tracer.span("recipe.pairing"):
            pair = recipes.operator_pairing(curve, inputs["pairing_seed"], out, tracer,
                                            n_mc=self.n_mc)
        files = [out / f for f in scan["files"] + endpoint["files"] + pair["files"]]
        return Iteration(recipe_s, {"scan": scan, "endpoint": endpoint, "pairing": pair},
                         files)

    def check(self, it, checker):
        rows = it.results["scan"]["table"]["rows"]
        bad = sum(1 for r in rows if not (math.isfinite(r["ratio"]) and r["ratio"] > 0.0))
        checker.tally(len(rows), bad, "scan ratios not finite and positive")
        checker.check(len(rows) == 9, "scan has 9 rows")
        endpoint = it.results["endpoint"]
        checker.tally(len(endpoint["rows"]), endpoint["violations"], "endpoint violations")
        checker.check(len(endpoint["rows"]) == 3 * self.endpoint_points,
                      "extension_endpoint.json row count")
        rep = it.results["pairing"]["report"]
        checker.check(math.isfinite(rep.pairing) and rep.pairing > 0.0
                      and math.isfinite(rep.mc_stderr), "pairing estimate finite")

    def counters(self, it):
        rep = it.results["pairing"]["report"]
        return {"operators.extension_evals": it.results["scan"]["extension_evals"],
                "operators.mc_samples": rep.mc_samples,
                "operators.mc_stderr": rep.mc_stderr}


WORKLOADS = {"refine": Refine, "quadrature": Quadrature, "extension": Extension}

# Artifacts with a schema in schemas/; extension_endpoint.json has none and
# is checked through its row count and violations instead.
SCHEMA_OF = {"decomposition.json": "decomposition", "verification.json": "verification",
             "jacobian_check.json": "jacobian_check", "scan.json": "scan",
             "weaktype.json": "weaktype"}


# ---------------------------------------------------------------------------
# metrics


def percentile(values, q: float) -> float:
    """Nearest-rank percentile (q in (0, 100]); 0.0 for no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q / 100.0 * len(ordered)) - 1)]


def ratio(num, den) -> float:
    return num / den if den else 0.0


def median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def layer_metrics(traced: list, tracer, trace_overhead_s: float) -> dict:
    """Per-layer metrics averaged over the traced iterations; per-call
    percentiles pool the calls of all traced iterations."""
    n = max(len(traced), 1)
    spans = [s for it in traced for s in tracer.finished(it["request"])]

    def total(name):
        return sum(s["duration"] for s in spans if s["name"] == name) / n

    def calls_ms(name):
        return [1e3 * s["duration"] for s in spans if s["name"] == name]

    def count(name):
        return sum(it["counters"].get(name, 0) for it in traced) / n

    verify_ms = calls_ms("verification.verify")
    integral_ms = calls_ms("jacobian.integral")
    modulus_ms = calls_ms("jacobian.modulus")
    endpoint_ms = calls_ms("operators.extension")
    classify_s = total("decomposition.classify")
    samples = count("verification.samples")
    trials_s = total("jacobian.identity_trials")
    scan_s = total("operators.scan")
    pairing_s = total("operators.pairing")
    jac_attempts = count("jacobian.attempts")
    min_ratio = [it["counters"]["verification.min_ratio"] for it in traced
                 if "verification.min_ratio" in it["counters"]]
    residual = max((it["counters"].get("polynomials.root_residual_max", 0.0)
                    for it in traced), default=0.0)
    worst = max((it["counters"].get("jacobian.worst_rel_dev", 0.0) for it in traced),
                default=0.0)
    glue = sum(s["self_time"] for s in spans
               if s["name"] == "iteration" or s["name"].startswith("recipe.")) / n
    return {
        "curves.parse_s": (total("curves.parse"), "s"),
        "curves.torsion_s": (total("curves.torsion"), "s"),
        "decomposition.classify_s": (classify_s, "s"),
        "decomposition.regions": (count("decomposition.regions"), "count"),
        "decomposition.flagged": (count("decomposition.flagged"), "count"),
        "decomposition.max_depth": (count("decomposition.max_depth"), "count"),
        "decomposition.regions_per_s":
            (ratio(count("decomposition.regions"), classify_s), "1/s"),
        "polynomials.root_sets_logged": (count("polynomials.root_sets_logged"), "count"),
        "polynomials.root_residual_max": (residual, "1"),
        "verification.verify_s": (total("verification.verify"), "s"),
        "verification.region_p50_ms": (percentile(verify_ms, 50), "ms"),
        "verification.region_p99_ms": (percentile(verify_ms, 99), "ms"),
        "verification.region_calls": (len(verify_ms), "count"),
        "verification.regions": (count("verification.regions"), "count"),
        "verification.triples_excluded": (count("verification.triples_excluded"), "count"),
        "verification.useful_ratio":
            (ratio(samples - count("verification.triples_excluded"), samples), "ratio"),
        "verification.min_ratio": (min(min_ratio, default=0.0), "ratio"),
        "reports.serialize_s": (total("reports.serialize"), "s"),
        "reports.bytes_written": (count("reports.bytes_written"), "bytes"),
        "jacobian.identity_trials_s": (trials_s, "s"),
        "jacobian.trials_per_s": (ratio(count("jacobian.trials"), trials_s), "1/s"),
        "jacobian.attempts": (jac_attempts, "count"),
        "jacobian.excluded": (count("jacobian.excluded"), "count"),
        "jacobian.useful_ratio": (ratio(count("jacobian.trials"), jac_attempts), "ratio"),
        "jacobian.integral_p50_ms": (percentile(integral_ms, 50), "ms"),
        "jacobian.integral_p90_ms": (percentile(integral_ms, 90), "ms"),
        "jacobian.integral_calls": (len(integral_ms), "count"),
        "jacobian.modulus_p50_ms": (percentile(modulus_ms, 50), "ms"),
        "jacobian.modulus_p90_ms": (percentile(modulus_ms, 90), "ms"),
        "jacobian.modulus_calls": (len(modulus_ms), "count"),
        "jacobian.worst_rel_dev": (worst, "ratio"),
        "operators.scan_s": (scan_s, "s"),
        "operators.extension_evals": (count("operators.extension_evals"), "count"),
        "operators.extension_evals_per_s":
            (ratio(count("operators.extension_evals"), scan_s), "1/s"),
        "operators.endpoint_s": (total("operators.extension")
                                 + total("operators.weighted_l1_mass"), "s"),
        "operators.endpoint_call_p50_ms": (percentile(endpoint_ms, 50), "ms"),
        "operators.endpoint_call_p90_ms": (percentile(endpoint_ms, 90), "ms"),
        "operators.endpoint_calls": (len(endpoint_ms), "count"),
        "operators.pairing_s": (pairing_s, "s"),
        "operators.mc_samples_per_s": (ratio(count("operators.mc_samples"), pairing_s), "1/s"),
        "operators.mc_stderr": (count("operators.mc_stderr"), "1"),
        "bench.unattributed_s": (glue, "s"),
        "bench.trace_overhead_s": (trace_overhead_s, "s"),
        "bench.traced_iterations": (len(traced), "count"),
    }


# ---------------------------------------------------------------------------
# run


def environment(seed: int) -> dict:
    try:
        # The ceiling keeps git from looking for a repository above the checkout.
        sha = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10,
                             env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
                             ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        sha = ""
    return {"git_sha": sha or "unknown", "python": platform.python_version(),
            "numpy": np.__version__, "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)), "seed": seed}


def import_seconds() -> float:
    """Time ``import curvetorsion.cli`` (numpy and click included) in a
    fresh interpreter, as a CLI user pays it."""
    probe = ("import time; t0 = time.perf_counter(); import curvetorsion.cli; "
             "print(time.perf_counter() - t0)")
    done = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(SRC)}, timeout=60, check=True)
    return float(done.stdout)


def digest(path: Path) -> str:
    with open(path, "rb") as fh:
        return hashlib.file_digest(fh, "sha256").hexdigest()


def validate(path: Path, schema_name: str) -> list:
    schema = json.loads((SCHEMAS / f"{schema_name}.schema.json").read_text(encoding="utf-8"))
    validator = jsonschema.validators.validator_for(schema)(schema)
    with open(path, "r", encoding="utf-8") as fh:
        payload = json.load(fh)
    return [e.message for e in validator.iter_errors(payload)]


def run(args) -> dict:
    run_dir = ROOT / ".bench_out" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    workload = WORKLOADS[args.workload](args.seed, run_dir)

    setup_times = []
    for _ in range(SETUPS):
        imported = import_seconds()
        t0 = time.perf_counter()
        workload.generate(0)
        for path in sorted(run_dir.glob("inputs/*.json")):
            with open(path, "r", encoding="utf-8") as fh:
                torsion_triple(CurveGamma.from_json(json.load(fh)))
        warm = run_dir / "warm"
        workload.warm_up(write_curve(warm / "moment.json", MOMENT), warm / "out")
        setup_times.append(imported + time.perf_counter() - t0)
    setup_s = statistics.median(setup_times)

    tracer = SpanRecorder()
    checker = Checker()
    out = run_dir / "out"
    pending = {}       # sha256 -> (copy to validate after the loop, schema name)
    expected = {}      # artifact name -> sha256 of the first iteration on the same inputs
    hashes = {}
    untraced, traced = [], []
    measured = 0.0
    peak_rss_mb = 0.0
    rep = 0
    # A traced run needs an untraced and a traced iteration.
    while measured < args.seconds or rep < (2 if args.trace else 1):
        inputs = workload.generate(rep)
        traced_rep = bool(args.trace) and rep % 2 == 1
        tracer.enabled = traced_rep
        tracer.request = f"iteration{rep}"
        t0 = time.perf_counter()
        try:
            with tracer.span("iteration"):
                it = workload.iterate(inputs, out, tracer)
        except CurveTorsionError as exc:  # what the CLI maps to exit codes 3, 4 and 5
            checker.check(False, f"iteration {rep} raised {type(exc).__name__}: {exc}")
            it = None
        wall = time.perf_counter() - t0
        tracer.enabled = False
        measured += wall
        rep += 1
        if rep <= RSS_ITERATIONS:
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if it is None:
            continue
        workload.check(it, checker)
        written = 0
        for path in it.files:
            name = str(path.relative_to(out))
            sha = digest(path)
            written += path.stat().st_size
            hashes.setdefault(name, [])
            if sha not in hashes[name]:
                hashes[name].append(sha)
            key = (name, json.dumps(inputs, sort_keys=True, default=str))
            checker.check(expected.setdefault(key, sha) == sha,
                          f"{name} bytes differ between iterations on the same inputs")
            schema = SCHEMA_OF.get(path.name)
            if schema and sha not in pending:
                keep = run_dir / "validate" / f"{sha}{path.suffix}"
                keep.parent.mkdir(exist_ok=True)
                shutil.copyfile(path, keep)
                pending[sha] = (keep, schema)
        record = {"wall_s": wall, "recipe_s": it.recipe_s}
        if traced_rep:
            counters = workload.counters(it)
            counters["reports.bytes_written"] = written
            traced.append({**record, "request": tracer.request, "counters": counters})
        else:
            untraced.append(record)
        del it

    for sha, (path, schema) in sorted(pending.items()):
        errors = validate(path, schema)
        checker.check(not errors, f"{path.name} against {schema}.schema.json: {errors[:3]}")
    tracer.write(run_dir / "trace.json")
    shutil.rmtree(out, ignore_errors=True)
    shutil.rmtree(run_dir / "validate", ignore_errors=True)
    shutil.rmtree(run_dir / "warm", ignore_errors=True)

    wall_s = median(r["wall_s"] for r in untraced)
    if args.trace:
        overhead = median(r["wall_s"] for r in traced) - wall_s
        metrics = layer_metrics(traced, tracer, overhead)
    else:
        metrics = {
            "wall_s": (wall_s, "s"),
            "recipe_s": (median(r["recipe_s"] for r in untraced), "s"),
            "setup_s": (setup_s, "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
    detail = {
        "workload": args.workload, "trace": args.trace, "env": environment(args.seed),
        "iterations": rep, "measured_s": measured, "setup_runs_s": setup_times,
        "iteration_wall_s": [r["wall_s"] for r in untraced + traced],
        "failures": checker.notes, "sha256": hashes,
    }
    # recipe_s under the name of the recipe it times, and the failure share
    # that the result line carries as ``failed`` / ``attempted``.
    shown = {**metrics, workload.recipe_metric: (median(r["recipe_s"] for r in untraced), "s"),
             "failed_frac": (ratio(checker.failed, checker.attempted), "ratio")}
    (run_dir / "result.json").write_text(
        json.dumps({"detail": detail, "metrics": shown}, indent=2, default=str),
        encoding="utf-8")
    for key, value in detail.items():
        print(f"# {key}: {json.dumps(value, default=str)}")
    for name, (value, unit) in shown.items():
        print(f"{name} = {value!r} {unit}")
    return {"correct": checker.failed == 0, "attempted": checker.attempted,
            "failed": checker.failed,
            "metrics": {name: {"value": value, "unit": unit}
                        for name, (value, unit) in metrics.items()}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    print(json.dumps(run(args)))
    return 0


if __name__ == "__main__":
    # One caller on one core: pin the BLAS/OpenMP pools before numpy loads.
    for _var in THREAD_VARS:
        os.environ[_var] = "1"
    if not (SRC / "curvetorsion" / "__init__.py").is_file() or not SCHEMAS.is_dir():
        sys.exit(f"run.py: no curvetorsion sources under {SRC} (or no {SCHEMAS});"
                 " run from a source checkout")
    # Imported only here, after the thread pins and the source check; the
    # functions above use these module globals.
    sys.path.insert(0, str(SRC))
    import jsonschema
    import numpy as np
    from curvetorsion.curves import CurveGamma, torsion_triple
    from curvetorsion.errors import CurveTorsionError
    import recipes
    from spans import SpanRecorder
    NULL_TRACER = SpanRecorder()
    sys.exit(main())
