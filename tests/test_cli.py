import ast
import dataclasses
import json
import math
import re
from pathlib import Path

import pytest
from click.testing import CliRunner

from curvetorsion import cli, curves, decomposition, errors, jacobian, verification
from curvetorsion.cli import main
from curvetorsion.curves import CurveGamma
from curvetorsion.decomposition import SigmaExponents, admissible
from curvetorsion.errors import NonConvergence, RootFindingFailed
from curvetorsion.jacobian import Triple
from curvetorsion.reports import svg_region_map

from conftest import poly, validate

pytestmark = pytest.mark.usefixtures("moment_curve")

RUNNER = CliRunner()
ANALYZE_FILES = ["decomposition.json", "regions.svg", "verification.json"]


def write_curve(tmp_path, curve, name="curve.json"):
    path = tmp_path / name
    path.write_text(json.dumps(curve.to_json()))
    return path


class TestAnalyze:
    def test_moment_outputs(self, tmp_path, moment_curve):
        curve_file = write_curve(tmp_path, moment_curve)
        out = tmp_path / "out"
        res = RUNNER.invoke(main, ["analyze", str(curve_file), "--seed", "7",
                                   "--samples", "300", "--out", str(out)])
        assert res.exit_code == 0, res.output
        decomposition = json.loads((out / "decomposition.json").read_text())
        assert decomposition["region_count"] == 1
        assert decomposition["regions"][0]["region_type"] == "T11"
        validate(decomposition, "decomposition.schema.json")
        verification = json.loads((out / "verification.json").read_text())
        assert len(verification["reports"]) == 1
        validate(verification, "verification.schema.json")
        assert (out / "regions.svg").exists()

    def test_degenerate_curve_exit_3_no_outputs(self, tmp_path):
        curve = CurveGamma.from_components(poly(0, 1), poly(0, 0, 1), poly(0))
        curve_file = write_curve(tmp_path, curve)
        out = tmp_path / "out"
        res = RUNNER.invoke(main, ["analyze", str(curve_file), "--seed", "1",
                                   "--out", str(out)])
        assert res.exit_code == 3
        payload = json.loads(res.output)
        assert payload["error"]["type"] == "DegenerateTorsion"
        validate(payload, "error.schema.json")
        assert not out.exists() or not list(out.iterdir())

    def test_missing_file_usage_error(self, tmp_path):
        res = RUNNER.invoke(main, ["analyze", str(tmp_path / "nope.json"), "--seed", "1"])
        assert res.exit_code == 2

    def test_malformed_json_exit_3(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        res = RUNNER.invoke(main, ["analyze", str(bad), "--seed", "1"])
        assert res.exit_code == 3

    def test_inadmissible_regions_skipped_without_retry(self, tmp_path):
        # L1 = 1 + 2z puts type-T10 layers with k1 = 1 into the report
        curve = CurveGamma.from_components(poly(0, 1, 1), poly(0, 0, 0, 1), poly(0, 0, -100))
        curve_file = write_curve(tmp_path, curve)
        out = tmp_path / "out"
        eps = 2 * math.pi / 28  # coarse sectors keep this test quick
        res = RUNNER.invoke(main, ["analyze", str(curve_file), "--seed", "2",
                                   "--samples", "20", "--no-retry",
                                   "--eps", repr(eps), "--out", str(out)])
        assert res.exit_code == 0, res.output
        verification = json.loads((out / "verification.json").read_text())
        assert verification["skipped"]
        assert all(s["reason"] == "inadmissible" for s in verification["skipped"])
        skipped_ids = {s["region_id"] for s in verification["skipped"]}
        reported_ids = {r["region_id"] for r in verification["reports"]}
        assert not (skipped_ids & reported_ids)

    def test_exploratory_samples_inadmissible_regions(self, tmp_path):
        curve = CurveGamma.from_components(poly(0, 1, 1), poly(0, 0, 0, 1), poly(0, 0, -100))
        curve_file = write_curve(tmp_path, curve)
        out = tmp_path / "out"
        res = RUNNER.invoke(main, ["analyze", str(curve_file), "--seed", "2",
                                   "--samples", "50", "--no-retry", "--exploratory",
                                   "--eps", repr(math.pi / 8), "--out", str(out)])
        assert res.exit_code == 0, res.output
        verification = json.loads((out / "verification.json").read_text())
        validate(verification, "verification.schema.json")
        assert verification["skipped"] == []
        reports = verification["reports"]
        assert len(reports) == 294
        assert sum(r["exploratory"] for r in reports) == 80
        decomposition = json.loads((out / "decomposition.json").read_text())
        sigma = {r["region_id"]: r["sigma"] for r in decomposition["regions"]}
        for r in reports:
            s = sigma[r["region_id"]]
            sig = SigmaExponents.from_exponents(s["region_type"], s["k"], s["k_sub"], s["k_mid"])
            assert r["exploratory"] == (not admissible(sig))

    def test_retry_keeps_user_eps(self, tmp_path, monkeypatch):
        # every perturbed candidate is walked at the --eps given
        curve = CurveGamma.from_components(poly(0, 1, 1), poly(0, 0, 0, 1), poly(0, 0, -100))
        curve_file = write_curve(tmp_path, curve)
        seen = []
        real_setup = decomposition._setup_walk

        def failing_setup(tt, eps):
            seen.append(eps)
            if len(seen) == 1:  # the curve itself, classified before the retry
                return real_setup(tt, eps)
            raise RootFindingFailed("candidate refused")

        monkeypatch.setattr(decomposition, "_setup_walk", failing_setup)
        eps = math.pi / 8
        res = RUNNER.invoke(main, ["analyze", str(curve_file), "--seed", "2",
                                   "--eps", repr(eps), "--out", str(tmp_path / "out")])
        assert res.exit_code == 4, res.output
        assert json.loads(res.output)["error"]["type"] == "RetriesExhausted"
        assert len(seen) == 1 + 18
        assert all(e == eps for e in seen)

    def test_env_var_output_dir(self, tmp_path, monkeypatch):
        target = tmp_path / "envout"
        monkeypatch.setenv("CURVETORSION_OUT", str(target))
        res = RUNNER.invoke(main, ["operator", "ball-measure", "--k-prime", "1", "--x", "2"])
        assert res.exit_code == 0
        assert (target / "ball_measure.json").exists()


class TestJacobianCheck:
    def test_moment_all_pass(self, tmp_path, moment_curve):
        curve_file = write_curve(tmp_path, moment_curve)
        out = tmp_path / "out"
        res = RUNNER.invoke(main, ["jacobian-check", str(curve_file), "--trials", "100",
                                   "--seed", "3", "--out", str(out)])
        assert res.exit_code == 0, res.output
        payload = json.loads((out / "jacobian_check.json").read_text())
        assert payload["passes"] == 100
        assert payload["failures"] == 0
        assert payload["worst_relative_deviation"] < 1e-10
        validate(payload, "jacobian_check.schema.json")

    def test_regression_pin(self, tmp_path, curve_mixed):
        curve_file = write_curve(tmp_path, curve_mixed)
        out = tmp_path / "out"
        res = RUNNER.invoke(main, ["jacobian-check", str(curve_file), "--trials", "100",
                                   "--seed", "7", "--out", str(out)])
        assert res.exit_code == 0, res.output
        payload = json.loads((out / "jacobian_check.json").read_text())
        assert payload["passes"] == 100
        assert payload["excluded_count"] == 219
        assert payload["worst_relative_deviation"] == float.fromhex("0x1.70e53eeed9b82p-44")

    def test_singular_segments_logged(self, tmp_path, curve_z3z5):
        # L2 = 6z vanishes at the origin inside the sampling box, so some
        # triples are excluded and logged while the rest still pass
        curve_file = write_curve(tmp_path, curve_z3z5)
        out = tmp_path / "out"
        res = RUNNER.invoke(main, ["jacobian-check", str(curve_file), "--trials", "40",
                                   "--seed", "5", "--out", str(out)])
        assert res.exit_code == 0, res.output
        payload = json.loads((out / "jacobian_check.json").read_text())
        assert payload["excluded_count"] > 0
        assert payload["passes"] == 40

    def test_one_torsion_triple(self, tmp_path, monkeypatch, curve_mixed):
        built = []
        real = curves.torsion_triple

        def counting(curve):
            built.append(curve)
            return real(curve)

        for module in (curves, cli, jacobian, verification):
            if hasattr(module, "torsion_triple"):
                monkeypatch.setattr(module, "torsion_triple", counting)
        curve_file = write_curve(tmp_path, curve_mixed)
        res = RUNNER.invoke(main, ["jacobian-check", str(curve_file), "--trials", "5",
                                   "--seed", "7", "--out", str(tmp_path / "out")])
        assert res.exit_code == 0, res.output
        assert len(built) == 1

    def test_degenerate_curve_exit_3(self, tmp_path):
        curve = CurveGamma.from_components(poly(0, 1), poly(0, 0, 1), poly(0))
        curve_file = write_curve(tmp_path, curve)
        res = RUNNER.invoke(main, ["jacobian-check", str(curve_file), "--trials", "3",
                                   "--seed", "1", "--out", str(tmp_path / "out")])
        assert res.exit_code == 3
        payload = json.loads(res.output)
        assert payload["error"]["type"] == "DegenerateTorsion"
        validate(payload, "error.schema.json")
        assert not (tmp_path / "out").exists()

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflowing_draws_end_after_one_pass(self, tmp_path, monkeypatch, curve_mixed):
        # Every draw from this box overflows the clearance screen's squared
        # edge lengths, so the screen excludes it before any quadrature
        # pass, and with no overflow warning.
        passes = []
        real = jacobian._nested_quadrature

        def counting(tt, t, n, *args):
            passes.append(n)
            return real(tt, t, n, *args)

        monkeypatch.setattr(jacobian, "_nested_quadrature", counting)
        out = tmp_path / "out"
        res = RUNNER.invoke(main, ["jacobian-check", str(write_curve(tmp_path, curve_mixed)),
                                   "--trials", "2", "--seed", "1", "--box-radius", "1e200",
                                   "--out", str(out)])
        assert res.exit_code == 5, res.output
        payload = json.loads((out / "jacobian_check.json").read_text())
        assert (payload["passes"], payload["failures"]) == (0, 0)
        assert payload["excluded_count"] == 600
        assert passes == []

    def test_zero_trials_usage_error(self, tmp_path, moment_curve):
        curve_file = write_curve(tmp_path, moment_curve)
        res = RUNNER.invoke(main, ["jacobian-check", str(curve_file), "--trials", "0",
                                   "--seed", "3"])
        assert res.exit_code == 2


class TestOperatorCommands:
    def test_ball_measure_prints_exact_value(self, tmp_path):
        res = RUNNER.invoke(main, ["operator", "ball-measure", "--k-prime", "0",
                                   "--x", "1", "--out", str(tmp_path)])
        assert res.exit_code == 0
        assert res.output.strip() == "0.125 vs target 0.125"
        payload = json.loads((tmp_path / "ball_measure.json").read_text())
        validate(payload, "ball_measure.schema.json")

    def test_pairing_report(self, tmp_path, moment_curve):
        curve_file = write_curve(tmp_path, moment_curve)
        res = RUNNER.invoke(main, ["operator", "pairing", str(curve_file),
                                   "--seed", "5", "--n-mc", "5000",
                                   "--out", str(tmp_path)])
        assert res.exit_code == 0, res.output
        payload = json.loads((tmp_path / "weaktype.json").read_text())
        rep = payload["report"]
        assert rep["pairing"] == pytest.approx(rep["alpha"] * rep["volume_f"])
        assert rep["pairing"] == pytest.approx(rep["beta"] * rep["volume_e"])
        validate(payload, "weaktype.schema.json")

    @pytest.mark.parametrize("f_kind,pins", [
        ("ball", ("0x1.4a2e6f3d2791ap+3", "0x1.30e57d771c474p-5")),
        ("box", ("0x1.92a5fe00778eep+4", "0x1.df39883e9f946p-3")),
    ])
    def test_pairing_regression_pin(self, tmp_path, moment_curve, f_kind, pins):
        curve_file = write_curve(tmp_path, moment_curve)
        out = tmp_path / "out"
        res = RUNNER.invoke(main, ["operator", "pairing", str(curve_file), "--seed", "7",
                                   "--n-mc", "200000", "--f-kind", f_kind,
                                   "--out", str(out)])
        assert res.exit_code == 0, res.output
        rep = json.loads((out / "weaktype.json").read_text())["report"]
        assert rep["pairing"] == float.fromhex(pins[0])
        assert rep["mc_stderr"] == float.fromhex(pins[1])

    def test_scan_csv_rows(self, tmp_path, moment_curve):
        curve_file = write_curve(tmp_path, moment_curve)
        res = RUNNER.invoke(main, ["operator", "scan", str(curve_file),
                                   "--theta", "0.25,0.5,0.75",
                                   "--grid-points", "2", "--grid-half-width", "2.0",
                                   "--n-quad", "8", "--out", str(tmp_path)])
        assert res.exit_code == 0, res.output
        lines = (tmp_path / "scan.csv").read_text().strip().splitlines()
        assert len(lines) == 1 + 3 * 3  # header + (theta x functions)
        payload = json.loads((tmp_path / "scan.json").read_text())
        validate(payload, "scan.schema.json")

    def test_extension_endpoint(self, tmp_path, moment_curve):
        curve_file = write_curve(tmp_path, moment_curve)
        res = RUNNER.invoke(main, ["operator", "extension-endpoint", str(curve_file),
                                   "--seed", "2", "--points", "10", "--n-quad", "12",
                                   "--out", str(tmp_path)])
        assert res.exit_code == 0, res.output
        payload = json.loads((tmp_path / "extension_endpoint.json").read_text())
        assert payload["violations"] == 0
        validate(payload, "extension_endpoint.schema.json")


@pytest.mark.parametrize("args", [
    ["analyze", "{curve}", "--seed", "7", "--eps", "0"],
    ["analyze", "{curve}", "--seed", "7", "--eps", repr(-math.pi / 8)],
    ["operator", "pairing", "{curve}", "--seed", "5", "--e-center", "a,b,c,d,e,f"],
    ["operator", "pairing", "{curve}", "--seed", "5", "--e-size", "-1"],
    ["operator", "pairing", "{curve}", "--seed", "5", "--f-center", "1,2"],
    ["operator", "pairing", "{curve}", "--seed", "5", "--f-size", "0"],
    ["operator", "scan", "{curve}", "--theta", "1.5"],
    ["operator", "scan", "{curve}", "--theta", "x"],
    ["operator", "scan", "{curve}", "--q-extra", "3"],
    ["operator", "scan", "{curve}", "--q-extra", "0.5:2"],
    ["operator", "scan", "{curve}", "--dilations", "0"],
    ["operator", "scan", "{curve}", "--n-quad", "2"],
    ["operator", "ball-measure", "--k-prime", "0", "--x", "-1"],
    ["jacobian-check", "{curve}", "--trials", "3", "--seed", "1", "--nodes", "2"],
    ["operator", "extension-endpoint", "{curve}", "--seed", "2", "--n-quad", "2"],
    ["jacobian-check", "{curve}", "--trials", "3", "--seed", "1", "--box-radius", "0"],
    ["jacobian-check", "{curve}", "--trials", "3", "--seed", "1", "--margin", "-1"],
    ["operator", "pairing", "{curve}", "--seed", "5", "--disk-radius", "-1"],
    ["operator", "scan", "{curve}", "--grid-half-width", "0"],
    ["operator", "scan", "{curve}", "--grid-half-width", "-1"],
    # Non-finite values; only --q-extra's q may be inf.
    ["analyze", "{curve}", "--seed", "7", "--eps", "nan"],
    ["analyze", "{curve}", "--seed", "7", "--eps", "inf"],
    ["operator", "pairing", "{curve}", "--seed", "5", "--e-size", "nan"],
    ["operator", "pairing", "{curve}", "--seed", "5", "--disk-radius", "inf"],
    ["operator", "pairing", "{curve}", "--seed", "5", "--e-center", "nan,0,0,0,0,0"],
    ["operator", "pairing", "{curve}", "--seed", "5", "--f-center", "0,0,0,inf,0,0"],
    ["operator", "ball-measure", "--k-prime", "0", "--x", "nan"],
    ["operator", "ball-measure", "--k-prime", "0", "--x", "inf"],
    ["jacobian-check", "{curve}", "--trials", "3", "--seed", "1", "--box-radius", "nan"],
    ["jacobian-check", "{curve}", "--trials", "3", "--seed", "1", "--margin", "nan"],
    ["operator", "scan", "{curve}", "--grid-half-width", "nan"],
    ["operator", "scan", "{curve}", "--dilations", "nan"],
    ["operator", "scan", "{curve}", "--q-extra", "nan:2"],
    ["operator", "scan", "{curve}", "--q-extra", "inf:2"],
    ["operator", "scan", "{curve}", "--q-extra", "2:nan"],
    # Finite values whose volume or area overflows.
    ["operator", "pairing", "{curve}", "--seed", "5", "--e-size", "1e60"],
    ["operator", "pairing", "{curve}", "--seed", "5", "--f-size", "1e60"],
    ["operator", "pairing", "{curve}", "--seed", "5", "--disk-radius", "1e200"],
])
def test_out_of_range_option_values_exit_2(tmp_path, moment_curve, args):
    curve_file = str(write_curve(tmp_path, moment_curve))
    out = tmp_path / "out"
    res = RUNNER.invoke(main, [curve_file if a == "{curve}" else a for a in args]
                        + ["--out", str(out)])
    assert res.exit_code == 2, res.output
    assert not out.exists()


@pytest.mark.parametrize("bad", [math.nan, math.inf])
@pytest.mark.parametrize("args", [
    ["analyze", "{curve}", "--seed", "7"],
    ["jacobian-check", "{curve}", "--trials", "3", "--seed", "1"],
    ["operator", "pairing", "{curve}", "--seed", "5", "--n-mc", "100"],
    ["operator", "scan", "{curve}"],
    ["operator", "extension-endpoint", "{curve}", "--seed", "2", "--points", "1"],
])
def test_non_finite_curve_coefficients_exit_3(tmp_path, moment_curve, args, bad):
    # json reads the literals NaN and Infinity, which json.dumps writes.
    data = moment_curve.to_json()
    data["components"][1][2] = [bad, 0.0]
    curve_file = tmp_path / "curve.json"
    curve_file.write_text(json.dumps(data))
    out = tmp_path / "out"
    res = RUNNER.invoke(main, [str(curve_file) if a == "{curve}" else a for a in args]
                        + ["--out", str(out)])
    assert res.exit_code == 3, res.output
    payload = json.loads(res.output)
    assert payload["error"]["type"] == "ValueError"
    validate(payload, "error.schema.json")
    assert not out.exists()


class TestReplay:
    def test_replay_matches(self, tmp_path, moment_curve):
        curve_file = write_curve(tmp_path, moment_curve)
        out = tmp_path / "out"
        res = RUNNER.invoke(main, ["analyze", str(curve_file), "--seed", "7",
                                   "--samples", "200", "--out", str(out)])
        assert res.exit_code == 0
        verification = json.loads((out / "verification.json").read_text())
        region_id = verification["reports"][0]["region_id"]
        res = RUNNER.invoke(main, ["replay", str(out / "verification.json"),
                                   "--region-id", region_id])
        assert res.exit_code == 0, res.output
        assert json.loads(res.output)["match"] is True

    def test_replay_finds_a_region_whose_id_used_to_collide(self, tmp_path, curve_mixed):
        # The D1 cells of every dyadic piece used to be named from the cell
        # alone ("L2i:v0.s4.l0"), so replay found the first piece's region.
        curve_file = write_curve(tmp_path, curve_mixed)
        out = tmp_path / "out"
        res = RUNNER.invoke(main, ["analyze", str(curve_file), "--seed", "7", "--samples", "3",
                                   "--eps", str(2 * math.pi / 28), "--out", str(out)])
        assert res.exit_code == 0, res.output
        entries = json.loads((out / "verification.json").read_text())["reports"]

        def old_id(rid):
            return rid[max(rid.rfind("L1i:"), rid.rfind("L2i:"), 0):]

        first = {}
        for entry in entries:
            first.setdefault(old_id(entry["region_id"]), entry)
        entry = next(e for e in entries
                     if first[old_id(e["region_id"])] is not e
                     and "i:" in e["region_id"]
                     and first[old_id(e["region_id"])]["min_ratio"] != e["min_ratio"])
        res = RUNNER.invoke(main, ["replay", str(out / "verification.json"),
                                   "--region-id", entry["region_id"]])
        assert res.exit_code == 0, res.output
        result = json.loads(res.output)
        assert result["match"] is True
        assert result["stored_ratio"] == entry["worst_witness"]["ratio"]

    @pytest.mark.parametrize("name", ["z2z4", "z3z5"])
    def test_every_witness_recomputes_exactly(self, tmp_path, request, name):
        # geometric_ratio evaluates with verify_region's evaluator, so each
        # stored witness record comes back bit for bit, not only within
        # replay's tolerance.
        curve = request.getfixturevalue(f"curve_{name}")
        out = tmp_path / "out"
        res = RUNNER.invoke(main, ["analyze", str(write_curve(tmp_path, curve)),
                                   "--seed", "7", "--out", str(out)])
        assert res.exit_code == 0, res.output
        entries = json.loads((out / "verification.json").read_text())["reports"]
        for entry in entries:
            witness = entry["worst_witness"]
            t = Triple(*(complex(re, im) for re, im in witness["triple"]))
            assert verification.geometric_ratio(curve, t).to_json() == witness

    def test_replay_recomputes_the_stored_ratio(self, tmp_path, curve_z2z4):
        # Region 0 of z2z4: evaluating its witness as scalars, not through the
        # verifier's array evaluator, gives 0.4995303710810141, one ulp off.
        out = tmp_path / "out"
        res = RUNNER.invoke(main, ["analyze", str(write_curve(tmp_path, curve_z2z4)),
                                   "--seed", "7", "--out", str(out)])
        assert res.exit_code == 0, res.output
        res = RUNNER.invoke(main, ["replay", str(out / "verification.json"),
                                   "--region-id", "L3:v0.s55.l0"])
        assert res.exit_code == 0, res.output
        result = json.loads(res.output)
        assert result["stored_ratio"] == 0.49953037108101417
        assert result["recomputed_ratio"] == result["stored_ratio"]

    def test_non_finite_witness_exit_3(self, tmp_path, curve_z2z4):
        out = tmp_path / "out"
        res = RUNNER.invoke(main, ["analyze", str(write_curve(tmp_path, curve_z2z4)),
                                   "--seed", "7", "--samples", "20", "--out", str(out)])
        assert res.exit_code == 0, res.output
        text = (out / "verification.json").read_text()
        for path, bad in [(["ratio"], math.nan), (["triple", 0, 0], math.nan),
                          (["triple", 2, 1], math.inf), (["triple", 1, 0], -math.inf)]:
            data = json.loads(text)
            entry = data["reports"][0]
            target = entry["worst_witness"]
            for key in path[:-1]:
                target = target[key]
            target[path[-1]] = bad
            bad_file = tmp_path / "bad.json"
            bad_file.write_text(json.dumps(data))
            res = RUNNER.invoke(main, ["replay", str(bad_file), "--region-id",
                                       entry["region_id"]])
            assert res.exit_code == 3, (path, res.output)
            payload = json.loads(res.output)
            assert payload["error"]["type"] == "ValueError"
            validate(payload, "error.schema.json")

    @pytest.mark.parametrize("entry,error", [
        ({"region_id": "r"}, "KeyError"),
        ({"region_id": "r", "worst_witness": {"triple": 5, "ratio": 1.0}}, "TypeError"),
    ])
    def test_malformed_report_exit_3(self, tmp_path, moment_curve, entry, error):
        path = tmp_path / "verification.json"
        path.write_text(json.dumps({"curve": moment_curve.to_json(), "reports": [entry]}))
        res = RUNNER.invoke(main, ["replay", str(path), "--region-id", "r"])
        assert res.exit_code == 3, res.output
        payload = json.loads(res.output)
        assert payload["error"]["type"] == error
        validate(payload, "error.schema.json")


class TestSvg:
    def test_one_path_per_region(self, suite_reports):
        _, _, rep = suite_reports["z2z4"]
        svg = svg_region_map(rep)
        assert svg.count("<path") == rep.region_count
        for tag in ("<circle", "<rect", "<text", "<g>"):
            assert tag not in svg
        assert "data-sigma" in svg


def test_error_exit_codes_match_readme_table():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    table = {}
    for code, names in re.findall(r"^\| `(\d)` \| (.*) \|$", readme, re.MULTILINE):
        table.update((name, int(code)) for name in re.findall(r"`(\w+)`", names))
    classes = {name: cls for name, cls in vars(errors).items()
               if isinstance(cls, type) and issubclass(cls, errors.CurveTorsionError)}
    assert set(table) == set(classes)
    assert {name: cls.exit_code for name, cls in classes.items()} == table


class TestOutputStep:
    def test_retry_refines_once(self, tmp_path, monkeypatch):
        # The walk already shows the curve's inadmissible regions, so only
        # the accepted candidate is refined and measured.
        curve = CurveGamma.from_components(poly(0, 1, 1), poly(0, 0, 0, 1), poly(0, 0, -100))
        curve_file = write_curve(tmp_path, curve)
        refined, measured = [], []
        real_refine = decomposition._refine_regions
        real_measure = decomposition._measure_comparability

        def counting_refine(*args):
            refined.append(args[0])
            return real_refine(*args)

        def counting_measure(regions, *args):
            measured.append(len(regions))
            return real_measure(regions, *args)

        monkeypatch.setattr(decomposition, "_refine_regions", counting_refine)
        monkeypatch.setattr(decomposition, "_measure_comparability", counting_measure)
        out = tmp_path / "out"
        res = RUNNER.invoke(main, ["analyze", str(curve_file), "--seed", "7",
                                   "--samples", "10", "--out", str(out)])
        assert res.exit_code == 0, res.output
        assert res.output == "regions=56 verified=56 skipped=0\n"
        assert len(refined) == 1
        assert measured == [56]

    def test_flagged_regions_fail_analyze(self, tmp_path, monkeypatch, curve_mixed):
        # The walk alone passes a budget of 300, so refinement flags every
        # over-budget region of its first level.
        monkeypatch.setattr(decomposition, "REGION_BUDGET", 300)
        out = tmp_path / "out"
        res = RUNNER.invoke(main, ["analyze", str(write_curve(tmp_path, curve_mixed)),
                                   "--seed", "7", "--samples", "10", "--out", str(out)])
        assert res.exit_code == cli.EXIT_VERIFICATION, res.output
        assert res.output == "regions=2792 verified=2792 skipped=0 failed=0 flagged=240\n"
        assert sorted(p.name for p in out.iterdir()) == ANALYZE_FILES

    def test_non_positive_ratio_fails_analyze(self, tmp_path, monkeypatch, moment_curve):
        real = cli.verify_region

        def vanishing(*args, **kwargs):
            return dataclasses.replace(real(*args, **kwargs), min_ratio=0.0)

        monkeypatch.setattr(cli, "verify_region", vanishing)
        out = tmp_path / "out"
        res = RUNNER.invoke(main, ["analyze", str(write_curve(tmp_path, moment_curve)),
                                   "--seed", "7", "--samples", "10", "--out", str(out)])
        assert res.exit_code == cli.EXIT_VERIFICATION, res.output
        assert res.output == "regions=1 verified=1 skipped=0 failed=1 flagged=0\n"
        assert sorted(p.name for p in out.iterdir()) == ANALYZE_FILES
        entry = json.loads((out / "verification.json").read_text())["reports"][0]
        assert entry["min_ratio"] == 0.0

    @pytest.mark.parametrize("command,target", [
        (["analyze", "--samples", "10"], "verify_region"),
        (["jacobian-check", "--trials", "3"], "jacobian_identity_trials"),
    ])
    def test_library_error_writes_nothing(self, tmp_path, monkeypatch, moment_curve,
                                          command, target):
        def failing(*args, **kwargs):
            raise NonConvergence("no convergence")

        monkeypatch.setattr(cli, target, failing)
        curve_file = write_curve(tmp_path, moment_curve)
        out = tmp_path / "out"
        out.mkdir()
        res = RUNNER.invoke(main, [command[0], str(curve_file), *command[1:],
                                   "--seed", "1", "--out", str(out)])
        assert res.exit_code == NonConvergence.exit_code
        payload = json.loads(res.output)
        assert payload["error"] == {"type": "NonConvergence", "message": "no convergence"}
        validate(payload, "error.schema.json")
        assert list(out.iterdir()) == []

    def test_bodies_return_their_artifacts(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        monkeypatch.delenv("CURVETORSION_OUT", raising=False)
        body = cli.operator_ball_measure.callback.__wrapped__
        files, summary, ok = body(k_prime=0, x=1.0)
        assert list(files) == ["ball_measure.json"]
        assert files["ball_measure.json"]["kind"] == "ball_measure"
        assert summary == "0.125 vs target 0.125" and ok
        assert list(tmp_path.iterdir()) == []


def test_only_run_writes_or_exits():
    # Command bodies return (files, summary, ok); only _run writes, prints
    # and exits.
    tree = ast.parse(Path(cli.__file__).read_text())
    run = next(f for f in tree.body if isinstance(f, ast.FunctionDef) and f.name == "_run")
    inside_run = set(ast.walk(run))
    offenders = []
    for fn in ast.walk(tree):
        if not isinstance(fn, ast.FunctionDef) or fn in inside_run:
            continue
        for node in ast.walk(fn):
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
                name = node.func.attr
                owner = getattr(node.func.value, "id", None)
                if name in ("write_json", "write_text", "echo") or (owner, name) == ("sys", "exit"):
                    offenders.append(f"{fn.name}:{node.lineno} {name}")
    assert offenders == []
