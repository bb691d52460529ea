"""The benchmark's recipes must write the same bytes as the CLI commands
they mirror, so the benchmark cannot drift from what users run.

    PYTHONPATH=src python -m pytest -q perfbench
"""

import json

import pytest
from click.testing import CliRunner

import recipes
from curvetorsion.cli import main
from spans import SpanRecorder

CURVES = {
    "moment": {"N": 3, "components": [[[0, 0], [1, 0]], [[0, 0], [0, 0], [1, 0]],
                                      [[0, 0], [0, 0], [0, 0], [1, 0]]]},
    "z2z4": {"N": 4, "components": [[[0, 0], [1, 0]], [[0, 0], [0, 0], [1, 0]],
                                    [[0, 0], [0, 0], [0, 0], [0, 0], [1, 0]]]},
}


@pytest.fixture(params=sorted(CURVES))
def curve_file(request, tmp_path):
    path = tmp_path / f"{request.param}.json"
    path.write_text(json.dumps(CURVES[request.param]), encoding="utf-8")
    return path


def _cli(args, out):
    result = CliRunner().invoke(main, [*map(str, args), "--out", str(out)])
    assert result.exit_code == 0, result.output


def _assert_same_files(cli_dir, recipe_dir, files):
    assert sorted(p.name for p in cli_dir.iterdir()) == sorted(files)
    for name in files:
        assert (recipe_dir / name).read_bytes() == (cli_dir / name).read_bytes(), name


@pytest.mark.parametrize("command, recipe", [
    (["analyze", "{curve}", "--seed", 7, "--samples", 20],
     lambda c, out, t: recipes.analyze(c, 7, out, t, samples=20)),
    (["jacobian-check", "{curve}", "--trials", 5, "--seed", 3],
     lambda c, out, t: recipes.jacobian_check(c, 5, 3, out, t)),
    (["operator", "scan", "{curve}", "--grid-points", 2, "--n-quad", 8],
     lambda c, out, t: recipes.scan(c, out, t, grid_points=2, n_quad=8)),
    (["operator", "extension-endpoint", "{curve}", "--seed", 2, "--points", 3],
     lambda c, out, t: recipes.extension_endpoint(c, 2, out, t, points=3)),
    (["operator", "pairing", "{curve}", "--seed", 5, "--n-mc", 1000],
     lambda c, out, t: recipes.operator_pairing(c, 5, out, t, n_mc=1000)),
], ids=["analyze", "jacobian-check", "scan", "extension-endpoint", "pairing"])
def test_recipe_matches_cli(command, recipe, curve_file, tmp_path):
    args = [curve_file if a == "{curve}" else a for a in command]
    _cli(args, tmp_path / "cli")
    tracer = SpanRecorder(enabled=True)
    result = recipe(curve_file, tmp_path / "recipe", tracer)
    _assert_same_files(tmp_path / "cli", tmp_path / "recipe", result["files"])
    names = {s["name"] for s in tracer.finished()}
    assert "curves.parse" in names and "reports.serialize" in names


def test_span_self_time_excludes_children():
    rec = SpanRecorder(enabled=True)
    rec.request = "r0"
    with rec.span("outer"):
        with rec.span("inner"):
            pass
        with rec.span("inner"):
            pass
    outer, first, second = rec.finished("r0")
    assert first["parent"] == second["parent"] == outer["id"]
    children = first["duration"] + second["duration"]
    assert outer["self_time"] == pytest.approx(outer["duration"] - children, abs=1e-12)
    assert first["self_time"] == first["duration"]


def test_disabled_recorder_keeps_nothing():
    rec = SpanRecorder()
    with rec.span("outer"):
        pass
    assert rec.finished() == []
