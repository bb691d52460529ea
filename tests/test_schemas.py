import json

import pytest

from conftest import SCHEMA_DIR, validate

jsonschema = pytest.importorskip("jsonschema")

SCHEMAS = sorted(SCHEMA_DIR.glob("*.schema.json"))


@pytest.mark.parametrize("path", SCHEMAS, ids=lambda p: p.name)
def test_schema_is_valid_draft_2020_12(path):
    jsonschema.Draft202012Validator.check_schema(json.loads(path.read_text()))


def test_suite_curves_match_the_input_schema(curve_suite):
    for curve in curve_suite.values():
        validate(curve.to_json(), "curve.schema.json")
