"""The built-in check battery: green by default, honest when tampered."""

import ast
import hashlib
import re
from pathlib import Path

import pytest

from muxnet.experiments import DEFAULT_CONFIG, VERIFY_COLUMNS, rows_to_csv
from muxnet.verification import run_verification

TESTS = Path(__file__).resolve().parent
DEFAULT_VERIFY_SHA256 = "4ec2d82bb3967d6b3ff0e538b5908b9ebcdb2c8a95a1c33a9161cf25a6f23c71"


@pytest.fixture(scope="module")
def battery():
    """The full battery at the default seed, run once for this module."""
    return run_verification(DEFAULT_CONFIG["seed"])


def test_default_battery_all_hold(battery):
    assert battery, "battery produced no checks"
    failing = [r.check for r in battery if not r.holds]
    assert failing == []


def test_battery_covers_every_module(battery):
    names = {r.check for r in battery}
    expected = {
        "field_axioms",
        "field_inverse_exhaustive",
        "matrix_rank_nullity",
        "matrix_inverse_roundtrip",
        "gl_sampler_chi2",
        "two_universal_bound",
        "two_universal_pinned",
        "encode_bijection",
        "decode_roundtrip",
        "encode_linearity",
        "butterfly_bottleneck",
        "butterfly_decodable",
        "eavesdrop_block_structure",
        "eavesdrop_rank_bound",
        "oracle_equivalence",
        "leakage_quantized",
        "leakage_floor",
        "leakage_monotone_rows",
        "leakage_data_processing",
        "hash_bound_pinned",
        "hash_bounds_random",
        "projection_family_two_universal",
        "projection_extracts",
        "decodability_invariant",
        "coding_deterministic",
        "rho_argmin_mean_bound",
        "rho_argmin_per_slot_bound",
        "guarantee_fraction",
        "certify_monotone",
        "report_determinism",
        "report_rows_bounded",
        "capacity_membership",
    }
    assert expected <= names


def test_tampered_tolerance_fails_named_checks(monkeypatch):
    monkeypatch.setattr("muxnet.verification.REAL_TOLERANCE", -1.0)
    rows = run_verification(DEFAULT_CONFIG["seed"])
    failing = {r.check for r in rows if not r.holds}
    assert "hash_bound_pinned" in failing or "hash_bounds_random" in failing


def test_battery_is_deterministic(battery):
    # The seed alone names the report: this run matches the pinned bytes.
    report = rows_to_csv([r.to_json() for r in battery], VERIFY_COLUMNS).encode()
    assert hashlib.sha256(report).hexdigest() == DEFAULT_VERIFY_SHA256


def traceability_rows():
    """(check ids, [(test file, test name)]) for each row of the README's
    invariant-traceability table."""
    readme = (TESTS.parent / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Invariant traceability", 1)[1].split("\n## ", 1)[0]
    rows = []
    for line in section.splitlines():
        cells = line.strip().strip("|").split("|")
        if len(cells) == 3 and "`" in cells[1]:
            checks = re.findall(r"`(\w+)`", cells[1])
            refs = re.findall(r"`(test_\w+\.py)::(\w+)`", cells[2])
            rows.append((checks, refs))
    return rows


def test_readme_traceability_table_matches_battery_and_tests(battery):
    rows = traceability_rows()
    listed = {check for checks, _ in rows for check in checks}
    emitted = {r.check for r in battery}
    assert emitted - listed == set(), "checks missing from the README table"
    assert listed - emitted == set(), "README rows name checks the battery lacks"
    for checks, refs in rows:
        assert refs, f"no pytest named for {checks}"
        for fname, name in refs:
            tree = ast.parse((TESTS / fname).read_text(encoding="utf-8"))
            defined = {node.name for node in tree.body if isinstance(node, ast.FunctionDef)}
            assert name in defined, f"{fname}::{name} is not a test function"
