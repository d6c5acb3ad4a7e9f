"""The built-in check battery: green by default, honest when tampered."""

import ast
import re
from pathlib import Path

from muxnet.verification import VerifyOptions, run_verification

TESTS = Path(__file__).resolve().parent


def fast_options(**overrides):
    opts = VerifyOptions(
        joint_trials=6,
        gl_chi2_samples=600,
        oracle_b_per_shape=2,
        oracle_l_samples=4,
        guarantee_l_trials=10,
    )
    for key, val in overrides.items():
        setattr(opts, key, val)
    return opts


def test_default_battery_all_hold():
    rows = run_verification(fast_options())
    assert rows, "battery produced no checks"
    failing = [r.check for r in rows if not r.holds]
    assert failing == []


def test_battery_covers_every_module():
    names = {r.check for r in run_verification(fast_options())}
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


def test_tampered_tolerance_fails_named_checks():
    rows = run_verification(fast_options(tolerance=-1.0))
    failing = {r.check for r in rows if not r.holds}
    assert "hash_bound_pinned" in failing or "hash_bounds_random" in failing


def test_battery_is_deterministic():
    r1 = [(r.check, r.lhs, r.rhs, r.holds) for r in run_verification(fast_options())]
    r2 = [(r.check, r.lhs, r.rhs, r.holds) for r in run_verification(fast_options())]
    assert r1 == r2


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


def test_readme_traceability_table_matches_battery_and_tests():
    rows = traceability_rows()
    listed = {check for checks, _ in rows for check in checks}
    emitted = {r.check for r in run_verification(fast_options())}
    assert emitted - listed == set(), "checks missing from the README table"
    assert listed - emitted == set(), "README rows name checks the battery lacks"
    for checks, refs in rows:
        assert refs, f"no pytest named for {checks}"
        for fname, name in refs:
            tree = ast.parse((TESTS / fname).read_text(encoding="utf-8"))
            defined = {node.name for node in tree.body if isinstance(node, ast.FunctionDef)}
            assert name in defined, f"{fname}::{name} is not a test function"
