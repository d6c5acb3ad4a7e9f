"""The package namespace and what each entry point imports.

`muxnet/__init__.py` loads each layer on first use, so the budget cases run
in a fresh interpreter: in this process other test files have already
imported every layer.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import muxnet

SRC = str(Path(muxnet.__file__).parent.parent)

# The 63 names the package exported when it imported every layer eagerly.
PUBLIC_NAMES = [
    "BoundParams", "ConfigError", "CycleDetected", "DomainError", "DuplicateLink",
    "EavesdropperModel", "EnumerationTooLarge", "FieldMatrix", "FieldSpec", "GF",
    "HashFamilySpec", "InfeasibleMu", "JointDistribution", "LeakageResult",
    "LocalCoding", "MessageTuple", "MissingCoefficient", "MultiplexLayout",
    "MuxnetError", "Network", "ShapeError", "SingularMatrix", "SubsetIndex",
    "WrongSlotCount", "all_nonempty_subsets", "average_leakage",
    "average_over_support", "brute_force_leakage", "butterfly_coding",
    "butterfly_network", "capacity_membership", "certify_universal_zero",
    "check_decodability", "constant_tap_observations", "decode", "derive_rng",
    "eavesdrop_matrix", "encode", "enumerate_eavesdropper_sets", "enumerate_gl",
    "exact_leakage", "global_coding_vectors", "guarantee_experiment",
    "hash_collision_probability", "leakage_floor", "leakage_profile",
    "observation_support", "parallel_coding", "parallel_network",
    "projection_matrix", "random_matrix", "rate_leakage_floor",
    "realize_eavesdropper", "sample_full_rank", "sample_gl", "ub2_bound",
    "ub5_bound", "ub6_bound", "ub7_bound", "ub8_bound",
    "verify_hashed_entropy_bound", "verify_hashed_mi_bound", "worst_case_leakage",
]


def fresh_modules(statement):
    """The names in `sys.modules` after `statement` runs in a new interpreter."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))}
    code = f"{statement}\nimport json, sys\nprint(json.dumps(sorted(sys.modules)))"
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    return set(json.loads(out.splitlines()[-1]))


# Loaded by `dataclasses` and nothing else muxnet imports at start-up.
DATACLASS_MACHINERY = {"dataclasses", "inspect", "ast", "dis"}


def layers(modules):
    return {m.removeprefix("muxnet.") for m in modules if m.startswith("muxnet.")}


# ---------------------------------------------------------
# import budget
# ---------------------------------------------------------

def test_package_import_loads_no_layer():
    assert layers(fresh_modules("import muxnet")) == set()


def test_codec_import_loads_only_the_codec_layers():
    modules = fresh_modules(
        "from muxnet import GF, MultiplexLayout, MessageTuple, encode, decode, sample_gl")
    assert layers(modules) == {"errors", "fields", "matrix", "multiplex"}
    assert not modules & {"fractions", "hashlib"}
    assert not modules & DATACLASS_MACHINERY


def test_cli_import_compiles_verification_but_no_process_pool():
    # verify's checks are compiled with the CLI, before its first run.
    modules = fresh_modules("from muxnet import cli")
    assert "muxnet.verification" in modules
    assert "concurrent.futures" not in modules
    assert not modules & DATACLASS_MACHINERY


def test_submodule_resolves_as_an_attribute():
    modules = fresh_modules(
        "import muxnet\nassert muxnet.leakage.ObservationSpaces is muxnet.network.ObservationSpaces")
    assert {"leakage", "network"} <= layers(modules)


# ---------------------------------------------------------
# namespace
# ---------------------------------------------------------

def test_public_names_are_pinned():
    assert sorted(muxnet.__all__) == PUBLIC_NAMES


def test_each_public_name_is_its_defining_modules_object():
    # perfbench's tracer patches muxnet attributes by identity, so the
    # package must hand out the submodule's own object, not a copy.
    for name in PUBLIC_NAMES:
        value = getattr(muxnet, name)
        home = sys.modules[value.__module__]
        assert home.__name__.startswith("muxnet."), name
        assert getattr(home, name) is value, name


def test_dir_lists_every_public_name():
    assert set(PUBLIC_NAMES) <= set(dir(muxnet))


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        muxnet.no_such_name  # noqa: B018
