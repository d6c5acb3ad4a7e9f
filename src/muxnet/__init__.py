"""muxnet: exact tooling for secure multiplex network coding.

Finite-field linear algebra, the invertible-map multiplex encoder, linear
network coding with eavesdroppers, closed-form leakage analysis, and
numerical verification of every decay bound and the capacity region.

Each layer is imported on first use (PEP 562): `from muxnet import GF,
encode` loads only `errors`, `fields`, `matrix` and `multiplex`, never the
network, leakage, bounds or rng layers.
"""

import importlib

__version__ = "0.1.0"

# Every submodule, with the public names it exports at the package level.
_EXPORTS = {
    "errors": (
        "ConfigError", "CycleDetected", "DomainError", "DuplicateLink",
        "EnumerationTooLarge", "InfeasibleMu", "MissingCoefficient",
        "MuxnetError", "ShapeError", "SingularMatrix", "WrongSlotCount",
    ),
    "rng": ("derive_rng",),
    "fields": ("GF", "FieldSpec"),
    "matrix": ("FieldMatrix", "enumerate_gl", "random_matrix", "sample_full_rank", "sample_gl"),
    "multiplex": (
        "MessageTuple", "MultiplexLayout", "SubsetIndex", "all_nonempty_subsets",
        "decode", "encode", "hash_collision_probability", "projection_matrix",
    ),
    "network": (
        "EavesdropperModel", "LocalCoding", "Network", "butterfly_coding",
        "butterfly_network", "check_decodability", "constant_tap_observations",
        "eavesdrop_matrix", "enumerate_eavesdropper_sets", "global_coding_vectors",
        "observation_support", "parallel_coding", "parallel_network",
        "realize_eavesdropper",
    ),
    "leakage": (
        "LeakageResult", "average_leakage", "average_over_support",
        "brute_force_leakage", "exact_leakage", "leakage_profile",
        "worst_case_leakage",
    ),
    "bounds": (
        "BoundParams", "HashFamilySpec", "JointDistribution", "capacity_membership",
        "certify_universal_zero", "guarantee_experiment", "leakage_floor",
        "rate_leakage_floor", "ub2_bound", "ub5_bound", "ub6_bound", "ub7_bound",
        "ub8_bound", "verify_hashed_entropy_bound", "verify_hashed_mi_bound",
    ),
    "verification": (),
    "experiments": (),
    "cli": (),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_HOME)


def __getattr__(name):
    if name in _EXPORTS:  # importing a submodule binds it in this namespace
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
    globals()[name] = value  # later lookups skip this function
    return value


def __dir__():
    return sorted({*globals(), *__all__})
