"""muxnet: exact tooling for secure multiplex network coding.

Finite-field linear algebra, the invertible-map multiplex encoder, linear
network coding with eavesdroppers, closed-form leakage analysis, and
numerical verification of every decay bound and the capacity region.
"""

from .bounds import (
    BoundParams,
    HashFamilySpec,
    JointDistribution,
    capacity_membership,
    certify_universal_zero,
    guarantee_experiment,
    leakage_floor,
    rate_leakage_floor,
    ub2_bound,
    ub5_bound,
    ub6_bound,
    ub7_bound,
    ub8_bound,
    verify_hashed_entropy_bound,
    verify_hashed_mi_bound,
)
from .errors import (
    ConfigError,
    CycleDetected,
    DomainError,
    DuplicateLink,
    EnumerationTooLarge,
    InfeasibleMu,
    MissingCoefficient,
    MuxnetError,
    ShapeError,
    SingularMatrix,
    WrongSlotCount,
)
from .fields import GF, FieldSpec
from .leakage import (
    LeakageResult,
    average_leakage,
    average_over_support,
    brute_force_leakage,
    exact_leakage,
    leakage_profile,
    worst_case_leakage,
)
from .matrix import FieldMatrix, enumerate_gl, random_matrix, sample_full_rank, sample_gl
from .multiplex import (
    MessageTuple,
    MultiplexLayout,
    SubsetIndex,
    all_nonempty_subsets,
    decode,
    encode,
    hash_collision_probability,
    projection_matrix,
)
from .network import (
    EavesdropperModel,
    LocalCoding,
    Network,
    butterfly_coding,
    butterfly_network,
    check_decodability,
    constant_tap_observations,
    eavesdrop_matrix,
    enumerate_eavesdropper_sets,
    global_coding_vectors,
    observation_support,
    parallel_coding,
    parallel_network,
    realize_eavesdropper,
    sample_eavesdropper,
)
from .rng import derive_rng

__version__ = "0.1.0"
