"""Verifier/lifter pairs for coarse invariants over spaces and systems."""

from .amenability import (
    AmenabilityWitness,
    amenability_lift,
    amenability_verify,
    covered_points,
    horizon_ratio,
)
from .apc import (
    ApcProbeOutcome,
    ApcWitness,
    apc_probe,
    apc_search,
    apc_verify,
    colimit_probe_chain,
)
from .asdim import (
    AsdimWitness,
    asdim_lift,
    asdim_restrict,
    asdim_search,
    asdim_verify,
)
from .common import Bound, Target, bound_clause, find_bound
from .exactness import (
    ExactnessWitness,
    PartitionOfUnity,
    exactness_lift,
    exactness_verify,
    l1_variation,
    partition_of_unity,
    support_family,
)
from .metrizability import (
    GeneratorSet,
    combined_pair,
    generator_set,
    metrizability_generator_check,
    metrizability_merge,
)
from .pinch import (
    PinchWitness,
    pinch_lift,
    pinch_verify,
    pinch_witness,
    sq_dist,
)
from .property_a import (
    PropertyAFamily,
    geometry_cap,
    pair_ratio,
    property_a_lift,
    property_a_verify,
)
