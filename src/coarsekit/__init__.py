"""Finite-truncation toolkit for large scale geometry.

Spaces are finite point sets carrying monotone chains of covering families;
systems glue compatible pieces along a directed index so colimit-level
questions reduce to piece-level searches. Every checker answers with a
three-way report: verified, refuted, or undecided at this truncation.
"""

from __future__ import annotations

__version__ = "0.1.0"

from .errors import (
    CoarseError,
    DomainError,
    ParseError,
    TruncationError,
    ValidationError,
)
from .families import (
    Family,
    PointSet,
    chain_components,
    covers,
    essentially_refines,
    family,
    family_key,
    horizon,
    horizon_indices,
    multiplicity,
    points,
    refines,
    reroot,
    star_family,
    star_set,
    trivial_extension,
    uncovered_point,
)
from .reports import Clause, Report, SearchOutcome, Verdict, from_clauses
from .spaces import (
    ScaledSpace,
    chains_coincide,
    coarse_chain_component,
    coarse_components,
    coincidence_failure,
    is_bounded,
    restrict,
    validate_space,
    weakly_bounded,
)
from .colimit import (
    ColimitBoundedness,
    FilteredSystem,
    Piece,
    check_boundedness,
    colimit_bounded,
    colimit_star,
    extend_to_ambient,
    extended_level,
    strip,
    system_coarse_components,
    system_weakly_bounded,
    validate_system,
)
from .maps import (
    INF,
    GroundedMap,
    MetricTarget,
    bornologous_check,
    bornologous_levels,
    close_check,
    close_report,
    close_violation,
    coarse_equivalence_check,
    compose,
    grounded_map,
    identity_map,
    image_diameter,
    image_family,
    metric_target,
    path_metric,
    restrict_map,
    slowly_oscillating_search,
    slowly_oscillating_verify,
    system_bornologous_check,
    system_slowly_oscillating_verify,
)
from .invariants import (
    AmenabilityWitness,
    ApcProbeOutcome,
    ApcWitness,
    AsdimWitness,
    ExactnessWitness,
    GeneratorSet,
    PartitionOfUnity,
    PinchWitness,
    PropertyAFamily,
    amenability_lift,
    amenability_verify,
    apc_probe,
    apc_search,
    apc_verify,
    asdim_lift,
    asdim_restrict,
    asdim_search,
    asdim_verify,
    colimit_probe_chain,
    exactness_lift,
    exactness_verify,
    generator_set,
    metrizability_generator_check,
    metrizability_merge,
    partition_of_unity,
    pinch_lift,
    pinch_verify,
    pinch_witness,
    property_a_lift,
    property_a_verify,
    support_family,
)
from .corpus import (
    RandomCaps,
    UnitIntervalInstance,
    gen_c0,
    gen_disjoint_union,
    gen_random_system,
    gen_unit_interval,
)
