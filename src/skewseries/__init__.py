"""Skew generalized power series over finite rings.

Exact convolution arithmetic for finitely supported series twisted by a
monoid action, plus annihilator-theoretic property checking (left APP,
p.q.-Baer, quasi-Baer, PP, right s-unital ideals) with replayable evidence.
"""

__version__ = "0.1.0"

from .rings import (
    AutomorphismBudgetError,
    FiniteRing,
    RingAut,
    RingAxiomError,
    automorphisms,
    cyclic_ring,
    idempotents,
    identity_automorphism,
    inner_automorphism,
    matrix_ring,
    product_ring,
    swap_automorphism,
    table_ring,
    units,
    upper_triangular_ring,
    validate_ring,
)
from .monoids import (
    KINDS,
    MonoidInterval,
    OrderedMonoid,
    UnsupportedOrderError,
    WindowRequiredError,
    decompositions,
    make_monoid,
    min_element,
)
from .series import (
    OmegaAction,
    SkewSeries,
    annihilates_via_all_middles,
    constant,
    convolve,
    from_terms,
    monomial,
    pair_action,
    single_generator_action,
    single_term,
    trivial_action,
    zero_series,
)
from .ideals import (
    IdealSet,
    SUnitalResult,
    WitnessNotFoundError,
    idempotent_generator,
    is_right_s_unital,
    left_annihilator,
    left_ideal_generated,
    orbit_ideal,
    right_annihilator,
    tominaga_common_witness,
)
from .properties import (
    PropertyReport,
    is_left_app,
    is_left_pq_baer,
    is_quasi_baer,
    is_reduced,
    is_right_pp,
    orbit_annihilators_s_unital,
)
from .theorems import (
    CoherenceAlarm,
    PreconditionError,
    annihilator_obstructions,
    app_equivalence_check,
    check_coefficientwise_annihilation,
    coefficientwise_harness,
    construct_annihilator_witness,
    element_orbit_annihilator,
    extract_cascade_witnesses,
    preset_by_name,
    random_annihilating_pair,
    run_preset,
    set_orbit_annihilator,
    specialization_presets,
    witness_paths_agree,
)
from .gallery import gallery_ring, list_gallery, named_automorphism, standard_contexts
