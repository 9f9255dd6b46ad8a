"""Numerical toolbox for generalized probabilistic cone models on
bipartite quantum spaces: Hermitian matrix utilities, cone membership
oracles and duality checks, two-outcome measurement classification with
constructive discrimination witnesses, deformed entanglement-structure
construction and audits, non-simulability certificates, and symmetry
tests."""

from .cones import (
    CLASSICAL_ORTHANT,
    CS_NEG,
    PSD,
    SEP,
    SEP_DUAL,
    SHRUNK_BLOCH,
    ConeRep,
    GptModel,
    Measurement,
    MeasurementValidationError,
    capacity_demo,
    conic_program,
    dual_cone_membership,
    gurvits_ball_contains,
    make_named_cone,
    membership,
    min_product_expectation,
    sep_model,
    ses_model,
)
from .discrimination import (
    arai_criterion,
    entropy_example_audit,
    err_of_measurement,
    helstrom,
    min_error_over_cone,
    perfectly_distinguishable,
    yah_region,
)
from .dovm import (
    AQ,
    BQ,
    NAQ,
    POVM,
    Dovm,
    DovmClass,
    aq_advantage_states,
    aq_from_subcone_witness,
    bq_witness_states,
    classify,
    preceding_measurement,
    random_dovm,
)
from .dual import (
    ConicCertificate,
    conic_feasibility,
    dual_identity_check,
    dual_membership,
    gram_predual_check,
    min_over_spectrahedron,
)
from .herm import (
    BipartiteDims,
    ValidationError,
    ensure_herm,
    max_entangled_fidelity,
    maximally_entangled_vector,
    nege,
    norm,
    partial_trace,
    partial_transpose,
    schmidt_coefficients,
    sco,
    tensor,
    trace_inner,
)
from .pses import (
    MeopFamily,
    PsesParams,
    cr_membership,
    dist_example,
    distance_upper_bound,
    eps_of_r,
    generalized_bell,
    hierarchy_audit,
    npm_element,
    overlap_eps_relation,
    predual_audit,
    r0,
    r_of_eps,
    self_duality_verifier,
    swap_families,
    swap_family,
)
from .simulability import (
    domain_contains,
    n_copy_overlap,
    non_simulability_certificate,
    shrunk_bloch_example,
)
from .symmetry import (
    GLOBAL_UNITARY,
    LOCAL_UNITARY,
    LOCAL_WITH_TRANSPOSE,
    SWAP_FACTORS,
    TransformSpec,
    gu_falsifier,
    orbit_invariance_check,
    two_symmetry_counterexample,
)
from .verdict import IN, OUT, UNKNOWN, MembershipVerdict

__version__ = "0.1.0"
