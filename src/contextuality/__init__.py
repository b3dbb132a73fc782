"""Exact decision procedures for possibilistic contextuality.

Empirical models over finite measurement covers are classified
(non-contextual, logically contextual, strongly contextual) and probed
with two cohomological obstructions: a Cech-style one over the nerve
of the cover and a group-cohomology one on the quotient of a glued
measurement monoid.  All arithmetic is exact and every verdict carries
a re-verified witness or certificate.
"""

from .avn import (
    AvnCechReport,
    AvnReport,
    LinearEquation,
    Theory,
    avn_cech_consistency,
    entails,
    is_avn,
    theory_of,
)
from .cech import (
    CechAnalyzer,
    CechCertificate,
    CechCochain,
    CocycleDecision,
    CrossCheckReport,
    FamilyDecision,
    Nerve,
    build_nerve,
    cech_coboundary,
    cech_obstruction_vanishes,
    collapse_family,
    connecting_cocycle,
    cross_check_obstructions,
    make_cech_cochain,
)
from .errors import (
    ContextualityError,
    InternalCheckError,
    ModelFormatError,
    PreconditionError,
    StructureError,
)
from .fixtures import FixtureBundle, get_fixture, list_fixtures
from .mcohom import (
    Cochain,
    CoboundaryDecision,
    CoboundarySolver,
    GroupObstructionAnalyzer,
    GroupObstructionReport,
    SectionObstruction,
    coboundary,
    group_obstruction,
    make_cochain,
    obstruction_cocycle,
    validate_structured_model,
)
from .modelio import (
    document_to_model,
    dump_model,
    dumps_model,
    load_model,
    loads_model,
    model_to_document,
)
from .pauli import (
    GaussianStateVector,
    PauliOperator,
    apply_pauli,
    born_consistent,
    build_state_dependent_model,
    build_state_independent_model,
    close_under_commuting_products,
    commutes,
    context_splittings,
    ghz_state,
    identity,
    maximal_contexts,
    multiply,
    negate,
    parse_pauli,
)
from .pmonoid import (
    CoefficientAction,
    PartialMonoid,
    Quotient,
    StructuredModel,
    glue_contexts,
    quotient_by_action,
    right_splitting_of,
    splitting_from_trivialisation,
    splitting_violations,
    trivialisation_from_right_splitting,
    trivialisation_from_splitting,
    validate_right_splitting,
    validate_splitting,
)
from .scenario import (
    ContextualityClass,
    EmpiricalModel,
    MeasurementScenario,
    Section,
    ValidationReport,
    check_no_signalling,
    classify,
    extension,
    global_sections,
    section_extends,
    sections_below,
    validate_scenario,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
