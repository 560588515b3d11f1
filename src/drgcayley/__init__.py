"""Exact construction, verification and classification of
distance-regular Cayley graphs over finite abelian groups."""

__version__ = "0.1.0"

from .errors import InvariantViolation, NotConnectedError, PrecisionError, SpecError
from .groups import (
    AbelianGroup,
    GroupElement,
    Subgroup,
    generated_subgroup,
    make_group,
    parse_element,
    parse_element_set,
    parse_group,
)
from .graphs import (
    CayleyGraph,
    DRGCheck,
    IntersectionArray,
    check_distance_regular,
    detect_family,
    export_graph6,
    imprimitivity,
    spectrum,
)
from .schur import (
    SchurRing,
    distance_module,
    dual_graph,
    dual_schur_ring,
    krein_parameters,
    q_polynomial_orderings,
    verify_schur_ring,
)
from .constructions import (
    crown,
    expected_catalog,
    expected_circulant_catalog,
    order_p_subgroups,
    td_line_graph,
)
from .designs import (
    direction_bound_check,
    directions,
    is_polynomial_addition_set,
    is_relative_difference_set,
)
from .classify import (
    ClassificationReport,
    classify_group,
    nonexistence_report,
    verify_circulant_theorem,
    verify_main_theorem,
)

__all__ = [
    "AbelianGroup",
    "CayleyGraph",
    "ClassificationReport",
    "DRGCheck",
    "GroupElement",
    "IntersectionArray",
    "InvariantViolation",
    "NotConnectedError",
    "PrecisionError",
    "SchurRing",
    "SpecError",
    "Subgroup",
    "__version__",
    "check_distance_regular",
    "classify_group",
    "crown",
    "detect_family",
    "direction_bound_check",
    "directions",
    "distance_module",
    "dual_graph",
    "dual_schur_ring",
    "expected_catalog",
    "expected_circulant_catalog",
    "export_graph6",
    "generated_subgroup",
    "imprimitivity",
    "is_polynomial_addition_set",
    "is_relative_difference_set",
    "krein_parameters",
    "make_group",
    "nonexistence_report",
    "order_p_subgroups",
    "parse_element",
    "parse_element_set",
    "parse_group",
    "q_polynomial_orderings",
    "spectrum",
    "td_line_graph",
    "verify_circulant_theorem",
    "verify_main_theorem",
    "verify_schur_ring",
]
