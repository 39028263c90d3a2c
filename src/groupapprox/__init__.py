"""Worst-case approximability of functions on finite groups.

For a finite group G and a function f: G -> G, how well can f be matched
by a structured map — an endomorphism, or an affine map (a left translate
of an endomorphism)?  The worst-case value of the group is the agreement
count that even the hardest-to-approximate function cannot avoid.  This
package computes those values exactly for small groups, certifies lower
bounds structurally, builds explicit hard functions for several families
(including an order-p^8 family where a single agreement point, or none at
all, is achievable), and evaluates the general counting bounds behind the
asymptotics.
"""

from .bounds import (
    BoundReport,
    agreement_bounds,
    brute_force_app,
    circle_and_ball_sizes,
    endo_count_bound,
    worst_case_upper_bounds,
)
from .errors import (
    CapacityError,
    FormatError,
    GroupApproxError,
    GroupAxiomError,
    ParameterError,
    ScopeError,
)
from .groups import (
    GroupCarrier,
    TableGroup,
    ValidationReport,
    alt,
    build_group,
    canonical_spec,
    catalog_up_to,
    cyclic,
    dicyclic,
    dihedral,
    direct_product,
    elemabelian,
    heis,
    modmax,
    parse_cayley,
    serialize_cayley,
    sym,
    validate,
)
from .jk import (
    JKGroup,
    JKParams,
    JKVerification,
    SigmaMap,
    check_classified_maps,
    endo_reachable,
    jk_enapp_zero_witness,
    jk_group,
    jk_pth_power,
    make_sigma,
    singer_sigma,
    twist_function,
    verify_affapp_one,
    verify_enapp_zero,
)
from .morphisms import (
    GroupFunction,
    automorphism_orbits,
    enumerate_endomorphisms,
)
from .reporting import TOOL_VERSION
from .search import (
    ApproxCertificate,
    LowerBound,
    approximability,
    difference_criterion,
    enapp_zero_witness,
    find_universal_tuple,
    lower_bound_certificates,
    universal_elements,
    worst_case_value,
)
from .witnesses import (
    build_avoiding_permutation,
    cyclic_enapp_witness,
    find_aoa_permutation,
    prime_square_witness,
    rem_quot_witness,
    small_group_witnesses,
)

__version__ = TOOL_VERSION
