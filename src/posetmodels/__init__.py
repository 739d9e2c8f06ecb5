"""Model structures on finite bounded lattices.

Given a finite bounded lattice and a subcategory of weak equivalences,
decide whether a Quillen model structure with those weak equivalences
exists, construct such structures explicitly, verify every axiom
exhaustively, connect any two structures by a zigzag of identity Quillen
equivalences, and reduce a structure to its homotopy category.
"""

from .centers import (
    CenterEnumeration,
    CenterMap,
    compute_Jchi,
    compute_Qchi,
    compute_Wc_chi,
    compute_Wf_chi,
    enumerate_centers,
    find_centers,
    product_centers,
    validate_centers,
)
from .classes import (
    MorphClass,
    factorize,
    is_binary_coproduct_closed,
    is_binary_product_closed,
    is_composition_closed,
    is_mls,
    is_pullback_closed,
    is_pushout_closed,
    is_wfs,
    left_complement,
    lifts,
    proper_factorizations,
    right_complement,
    subcategory_check,
)
from .dot import export_dot
from .equivalence import (
    ReductionMaps,
    Zigzag,
    build_zigzag,
    homotopy_reduce,
    is_identity_left_quillen,
)
from .errors import PosetModelError
from .fixtures import fixture, load
from .lattice import (
    FiniteLattice,
    Pair,
    build_lattice,
    join_all,
    meet_all,
    pullback_of,
    pushout_of,
)
from .models import (
    ModelStruct,
    cofibrant_objects,
    construct_from_centers,
    construct_from_centers_dual,
    construct_genMC,
    construct_genMC_dual,
    construct_newcofib,
    construct_newfib_dual,
    construct_terminal,
    extract_centers,
    factor_via_centers,
    fibrant_objects,
    generating_sets,
    replacement,
    verify_model,
)
from .oracle import (
    InstanceGen,
    decide_by_enumeration,
    enumerate_model_structures,
    random_instances,
)
from .relative import (
    Decision,
    RelStruct,
    check_cw_factorization,
    check_s2of3,
    compute_Wc,
    compute_Wf,
    recognize_finite,
    validate_relative,
)
from .report import Check, Report

__all__ = [name for name in dir() if not name.startswith("_")]
