"""Divisible design Cayley digraphs over Heisenberg groups, with a
Weisfeiler-Leman verification suite."""

from .coherent import (
    CoherentConfiguration,
    as_sring_partition,
    one_point_extension,
    verify_algebraic_map,
    wl_close,
    wl_equivalent,
)
from .construction import INFINITY, Construction
from .designs import desiso_maps, verify_ddd, verify_design_iso
from .digraph import Digraph
from .gf import Field, FieldElement, FieldSpec, field_create, find_nonsquare
from .heisenberg import GroupElement, GroupTable, center, coset_id, g_inv, g_mul
from .isotest import are_isomorphic, automorphism_order, iso_class_count
from .srings import (
    SRing,
    algebraic_automorphisms,
    structure_constants,
    tau_hat,
    verify_consts,
    verify_transversal,
)
from .suite import __version__, run_suite

__all__ = [
    "CoherentConfiguration",
    "Construction",
    "Digraph",
    "Field",
    "FieldElement",
    "FieldSpec",
    "GroupElement",
    "GroupTable",
    "INFINITY",
    "SRing",
    "__version__",
    "algebraic_automorphisms",
    "are_isomorphic",
    "as_sring_partition",
    "automorphism_order",
    "center",
    "coset_id",
    "desiso_maps",
    "field_create",
    "find_nonsquare",
    "g_inv",
    "g_mul",
    "iso_class_count",
    "one_point_extension",
    "run_suite",
    "structure_constants",
    "tau_hat",
    "verify_algebraic_map",
    "verify_consts",
    "verify_ddd",
    "verify_design_iso",
    "verify_transversal",
    "wl_close",
    "wl_equivalent",
]
