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
from .construction import Construction
from .designs import desiso_maps, verify_ddd, verify_design_iso
from .digraph import Digraph
from .gf import Field, FieldSpec, field_create
from .heisenberg import GroupTable
from .isotest import are_isomorphic, automorphism_order, iso_class_count
from .srings import (
    SRing,
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
    "FieldSpec",
    "GroupTable",
    "SRing",
    "__version__",
    "are_isomorphic",
    "as_sring_partition",
    "automorphism_order",
    "desiso_maps",
    "field_create",
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
