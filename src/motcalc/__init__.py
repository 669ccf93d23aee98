"""Exact symbolic calculator for 1-motives over a field.

A 1-motive is stored as the 7-tuple (X, Y^v, A, A*, v, v*, psi).  The
package computes its weight filtration, Cartier dual, the graded
endomorphism algebra E with the pairing bracket, and the unipotent
radical of the motivic Lie algebra: the abelian part B, the toric part
Z(1), their dimensions, and the extension data.  All arithmetic is
exact over the rationals.
"""

from motcalc.abelian import (
    AbelianVarietyModel,
    EndAlgebraRep,
    PointVector,
    SubvarietyData,
    link_duals,
    smallest_subvariety,
)
from motcalc.document import (
    InputDocument,
    analyze_motive,
    build_report,
    check_invariants,
    dual_document,
    gr_summary,
    load_input,
    parse_input,
    report_text,
    serialize_document,
)
from motcalc.errors import UnsupportedModelError, ValidationError
from motcalc.exactlin import RatMatrix, Subspace, rat
from motcalc.lattices import (
    TRIVIAL_GROUP,
    ActionGroup,
    GaloisLattice,
    dual,
    tensor,
)
from motcalc.liealg import GradedEndData, build_E, verify_lie_module
from motcalc.motive import (
    GradedPieces,
    OneMotive,
    WeightFiltration,
    cartier_dual,
    gr,
    weight_filtration,
)
from motcalc.multgroup import MultSpace
from motcalc.pairings import (
    TorusPairingClass,
    antisymmetrize,
    assemble_example_biext,
    swap_pullback,
)
from motcalc.radical import (
    REDUCTIVE_SYMBOL,
    RadicalReport,
    derived_torus_Z1,
    radical_cartier_dual,
    smallest_B,
    torus_Z,
    unipotent_radical,
)

__all__ = [
    "AbelianVarietyModel",
    "ActionGroup",
    "EndAlgebraRep",
    "GaloisLattice",
    "GradedEndData",
    "GradedPieces",
    "InputDocument",
    "MultSpace",
    "OneMotive",
    "PointVector",
    "REDUCTIVE_SYMBOL",
    "RadicalReport",
    "RatMatrix",
    "Subspace",
    "SubvarietyData",
    "TRIVIAL_GROUP",
    "TorusPairingClass",
    "UnsupportedModelError",
    "ValidationError",
    "WeightFiltration",
    "analyze_motive",
    "antisymmetrize",
    "assemble_example_biext",
    "build_E",
    "build_report",
    "cartier_dual",
    "check_invariants",
    "derived_torus_Z1",
    "dual",
    "dual_document",
    "gr",
    "gr_summary",
    "link_duals",
    "load_input",
    "parse_input",
    "radical_cartier_dual",
    "rat",
    "report_text",
    "serialize_document",
    "smallest_B",
    "smallest_subvariety",
    "swap_pullback",
    "tensor",
    "torus_Z",
    "unipotent_radical",
    "verify_lie_module",
    "weight_filtration",
]
