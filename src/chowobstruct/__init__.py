"""Exact Chow-group computations for complements of ample hypersurfaces in
products of projective spaces, and the mod-2 obstruction Sq^2(c2) + c1*c2
deciding algebraizability of rank-2 topological bundles on them."""

from .abelian import AbelianPresentation, InfiniteGroupError, bezout
from .chow import (
    AmbientMismatchError,
    AmbientSpace,
    ChowClass,
    cup,
    parse_class,
    reduce_mod2,
)
from .complement import (
    ClosedFormReport,
    ComplementModel,
    Direction,
    ExactnessCertificate,
    InapplicableAssumptionError,
    PushforwardAssumption,
    Status,
    certificate,
    closed_form_check,
    complement_group,
)
from .intlinalg import (
    IntegerMatrix,
    SnfDecomposition,
    hermite_normal_form,
    hermite_reduce,
    smith_diagonal,
    smith_normal_form,
)
from .obstruction import (
    ChernPair,
    ClassifyRow,
    DimensionUnsupportedError,
    ObstructionReport,
    Verdict,
    classify_all,
    decide,
    sq2_descends,
    theta,
)
from .steenrod import sq2

__version__ = "0.1.0"

__all__ = [
    "AbelianPresentation",
    "AmbientMismatchError",
    "AmbientSpace",
    "ChernPair",
    "ChowClass",
    "ClassifyRow",
    "ClosedFormReport",
    "ComplementModel",
    "DimensionUnsupportedError",
    "Direction",
    "ExactnessCertificate",
    "InapplicableAssumptionError",
    "InfiniteGroupError",
    "IntegerMatrix",
    "ObstructionReport",
    "PushforwardAssumption",
    "SnfDecomposition",
    "Status",
    "Verdict",
    "bezout",
    "certificate",
    "classify_all",
    "closed_form_check",
    "complement_group",
    "cup",
    "decide",
    "hermite_normal_form",
    "hermite_reduce",
    "parse_class",
    "reduce_mod2",
    "smith_diagonal",
    "smith_normal_form",
    "sq2",
    "sq2_descends",
    "theta",
]
