"""Graded F2 Hopf algebras, comodule algebras, the constructive cofree
splitting, and the generalized pipeline over a graded base ring."""

from .core import (
    ComoduleData,
    DegreeCertificate,
    GradedAlgebra,
    GradedMap,
    GradedSpace,
    HopfData,
    InvalidStructure,
    MalformedStructure,
    MMSplit,
    NotConnected,
    NotSurjective,
    Primitives,
    SplitFailed,
    TensorSpace,
    Violation,
    identity_map,
    k_space,
    mm_split,
    pair_apply,
    primitives,
    validate_algebra,
    validate_comodule,
    validate_hopf,
    zero_map,
)
from .algebroid import (
    AlgebroidData,
    Cor22Input,
    Cor22Report,
    FreenessFailed,
    HypothesisFailed,
    IsoFailed,
    RightUnitReport,
    Witnesses,
    cor22_pipeline,
    right_unit_descends,
    validate_algebroid,
)
from . import build, io

__all__ = [
    "AlgebroidData", "ComoduleData", "Cor22Input", "Cor22Report",
    "DegreeCertificate", "FreenessFailed", "GradedAlgebra", "GradedMap",
    "GradedSpace", "HopfData", "HypothesisFailed", "InvalidStructure",
    "IsoFailed", "MMSplit", "MalformedStructure", "NotConnected",
    "NotSurjective", "Primitives", "RightUnitReport", "SplitFailed",
    "TensorSpace", "Violation", "Witnesses",
    "build", "cor22_pipeline", "identity_map", "io", "k_space",
    "mm_split", "pair_apply", "primitives", "right_unit_descends",
    "validate_algebra", "validate_algebroid", "validate_comodule",
    "validate_hopf", "zero_map",
]
