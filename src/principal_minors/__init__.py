"""Exact computations with principal minors of symmetric matrices.

Core objects: binary multi-indices and dense length-2^n minor vectors,
the principal-minor map, sparse polynomials in the tensor coordinates
X^I with their weight/lowering structure, Cayley's 2x2x2
hyperdeterminant and the degree-4 module it spans, and membership /
reconstruction procedures deciding whether a vector is realizable as
principal minors.
"""

from .indices import BinaryIndex, MinorVector, all_indices, cardinality, complement
from .matrices import SingularMatrixError, SymmetricMatrix, det_exact
from .minor_map import minor_vector, principal_minor, reversed_minors, tensor_product
from .polynomials import (
    GroupElement,
    TensorPolynomial,
    act,
    act_point,
    augment,
    evaluate,
    is_highest_weight,
    linear_subspace_vanishes,
    lower,
    polarize_eval,
    raise_,
    split_by_top_variable,
    weight_of,
)
from .rep_theory import (
    IsotypicSummand,
    Partition,
    character,
    decompose_symmetric_power,
    identify_isotypic,
    invariant_dim,
    lower_to_lowest,
    sl2_dim,
    weight_basis,
)
from .hyperdet import BasisEntry, ModuleBasis, cayley_hyperdet, hd_basis, hd_dimension
from .membership import (
    MembershipReport,
    SignFlipProfile,
    is_member,
    reconstruct,
    sign_flip_profile,
)

__all__ = [
    "BinaryIndex",
    "MinorVector",
    "SymmetricMatrix",
    "SingularMatrixError",
    "TensorPolynomial",
    "GroupElement",
    "Partition",
    "IsotypicSummand",
    "BasisEntry",
    "ModuleBasis",
    "MembershipReport",
    "SignFlipProfile",
    "all_indices",
    "cardinality",
    "complement",
    "det_exact",
    "principal_minor",
    "minor_vector",
    "tensor_product",
    "reversed_minors",
    "evaluate",
    "weight_of",
    "lower",
    "raise_",
    "act",
    "act_point",
    "augment",
    "is_highest_weight",
    "polarize_eval",
    "linear_subspace_vanishes",
    "split_by_top_variable",
    "character",
    "invariant_dim",
    "decompose_symmetric_power",
    "sl2_dim",
    "identify_isotypic",
    "lower_to_lowest",
    "weight_basis",
    "cayley_hyperdet",
    "hd_dimension",
    "hd_basis",
    "is_member",
    "reconstruct",
    "sign_flip_profile",
]
