"""Tensor algebra under the C-product.

Third-order tensors multiply through a cosine-transform family: a linear
map L mixes the tube fibers, the transformed frontal slices multiply
facewise, and the inverse map returns to storage.  On top of that product
the package provides factorizations (SVD, QR, Schur, full-rank, QDR, and a
block form built from the SVD), Moore-Penrose / Drazin / group inverses and
the inverse along a tensor (each by several independent routes), ergodic
projectors of tensor transition chains, and a deterministic text format
with a CLI.
"""

from .decompositions import (
    CFullRank,
    CHs,
    CQdr,
    CQr,
    CSchur,
    CSvd,
    c_full_rank,
    c_hs,
    c_qdr,
    c_qr,
    c_schur,
    c_svd,
)
from .errors import (
    BlockDiagonalizationFailure,
    CtError,
    DimsMismatch,
    IndexTooLarge,
    InvalidAlpha,
    NonConvergence,
    NotInMatImage,
    NotInvertibleAlong,
    NotStochastic,
    ParseError,
    RankMismatch,
    ShapeMismatch,
    SingularSlice,
    SplitOutOfRange,
)
from .geninv import (
    AlongMethod,
    CoreNilpotentParts,
    DrazinMethod,
    GenInvResult,
    MpMethod,
    check_along,
    check_drazin,
    check_penrose,
    core_nilpotent_parts,
    drazin_inverse,
    group_inverse,
    inverse_along,
    mp_inverse,
    tensor_index,
)
from .io import format_float, parse_tensor_file, write_tensor_file
from .markov import (
    ErgodicReport,
    EstimatorKind,
    StochasticMode,
    TransitionTensor,
    ergodic_projector,
    is_regular,
    limit_estimate,
    transition_from_transform_slices,
    validate_transition,
)
from .product import (
    StructureKind,
    conj_transpose,
    cprod,
    facewise_product,
    identity_tensor,
    is_symmetric,
    is_unitary,
    structure_of,
    tensor_inverse,
    tensor_power,
)
from .tensor import (
    BlockPartition2x2,
    Tensor3,
    block_compose,
    block_split,
    max_abs_diff,
    mode3_fold,
    mode3_product,
    mode3_unfold,
)
from .transform import (
    TransformContext,
    block_diag_oracle,
    build_context,
    dct_matrix,
    from_transform,
    mat_embed,
    ten_extract,
    tensor_from_transform_slices,
    to_transform,
    transform_slices,
    upshift_matrix,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # tensors and blocks
    "Tensor3",
    "BlockPartition2x2",
    "block_split",
    "block_compose",
    "mode3_unfold",
    "mode3_fold",
    "mode3_product",
    "max_abs_diff",
    # transform and embeddings
    "TransformContext",
    "build_context",
    "dct_matrix",
    "upshift_matrix",
    "to_transform",
    "from_transform",
    "transform_slices",
    "tensor_from_transform_slices",
    "mat_embed",
    "ten_extract",
    "block_diag_oracle",
    # product layer
    "cprod",
    "facewise_product",
    "identity_tensor",
    "conj_transpose",
    "tensor_inverse",
    "tensor_power",
    "is_unitary",
    "is_symmetric",
    "structure_of",
    "StructureKind",
    # decompositions
    "CSvd",
    "CQr",
    "CSchur",
    "CFullRank",
    "CQdr",
    "CHs",
    "CoreNilpotentParts",
    "c_svd",
    "c_qr",
    "c_schur",
    "c_full_rank",
    "c_qdr",
    "c_hs",
    "core_nilpotent_parts",
    # generalized inverses
    "MpMethod",
    "DrazinMethod",
    "AlongMethod",
    "GenInvResult",
    "mp_inverse",
    "tensor_index",
    "drazin_inverse",
    "group_inverse",
    "inverse_along",
    "check_penrose",
    "check_drazin",
    "check_along",
    # markov chains
    "StochasticMode",
    "EstimatorKind",
    "TransitionTensor",
    "ErgodicReport",
    "validate_transition",
    "transition_from_transform_slices",
    "ergodic_projector",
    "limit_estimate",
    "is_regular",
    # file io
    "format_float",
    "parse_tensor_file",
    "write_tensor_file",
    # errors
    "CtError",
    "ShapeMismatch",
    "SplitOutOfRange",
    "NotInMatImage",
    "BlockDiagonalizationFailure",
    "NonConvergence",
    "RankMismatch",
    "SingularSlice",
    "IndexTooLarge",
    "NotInvertibleAlong",
    "NotStochastic",
    "InvalidAlpha",
    "ParseError",
    "DimsMismatch",
]
