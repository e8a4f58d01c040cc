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

from . import decompositions, errors, geninv, io, markov, product, tensor, transform
from .decompositions import *  # noqa: F403
from .errors import *  # noqa: F403
from .geninv import *  # noqa: F403
from .io import *  # noqa: F403
from .markov import *  # noqa: F403
from .product import *  # noqa: F403
from .tensor import *  # noqa: F403
from .transform import *  # noqa: F403

__version__ = "0.1.0"

__all__ = [
    "__version__",
    *tensor.__all__,
    *transform.__all__,
    *product.__all__,
    *decompositions.__all__,
    *geninv.__all__,
    *markov.__all__,
    *io.__all__,
    *errors.__all__,
]
