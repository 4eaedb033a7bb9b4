"""Alternative Hermitian structures on finite-dimensional spaces.

Construct admissible (metric, complex structure, symplectic form)
triples, complexify them into Hermitian forms, compute the connecting
operator between two forms, classify and sample the bi-unitary group,
and decompose the space into spectral fibers on which the two forms are
proportional.

The package exports each module's public names, as declared in that
module's ``__all__``.
"""

from .connecting import *  # noqa: F403
from .decomposition import *  # noqa: F403
from .errors import *  # noqa: F403
from .forms import *  # noqa: F403
from .spectral import *  # noqa: F403
from .triples import *  # noqa: F403

__version__ = "0.1.0"
