"""Tensor-train linear algebra with rank-adaptive alternating solvers.

The package provides the TT (matrix product state) format for vectors and
operators, SVD-based rounding, QTT quantization, a rank-adaptive AMEn linear
solver with three residual-enrichment strategies, one-site ALS and two-site
DMRG baselines, benchmark problem generators, and numeric diagnostics of the
convergence theory.  Each module's ``__all__`` is its part of the package's
names.
"""

from .amen import *
from .diagnostics import *
from .io import *
from .problems import *
from .tt import *

__version__ = "0.1.0"
