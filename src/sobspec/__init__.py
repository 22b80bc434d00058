"""Sobolev-type orthonormal polynomials and Jacobi-matrix factorizations.

Library surface: build a :class:`SobolevSpec` (base measure plus mass-point
data), derive the scalar ledgers and the banded matrix chain through
:class:`MatrixSuite`, and verify the factorization identities with
:func:`verify_propositions`.  At ``precision=EXACT`` (``sobspec.core``) the
same pipeline runs over exact signed square roots of rationals.  The
:mod:`sobspec.oracle` module carries an independent exact-rational
reference suite for Laguerre measures with a nonnegative integer alpha and a
mass point c < 0, up to ``oracle.MAX_ROWS`` rows, by its own Gram/LDL^T
route over the package's recurrence and jets at ``EXACT``.
"""

from .core import (
    DEFAULT_PRECISION,
    MeasureSpec,
    RecurrenceTable,
    SobolevSpec,
    eval_jet,
)
from .christoffel import ChristoffelLedger
from .kernels import KernelTable
from .matrices import (
    BandedMatrix,
    MatrixSuite,
    ResidualReport,
    build_H,
    build_jacobi,
    build_T,
    cholesky_shifted,
    commute_cholesky,
    qr_pair,
    verify_propositions,
)
from .sobolev import SobolevLedger, eval_sobolev
from .errors import (
    DegeneratePointError,
    InternalConsistencyError,
    InvalidParameterError,
    NotPositiveDefiniteError,
    NumericalFailureError,
    OracleUnsupportedError,
    SobspecError,
)

__version__ = "0.1.0"

__all__ = [
    "BandedMatrix",
    "ChristoffelLedger",
    "DEFAULT_PRECISION",
    "DegeneratePointError",
    "InternalConsistencyError",
    "InvalidParameterError",
    "KernelTable",
    "MatrixSuite",
    "MeasureSpec",
    "NotPositiveDefiniteError",
    "NumericalFailureError",
    "OracleUnsupportedError",
    "RecurrenceTable",
    "ResidualReport",
    "SobolevLedger",
    "SobolevSpec",
    "SobspecError",
    "build_H",
    "build_jacobi",
    "build_T",
    "cholesky_shifted",
    "commute_cholesky",
    "eval_jet",
    "eval_sobolev",
    "qr_pair",
    "verify_propositions",
]
