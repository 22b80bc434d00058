"""Sobolev-type orthonormal polynomials and Jacobi-matrix factorizations.

Library surface: build a :class:`SobolevSpec` (base measure plus mass-point
data), derive the scalar ledgers and the banded matrix chain through
:class:`MatrixSuite`, and verify the factorization identities with
:func:`verify_propositions`.  The :mod:`sobspec.oracle` module carries an
exact-rational reference suite for Laguerre measures with a nonnegative
integer alpha and a mass point c < 0, up to ``oracle.MAX_ROWS`` rows.
"""

from .core import (
    DEFAULT_PRECISION,
    MeasureSpec,
    PolyJet,
    RecurrenceTable,
    SobolevSpec,
    eval_jet,
    monic_value,
    orthonormal_value,
)
from .christoffel import ChristoffelLedger, eval_iterated
from .kernels import KernelTable, kernel_at, kernel_dy_at_c
from .matrices import (
    BandedMatrix,
    MatrixSuite,
    ResidualReport,
    build_H,
    build_jacobi,
    build_T,
    cholesky_shifted,
    commute_cholesky,
    orthogonality_defect,
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
    "PolyJet",
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
    "eval_iterated",
    "eval_jet",
    "eval_sobolev",
    "kernel_at",
    "kernel_dy_at_c",
    "monic_value",
    "orthogonality_defect",
    "orthonormal_value",
    "qr_pair",
    "verify_propositions",
]
