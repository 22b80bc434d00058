import mpmath as mp
import pytest

from sobspec.christoffel import ChristoffelLedger
from sobspec.core import MeasureSpec, SobolevSpec
from sobspec.kernels import KernelTable
from sobspec.sobolev import SobolevLedger

# Reference arithmetic inside the tests themselves (sums, differences against
# frozen values) must not round at double precision; the library manages its
# own working precision regardless of this setting.
mp.mp.prec = 320


@pytest.fixture(scope="session")
def rec():
    return MeasureSpec.laguerre(0).recurrence(30)


@pytest.fixture(scope="session")
def kt(rec):
    return KernelTable.build(rec, -1)


@pytest.fixture(scope="session")
def chris(kt):
    return ChristoffelLedger.build(kt, 27)


@pytest.fixture(scope="session")
def spec():
    return SobolevSpec(MeasureSpec.laguerre(0), c=-1, M=1, N=1)


@pytest.fixture(scope="session")
def sob(chris, spec):
    return SobolevLedger.build(chris, spec.M, spec.N, 27)
