"""Bit pins of the recurrence table, the kernel table and the two ledgers,
and of the pointwise evaluators built on them.

Each digest is the SHA-256 of the ``_mpf_`` tuples of every mpf field, in
field order, so a change that moves any bit of any field fails here, also
where no output file shows the field (the kernel table's sums, its jets).
The grid: four configurations, one of them right of the support, at the
ledger sizes ``MatrixSuite.build`` uses for sizes 6, 20 and 100 with guard 4,
at 64, 256 and 1024 bits.  A deliberate revision of the arithmetic
re-records them.
"""

import dataclasses
import hashlib
from fractions import Fraction as F

import pytest

from helpers import reflected_laguerre
from sobspec.christoffel import ChristoffelLedger, eval_iterated
from sobspec.core import MeasureSpec
from sobspec.kernels import KernelTable, kernel_at, kernel_dy_at_c
from sobspec.sobolev import SobolevLedger, eval_sobolev


#: name -> (measure of ``size`` coefficients, c, M, N)
CONFIGS = {
    "a0": (lambda size: MeasureSpec.laguerre(0), F(-1), F(1), F(1)),
    "a5/2": (lambda size: MeasureSpec.laguerre(2.5), F(-1, 4), F(0), F(3)),
    "a1": (lambda size: MeasureSpec.laguerre(1), F(-3, 2), F(1, 2), F(0)),
    "reflected": (reflected_laguerre, F(3, 2), F(1, 2), F(2)),
}


def ledgers(name, size, precision, guard=4):
    """The Sobolev ledger ``MatrixSuite.build`` makes for ``size`` and ``guard``."""
    measure, c, M, N = CONFIGS[name]
    nb = size + guard
    rec = measure(nb + 5).recurrence(nb + 5, precision)
    chris = ChristoffelLedger.build(KernelTable.build(rec, c), nb + 2)
    return SobolevLedger.build(chris, M, N, nb + 2)


def mpf_fields(obj):
    """name -> the ``_mpf_`` tuples of every mpf field of a table or ledger
    (a jet table by rows); links to earlier stages and ints are left out."""
    out = {}
    for field in dataclasses.fields(obj):
        value = getattr(obj, field.name)
        if hasattr(value, "_mpf_"):
            out[field.name] = value._mpf_
        elif isinstance(value, tuple):
            out[field.name] = [tuple(v._mpf_ for v in row) if isinstance(row, tuple)
                               else row._mpf_ for row in value]
    return out


def digest(values):
    return hashlib.sha256(repr(values).encode()).hexdigest()


def ledger_digest(sob):
    kt = sob.chris.kt
    return digest([mpf_fields(x) for x in (kt.rec, kt, sob.chris, sob)])


#: "<config> <size> <bits>" -> digest, recorded before the ledgers ran on tuples.
LEDGER_DIGESTS = {
    "a0 6 64": "df427735906d295464ffeef8810192401a88be50ad6362c64790a0ffae710672",
    "a0 6 256": "a8e124db2d28510906b32a2061ea5dddef5b1e2c1f0649799ea77f195e878a06",
    "a0 6 1024": "fb8ad1835466decc40595157cce816b85f32545dfe5e07a153f7012d53315f3e",
    "a0 20 64": "b5187ef515948e4c937e883cd6b3094c2e15f74e3ae9ec85d43645be045bcb13",
    "a0 20 256": "137b8e8c73a4ca80c2a95cdc12e4cf73df582cd3398d9580d23124fd6a54c711",
    "a0 20 1024": "38a5fc3568061138f727d406c529c3f680e544df08673efc684a1251b7cc5501",
    "a0 100 64": "a75644e8364cd0b1d68d0a3cf21d18cf264c0674dc6362de59bd527992f7ca01",
    "a0 100 256": "ccf8318d7dd00778dc3e517cca1849ee0f2e674d3f7e5c45157bf30bd442dbfb",
    "a0 100 1024": "eb879ef186b3d2b2083b43557366d80d1208bef8b4b09f01bf71c9affd2741de",
    "a5/2 6 64": "e8d54b0a8eeca6e84215deb067989856f5593b48c4b6b2444dd5d5aebd098923",
    "a5/2 6 256": "b896adf4e2c47059bb173515aadaf37ed7775a45b79525a7836e5600ddd319df",
    "a5/2 6 1024": "069b7260c0d079e10efbc3aced258e5e0dd4b8e3b6fa8071f07e2c625aea4560",
    "a5/2 20 64": "773255c3dbd72e25f264946807cb7c18e5fa596a22ed1add1a1e784907e9f675",
    "a5/2 20 256": "9e0081aaa624af54ed4470bdbdf74480461757759132c73e26b90d4b0ba9d3cf",
    "a5/2 20 1024": "7f9831edcb9764d37a3970eb822e4c8e257c2e325b10c6e8152dc5c2b5fca933",
    "a5/2 100 64": "fe42cf769ae69a83edeb53559932e45d96182e68781973a0eb5fdca19d8c0d1e",
    "a5/2 100 256": "75c414b3d26ca11c70c621938096818044b1533bc77639f524e3d5a92bda8ba7",
    "a5/2 100 1024": "1a12a950e9c1e60e3fdba814122bf8751976ffca4b3aed7273df439c72d1b3c9",
    "a1 6 64": "266d341eae4191d1a622485aa41778848e63a19baf083a4257a5bb4321a40b6e",
    "a1 6 256": "0775d3e67f5d31312ededff62412862f1c0104c828bd76892c9ab8a10041e7b4",
    "a1 6 1024": "79c324ae4957f32f2cf0c9aafec96bbbeb9abd2852db6cfb8621f0b79c0ddeba",
    "a1 20 64": "5fabebd80b25a87ba6a9b1680380132a5261e3cc3f92fdb8160db35f784232f6",
    "a1 20 256": "8c777777f48d04d7e003bc95adc491f146a961c03764b8e0f755fb2e3df4b6e4",
    "a1 20 1024": "93a0cd4f3c7b0fd43576d78ac40d66daebc676c45f5694cbc101303ac1cce30d",
    "a1 100 64": "46efab63f77837cb475edadee596045a7986af436a926c67027d69e55d2c5117",
    "a1 100 256": "70258ba664912b00c8eb21470d363d28f44ce1d9b7500381c49d2d110225b29d",
    "a1 100 1024": "2c5b44dd71c3cfabbcbc53f49981f6c901fe9a82ac5218b20833d79c5fc8fb47",
    "reflected 6 64": "c228659eece302801df31f3cfd5dd8a1f92dc073527a2df8517894f7580bfcea",
    "reflected 6 256": "719cdc46448fedec175bad845e67a06c738e7b8c463883a672a2097fadded670",
    "reflected 6 1024": "88a5b80f3a77a481bf7dceb9277fe16f564930ecb887b0f4281076977ffc1c3d",
    "reflected 20 64": "5adbb75aeeb588b18c78bb09c6dea57469c24ac0cc1d9c8f23dee5f1b56189f5",
    "reflected 20 256": "174f4725328395ede55a51f4b16e4420bf73b05ab6b0d4554809839399fcc162",
    "reflected 20 1024": "99a9e0c0a306a93ad96f2f4800df4725f8a4187999409bfba40eee19d4859c05",
    "reflected 100 64": "e3c6860650aded6f47be60cb1bf92d06e4d5a0dd405a1fe4832be50338e09b65",
    "reflected 100 256": "0f8e057fffa28fce920cd030151f560a91fed301f277f4b4aa23b1af24b89721",
    "reflected 100 1024": "6c48d0d54205e3ff50c5e3f4fdd3bd4a8307508ce8558c9a4e3faf03d68ae1ae",
}

GRID = [(name, size, precision) for name in CONFIGS for size in (6, 20, 100)
        for precision in (64, 256, 1024)]


@pytest.mark.parametrize("name, size, precision", GRID,
                         ids=[f"{n}-{s}-{p}" for n, s, p in GRID])
def test_ledger_fields_are_bit_identical(name, size, precision):
    key = f"{name} {size} {precision}"
    assert ledger_digest(ledgers(name, size, precision)) == LEDGER_DIGESTS[key]


#: Points, as offsets from c, where the pointwise values are pinned: c itself,
#: near it, and out to the far side of the support's start.
OFFSETS = [F(0), F(1, 10 ** 7), F(1, 3), F(7, 2), F(311, 10)]
DEGREES = [0, 1, 5, 17]


def pointwise_values(name, precision):
    """The ``_mpf_`` of every pointwise evaluator over ``DEGREES`` x ``OFFSETS``."""
    sob = ledgers(name, 20, precision)
    chris, rec, c = sob.chris, sob.chris.kt.rec, CONFIGS[name][1]
    rows = []
    for n in DEGREES:
        for offset in OFFSETS:
            x = c + offset if name != "reflected" else c - offset
            values = (kernel_at(rec, n, x, c), kernel_at(rec, n, x, c + 2),
                      kernel_dy_at_c(rec, n, x, c), eval_iterated(chris, n, x, k=1),
                      eval_iterated(chris, n, x), eval_sobolev(sob, n, x),
                      eval_sobolev(sob, n, x, normalized=True))
            rows.append([v._mpf_ for v in values])
    return rows


#: "<config> <bits>" -> digest of ``pointwise_values``, recorded before the
#: evaluators read the jets at c from the kernel table.
POINTWISE_DIGESTS = {
    "a0 64": "d13080f33a1b71c6ec62dac669a395e928456128edafbefcc4cfdff59020b92a",
    "a0 256": "cd91cea57abdcf8a159405a3184a2d2c9071018fc68c6266c5e8276f2c80a2a8",
    "a0 1024": "c3dc2e3803595e7ec7926a0e7970549964cf2fca1aa3fa986e62e49eadec75ce",
    "reflected 64": "e692916c95d3507c550adfe6e3c9553c133a62478447871444b4a7b4fee56fd9",
    "reflected 256": "57970c81f3b95f3fe8559c2bc06a3e4b82e82db0f7fa90d9a20d6dd49463d62e",
    "reflected 1024": "4f14130b298c0aeb0d45d892b217db2584553fd59c151273f669c4fcabb078b8",
}


@pytest.mark.parametrize("name", ["a0", "reflected"])
@pytest.mark.parametrize("precision", [64, 256, 1024])
def test_pointwise_values_are_bit_identical(name, precision):
    assert digest(pointwise_values(name, precision)) == POINTWISE_DIGESTS[f"{name} {precision}"]
