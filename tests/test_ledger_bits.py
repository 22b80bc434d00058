"""Bit pins of the recurrence table, the kernel table and the two ledgers,
and of the pointwise evaluator :func:`sobspec.sobolev.eval_sobolev`.

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
from sobspec.christoffel import ChristoffelLedger
from sobspec.core import MeasureSpec
from sobspec.kernels import KernelTable
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


#: "<config> <size> <bits>" -> digest.  Recorded before the ledgers ran on
#: tuples; re-recorded when the jets at c dropped from order 2 to order 1, by
#: the earlier code with each ``cjets`` row cut to its first two entries.
LEDGER_DIGESTS = {
    "a0 6 64": "f5fb756b81d9b9d065c8319299346154134f4d1b7d06a7fc383f0f65379f6583",
    "a0 6 256": "fd6d5e6d0cff51abd5e374a75cf20eed81885197d7e2b0c48c3ff8badba74999",
    "a0 6 1024": "43a036c6c4f09b66b387cf823ef0f03dd36df5caa74b578d540c166af383fa9f",
    "a0 20 64": "58dcefade69ed8e0cc4ff2fe515bc24a177b00fb17ceb9b1d99d81099293fa92",
    "a0 20 256": "62912635b2e111619151a9a3f3d746443c574387d820a44a3a3038882b2931fc",
    "a0 20 1024": "07dbd81dd187299f9e1095e582eac0afc7b476fd39ee54983364f6257da46391",
    "a0 100 64": "29168366b7abcc011ff8f43f638e5d223ef202612d465b745a86d37cd2b5b5a1",
    "a0 100 256": "10a6e55b5800139914b18ffdcdd88bc97f1f9f7fc1b9d437917733b273466eb9",
    "a0 100 1024": "46002dc09110b30c14269bd22f7d9c2800e512d42c85377a509566c51940bf89",
    "a5/2 6 64": "14c6f3f4360e7d7af7082bf567ef4533676b5b34c8b4f409ab56b6fe1110d4af",
    "a5/2 6 256": "e8ad42a98158d69080d25f36912e2cf2884dba99a0db85062f2e2e19094afcf0",
    "a5/2 6 1024": "27a47d26d6fb86a5ce20127d3ee5a923fad9f34a2742f6cbaea159e63dbd19c9",
    "a5/2 20 64": "86e583d3d26d9aab457b7d68ddcc95752c8860b6fde1140e9eea7ca343f462b7",
    "a5/2 20 256": "1aec48262ef2852726cc1d91a47380c34a658f608943208fa6d36b438dfc0163",
    "a5/2 20 1024": "83897f6f6842f01a54d952845ac891cdb2e705003a37e035b0e80eefbefb9ad0",
    "a5/2 100 64": "14b20bd7dce7cc4c02d2d4fa9d9df547a06d25fecf03137e1008c6e8a7387154",
    "a5/2 100 256": "7eb5a64d5d9938ccdafd41bfccc3585fea610c5f7441ddee36d9124bbd546046",
    "a5/2 100 1024": "47cac5e1f7328dce5477d63f4af70a50081acf093796524fa30a53480b8892f2",
    "a1 6 64": "90e0f82bead43387eba340c79c9544aee369a192387e5ddacf3b08ab53313c29",
    "a1 6 256": "0accecec8a54af3f5592a46e68246fa2f5e81b79b4ada9878db1e58e77b68851",
    "a1 6 1024": "446615f9e5a765e95895fcfd5cb3aefb8a3963eb5e1a156f140809ff33321f6e",
    "a1 20 64": "b3defb9b30ef0e8eb4dfdddb03c6e2c7ae1b205e0984f0ea33aefafec88695d0",
    "a1 20 256": "e98912271888bc88ea207f301847aae73d310d9b91450cc60e817ed7515c421b",
    "a1 20 1024": "7d8821cba8ff6f6f9d81c8b19364b4a8127f0bcf3e4d6a1882662824df7096b2",
    "a1 100 64": "e240d98917de01313153985096f92f0e53db9a7b845cd6c56ef166e34d231ae2",
    "a1 100 256": "34f89ee79a80efe38ea4c2e5960d848cee2ae370e7a1ce92578e3a813fda519b",
    "a1 100 1024": "b57472dbe7314066d2c61252894a795ee8e86bdf175effcba6edd17b705fec16",
    "reflected 6 64": "96f9dc2e27095e63e0a5b6be4ba85b53a3253a54b4debe1dbed7fd97733b9004",
    "reflected 6 256": "080277d90de750cda9cb2c9aea933d4af35ffae4592d61687aec93c2f5559da8",
    "reflected 6 1024": "4512e2f047dd45d01c0052ee23fd31d333fdc422c740b11e06ef054043a978c6",
    "reflected 20 64": "028978e148fb46e637aefb8bdb6a985a8ab3c8359e639a9680f4d2e19829dbd8",
    "reflected 20 256": "8bb00b0b0ad377293e46ac0bf25969754374d1845924a7ab565c069b7090c556",
    "reflected 20 1024": "2b5d970e1bed68eba66cc74030458b9fcdb995ab6124e71a62c4f2b20fed2779",
    "reflected 100 64": "39fa9d8fda75dc53ad33cbc78e991e84d2de4b10215d842dd4b63178aea42a41",
    "reflected 100 256": "1f5dfead4836b12c79a300b5579aa52a75bbdebe93a2f18807fcffeff20d7755",
    "reflected 100 1024": "5d468f497b34da17710d746242386c2674a726c1110f80b0c07ddd7b94c129ef",
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
    """The ``_mpf_`` of S_n(x) and s_n(x) over ``DEGREES`` x ``OFFSETS``."""
    sob = ledgers(name, 20, precision)
    c = CONFIGS[name][1]
    rows = []
    for n in DEGREES:
        for offset in OFFSETS:
            x = c + offset if name != "reflected" else c - offset
            values = (eval_sobolev(sob, n, x), eval_sobolev(sob, n, x, normalized=True))
            rows.append([v._mpf_ for v in values])
    return rows


#: "<config> <bits>" -> digest of ``pointwise_values``, recorded on the code
#: before the other pointwise evaluators were deleted: eval_sobolev's bits did
#: not move with them.
POINTWISE_DIGESTS = {
    "a0 64": "564e3203d138ccea960496a45003d3bab661ee0f5d6f8b7b6cef085f11ad7635",
    "a0 256": "3110b82f395ab76039e46b63e6f7f825aca9909ff1e4a200c791b2fe29ac9a12",
    "a0 1024": "4dc9750c077cce235238e72bdf32d1f89ca2d51ccc6b5569a446f246c559de81",
    "reflected 64": "cc00b98507d7f6ab8b37b0a3590884a771ffd9fe9efc03e06e62aa775c346078",
    "reflected 256": "a2a77d2fe5c34a8bc5c634615306c71c05209fe0559f3387e22bbf07282e2386",
    "reflected 1024": "70057f2c4c9dd544d17181f0be0170a20030d0788200249e8d0f1a09d9b237ee",
}


@pytest.mark.parametrize("name", ["a0", "reflected"])
@pytest.mark.parametrize("precision", [64, 256, 1024])
def test_pointwise_values_are_bit_identical(name, precision):
    assert digest(pointwise_values(name, precision)) == POINTWISE_DIGESTS[f"{name} {precision}"]
