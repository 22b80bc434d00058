"""Bit pins of the recurrence table, the kernel table and the two ledgers,
of the ten matrices of the chain and their residuals, and of the pointwise
evaluator :func:`sobspec.sobolev.eval_sobolev`.

Each digest is the SHA-256 of the ``_mpf_`` tuples of every value field, in
field order, so a change that moves any bit of any field fails here, also
where no output file shows the field (the kernel table's sums, its jets).
The grid: four configurations, one of them right of the support, at the
ledger sizes ``MatrixSuite.build`` uses for sizes 6, 20 and 100 with guard 4,
at 64, 256 and 1024 bits; the matrices are those of ``MatrixSuite.build``
at those sizes.  A deliberate revision of the arithmetic re-records them.
"""

import dataclasses
import hashlib
from fractions import Fraction as F

import pytest

from helpers import reflected_laguerre
from sobspec.christoffel import ChristoffelLedger
from sobspec.core import MeasureSpec, SobolevSpec
from sobspec.kernels import KernelTable
from sobspec.matrices import MatrixSuite, verify_propositions
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
    """name -> the ``_mpf_`` tuples of every value field of a table or ledger:
    the raw values of a tuple field as stored (a jet table by rows), and the
    ``_mpf_`` of an mpf input (c, M, N); links to earlier stages and ints are
    left out."""
    out = {}
    for field in dataclasses.fields(obj):
        value = getattr(obj, field.name)
        if hasattr(value, "_mpf_"):
            out[field.name] = value._mpf_
        elif isinstance(value, tuple):
            out[field.name] = list(value)
    return out


def digest(values):
    return hashlib.sha256(repr(values).encode()).hexdigest()


def sobolev_fields(sob):
    """``mpf_fields`` of a Sobolev ledger, its auxiliary coefficients after
    its stored fields, as they are written to ``ledgers.json``."""
    return {**mpf_fields(sob), **mpf_fields(sob.auxiliary())}


def ledger_digest(sob):
    kt = sob.chris.kt
    return digest([mpf_fields(x) for x in (kt.rec, kt, sob.chris)] + [sobolev_fields(sob)])


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


def matrix_values(name, size, precision, guard=4):
    """The ``_mpf_`` of every band entry of the suite's ten matrices, Q
    included, row-major, and of each residual of ``verify_propositions``."""
    measure, c, M, N = CONFIGS[name]
    spec = SobolevSpec(measure(size + guard + 5), c, M, N)
    suite = MatrixSuite.build(spec, size, guard=guard, precision=precision)
    matrices = {**suite.named_matrices(), "J2_direct": suite.J2_direct}
    return ([(key, [(i, j, v._mpf_) for i, j, v in m.band_entries()])
             for key, m in sorted(matrices.items())]
            + [(key, res._mpf_, block) for key, res, block in
               verify_propositions(suite).as_rows()])


#: "<config> <size> <bits>" -> digest of ``matrix_values``, recorded on the
#: code whose ledgers and matrices still held mpf objects.
MATRIX_DIGESTS = {
    "a0 6 64": "9953fdb5e6d7f222e1c1b428d7d90f9c22611f57ba19703572dd29d3ca13d4af",
    "a0 6 256": "1c32249e6816d5c69296832350688680857d10ea821cb67a634e91403a8f307b",
    "a0 6 1024": "48bd27b6725f2a23fe53f9c8a1748c21bf341dc69fed2e5e3a078cc9f481ccbd",
    "a0 20 64": "d4b21a9f498c22cddb1c4fc628d59ba5b52cd0a3adf5154c6683b7617e5e2a69",
    "a0 20 256": "072ae423cf672ef9a6a75681478fae2a74cb4c0f8b19497392869553ca4e9d33",
    "a0 20 1024": "af4cb2cb905ac01282abf74dc2562920289928778935cd17d02281b32d0decdb",
    "a0 100 64": "8f2695aa4ecef0c873a6eb4fe6e190bab97132b9628d9b6d48df81ef5bb1fcc0",
    "a0 100 256": "eb9a32b47505f86e730dc662ea204f6802b14dfc288d45b1228eb94d692ac56b",
    "a0 100 1024": "def314c767370c440728f77a01c2bb166848091157ff5166e15497da038037d9",
    "a5/2 6 64": "dd6385261c5ff246c4a5ea0de037b3446e6ea079f4ec7b2e2ade33b8ef30608c",
    "a5/2 6 256": "5131967ab33177ba2aaa492c07ca50af3372abd07a80c003076f87b3c043b893",
    "a5/2 6 1024": "61d6681456249ea68657896fd6dd62229f865968043d88bd581a3298ebd4c3f8",
    "a5/2 20 64": "eaeee25e87df43d89fffbc0624c78a45de98ecf9ee9e989fd6ad87f0cdbc8033",
    "a5/2 20 256": "ca3bf425a1df9dec06b1950c395df49fa74fd4a481108d873f674a0a6a72b9ce",
    "a5/2 20 1024": "b5bdb51e54b590232e7001df8a6a17e87b0e718911e2f63844e4b8dede4c1557",
    "a5/2 100 64": "7a2c5c4c77cbdf561b60160d347e569a7bac29ff96d5f57650bad5fd2e5f71e8",
    "a5/2 100 256": "bf862fce38834ec2bf23c1becf51111a89f4765b4bb0ae0e5e23c5f1e6347f35",
    "a5/2 100 1024": "5accaed40d357a998905e63836f20b24c9336a6d851a70a5e72087a5256d145e",
    "a1 6 64": "fb6bf969564fcd519b6c608ac40c88a7ff82d15b53be0e363e3da8898080827e",
    "a1 6 256": "8275301ed41bbcbc53bbbf2a78a538e027a05ba2327da3b6def12650445f4419",
    "a1 6 1024": "71b5c1f8799cfaf99cbb65d51e51deb1cb1cf3255ef032fb894424fafa3c53a7",
    "a1 20 64": "1d519218ef62feac41f9de1c31069d09f7332e22afae8f6a20def70049df82e6",
    "a1 20 256": "8c3d62fbc5e330929c59506a20f4823d9f854013f0af0389807036027c0f8993",
    "a1 20 1024": "101f45adec8d27f7af4bac93932e6f3b7d93a84947a2b89eda0266fe091c3e32",
    "a1 100 64": "93fc1af91f73b83b317e0ff42707e8447f16e0f8e2f198e73124797a91c6ca85",
    "a1 100 256": "b88cd81b13f1cdac0e453250d02a60e2a8c8414888eaf2f295dc736ecb318549",
    "a1 100 1024": "91ac63dec9970ee6300c41b8099bc84ba601eeb105ebf2ef05384b180e0057ea",
    "reflected 6 64": "c587f836b95b50b8c25a99d300e370c381c493bbeddb602f2728b31d4aa95c40",
    "reflected 6 256": "c50b71a23739e1540fa8c879312bbb484a9a4da5b681902fd87cb726710aeae1",
    "reflected 6 1024": "580bac5c0a9b0c5cb2d74d99755d55ea49eee3c41b4fa9825b99f5855afd0ff2",
    "reflected 20 64": "81db9b53599bf6f99262245d24bea09759eff24e9e3314b21e87f889bc16e7ee",
    "reflected 20 256": "c09811e97fceca402f56a7d7c7f5668b238986c2c4d34b2413d6e30902df9d9e",
    "reflected 20 1024": "eabfef472bfa1cfb710a6185550b5e395c2ba430bb4b2d5138b1e1db0ac92e4d",
    "reflected 100 64": "f0d7a524ec10ec27f6d60a164a95560be299b10b88d894462b04ee50c61d5bf8",
    "reflected 100 256": "e81f3c41d5139ed387d71204d01d0aa1fb0755d491f53476de37420be0f62a72",
    "reflected 100 1024": "1bf30ea871a258d2200f206d731e6c94b6e9142b6433b09542104b053524f78e",
}


@pytest.mark.parametrize("name, size, precision", GRID,
                         ids=[f"{n}-{s}-{p}" for n, s, p in GRID])
def test_matrices_and_residuals_are_bit_identical(name, size, precision):
    key = f"{name} {size} {precision}"
    assert digest(matrix_values(name, size, precision)) == MATRIX_DIGESTS[key]


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
