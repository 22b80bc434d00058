#!/usr/bin/env python3
"""Regenerate the shipped reference fixture for the worked Laguerre example
(alpha = 0, c = -1, M = N = 1).

Each entry below is transcribed from the published tables as
coef * sqrt(radicand); the fixture stores the squared rational and the sign.
Before writing, every entry must equal the pipeline's at ``EXACT``
(``MatrixSuite.build(spec, 6, guard=2, precision=EXACT)``), so a
transcription slip cannot reach the repository silently.
"""

import json
import sys
from fractions import Fraction as F
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from sobspec.core import EXACT, MeasureSpec, SobolevSpec, SqrtRational  # noqa: E402
from sobspec.golden import computed_counterparts  # noqa: E402
from sobspec.matrices import MatrixSuite  # noqa: E402

OUT = Path(__file__).resolve().parents[1] / "src" / "sobspec" / "data" / "laguerre_a0_cm1_M1_N1.json"


def ent(coef, radicand=1):
    """coef * sqrt(radicand) as an exact (coef, radicand) pair."""
    return F(coef), F(radicand)


Z = ent(0)

# fmt: off
J = [
    [ent(1), ent(1), Z, Z, Z, Z],
    [ent(1), ent(3), ent(2), Z, Z, Z],
    [Z, ent(2), ent(5), ent(3), Z, Z],
    [Z, Z, ent(3), ent(7), ent(4), Z],
    [Z, Z, Z, ent(4), ent(9), ent(5)],
    [Z, Z, Z, Z, ent(5), ent(11)],
]

L = [
    [ent(1, 2), Z, Z, Z, Z],
    [ent(1, F(1, 2)), ent(1, F(7, 2)), Z, Z, Z],
    [Z, ent(2, F(2, 7)), ent(1, F(34, 7)), Z, Z],
    [Z, Z, ent(3, F(7, 34)), ent(1, F(209, 34)), Z],
    [Z, Z, Z, ent(4, F(34, 209)), ent(1, F(1546, 209))],
]

J1 = [
    [ent(F(3, 2)), ent(F(1, 2), 7), Z, Z, Z],
    [ent(F(1, 2), 7), ent(F(51, 14)), ent(F(4, 7), 17), Z, Z],
    [Z, ent(F(4, 7), 17), ent(F(1359, 238)), ent(F(3, 34), 1463), Z],
    [Z, Z, ent(F(3, 34), 1463), ent(F(55071, 7106)), ent(F(8, 209), 13141)],
    [Z, Z, Z, ent(F(8, 209), 13141), ent(F(3159027, 323114))],
]

L1 = [
    [ent(1, F(5, 2)), Z, Z, Z, Z],
    [ent(1, F(7, 10)), ent(1, F(138, 35)), Z, Z, Z],
    [Z, ent(2, F(170, 483)), ent(1, F(12439, 2346)), Z, Z],
    [Z, Z, ent(3, F(14421, 60418)), ent(1, F(2451842, 371393)), Z],
    [Z, Z, Z, ent(4, F(2747242, 15071617)), ent(1, F(876324669, 111486698))],
]

J2 = [
    [ent(F(11, 5)), ent(F(1, 5), 69), Z, Z, Z],
    [ent(F(1, 5), 69), ent(F(1501, 345)), ent(F(2, 69), 8885), Z, Z],
    [Z, ent(F(2, 69), 8885), ent(F(790903, 122613)), ent(F(3, 1777), 4975797), Z],
    [Z, Z, ent(F(3, 1777), 4975797), ent(F(1091564609, 128144801)), ent(F(4, 72113), 7450856157)],
    [Z, Z, Z, ent(F(4, 72113), 7450856157), ent(F(3195035811691, 302365554333))],
]

Q = [
    [ent(2, F(1, 5)), ent(-7, F(1, 345)), ent(68, F(1, 122613)),
     ent(-1254, F(1, 128144801)), ent(12368, F(3, 100788518111))],
    [ent(1, F(1, 5)), ent(14, F(1, 345)), ent(-136, F(1, 122613)),
     ent(2508, F(1, 128144801)), ent(-24736, F(3, 100788518111))],
    # The published table prints the (2,2) entry with a minus sign; that sign
    # contradicts the orthogonality of the printed columns (col1 . col2 =
    # -0.73) and the printed product identity Q R = J - cI (row 2, col 2 gives
    # -0.9 instead of 6).  The positive sign satisfies both.
    [Z, ent(2, F(5, 69)), ent(238, F(1, 122613)),
     ent(-4389, F(1, 128144801)), ent(43288, F(3, 100788518111))],
    [Z, Z, ent(3, F(69, 1777)),
     ent(7106, F(1, 128144801)), ent(-210256, F(1, 302365554333))],
    [Z, Z, Z, ent(4, F(1777, 72113)), ent(323114, F(1, 302365554333))],
]

R = [
    [ent(1, 5), ent(6, F(1, 5)), ent(2, F(1, 5)), Z, Z],
    [Z, ent(1, F(69, 5)), ent(88, F(1, 345)), ent(2, F(15, 23)), Z],
    [Z, Z, ent(1, F(1777, 69)), ent(790, F(3, 40871)), ent(12, F(69, 1777))],
    [Z, Z, Z, ent(1, F(72113, 1777)), ent(99504, F(1, 128144801))],
    [Z, Z, Z, Z, ent(1, F(4192941, 72113))],
]

T = [
    [ent(1, F(5, 2)), Z, Z, Z, Z],
    [ent(F(11, 2), F(1, 5)), ent(F(1, 2), F(69, 5)), Z, Z, Z],
    [ent(F(1, 2), F(89, 5)), ent(F(1601, 2), F(1, 30705)), ent(4, F(1777, 6141)), Z, Z],
    [Z, ent(5, F(7141, 12282)), ent(2911082, F(2, 389632847685)), ent(6, F(346922, 1714805)), Z],
    [Z, Z, ent(1, F(1841621937, 63447785)),
     ent(2555758506, F(1, 89202693674855485)), ent(12, F(4046188065, 52019147177))],
]

H = [
    [ent(F(5, 2)), ent(F(11, 2), F(1, 2)), ent(F(1, 2), F(89, 2)), Z, Z],
    [ent(F(11, 2), F(1, 2)), ent(F(19, 2)), ent(129, F(1, 89)), ent(F(1, 2), F(35705, 178)), Z],
    [ent(F(1, 2), F(89, 2)), ent(129, F(1, 89)), ent(F(5331, 178)),
     ent(F(1503493, 178), F(1, 71410)), ent(4, F(26690173, 3177745))],
    [Z, ent(F(1, 2), F(35705, 178)), ent(F(1503493, 178), F(1, 71410)),
     ent(F(415128273, 6355490)), ent(F(72140663342, 35705), F(2, 2375425397))],
    [Z, Z, ent(4, F(26690173, 3177745)), ent(F(72140663342, 35705), F(2, 2375425397)),
     ent(F(108116532681297, 952972626965))],
]

J2_shift_sq = [
    [ent(13), ent(118, F(1, 69)), ent(2, F(1777, 345)), Z, Z],
    [ent(118, F(1, 69)), ent(F(2681, 69)), ent(F(227476, 69), F(1, 8885)),
     ent(2, F(1081695, 40871)), Z],
    [ent(2, F(1777, 345)), ent(F(227476, 69), F(1, 8885)), ent(F(9460213, 122613)),
     ent(F(84432374, 1777), F(3, 1658599)), ent(36, F(32145881, 128144801))],
    [Z, ent(2, F(1081695, 40871)), ent(F(84432374, 1777), F(3, 1658599)),
     ent(F(16364422385, 128144801)), ent(F(628405520264, 72113), F(1, 7450856157))],
    [Z, Z, ent(36, F(32145881, 128144801)), ent(F(628405520264, 72113), F(1, 7450856157)),
     ent(F(57572534044081, 302365554333))],
]
# fmt: on

TABLES = {
    "J": J, "L": L, "J1": J1, "L1": L1, "J2": J2,
    "Q": Q, "R": R, "T": T, "H": H, "J2_shift_sq": J2_shift_sq,
}


def exact_entries(rows):
    """(i, j) -> each transcribed coef * sqrt(radicand), exactly, row by row."""
    return {(i, j): SqrtRational((coef > 0) - (coef < 0), coef * coef * radicand)
            for i, row in enumerate(rows) for j, (coef, radicand) in enumerate(row)}


def validate():
    spec = SobolevSpec(MeasureSpec.laguerre(0), c=-1, M=1, N=1)
    computed = computed_counterparts(MatrixSuite.build(spec, 6, guard=2, precision=EXACT))
    for name, rows in TABLES.items():
        for (i, j), ref in exact_entries(rows).items():
            got = computed[name].entry(i, j)
            if got != ref:
                raise SystemExit(
                    f"transcription mismatch {name}[{i}][{j}]: table sign {ref.sign}, "
                    f"square {ref.square} vs computed sign {got.sign}, square {got.square}")
    print(f"validated {sum(len(r) * len(r[0]) for r in TABLES.values())} entries exactly")


def main():
    validate()
    lines = [
        "{",
        '"description": "Reference tables for the worked example: Laguerre weight, '
        "alpha = 0, mass point c = -1, M = N = 1. Entries are stored as "
        '[i, j, num, den, sign] with value = sign * sqrt(num/den).",',
        '"config": {"family": "laguerre", "alpha": 0, "c": -1, "M": 1, "N": 1},',
        '"matrices": {',
    ]
    for mi, (name, rows) in enumerate(TABLES.items()):
        lines.append(f'"{name}": {{"nrows": {len(rows)}, "ncols": {len(rows[0])}, "entries": [')
        entries = [[i, j, e.square.numerator, e.square.denominator, e.sign]
                   for (i, j), e in exact_entries(rows).items()]
        for k, e in enumerate(entries):
            comma = "," if k + 1 < len(entries) else ""
            lines.append(json.dumps(e) + comma)
        lines.append("]}" + ("," if mi + 1 < len(TABLES) else ""))
    lines += ["}", "}"]
    OUT.write_text("\n".join(lines) + "\n")
    json.loads(OUT.read_text())
    print(f"wrote {OUT}")


if __name__ == "__main__":
    main()
