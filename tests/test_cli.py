"""CLI contract: commands, exit codes, file formats, round-trips."""

import hashlib
import json
from fractions import Fraction as F

import mpmath as mp
import pytest
from click.testing import CliRunner

from helpers import TOL30, rel
from sobspec.cli import main
from sobspec.core import MeasureSpec, SobolevSpec
from sobspec.errors import InvalidParameterError
from sobspec.matrices import MatrixSuite, build_jacobi, multiply, verify_propositions
from sobspec.serialize import ledgers_to_doc, matrix_from_json, matrix_to_json
from test_oracle import cached_oracle


#: Literals that are not rational numbers: each must exit 2 in every command
#: that takes the option, never reach a float parser or raise a traceback.
BAD_LITERALS = ["abc", "1/0", "1/-3", "1 / 3", "1/ 3", "1 /3", "1_0", "1_0/3", "inf", "Inf",
                "-inf", "nan"]
BAD_TOLERANCES = [f"--tolerance={t}" for t in ["-1", "0", *BAD_LITERALS]]


@pytest.fixture()
def runner():
    return CliRunner()


def run_generate(runner, tmp_path, *extra):
    args = ["generate", "--size", "6", "--guard", "3", "--out", str(tmp_path), *extra]
    return runner.invoke(main, args)


class TestGenerate:
    def test_writes_all_matrix_files(self, runner, tmp_path):
        result = run_generate(runner, tmp_path)
        assert result.exit_code == 0, result.output
        for name in ("J", "J1", "J2", "L", "L1", "Q", "R", "T", "H"):
            assert (tmp_path / f"{name}.json").exists()
        assert (tmp_path / "ledgers.json").exists()
        assert (tmp_path / "run.json").exists()

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_reports_the_files_it_wrote(self, runner, tmp_path, fmt):
        result = run_generate(runner, tmp_path, "--format", fmt)
        assert result.exit_code == 0, result.output
        assert result.output == f"wrote {len(list(tmp_path.iterdir()))} files to {tmp_path}\n"

    def test_h_leading_entry(self, runner, tmp_path):
        run_generate(runner, tmp_path)
        doc = json.loads((tmp_path / "H.json").read_text())
        value = [v for i, j, v in doc["entries"] if (i, j) == (0, 0)][0]
        with mp.workprec(256):
            assert rel(mp.mpf(value), mp.mpf(5) / 2) <= TOL30
        exact = [e for e in doc["entries_exact"] if (e[0], e[1]) == (0, 0)][0]
        assert exact[2:] == [25, 4, 1]

    def test_matrix_files_carry_exact_size(self, runner, tmp_path):
        run_generate(runner, tmp_path)
        for name in ("J", "Q", "H"):
            doc = json.loads((tmp_path / f"{name}.json").read_text())
            assert "exact_size" in doc and doc["exact_size"] >= 6

    def test_default_run_carries_entries_exact(self, runner, tmp_path):
        # 8 rows + 4 guard rows lie within the oracle's reach; 26 + 4 do not.
        for size, attached in (("8", True), ("26", False)):
            out = tmp_path / size
            result = runner.invoke(main, ["generate", "--size", size, "--out", str(out)])
            assert result.exit_code == 0, result.output
            for name in ("J", "J1", "J2", "L", "L1", "Q", "R", "T", "H"):
                doc = json.loads((out / f"{name}.json").read_text())
                assert ("entries_exact" in doc) == attached

    def test_exact_entries_past_the_int_to_str_limit_are_left_out(self, runner, tmp_path):
        # The oracle covers this run, but some exact squares of this 70-digit
        # mass point have more than 4,300 digits, which json.loads cannot read.
        c = "-0.4749952525594461092483435261195537215397431083592451959264847564696"
        result = runner.invoke(main, ["generate", "--alpha=1", f"--c={c}", "--M=1/2", "--N=0",
                                      "--precision", "64", "--size", "10", "--out", str(tmp_path)])
        assert result.exit_code == 0, result.output
        files = sorted(tmp_path.iterdir())
        assert len(files) == 11
        for path in files:
            assert "entries_exact" not in json.loads(path.read_text()), path.name

    @pytest.mark.parametrize("extra", [["--M", "0"], ["--N", "0"],
                                       ["--alpha", "2", "--c", "-1/1000000", "--N", "3"],
                                       ["--size", "25", "--guard", "4", "--precision", "64"]],
                             ids=["M=0", "N=0", "near-support", "29-rows"])
    def test_entries_exact_are_the_oracle_entries(self, runner, tmp_path, extra):
        # entries_exact comes from MatrixSuite.build at EXACT; the oracle
        # reaches J1, J2, T and H by its own Gram route.
        result = runner.invoke(main, ["generate", *extra, "--out", str(tmp_path)])
        assert result.exit_code == 0, result.output
        run = json.loads((tmp_path / "run.json").read_text())
        oracle = cached_oracle(*(F(run[k]) for k in ("alpha", "c", "M", "N")),
                               run["size"] + run["guard"]).matrices
        for name in ("J", "J1", "J2", "L", "L1", "Q", "R", "T", "H"):
            doc = json.loads((tmp_path / f"{name}.json").read_text())
            assert [e[:2] for e in doc["entries_exact"]] == [e[:2] for e in doc["entries"]]
            for i, j, num, den, sign in doc["entries_exact"]:
                assert (sign, F(num, den)) == (oracle[name][i][j].sign,
                                               oracle[name][i][j].square), (name, i, j)

    def test_no_entries_exact_for_a_non_integer_alpha(self, runner, tmp_path):
        # Past the cap and past the int-str limit are the two tests above.
        result = run_generate(runner, tmp_path, "--alpha", "1/2")
        assert result.exit_code == 0, result.output
        for path in tmp_path.glob("*.json"):
            assert "entries_exact" not in json.loads(path.read_text()), path.name

    def test_invalid_alpha_exit_code(self, runner, tmp_path):
        result = run_generate(runner, tmp_path, "--alpha", "-2")
        assert result.exit_code == 2

    def test_mass_point_inside_support_exit_code(self, runner, tmp_path):
        result = run_generate(runner, tmp_path, "--c", "1")
        assert result.exit_code == 2

    def test_unparsable_size_exit_code(self, runner, tmp_path):
        result = run_generate(runner, tmp_path, "--size", "abc")
        assert result.exit_code == 2

    def test_unknown_measure_exit_code(self, runner, tmp_path):
        result = run_generate(runner, tmp_path, "--measure", "hermite")
        assert result.exit_code == 2

    def test_zero_masses_reduce_H(self, runner, tmp_path):
        result = run_generate(runner, tmp_path, "--M", "0", "--N", "0")
        assert result.exit_code == 0
        _, J = matrix_from_json((tmp_path / "J.json").read_text())
        _, H = matrix_from_json((tmp_path / "H.json").read_text())
        shifted = J.shifted(1)
        sq = multiply(shifted, shifted)
        with mp.workprec(256):
            for i in range(6):
                for j in range(6):
                    assert rel(H.entry(i, j), sq.entry(i, j)) <= TOL30

    def test_determinism_byte_identical(self, runner, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        r1 = runner.invoke(main, ["generate", "--size", "5", "--out", str(out1)])
        r2 = runner.invoke(main, ["generate", "--size", "5", "--out", str(out2)])
        assert r1.exit_code == r2.exit_code == 0
        for f1 in sorted(out1.iterdir()):
            assert f1.read_bytes() == (out2 / f1.name).read_bytes()

    def test_csv_format(self, runner, tmp_path):
        result = run_generate(runner, tmp_path, "--format", "csv")
        assert result.exit_code == 0
        text = (tmp_path / "H.csv").read_text()
        assert text.splitlines()[0] == "i,j,value"
        assert (tmp_path / "ledger_sobolev.csv").exists()

    def test_env_var_override(self, runner, tmp_path):
        result = runner.invoke(
            main, ["generate", "--out", str(tmp_path)],
            env={"SOBSPEC_SIZE": "5", "SOBSPEC_GUARD": "3"},
        )
        assert result.exit_code == 0, result.output
        run = json.loads((tmp_path / "run.json").read_text())
        assert run["size"] == 5 and run["guard"] == 3


def csv_entries(text):
    """(i, j, value string) of each row of a matrix CSV file."""
    out = []
    for line in text.strip().splitlines()[1:]:
        i, j, s = line.split(",")
        out.append((int(i), int(j), s))
    return out


class TestRoundTrip:
    def test_json_matrix_round_trip(self, runner, tmp_path):
        run_generate(runner, tmp_path)
        text = (tmp_path / "J2.json").read_text()
        name, matrix = matrix_from_json(text)
        again = matrix_to_json(name, matrix)
        doc_a, doc_b = json.loads(text), json.loads(again)
        assert doc_b["entries"] == doc_a["entries"]
        for key in ("nrows", "ncols", "lower_bw", "upper_bw", "exact_size"):
            assert doc_b[key] == doc_a[key]

    def test_json_entries_are_placed_by_position(self):
        # Laguerre: J(1, 1) = beta_1 = 3 and J(2, 2) = beta_2 = 5.
        text = matrix_to_json("J", build_jacobi(MeasureSpec.laguerre(0).recurrence(5), 4))
        doc = json.loads(text)
        at = {(i, j): n for n, (i, j, _) in enumerate(doc["entries"])}
        entries = doc["entries"]
        entries[at[1, 1]], entries[at[2, 2]] = entries[at[2, 2]], entries[at[1, 1]]
        _, J = matrix_from_json(json.dumps(doc))
        assert (J.entry(1, 1), J.entry(2, 2)) == (3, 5)
        assert matrix_to_json("J", J) == text

    @pytest.mark.parametrize("fault", ["missing", "twice", "no ncols", "value", "precision",
                                       "not a triple", "lower_bw", "upper_bw", "exact_size",
                                       "number value", "float index", "bool index",
                                       "not json"])
    def test_json_faults_are_invalid_parameters(self, fault):
        # a band past the shape is declared on a 1x1 matrix, all of whose
        # entries are given, so only the declared widths are at fault
        J = build_jacobi(MeasureSpec.laguerre(0).recurrence(5), 1 if fault.endswith("_bw") else 4)
        doc = json.loads(matrix_to_json("J", J))
        text = None
        if fault == "missing":
            doc["entries"].pop(3)
        elif fault == "twice":
            doc["entries"].append(doc["entries"][3])
        elif fault == "no ncols":
            del doc["ncols"]
        elif fault == "value":
            doc["entries"][3][2] = "three"
        elif fault == "precision":
            doc["precision"] = "64"
        elif fault == "not a triple":
            doc["entries"][0] = doc["entries"][0][:2]
        elif fault.endswith("_bw"):
            doc[fault] = 10 ** 5
        elif fault == "exact_size":
            doc[fault] = doc["nrows"] + 1
        elif fault == "number value":
            doc["entries"][3][2] = float(doc["entries"][3][2])
        elif fault == "float index":
            doc["entries"][0][0] = float(doc["entries"][0][0])
        elif fault == "bool index":
            doc["entries"][0][:2] = [False, False]
        else:
            text = "{"
        with pytest.raises(InvalidParameterError):
            matrix_from_json(text or json.dumps(doc))

    def test_csv_round_trip(self, runner, tmp_path):
        run_generate(runner, tmp_path, "--format", "csv")
        text = (tmp_path / "Q.csv").read_text()
        entries = csv_entries(text)
        again = "i,j,value\n" + "\n".join(f"{i},{j},{s}" for i, j, s in entries) + "\n"
        assert again == text


class TestVerify:
    def test_default_config_passes(self, runner, tmp_path):
        result = runner.invoke(main, ["verify", "--size", "8", "--out", str(tmp_path)])
        assert result.exit_code == 0, result.output
        report = json.loads((tmp_path / "verification.json").read_text())
        assert report["pass"] is True
        assert len(report["residuals"]) == 10
        assert "tolerance" not in report and report["config"]["tolerance"] == "1e-30"

    def test_echoes_residuals_past_the_int_to_str_limit(self, runner, tmp_path):
        # at 15000 bits a residual's mantissa has more than Python's 4300
        # decimal digits; the echo shows 8 digits of it all the same
        result = runner.invoke(main, ["verify", "--size", "3", "--precision", "15000",
                                      "--out", str(tmp_path)])
        assert result.exit_code == 0, result.output
        lines = result.output.splitlines()
        assert len(lines) == 11 and lines[-1] == "all residuals within 1e-30"
        report = json.loads((tmp_path / "verification.json").read_text())
        for line, row in zip(lines, report["residuals"]):
            assert line.startswith(row["name"])
            echoed = line.split("residual=")[1]
            assert echoed == "0.0" or echoed.split("e")[1] == row["residual"].split("e")[1]

    @pytest.mark.parametrize("option", [
        *(f"--{name}={text}" for name in ("alpha", "c", "M", "N") for text in BAD_LITERALS),
        *BAD_TOLERANCES])
    def test_non_finite_parameter_exit_code(self, runner, tmp_path, option):
        result = runner.invoke(main, ["verify", "--size", "6", option,
                                      "--out", str(tmp_path)])
        assert result.exit_code == 2, result.output
        assert not (tmp_path / "verification.json").exists()
        if not option.startswith("--tolerance"):
            assert result.output == f"error: cannot parse number {option.split('=')[1]!r}\n"

    def test_low_precision_breaches_tolerance_but_writes_report(self, runner, tmp_path):
        result = runner.invoke(
            main,
            ["verify", "--size", "12", "--precision", "64", "--out", str(tmp_path)],
        )
        assert result.exit_code == 4
        report = json.loads((tmp_path / "verification.json").read_text())
        assert report["pass"] is False

    def test_breach_message_states_the_loss_and_the_bits_needed(self, runner, tmp_path):
        # A correct build at the documented minimum of 64 bits cannot reach
        # the 1e-30 default; the message says what the run lost and how many
        # bits the tolerance needs (107 is the first precision that passes).
        result = runner.invoke(
            main, ["verify", "--size", "30", "--precision", "64", "--out", str(tmp_path)])
        assert result.exit_code == 4
        assert result.output.splitlines()[-1] == (
            "error: max residual 6.22240714771184360783e-18 exceeds 1e-30; the residuals "
            "lose 6.8 bits at 64 bits, so this tolerance needs about 107 bits")

    def test_loose_tolerance_rescues_low_precision(self, runner, tmp_path):
        result = runner.invoke(
            main,
            ["verify", "--size", "12", "--precision", "64",
             "--tolerance", "1e-8", "--out", str(tmp_path)],
        )
        assert result.exit_code == 0, result.output


class TestReproducePaper:
    def test_full_reproduction(self, runner):
        result = runner.invoke(main, ["reproduce-paper"])
        assert result.exit_code == 0, result.output
        assert "all reference entries reproduced" in result.output
        for name in ("J ", "H ", "J2_shift_sq"):
            assert name in result.output

    @pytest.mark.parametrize("option", BAD_TOLERANCES)
    def test_invalid_tolerance_exit_code(self, runner, option):
        result = runner.invoke(main, ["reproduce-paper", option])
        assert result.exit_code == 2, result.output
        assert "tolerance must be finite and > 0" in result.output

    def test_reports_per_matrix_counts(self, runner):
        result = runner.invoke(main, ["reproduce-paper"])
        assert "exact 36/36" in result.output  # the 6x6 block
        assert result.output.count("float 25/25") == 9


OPTIONS_HELP = """\
Options:
  --measure TEXT       Base measure family.  [default: laguerre]
  --alpha TEXT         Laguerre exponent, > -1.  [default: 0]
  --c TEXT             Mass point, outside the support.  [default: -1]
  --M TEXT             Mass on function values at c.  [default: 1]
  --N TEXT             Mass on derivative values at c.  [default: 1]
  --size INTEGER       Reported truncation size (>= 3).  [default: 8]
  --precision INTEGER  Working precision in bits (>= 64).  [default: 256]
  --guard INTEGER      Guard rows built beyond the size (>= 2).  [default: 4]
  --out TEXT           Output directory.  [default: sobspec-out]
  --format [json|csv]  Matrix and ledger file format.  [default: json]
  --help               Show this message and exit.
"""

TOLERANCE_HELP = """\
  --tolerance TEXT     Residual tolerance for verification.  [default: 1e-30]
"""

# command -> (help line, options help); generate takes every option but --tolerance.
HELP = {
    "generate": ("Write all chain matrices and scalar ledgers to the output directory.",
                 OPTIONS_HELP),
    "verify": ("Run the factorization-identity residual suite; exit 4 on a breach.",
               OPTIONS_HELP.replace("  --help", TOLERANCE_HELP + "  --help")),
}

REPRODUCE_HELP = """\
Usage: main reproduce-paper [OPTIONS]

  Compare computed matrices against the published reference tables.

Options:
  --precision INTEGER  Floating-path precision in bits.  [default: 256]
  --tolerance TEXT     Floating-path relative tolerance.  [default: 1e-30]
  --help               Show this message and exit.
"""

SPEC_ARGS = ["--alpha", "5/2", "--c", "-0.75", "--M", "0", "--N", "1/3",
             "--precision", "64"]

RUN_JSON = """\
{
 "command": "generate",
 "measure": "laguerre",
 "alpha": "5/2",
 "c": "-3/4",
 "M": "0",
 "N": "1/3",
 "size": 8,
 "precision": 64,
 "guard": 4,
 "format": "json"
}
"""

# Small fast runs; each case below overrides one variable on top of these.
ENV_BASE = {"SOBSPEC_SIZE": "3", "SOBSPEC_GUARD": "2", "SOBSPEC_PRECISION": "64",
            "SOBSPEC_TOLERANCE": "1e-8"}

# SOBSPEC_<variable>, its value, and the run-document key and value it yields.
ENV_RECORDED = [
    ("ALPHA", "2", "alpha", "2"),
    ("C", "-0.5", "c", "-1/2"),
    ("M", "3", "M", "3"),
    ("N", "2", "N", "2"),
    ("SIZE", "4", "size", 4),
    ("PRECISION", "128", "precision", 128),
    ("GUARD", "3", "guard", 3),
    ("FORMAT", "csv", "format", "csv"),
    ("TOLERANCE", "1e-9", "tolerance", "1e-9"),
]

# Each case for both commands but TOLERANCE, which only verify takes.
ENV_CASES = [pytest.param(command, *case, id="-".join(map(str, (*case, command))))
             for case in ENV_RECORDED for command in ("generate", "verify")
             if command == "verify" or case[0] != "TOLERANCE"]


def run_document(outdir, command):
    if command == "generate":
        return json.loads((outdir / "run.json").read_text())
    return json.loads((outdir / "verification.json").read_text())["config"]


class TestOptionContract:
    @pytest.mark.parametrize("command", ["generate", "verify"])
    def test_help_text(self, runner, command):
        result = runner.invoke(main, [command, "--help"])
        assert result.exit_code == 0
        line, options = HELP[command]
        assert result.output == f"Usage: main {command} [OPTIONS]\n\n  {line}\n\n{options}"

    def test_reproduce_paper_help_text(self, runner):
        result = runner.invoke(main, ["reproduce-paper", "--help"])
        assert result.exit_code == 0
        assert result.output == REPRODUCE_HELP

    def test_run_json_byte_for_byte(self, runner, tmp_path):
        result = runner.invoke(main, ["generate", *SPEC_ARGS, "--out", str(tmp_path)])
        assert result.exit_code == 0, result.output
        assert (tmp_path / "run.json").read_text() == RUN_JSON

    def test_verification_config_is_the_run_document(self, runner, tmp_path):
        result = runner.invoke(main, ["verify", *SPEC_ARGS, "--out", str(tmp_path)])
        assert result.exit_code == 4  # 64 bits cannot meet the 1e-30 default
        expected = {**json.loads(RUN_JSON), "command": "verify", "tolerance": "1e-30"}
        assert run_document(tmp_path, "verify") == expected

    @pytest.mark.parametrize("command, variable, value, key, recorded", ENV_CASES)
    def test_env_var_reaches_option(self, runner, tmp_path, command, variable,
                                    value, key, recorded):
        env = {**ENV_BASE, "SOBSPEC_OUT": str(tmp_path), f"SOBSPEC_{variable}": value}
        result = runner.invoke(main, [command], env=env)
        assert result.exit_code == 0, result.output
        assert run_document(tmp_path, command)[key] == recorded

    @pytest.mark.parametrize("command", ["generate", "verify"])
    def test_env_out_reaches_option(self, runner, tmp_path, command):
        env = {**ENV_BASE, "SOBSPEC_OUT": str(tmp_path / "env-out")}
        result = runner.invoke(main, [command], env=env)
        assert result.exit_code == 0, result.output
        assert run_document(tmp_path / "env-out", command)["size"] == 3

    @pytest.mark.parametrize("command", ["generate", "verify"])
    def test_env_measure_reaches_option(self, runner, tmp_path, command):
        env = {**ENV_BASE, "SOBSPEC_OUT": str(tmp_path), "SOBSPEC_MEASURE": "hermite"}
        result = runner.invoke(main, [command], env=env)
        assert result.exit_code == 2
        assert "got 'hermite'" in result.output

    def test_generate_takes_no_tolerance(self, runner, tmp_path):
        result = runner.invoke(main, ["generate", "--tolerance", "1e-3", "--out", str(tmp_path)])
        assert result.exit_code == 2
        assert "No such option '--tolerance'" in result.output
        assert not (tmp_path / "run.json").exists()

    @pytest.mark.parametrize("variable, value, message", [
        ("PRECISION", "32", "precision must be an integer >= 64 bits, got 32"),
        ("TOLERANCE", "0", "tolerance must be finite and > 0, got '0'"),
    ])
    def test_env_var_reaches_reproduce_paper(self, runner, variable, value, message):
        result = runner.invoke(main, ["reproduce-paper"], env={f"SOBSPEC_{variable}": value})
        assert result.exit_code == 2
        assert result.output == f"error: {message}\n"

    def test_validation_order(self, runner, tmp_path):
        # The four numbers in order, then the tolerance, then the measure.
        faults = ["--measure", "jacobi", "--tolerance", "0", "--N", "abc"]
        expected = [
            (["--c", "xyz"], "error: cannot parse number 'xyz'\n"),
            ([], "error: cannot parse number 'abc'\n"),
        ]
        for extra, message in expected:
            result = runner.invoke(main, ["verify", *faults, *extra, "--out", str(tmp_path)])
            assert (result.exit_code, result.output) == (2, message)
        result = runner.invoke(main, ["verify", *faults[:4], "--out", str(tmp_path)])
        assert (result.exit_code, result.output) == (
            2, "error: tolerance must be finite and > 0, got '0'\n")


# SHA-256 of every file each run writes: the default ``generate``, the same in
# CSV, the three ``verify`` runs of ``VERIFY_RUNS``, and a reflected custom
# measure (support (-inf, 0], c = 1) serialized through ``matrix_to_json`` and
# ``ledgers_to_doc``.  ``reflected residuals`` pins the (name, _mpf_, block)
# rows of that suite's ``verify_propositions``.  A deliberate revision of the
# output re-records them.
OUTPUT_DIGESTS = {
    "json": {
        "H.json": "ac7d04acb8e457266a33dd025f0ff7acac85a5515c1d396cc3414896c801484f",
        "J.json": "ba8d66c069dfd50a947602de996d7cbe0fe24039d8b084c133736dfd5cc79327",
        "J1.json": "09439f9b226c2434c68c8f5f3abadb53174157f4c3adf9d082bfe5f34fd186e1",
        "J2.json": "ce1428731a812fa6413b451a3c0b9bb8f3f78d6c960d23af4c8264098a809acb",
        "L.json": "0ebdb64711a7a6a414b842f25e6d03291f436916762c5436dbe21f6468646373",
        "L1.json": "1e7b342010d3e4da7ba68a4ab834f31574c4b2fd54e7f0335b341cf836598c02",
        "Q.json": "d53f67b707e9c6cb9c7ffb33425cc98c1fb107c76e6922931e52549b480c7758",
        "R.json": "bf27816ed4f467399614937b4f4eedd1d1ea3126ca3cc4b8b8cbb7536493474b",
        "T.json": "f1802423ef4f700ffa484a8b3476ff831c403dfd530b3b1180ad0196bb4c5a36",
        "ledgers.json": "829fe4cb380374405ba5805ca75369d4a9f960ebede188b602ac4a4261fd1002",
        "run.json": "079388b666a245f0769c331bbe379ef7a6cf263cd653981ea7f2beb9420daa00",
    },
    "csv": {
        "H.csv": "4ad1ff460a2f549acd0005d0236ba540d591537eaf9b16aa9240d365f0b2830e",
        "J.csv": "88b6bc75a4df0a940c416df7bd06993292ae1db6e692ba00b7dc1b4c97cbf8fa",
        "J1.csv": "3e1e3aa41ac494d68fe4e26ea6a1de6bcdaf120e2003099a1f45b008a8d6437c",
        "J2.csv": "b9badd02a292db68320921a1e94daedcc59499c8a24c8f12aea30e0029a29725",
        "L.csv": "69733c19f54a806a52b7b245ac7ce90bfb42418ad1b9f40194ce3292b37a26d7",
        "L1.csv": "0f1707e9a81180e7721cc9a5491becf2d381cfadfcdc261a262b2ddfe0762ab8",
        "Q.csv": "93e609b03e40873c09a525bd6706a44a3784e6d3a8f20baf025f3c9653c73aab",
        "R.csv": "da533f63e6bdef1babeee472c628eb46117e13a3df4213ebd2a8f57ba9974a31",
        "T.csv": "5a9311fd71b5b62f5f673a86927a691e33bd5c894743d5ed90eb374e21b06f96",
        "ledger_christoffel.csv": "76ef2827a0f26cf07720515578a0e5bfdfae1f2879d77282553f31d2a34b433a",
        "ledger_recurrence.csv": "5bb8eb2eb90eee19668a3235cb09d6ca762f99939587d321965051c4e8ec0dcd",
        "ledger_sobolev.csv": "d5316093281bd7885ef255bb86a26c6a8022fd1744a7fd3f50ffb9ebc26793f4",
        "run.json": "d366abb5a17066bd25570df862bc62ea653d5c9a4505a30ce61a89a1ca618620",
    },
    "reflected": {
        "H.json": "5cd64ad70ec2430df981355b9de84c43c2077ec8ca65ee35d6b62caf0ec9213d",
        "J.json": "f02074dd46e45de2a6fc7fe5f86e7747eafa91a5f90f2e0a6e52ec06e9674aff",
        "J1.json": "6c45a05c4a687dc4852d7660471a5765d75b2cbea4f93f48e6be0107fcaacaac",
        "J2.json": "f10feaf8ba8d143dd6522784e66a97980ff501821cadc0c89c29c33c771020ba",
        "L.json": "567d11768e15dc4c6d0fe3fe3ea03d3fd27b189c7c912597eae7fdccb0d97990",
        "L1.json": "4c38b644f91c89406d4896136ee885981fd6e5777f2ab039b2b81a483ace53b3",
        "Q.json": "bb519cb365f20baa65adcf83d751aba48e5630c597d53dfa079087277127a3a8",
        "R.json": "0947e90ef6690b59e619b4221670fa99761b7e949a25026498e493df24e09b27",
        "T.json": "9e9a91963638cad10b2647d95c1f2e9154f39a89ab8f4c562565b9e121056bae",
        "ledgers.json": "7b8ac5b85872d106cb5fbda0df6750df77244c02dcdf7a16536ce15dc2008abd",
    },
    "verify": {
        "verification.json": "085bd0a63e252e8ade1058e93b4448d151392ac003b0b9542f006674e85d5198",
    },
    "verify 60 1024": {
        "verification.json": "51020a9ad6d7478e660ab1ba9b40ebb38cf7388866e6f64a05f5fe02c2d43022",
    },
    "verify 30 64": {
        "verification.json": "4581791a26d59849748862d5a0c4eed15eca646fd253ef83889ccce6a6175d8a",
    },
    "reflected residuals": {
        "rows": "f3c4fc882c1891a150ce2c31babe278d3c01788f8b9f33d5d72041ed8cf08487",
    },
}

#: kind -> (extra ``verify`` arguments, exit code); the last breaches 1e-30.
VERIFY_RUNS = {
    "verify": ([], 0),
    "verify 60 1024": (["--size", "60", "--precision", "1024", "--alpha", "5/2"], 0),
    "verify 30 64": (["--size", "30", "--precision", "64"], 4),
}


def reflected_suite():
    rows = 8 + 4 + 5
    measure = MeasureSpec.custom([-(2 * n + 1) for n in range(rows)],
                                 [n * n for n in range(rows)], (float("-inf"), 0.0))
    return MatrixSuite.build(SobolevSpec(measure, c=1, M=1, N=1), 8)


def write_reflected(outdir):
    suite = reflected_suite()
    for name, matrix in suite.named_matrices().items():
        (outdir / f"{name}.json").write_text(matrix_to_json(name, matrix))
    (outdir / "ledgers.json").write_text(json.dumps(ledgers_to_doc(suite), indent=1) + "\n")


class TestOutputDigests:
    @pytest.mark.parametrize("kind", ["json", "csv", "reflected", *VERIFY_RUNS])
    def test_output_is_byte_identical(self, runner, tmp_path, kind):
        if kind == "reflected":
            write_reflected(tmp_path)
        elif kind in VERIFY_RUNS:
            extra, code = VERIFY_RUNS[kind]
            result = runner.invoke(main, ["verify", *extra, "--out", str(tmp_path)])
            assert result.exit_code == code, result.output
        else:
            result = runner.invoke(main, ["generate", "--format", kind, "--out", str(tmp_path)])
            assert result.exit_code == 0, result.output
        digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
                   for p in sorted(tmp_path.iterdir())}
        assert digests == OUTPUT_DIGESTS[kind]

    def test_reflected_residual_rows_are_bit_identical(self):
        rows = [(name, tuple(map(int, res._mpf_)), block)
                for name, res, block in verify_propositions(reflected_suite()).as_rows()]
        digest = hashlib.sha256(repr(rows).encode()).hexdigest()
        assert {"rows": digest} == OUTPUT_DIGESTS["reflected residuals"]
