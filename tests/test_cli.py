"""CLI contract: commands, exit codes, file formats, round-trips."""

import json

import mpmath as mp
import pytest
from click.testing import CliRunner

from helpers import TOL30, rel
from sobspec.cli import main
from sobspec.matrices import multiply
from sobspec.serialize import csv_entries, matrix_from_json, matrix_to_json


BAD_TOLERANCES = ["--tolerance=abc", "--tolerance=-1", "--tolerance=0",
                  "--tolerance=nan", "--tolerance=inf"]


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

    @pytest.mark.parametrize("option", ["--c=-inf", "--c=nan", "--M=inf", "--N=inf",
                                        "--alpha=inf", "--c=abc", *BAD_TOLERANCES])
    def test_non_finite_parameter_exit_code(self, runner, tmp_path, option):
        result = runner.invoke(main, ["verify", "--size", "6", option,
                                      "--out", str(tmp_path)])
        assert result.exit_code == 2, result.output
        assert not (tmp_path / "verification.json").exists()

    def test_low_precision_breaches_tolerance_but_writes_report(self, runner, tmp_path):
        result = runner.invoke(
            main,
            ["verify", "--size", "12", "--precision", "64", "--out", str(tmp_path)],
        )
        assert result.exit_code == 4
        report = json.loads((tmp_path / "verification.json").read_text())
        assert report["pass"] is False

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
