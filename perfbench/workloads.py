"""The benchmark's three workloads: seeded inputs, one timed op, its check.

Every workload is a closed loop with one client in one process: the next op
starts only after the previous one and its output check have finished.
Threads are left out on purpose (see README.md).  sobspec is imported lazily,
inside ``set_up``, so that the set-up probe can time the import.
"""

from __future__ import annotations

import hashlib
import io
import json
import random
import shutil
import subprocess
import sys
import tempfile
from contextlib import redirect_stdout
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
DIGESTS = HERE / "digests.json"

# c sits at one of these distances from the support edge 0; masses include 0.
MAGNITUDES = tuple(Fraction(v) for v in ("1/4", "1/2", "3/4", "1", "3/2", "2", "3"))
MASSES = tuple(Fraction(v) for v in ("0", "1/4", "1/2", "1", "3/2", "2", "3"))
ALPHAS = (Fraction(0), Fraction(1), Fraction(5, 2))
INTEGER_ALPHAS = (Fraction(0), Fraction(1))

# The pinned identity tolerance of the package's tests and CLI.
TOLERANCE = "1e-30"
# Rows the exact oracle reaches (its default degree cap of 12 monic degrees).
ORACLE_ROWS = 10


class CheckFailed(Exception):
    """An op's output did not pass its check."""


class Config:
    """One Sobolev configuration: base measure, mass point c, masses M and N.

    ``kind`` is "laguerre" (support [0, inf), c < 0) or "reflected", the
    reflected Laguerre recurrence beta_n = -(2n+1), gamma_n = n^2 on
    (-inf, 0] with c > 0, which threads the right-side sign through the
    chain.
    """

    def __init__(self, kind, alpha, c, M, N):
        self.kind, self.alpha, self.c, self.M, self.N = kind, alpha, c, M, N

    @classmethod
    def draw(cls, rng, index, alphas=ALPHAS):
        """Every third configuration (index 2 mod 3) is the reflected measure."""
        mag = rng.choice(MAGNITUDES)
        M, N = rng.choice(MASSES), rng.choice(MASSES)
        if index % 3 == 2:
            return cls("reflected", Fraction(0), mag, M, N)
        return cls("laguerre", rng.choice(alphas), -mag, M, N)

    def key(self):
        return f"{self.kind} a={self.alpha} c={self.c} M={self.M} N={self.N}"

    def spec(self, rows):
        """SobolevSpec able to build ``rows`` rows (custom measures need rows + 5)."""
        from sobspec import MeasureSpec, SobolevSpec

        if self.kind == "laguerre":
            measure = MeasureSpec.laguerre(self.alpha)
        else:
            count = rows + 5
            measure = MeasureSpec.custom(
                [-(2 * n + 1) for n in range(count)], [n * n for n in range(count)],
                (float("-inf"), 0.0))
        return SobolevSpec(measure=measure, c=self.c, M=self.M, N=self.N)

    def cli_args(self):
        return [f"--alpha={self.alpha}", f"--c={self.c}", f"--M={self.M}",
                f"--N={self.N}"]


def bits_lost(residual, precision):
    """precision + log2(residual); None for an exactly zero residual."""
    import mpmath as mp

    if residual == 0:
        return None
    with mp.workprec(precision):
        return float(precision + mp.log(residual, 2))


def _layout(m):
    """Everything a matrix file records: shape, band, exact size, entries."""
    return (m.nrows, m.ncols, m.lower_bw, m.upper_bw, m.exact_size, m.precision,
            list(m.band_entries()))


def warm_up_build(size, precision):
    """One build of the paper's worked example (Laguerre 0, c = -1, M = N = 1)."""
    from sobspec import MatrixSuite, MeasureSpec, SobolevSpec

    spec = SobolevSpec(MeasureSpec.laguerre(0), -1, 1, 1)
    MatrixSuite.build(spec, size, guard=4, precision=precision)


class Workload:
    """Seeded op inputs, the op itself and the check of its output."""

    name = ""
    # Ops per cycle.  A timed run stops only at a cycle boundary, so every
    # run holds the same mix of op kinds; a traced run times one cycle.
    cycle = 1

    def __init__(self, seed, scratch):
        self.seed = seed
        self.scratch = scratch
        self.tracer = None
        self.in_process = True

    def set_up(self):
        """Import plus lazy set-up (reference tables, one warm-up build)."""
        from sobspec import golden

        golden.load_reference()

    def inputs(self):
        raise NotImplementedError

    def run(self, inp):
        raise NotImplementedError

    def check(self, inp, out):
        """Raise CheckFailed on a wrong output; return residual bits lost or None."""
        raise NotImplementedError

    def _tracing(self):
        return self.tracer is not None and self.tracer.active


class ChainVerify(Workload):
    # Verification is ~95% of each op (Q^T Q and the dense block scans), so
    # this is where the matrices products, the residuals and qr_pair show.
    # The ledgers do little here.  Size 100, guard 4, 256 bits.
    name = "chain_verify"
    size, guard, precision = 100, 4, 256
    cycle = 3

    def set_up(self):
        super().set_up()
        warm_up_build(self.size, self.precision)

    def inputs(self):
        rng = random.Random(self.seed)
        index = 0
        while True:
            cfg = Config.draw(rng, index)
            yield cfg, cfg.spec(self.size + self.guard)
            index += 1

    def run(self, inp):
        from sobspec import matrices

        _, spec = inp
        suite = matrices.MatrixSuite.build(spec, self.size, guard=self.guard,
                                           precision=self.precision)
        return matrices.verify_propositions(suite)

    def check(self, inp, report):
        import mpmath as mp

        with mp.workprec(self.precision):
            tol = mp.mpf(TOLERANCE)
            bad = [name for name, res, _ in report.as_rows() if not res <= tol]
        if bad:
            raise CheckFailed(f"{inp[0].key()}: residuals above {TOLERANCE}: {bad}")
        return bits_lost(report.max_residual, self.precision)


class LedgerSweep(Workload):
    # The generate path without verification: build, then serialize the nine
    # matrices and the ledgers in memory.  Shows the ledgers, serialization
    # and precision handling, and is the write side of the matrices: a
    # storage change that speeds chain_verify but slows assembly or emission
    # regresses here.  Sizes {20, 40, 60} x precisions {64, 256, 1024}.
    name = "ledger_sweep"
    sizes = (20, 40, 60)
    precisions = (64, 256, 1024)
    guard = 4
    pool = 6
    cycle = pool * len(sizes) * len(precisions)

    def __init__(self, seed, scratch):
        super().__init__(seed, scratch)
        self.digests = json.loads(DIGESTS.read_text())["digests"]
        self._oracles = {}

    def set_up(self):
        super().set_up()
        warm_up_build(self.sizes[0], self.precisions[0])

    def op_list(self):
        """One cycle: a seeded pool of configurations x sizes x precisions.

        The pool's Laguerre slots carry each alpha of ALPHAS at least once,
        so every cycle has integer-alpha configurations for the oracle check.
        """
        rng = random.Random(self.seed)
        alphas = list(ALPHAS) + [rng.choice(ALPHAS)]
        rng.shuffle(alphas)
        configs = []
        for index in range(self.pool):
            cfg = Config.draw(rng, index)
            if cfg.kind == "laguerre":
                cfg.alpha = alphas.pop()
            configs.append(cfg)
        ops = [(cfg, size, prec) for cfg in configs
               for size in self.sizes for prec in self.precisions]
        rng.shuffle(ops)
        return [(cfg, cfg.spec(size + self.guard), size, prec)
                for cfg, size, prec in ops]

    def inputs(self):
        ops = self.op_list()
        while True:
            yield from ops

    @staticmethod
    def op_key(cfg, size, prec):
        return f"{cfg.key()} size={size} prec={prec}"

    def run(self, inp):
        from sobspec import matrices, serialize

        _, spec, size, prec = inp
        suite = matrices.MatrixSuite.build(spec, size, guard=self.guard,
                                           precision=prec)
        texts = {name: serialize.matrix_to_json(name, m)
                 for name, m in suite.named_matrices().items()}
        ledgers = json.dumps(serialize.ledgers_to_doc(suite), indent=1) + "\n"
        if self._tracing():
            self.tracer.add({"serialize.bytes": len(ledgers.encode())})
        return suite, texts, ledgers

    @staticmethod
    def digest(texts, ledgers):
        h = hashlib.sha256()
        for name, text in texts.items():
            h.update(name.encode() + b"\0" + text.encode())
        h.update(b"ledgers\0" + ledgers.encode())
        return h.hexdigest()

    def check(self, inp, out):
        import mpmath as mp
        from sobspec import serialize

        cfg, _, size, prec = inp
        suite, texts, ledgers = out
        where = self.op_key(cfg, size, prec)
        matrices = suite.named_matrices()
        for name, text in texts.items():
            got_name, back = serialize.matrix_from_json(text)
            if got_name != name or _layout(back) != _layout(matrices[name]):
                raise CheckFailed(f"{where}: {name} does not reparse bit-identically")
        expected = self.digests.get(where)
        if expected is not None and expected != self.digest(texts, ledgers):
            raise CheckFailed(f"{where}: serialized output differs from the "
                              "recorded SHA-256 digest")
        if cfg.kind == "laguerre" and cfg.alpha.denominator == 1:
            self._check_oracle(cfg, suite, prec, where)
        # Accuracy: the chain's J2 against the twice-transformed ledger's J2,
        # the one identity of verify_propositions that needs no products.
        with mp.workprec(prec):
            block = min(size, suite.J2.exact_size, suite.J2_direct.exact_size)
            diff = scale = mp.mpf(0)
            for i, j, v in suite.J2.band_entries():
                if i < block and j < block:
                    w = suite.J2_direct.entry(i, j)
                    diff = max(diff, abs(v - w))
                    scale = max(scale, abs(v), abs(w))
            return bits_lost(diff / max(scale, 1), prec)

    def _check_oracle(self, cfg, suite, prec, where):
        import mpmath as mp
        from sobspec import oracle

        key = cfg.key()
        if key not in self._oracles:
            self._oracles[key] = oracle.build_oracle_suite(
                cfg.alpha, cfg.c, cfg.M, cfg.N, ORACLE_ROWS)
        exact = self._oracles[key].matrices
        cells = [(i, j) for i in range(ORACLE_ROWS) for j in range(ORACLE_ROWS)]
        with mp.workprec(prec):
            tol = mp.mpf(2) ** (-(prec // 2))
            for name, m in suite.named_matrices().items():
                report = oracle.squared_entry_compare(
                    name, {ij: m.entry(*ij) for ij in cells},
                    {ij: exact[name][ij[0]][ij[1]] for ij in cells}, tol)
                if not report.all_ok:
                    raise CheckFailed(f"{where}: oracle mismatch, {report.summary()}")


class CliExact(Workload):
    # The latency a CLI user waits for: interpreter start, import, the exact
    # oracle at its 10-row reach (generate --size 6 --guard 4 attaches
    # entries_exact), verify at size 20 and reproduce-paper, each a
    # subprocess.  Integer alpha only, as the oracle requires.
    name = "cli_exact"
    commands = ("generate", "verify", "reproduce-paper")
    cycle = len(commands)

    def set_up(self):
        if self.in_process:
            import sobspec.cli  # noqa: F401

    def inputs(self):
        rng = random.Random(self.seed)
        index = 0
        while True:
            command = self.commands[index % len(self.commands)]
            if command == "generate":
                args = ["generate", "--size", "6", "--guard", "4"]
                args += Config.draw(rng, 0, INTEGER_ALPHAS).cli_args()
            elif command == "verify":
                args = ["verify", "--size", "20"]
                args += Config.draw(rng, 0, INTEGER_ALPHAS).cli_args()
            else:
                args = ["reproduce-paper"]
            yield command, args
            index += 1

    def run(self, inp):
        command, args = inp
        outdir = Path(tempfile.mkdtemp(dir=self.scratch))
        if command != "reproduce-paper":
            args = args + ["--out", str(outdir)]
        if not self.in_process:
            proc = subprocess.run([sys.executable, "-m", "sobspec.cli", *args],
                                  capture_output=True, text=True)
            return proc.returncode, proc.stdout + proc.stderr, outdir
        from sobspec import cli

        buf = io.StringIO()
        code = 0
        try:
            with redirect_stdout(buf):
                cli.main(args, standalone_mode=False)
        except SystemExit as exc:
            code = exc.code
        if self._tracing():
            files = [p for p in outdir.iterdir() if p.is_file()]
            self.tracer.add({"cli.files_written": len(files),
                             "cli.bytes_written": sum(p.stat().st_size for p in files)})
        return code, buf.getvalue(), outdir

    def check(self, inp, out):
        command, args = inp
        code, text, outdir = out
        try:
            if code != 0:
                raise CheckFailed(f"{args}: exit code {code}: {text[-300:]}")
            if command == "generate":
                for name in ("J", "L", "J1", "L1", "J2", "Q", "R", "T", "H"):
                    doc = json.loads((outdir / f"{name}.json").read_text())
                    if not doc.get("entries_exact"):
                        raise CheckFailed(f"{args}: {name}.json has no entries_exact")
                return None
            if command == "verify":
                doc = json.loads((outdir / "verification.json").read_text())
                if doc["pass"] is not True:
                    raise CheckFailed(f"{args}: verification.json does not pass")
                import mpmath as mp

                prec = doc["config"]["precision"]
                with mp.workprec(prec):
                    return bits_lost(mp.mpf(doc["max_residual"]), prec)
            if "all reference entries reproduced" not in text:
                raise CheckFailed(f"reproduce-paper did not reproduce: {text[-300:]}")
            return None
        finally:
            shutil.rmtree(outdir, ignore_errors=True)


WORKLOADS = {w.name: w for w in (ChainVerify, LedgerSweep, CliExact)}
