"""Record the SHA-256 digests of ledger_sweep's serialized output.

Usage (from the root of a checkout): python3 perfbench/record_digests.py

For each seed in SEEDS it builds every op of ledger_sweep's cycle and stores
the digest of its serialized matrices and ledgers in ``digests.json``, keyed
by the op's input.  ledger_sweep counts an op whose output digest differs
from the recorded one as failed: byte-identical output is what "the same
numbers" means for this package.  Re-record only for a change that is meant
to alter the output, and say so.
"""

import json
import sys
from pathlib import Path

import workloads

# The default seed 0 and the next nine.
SEEDS = range(10)


def main():
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    digests = {}
    for seed in SEEDS:
        workload = workloads.LedgerSweep(seed, scratch=None)
        for inp in workload.op_list():
            cfg, _, size, prec = inp
            _, texts, ledgers = workload.run(inp)
            digests[workload.op_key(cfg, size, prec)] = workload.digest(texts, ledgers)
    doc = {"seeds": list(SEEDS), "digests": dict(sorted(digests.items()))}
    workloads.DIGESTS.write_text(json.dumps(doc, indent=1) + "\n")
    print(f"recorded {len(digests)} digests in {workloads.DIGESTS}")


if __name__ == "__main__":
    main()
