"""Time one workload's set-up in a fresh interpreter and print it in seconds.

Usage: python3 perfbench/setup_probe.py <workload>

Set-up is the import of sobspec plus the workload's lazy set-up (reference
tables and one warm-up build; for cli_exact only ``import sobspec.cli``).
``run.py`` starts several of these and reports their median as ``setup_s``;
it puts the checkout's ``src`` on PYTHONPATH.
"""

import sys
import time

import workloads


def main():
    cls = workloads.WORKLOADS[sys.argv[1]]
    workload = cls(seed=0, scratch=None)
    start = time.perf_counter()
    workload.set_up()
    print(repr(time.perf_counter() - start))


if __name__ == "__main__":
    main()
