"""Set-up time of one workload, in a fresh interpreter.

    python3 perfbench/setup_probe.py ROOT WORKLOAD

Prints the seconds taken by `import matmonoid` plus building the
workload's parameter objects (for hash-stream and cli-mix this includes
the Miller-Rabin gate of every HashParams). Generating the benchmark's
own inputs is not part of it.
"""
import os
import sys
import time

import workloads


def main(root, workload):
    sys.path.insert(0, os.path.join(root, "src"))
    t0 = time.perf_counter()
    import matmonoid

    workloads.setup_params(workload, matmonoid)
    print(time.perf_counter() - t0)


if __name__ == "__main__":
    main(*sys.argv[1:3])
