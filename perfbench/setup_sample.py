"""Time one set-up in a fresh process: import ratelab, build a workload's inputs.

    python3 perfbench/setup_sample.py <workload> <seed>

Prints one JSON object with the CPU and wall seconds. An import can be
timed only once per process, so `run.py` starts this several times and
reports the median.
"""

from __future__ import annotations

import json
import os
import sys
import time

import run

os.environ.update(run.BLAS_THREAD_ENV)  # before numpy is first imported
sys.path.insert(0, str(run.SRC))


def main(argv) -> int:
    name, seed = argv[0], int(argv[1])
    cpu, wall = time.process_time(), time.perf_counter()
    import ratelab  # noqa: F401
    import workloads

    workloads.WORKLOADS[name].build(seed)
    print(json.dumps({"cpu_s": time.process_time() - cpu, "wall_s": time.perf_counter() - wall}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
