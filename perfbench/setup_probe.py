"""Times one set-up of a workload in a fresh interpreter: importing wordrep
(and networkx, where the workload needs it) and building the inputs.

    python3 perfbench/setup_probe.py WORKLOAD SEED

Prints {"setup_s": ..., "speed": ..., "inputs_digest": ...} as one JSON
line: the raw set-up seconds, and the factor that converts them to seconds at
the reference speed, measured after the set-up.
"""

import time

T0 = time.perf_counter()

import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [ROOT, os.path.join(ROOT, "src")]

from perfbench import workloads  # noqa: E402
from perfbench.speed import Speed  # noqa: E402

SPEED_SAMPLES = 20


def main():
    name, seed = sys.argv[1], int(sys.argv[2])
    inputs = workloads.FULL[name].build(seed)
    elapsed = time.perf_counter() - T0
    speed = Speed()
    for _ in range(SPEED_SAMPLES):
        speed.sample()
    print(
        json.dumps(
            {
                "setup_s": elapsed,
                "speed": speed.factor(),
                "inputs_digest": workloads.inputs_digest(inputs),
            }
        )
    )


if __name__ == "__main__":
    main()
