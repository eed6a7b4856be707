"""One fresh-interpreter set-up measurement for a workload.

Times ``import repro`` and the construction of the workload's network
and driver, then prints ``{"import_s": ..., "construct_s": ...}``.
``run.py`` starts this script several times per run and reports the
median; run it by hand as::

    python3 perfbench/setup_probe.py WORKLOAD WORKDIR
"""

import os
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                os.pardir, "src"))

began = time.perf_counter()
import repro  # noqa: E402,F401  (the import being timed)

import_s = time.perf_counter() - began

import json  # noqa: E402
from pathlib import Path  # noqa: E402

from workloads import WORKLOADS  # noqa: E402


def main(name: str, workdir: str) -> None:
    workload = WORKLOADS[name]
    began = time.perf_counter()
    network = workload.network()
    construct_s = time.perf_counter() - began
    inputs = workload.inputs(network, 0)  # the benchmark's work, untimed
    began = time.perf_counter()
    driver = workload.driver(network, inputs, Path(workdir), "setup")
    construct_s += time.perf_counter() - began
    if hasattr(driver, "close"):
        driver.close()
    print(json.dumps({"import_s": import_s, "construct_s": construct_s}))


if __name__ == "__main__":
    main(sys.argv[1], sys.argv[2])
