"""Run one workload's set-up in a fresh process and report its speed.

``python3 perfbench/probe.py <workload> <work dir>``.  run.py times the whole
process (interpreter start, ``import lrc7``, field creation, fixture and
code loading).  The speed probes run here, in the timed process itself,
because its CPU may run at another speed than the parent's; the last line of
output gives the probes' mean and the time they took.
"""

import json
import sys
import time
from pathlib import Path

import speed

if __name__ == "__main__":
    t0 = time.perf_counter()
    before = speed.probe()
    t1 = time.perf_counter()
    import run

    run.import_lrc7()
    import workloads

    workloads.WORKLOADS[sys.argv[1]]().setup(Path(sys.argv[2]))
    t2 = time.perf_counter()
    after = speed.probe()
    probes_s = (t1 - t0) + (time.perf_counter() - t2)
    print(json.dumps({"probe_s": (before + after) / 2, "probes_s": probes_s}))
