"""Set-up probe, run in a fresh interpreter by run.py.

``python3 benchmark/setup_probe.py WORKLOAD SEED OUT_DIR`` imports
quditsearch, builds the workload's inputs and prints one JSON line with the
import and build times it measured itself.  The caller times the whole
interpreter, from its start to that line, as ``setup_s``.
"""

import json
import os
import sys
import time

t0 = time.perf_counter()
sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))
import quditsearch  # noqa: E402,F401

t1 = time.perf_counter()
import workloads  # noqa: E402

workloads.build(sys.argv[1], int(sys.argv[2]), sys.argv[3])
t2 = time.perf_counter()
print(json.dumps({"import_s": t1 - t0, "build_s": t2 - t1}), flush=True)
