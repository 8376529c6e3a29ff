"""Set-up probe: one fresh interpreter imports `evolute.cli` under the gauge.

    python3 perfbench/probe.py SRC

Prints one JSON object: `ready`, the `time.monotonic()` at which the import
returned, less the time the gauge's kernel took inside the interpreter up
to then; and `scale`, the gauge's scale over the import and a few kernel
runs right after it.  The caller notes `time.monotonic()` before launching
this interpreter; `ready` minus that is the set-up time as measured.
"""

import json
import sys
import time

sys.path.insert(0, sys.argv[1])

from gauge import Gauge, kernel_seconds  # noqa: E402

INTERVAL_S = 0.05  # the import takes a few tenths of a second
KERNELS_AFTER = 5
WARMUP_KERNELS = 10

# Python specializes the kernel's bytecode over its first runs; warm it up
# so that the samples time the specialized kernel, as in the client
warmup_start = time.perf_counter()
for _ in range(WARMUP_KERNELS):
    kernel_seconds()
warmup = time.perf_counter() - warmup_start

gauge = Gauge(INTERVAL_S)
gauge.start()
started = time.perf_counter()
import evolute.cli  # noqa: E402,F401

ready = time.monotonic() - gauge.spent - warmup
finished = time.perf_counter()
gauge.stop()
for _ in range(KERNELS_AFTER):
    gauge.samples.append((time.perf_counter(), kernel_seconds()))
print(json.dumps({"ready": ready, "scale": gauge.scale(started, finished)}))
