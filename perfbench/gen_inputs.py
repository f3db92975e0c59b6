"""Time one set-up of a workload: import revflow and write every input file.

    python3 perfbench/gen_inputs.py WORKLOAD DIR

This is what `revflow gen` does for each of the workload's jobs.  Prints the
seconds taken, counted from before revflow is imported and scaled to the
reference speed of calibrate.py.
"""

import sys
import time

import calibrate

before = calibrate.loop_time()
start = time.perf_counter()

from pathlib import Path  # noqa: E402

import pipeline  # noqa: E402  (imports revflow)

for job in pipeline.WORKLOADS[sys.argv[1]]:
    pipeline.write_input(job, pipeline.input_path(job, Path(sys.argv[2])))
seconds = time.perf_counter() - start
print(calibrate.scaled(seconds, before, calibrate.loop_time()))
