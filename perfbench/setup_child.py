"""One set-up, timed from outside by run.py: import the program and build a workload's inputs.

    python3 perfbench/setup_child.py <workload> <seed>

Prints the probe's own time and the mean machine speed sampled while the
set-up ran (see speed.py), so the parent can report the time at reference
speed.
"""

import sys

from speed import SpeedProbe

with SpeedProbe() as probe:
    import workloads

    workloads.make_workload(sys.argv[1], int(sys.argv[2]))
print(probe.spent, probe.speed(0, float("inf")))
