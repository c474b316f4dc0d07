"""Set-up probe: import the package and compute one full report, then exit.

    python3 perfbench/setup_probe.py R P

Prints the CLOCK_MONOTONIC reading taken when the first ``full_report``
returned, and the report's A|BC negativity. The parent stamps the same
clock before starting this interpreter, so the difference is the set-up
time a user pays: interpreter start, import, backend selection and (when
numba is present) compilation, up to the first result.
"""

import sys
import time

import ghztangle

rep = ghztangle.full_report(float(sys.argv[1]), ghztangle.CouplingConfig.collective("phase_damping", float(sys.argv[2])))
done = time.clock_gettime(time.CLOCK_MONOTONIC)
print(repr(done), repr(rep.n_A_BC), ghztangle.__file__)
