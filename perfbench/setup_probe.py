"""Set-up time of one fresh interpreter: import, config parsing, first Stepper.

    python3 perfbench/setup_probe.py <config.json>

Prints the seconds from before `import kawalab.cli` until the first `Stepper`
for the config exists.  run.py starts it several times and takes the median.
"""

import sys
import time

t0 = time.perf_counter()
import kawalab.cli as cli  # noqa: E402  (the import is what is timed)
from kawalab.solver import Stepper  # noqa: E402

Stepper(cli.build_sim_config(cli.load_config(sys.argv[1])))
print(repr(time.perf_counter() - t0))
