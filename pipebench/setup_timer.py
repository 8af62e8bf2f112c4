"""Set-up time of one fresh interpreter: ``import gtrans.cli``.

Started by run.py with gtrans' sources on PYTHONPATH.  Prints the import's
wall seconds, then the host-speed loop's seconds measured right after it.
"""

import time

t0 = time.perf_counter()
import gtrans.cli  # noqa: E402,F401  (the import is what is timed)
seconds = time.perf_counter() - t0

import hostspeed  # noqa: E402

print(seconds, hostspeed.loop_seconds())
