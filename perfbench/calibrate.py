"""The speed gauge's process (see ``common.SpeedGauge``).

Every ``GAUGE_PERIOD_S`` it runs the gauge kernel and appends
``<perf_counter> <kernel seconds>`` to the file named on the command
line, until SIGTERM or until the process that started it is gone.  It
never imports repro, so nothing the program does in its own processes
changes what the kernel costs here.

Usage: ``python3 perfbench/calibrate.py FILE``
"""

import os
import signal
import sys
import time

from common import GAUGE_PERIOD_S, gauge_kernel


def main() -> int:
    stopping = []
    signal.signal(signal.SIGTERM, lambda _signum, _frame: stopping.append(True))
    parent = os.getppid()
    with open(sys.argv[1], "w", encoding="utf-8") as out:
        while not stopping and os.getppid() == parent:
            stamp = time.perf_counter()
            seconds = gauge_kernel()
            out.write(f"{stamp!r} {seconds!r}\n")
            out.flush()
            time.sleep(max(0.0, GAUGE_PERIOD_S - (time.perf_counter() - stamp)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
