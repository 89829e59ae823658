"""Set-up probe: import what a workload needs, then say ``ready``."""

import repro  # noqa: F401
import repro.core.sweeps  # noqa: F401
import repro.paper  # noqa: F401

print("ready", flush=True)
