"""Set-up worker of the simulated workloads.

Started by :class:`perfbench.sim.SetupTimer` with ``PYTHONPATH`` naming
the repository's ``src`` and root directories, and the arguments
``<schedule> <queries> <arrival seed> <stream seed or ->``.  Prints
``READY`` once imported; then, for each line read from standard input,
collects garbage, times one :func:`perfbench.sim.timed_setup` and prints
its seconds on one line.  Exits at the end of its input.
"""

from __future__ import annotations

import gc
import sys

from perfbench import sim
from repro.experiments.scale import ScaleConfig


def main(argv=None) -> int:
    name, queries, arrival_seed, seed = (argv or sys.argv[1:])[:4]
    config = ScaleConfig(executor="serial", arrival_seed=int(arrival_seed))
    spec = sim.schedule(name, int(queries))
    stream_seed = None if seed == "-" else int(seed)
    print("READY", flush=True)
    for _request in sys.stdin:
        gc.collect()  # each set-up starts from the same collected heap
        elapsed = sim.timed_setup(config, spec, stream_seed)[0]
        print(repr(elapsed), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
