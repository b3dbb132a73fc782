"""Speed probe: a fixed piece of pure-Python work from the benchmark's own
code, timed between models to follow how fast the interpreter runs now.

Shared cloud machines can change speed by a third or more in phases of
seconds to minutes, and a slow phase slows the library, this probe and
fixed loops alike.  Run times are rescaled by the probe, so that they read
as seconds at the speed where one probe takes ``NOMINAL_S``.  The probe
touches no library code, so a change to the library moves the rescaled
times and leaves the probe alone.  Its inputs and code are frozen with the
benchmark: changing them changes what every rescaled figure means.
"""

from __future__ import annotations

import gc
import random

import gen
import oracle

# Probe time on a 2-core cloud VM under Python 3.11, in a fast phase.
NOMINAL_S = 0.05
# Seconds between probes, counted on the run's clock.
EVERY_S = 1.0

_WORDS = ["+XXYZ", "+ZIXY", "-YYXI", "+IZZX", "-XIIZ", "-IIII"]
_CYCLE = gen.hardy_cycle_document(random.Random(3), 30, 4, False)


def probe(clock) -> float:
    """Time one probe, with the collector off so that the size of the
    library's heap does not enter."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = clock()
        for _ in range(10):
            gen.pauli_closure_size(_WORDS)
        for _ in range(5):
            oracle.classify_pair_cover(_CYCLE)
        return clock() - t0
    finally:
        if enabled:
            gc.enable()
