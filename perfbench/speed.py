"""Machine-speed probe: fixed work timed between slabs.

On a shared 2-core host the same integration runs up to ~1.5x slower from
one minute to the next, and speed changes within seconds too (other
tenants' load; no CPU steal shows, so process CPU time drifts with wall
time).  The probe is a fixed mix of the kinds of work the solver does
(interpreted Python, small dense numpy kernels, a sparse LU of a fixed
matrix) that never touches ``sav_nls``, so a change to the solver cannot
change it.  It is sampled three times before set-up and once after every
slab.  Each slab's time is scaled by ``REFERENCE_NS`` over the median of the
``WINDOW`` probe samples around it, and set-up by the samples before it:
times are reported as they would read on a machine on which one probe takes
``REFERENCE_NS``.  The raw times and the factors are reported too.
"""

import statistics
from time import perf_counter_ns

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

REFERENCE_NS = 2_000_000        # one probe on the reference machine
PRE_SAMPLES = 3                 # samples before set-up
WINDOW = 5                      # samples whose median scales one slab


class SpeedProbe:
    """Times a fixed workload; ``factors()`` scales times to the reference."""

    def __init__(self):
        rng = np.random.default_rng(20_200_605)
        n = 1500
        self._matrix = sp.diags(
            [4.0 + rng.random(n), rng.random(n - 1), rng.random(n - 1), rng.random(n - 7)],
            [0, 1, -1, 7], format="csc")
        self._rhs = np.ones(n)
        self._dense = rng.random((40, 200))
        self.samples = []

    def _work(self):
        acc = 0
        for i in range(2000):
            acc += i * i
        for _ in range(4):
            self._dense.dot(self._dense.T)
        spla.splu(self._matrix).solve(self._rhs)
        return acc

    def sample(self):
        began = perf_counter_ns()
        self._work()
        self.samples.append(perf_counter_ns() - began)

    def factors(self):
        """(set-up factor, [factor of slab 1, 2, ...]) from the samples taken."""
        pre = self.samples[:PRE_SAMPLES]
        setup = REFERENCE_NS / statistics.median(pre)
        half = WINDOW // 2
        slabs = []
        for i in range(PRE_SAMPLES, len(self.samples)):
            window = self.samples[max(0, i - half):i + half + 1]
            slabs.append(REFERENCE_NS / statistics.median(window))
        return setup, slabs
