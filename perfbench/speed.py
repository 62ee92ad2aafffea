"""Machine speed, sampled while the workload runs.

The benchmark runs on shared machines whose speed drifts by up to 1.6x over
seconds to minutes (other tenants on the same cores and caches), with no
steal time to show for it: process CPU time slows with wall time.  A pass of
a workload measured in one slow stretch and a pass measured in a quiet one
then differ by more than any change in the code.

``Sampler`` measures that drift while the work itself runs.  A real-time
interval timer interrupts the work every ``period`` seconds and runs a fixed
kernel.  Since the samples are spread evenly over the work, their mean time
over the kernel's nominal time is the machine's mean slowness over it.  The
work's time without the samples, divided by that slowness, is its time at a
fixed machine speed: the speed at which the kernel takes its nominal time
when run between the work's own steps.

Two kernels, each like the work it is sampled in:

- ``python_kernel``, pure Python (dict and string work), for set-up: it
  runs while ``gnepsolve`` and numpy are being imported;
- ``numpy_kernel``, Python loops over small numpy arrays, like the solver's
  sweeps, for the workload's passes.

The kernels use nothing from ``gnepsolve``, so a change to it cannot change
their speed, apart from the caches the work leaves behind.  The numpy
kernel's arrays are small (about 20 KB) to keep that effect small.
"""

from __future__ import annotations

import signal
import time
from typing import Callable

SETUP_PERIOD_S = 0.01
PASS_PERIOD_S = 0.025
# Kernel times, between the work's steps, at the fixed machine speed results
# are scaled to.  They set the scale only: the ratio of two results taken at
# any machine speed does not depend on them.
PYTHON_KERNEL_NOMINAL_S = 0.3e-3
NUMPY_KERNEL_NOMINAL_S = 1.2e-3


def python_kernel() -> int:
    """A fixed amount of pure-Python work; returns a checksum."""
    d: dict[str, int] = {}
    s = 0
    for i in range(600):
        k = "k%d" % (i & 63)
        d[k] = d.get(k, 0) + i
        s += len(k)
    return s + len(d)


_arrays: dict = {}


def numpy_kernel() -> float:
    """A fixed amount of Python-and-small-numpy work; returns a checksum."""
    import numpy as np   # not at the top: set-up is sampled before numpy is imported

    if not _arrays:
        rng = np.random.default_rng(20100101)
        a = rng.standard_normal((12, 12))
        _arrays.update(Q=a @ a.T + 12.0 * np.eye(12), b=rng.standard_normal(12),
                       B=rng.standard_normal((48, 48)) / 7.0, v=rng.standard_normal(48),
                       blocks=[slice(4 * i, 4 * i + 4) for i in range(3)])
    Q, b, B, blocks = _arrays["Q"], _arrays["b"], _arrays["B"], _arrays["blocks"]
    x = np.zeros(12)
    for _ in range(30):
        for s in blocks:
            g = Q[s] @ x - b[s]
            x[s] = np.clip(x[s] - 0.01 * g, 0.0, 5.0)
    w = _arrays["v"]
    for _ in range(80):
        w = B @ w
        w = w / np.linalg.norm(w)
    return float(x.sum() + w[0])


class Sampler:
    """Runs ``kernel`` on SIGALRM every ``period`` seconds while active.

    ``inside`` tells, at each sample, whether the work is inside a span whose
    time is reported separately (``solve``), so that the samples' time can be
    taken out of it exactly.
    """

    def __init__(self, kernel: Callable[[], object], period: float, nominal: float,
                 inside: Callable[[], bool] = lambda: False):
        self.kernel, self.period, self.nominal, self.inside = kernel, period, nominal, inside
        self.samples = 0
        self.sample_s = 0.0       # kernel time in all samples
        self.inside_s = 0.0       # kernel time in samples taken inside the span
        self._previous = None

    def _on_alarm(self, signum, frame):
        t0 = time.perf_counter()
        self.kernel()
        dt = time.perf_counter() - t0
        self.samples += 1
        self.sample_s += dt
        if self.inside():
            self.inside_s += dt

    def __enter__(self) -> "Sampler":
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, self.period, self.period)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def slowness(self) -> float:
        """Mean kernel time over the nominal one: 1.0 at the fixed speed."""
        if not self.samples:
            raise RuntimeError("no speed sample taken: the work was shorter than one period")
        return self.sample_s / self.samples / self.nominal
