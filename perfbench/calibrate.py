"""Host-speed calibration for the benchmark children.

On a shared host the CPU's speed changes by up to about 1.8x as other
tenants come and go, in states that last from seconds to minutes.  The
kernel below is fixed pure-Python exact arithmetic, independent of nilpair,
of the same kind as nilpair's own work (``Fraction`` elimination on lists).
A child runs it in short bursts, on the same CPU: right after set-up, and
every quarter second while the checks run (``Sampler``).  The ratio of the
burst time to ``REFERENCE_S`` is the slowdown at that moment.  Each check's
time, less the bursts inside it, is divided by the mean slowdown of the
bursts within half a second of it; set-up is divided by the slowdown of the
bursts right after it.  The raw times are kept in the run record.
"""

from __future__ import annotations

import signal
import time
from fractions import Fraction

# burst time of ``kernel`` in the host's fast state (Xeon 2.1 GHz vCPU,
# Python 3.11.7); any constant works, this one keeps figures near wall time
REFERENCE_S = 0.0055

# wall time between two bursts while the checks run
SAMPLE_EVERY_S = 0.25

# bursts this close to a check count towards its slowdown: short checks
# would otherwise rest on one or two bursts
MARGIN_S = 0.5

_N = 12
_MATRIX = [[(i * 7 + j * 13) % 11 - 5 + 9 * (i == j) for j in range(_N)] for i in range(_N)]


def kernel():
    """Gauss-Jordan elimination of a fixed 12x12 integer matrix over Q."""
    m = [[Fraction(x) for x in row] for row in _MATRIX]
    for c in range(_N):
        p = next(i for i in range(c, _N) if m[i][c])
        m[c], m[p] = m[p], m[c]
        piv = m[c][c]
        m[c] = [x / piv for x in m[c]]
        for i in range(_N):
            if i != c and m[i][c]:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[c])]
    return m


def burst(runs=1):
    """[(start, seconds)] of ``runs`` back-to-back runs of the kernel."""
    out = []
    for _ in range(runs):
        start = time.monotonic()
        kernel()
        out.append((start, time.monotonic() - start))
    return out


class Sampler:
    """Appends one burst to ``bursts`` every ``SAMPLE_EVERY_S`` seconds of
    wall time from a SIGALRM handler, so that long checks are sampled while
    they run.  The handler runs between bytecodes of the main thread and
    touches nothing but its own objects."""

    def __init__(self, bursts):
        self.bursts = bursts

    def _handler(self, signum, frame):
        self.bursts += burst()

    def __enter__(self):
        self.previous = signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self.previous)


def check_times(bursts, spans):
    """For each (start, end) span: its time without the bursts that ran
    inside it, and that time divided by the slowdown over the span.

    The slowdown is the mean burst time over ``REFERENCE_S``, taken over the
    bursts from ``MARGIN_S`` before the span to ``MARGIN_S`` after it, and
    at least the nearest burst on each side."""
    raw, norm = [], []
    for start, end in spans:
        inside = [d for t, d in bursts if start <= t < end]
        near = [d for t, d in bursts if start - MARGIN_S <= t < end + MARGIN_S]
        near += [d for t, d in bursts if t < start][-1:]
        near += [d for t, d in bursts if t >= end][:1]
        slowdown = sum(near) / len(near) / REFERENCE_S
        t = end - start - sum(inside)
        raw.append(t)
        norm.append(t / slowdown)
    return raw, norm
