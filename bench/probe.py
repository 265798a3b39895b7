"""Machine-speed probe, and times rescaled to a machine at rest.

On a shared host the speed of a core drifts by tens of percent over
seconds to minutes, and the process's own CPU time drifts with it, so no
statistic over one run's wall times removes it.  A pass therefore times
a fixed pure-Python kernel (``kernel``, the benchmark's own code: it calls
nothing in sievelab) at its start, at its end and every INTERVAL_S in
between, from a SIGALRM handler.  The work between two probes is
rescaled by NOMINAL_S over the mean of their durations: a stretch that
ran while the kernel took twice its nominal time counts half.  So a
reference second is the time the work would take on a machine where the
kernel takes NOMINAL_S, and the time the probes themselves take is left
out of every span.  A change to the program moves its work time and not
the kernel's, so it moves the rescaled time just as it moves wall time.
"""

from __future__ import annotations

import bisect
import signal
import time
from typing import List, Sequence, Tuple

clock = time.perf_counter

#: about the kernel's median duration inside a pass on the reference
#: machine (2-vCPU KVM guest, Intel Xeon model 207, Python 3.11.7), so
#: that reference seconds there read close to wall seconds
NOMINAL_S = 0.005
#: seconds between probes during a pass: the speed swings within a
#: second, and rescaling by probes 0.1 s apart left about a quarter less
#: pass-to-pass spread than by probes 0.2 s apart
INTERVAL_S = 0.1

Span = Tuple[float, float]

_WHEEL = (4, 2, 4, 2, 4, 6, 2, 6)


def kernel() -> int:
    """A fixed loop with the instruction mix of sievelab's hot paths:
    a sparse cyclic convolution in a dict of Python ints, then trial
    division with a wheel."""
    r = 3001
    a = {k * k % r: 1 + (k & 3) for k in range(1, 140)}
    out: dict = {}
    for la, ca in a.items():
        for lb, cb in a.items():
            s = la + lb
            if s >= r:
                s -= r
            out[s] = out.get(s, 0) + ca * cb
    n, d, i = 999_999_000_001, 7, 0
    while d < 20000:
        if n % d == 0:
            n //= d
        d += _WHEEL[i]
        i = (i + 1) % 8
    return sum(c * c for c in out.values()) + n


def timed_kernel() -> Span:
    t0 = clock()
    kernel()
    return t0, clock()


class SpeedLog:
    """Probes taken around and during one pass, as (start, end) spans."""

    def __init__(self) -> None:
        self.marks: List[Span] = []

    def _probe(self, *_) -> None:
        self.marks.append(timed_kernel())

    def start(self) -> None:
        self._probe()
        signal.signal(signal.SIGALRM, self._probe)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self._probe()


class Rescaler:
    """Work time and reference time of spans that lie between the first
    probe's end and the last probe's start."""

    def __init__(self, marks: Sequence[Span], nominal: float = NOMINAL_S) -> None:
        if len(marks) < 2:
            raise ValueError("need probes before and after the work")
        self.starts = [marks[k - 1][1] for k in range(1, len(marks))]
        self.ends = [marks[k][0] for k in range(1, len(marks))]
        self.factors = [2 * nominal / ((marks[k - 1][1] - marks[k - 1][0])
                                       + (marks[k][1] - marks[k][0]))
                        for k in range(1, len(marks))]

    def _overlaps(self, span: Span):
        t0, t1 = span
        k = max(bisect.bisect_right(self.starts, t0) - 1, 0)
        while k < len(self.starts) and self.starts[k] < t1:
            yield max(0.0, min(t1, self.ends[k]) - max(t0, self.starts[k])), self.factors[k]
            k += 1

    def work(self, span: Span) -> float:
        """Wall time of the span, probes left out."""
        return sum(w for w, _ in self._overlaps(span))

    def reference(self, span: Span) -> float:
        """Work time of the span in reference seconds."""
        return sum(w * f for w, f in self._overlaps(span))


def probe_s(repeats: int = 3) -> float:
    """The kernel's median duration over a few back-to-back calls."""
    times = sorted(b - a for a, b in (timed_kernel() for _ in range(repeats)))
    return times[len(times) // 2]


def reference_time(wall: float, before_s: float, after_s: float,
                   nominal: float = NOMINAL_S) -> float:
    """A wall time measured between two probes that took before_s and
    after_s, in reference seconds."""
    return wall * 2 * nominal / (before_s + after_s)
