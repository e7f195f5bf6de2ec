"""A fixed reference computation that samples how fast the machine runs now.

The benchmark runs on shared virtual machines whose speed drifts by tens of
percent over minutes, for all code alike.  `probe()` times one fixed piece
of pure-Python exact arithmetic of the three kinds psl spends its time in:
a structure-constant product over Q (`Fraction`), the same over F_p with a
slotted scalar class (as `psl.exactla.Fp`), and the flat-list F_p loops of
the pure kernel on a larger tensor.  It does not use psl, so no change to
psl moves it.

A time taken between two probes is rescaled to reference speed, the speed
of a machine on which one probe takes REF_PROBE_S: `to_ref` multiplies it by
REF_PROBE_S over the mean of the two probes.  A rescaled time is what the
same work would take on that machine; it follows changes to psl as a plain
time does, without the machine's drift.  `Clock` times calls that way, with
probes inside long calls too.
"""

from __future__ import annotations

import gc
import signal
import time
from fractions import Fraction

REF_PROBE_S = 0.010
INTERVAL_S = 0.5

P = 7
DIM = 6  # structure-constant products
FLAT_DIM = 14  # flat-list kernel loops


def _const(i: int, j: int, k: int) -> int:
    return (3 * i + 5 * j + 7 * k + i * j * k) % 5 - 2


class _Mod:
    __slots__ = ("v",)

    def __init__(self, v: int):
        self.v = v % P

    def __add__(self, other: "_Mod") -> "_Mod":
        return _Mod(self.v + other.v)

    def __mul__(self, other: "_Mod") -> "_Mod":
        return _Mod(self.v * other.v)

    def __bool__(self) -> bool:
        return self.v != 0


_CQ = [[[Fraction(_const(i, j, k), 1 + (i + j + k) % 3) for k in range(DIM)]
        for j in range(DIM)] for i in range(DIM)]
_CP = [[[_Mod(_const(i, j, k)) for k in range(DIM)] for j in range(DIM)] for i in range(DIM)]
_FLAT = [_const(i, j, k) % P for i in range(FLAT_DIM) for j in range(FLAT_DIM) for k in range(FLAT_DIM)]
_XQ = [Fraction(i + 1, i + 2) for i in range(DIM)]
_YQ = [Fraction(2 * i - 3, 5) for i in range(DIM)]


def _mul(mult, x, y, zero):
    out = [zero] * DIM
    for i, xi in enumerate(x):
        if not xi:
            continue
        plane = mult[i]
        for j, yj in enumerate(y):
            if not yj:
                continue
            s = xi * yj
            for k, c in enumerate(plane[j]):
                if c:
                    out[k] = out[k] + s * c
    return tuple(out)


def _left_square(w, n=FLAT_DIM, mult=_FLAT):
    left = [[sum(w[i] * mult[(i * n + j) * n + c] for i in range(n) if w[i]) % P
             for c in range(n)] for j in range(n)]
    return [[sum(left[r][j] * left[j][c] for j in range(n) if left[r][j]) % P
             for c in range(n)] for r in range(n)]


def work(rounds: int = 6) -> int:
    """The reference computation; returns a checksum so nothing is skipped."""
    total = Fraction(0)
    seen: dict = {}
    for r in range(rounds):
        total += sum(_mul(_CQ, _XQ, _YQ[r:] + _YQ[:r], Fraction(0)))
        x = tuple(_Mod(i + r) for i in range(DIM))
        for _ in range(4):
            x = _mul(_CP, x, x, _Mod(0))
            seen[tuple(c.v for c in x)] = r
        sq = _left_square([(i * (r + 2)) % P for i in range(FLAT_DIM)])
        seen[tuple(sq[r])] = r
    return len(seen) + total.denominator


def probe() -> float:
    """Seconds one `work()` takes now.

    The collector is paused meanwhile, so that a collection of the caller's
    heap, which is larger in the middle of a psl call, does not count.
    """
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        work()
        return time.perf_counter() - t0
    finally:
        if was_enabled:
            gc.enable()


def to_ref(seconds: float, before: float, after: float) -> float:
    """`seconds` measured between probes `before` and `after`, at reference speed."""
    return seconds * REF_PROBE_S * 2 / (before + after)


class Clock:
    """Times one call at a time, measured and rescaled to reference speed.

    A probe runs before each call and after it and, with `inside`, every
    INTERVAL_S seconds while the call runs, from a SIGALRM timer.  The time
    those inner probes take is left out of the call's time; every stretch of
    the call between two probes is rescaled by them (`to_ref`), so a call of
    many seconds follows the machine's drift within it.
    """

    def __init__(self, inside: bool = True):
        self.inside = inside
        self.last = probe()
        if inside:
            signal.signal(signal.SIGALRM, self._tick)

    def _tick(self, signum, frame) -> None:
        t0 = time.perf_counter()
        p = probe()
        self._marks.append((t0 - self._start - self._spent, p))
        self._spent += time.perf_counter() - t0

    def call(self, fn):
        """Returns fn(); sets seconds, ref_s and probes, also when fn raises."""
        self._marks, self._spent = [(0.0, self.last)], 0.0
        if self.inside:
            signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        self._start = time.perf_counter()
        try:
            return fn()
        finally:
            if self.inside:
                signal.setitimer(signal.ITIMER_REAL, 0)
            self.seconds = time.perf_counter() - self._start - self._spent
            self.last = probe()
            self._marks.append((self.seconds, self.last))
            marks = self._marks
            self.ref_s = sum(to_ref(t1 - t0, p0, p1) for (t0, p0), (t1, p1) in zip(marks, marks[1:]))
            self.probes = [p for _, p in marks]
