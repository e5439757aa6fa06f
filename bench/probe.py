"""Host-speed probe: fixed units of reference work, timed.

The machines the benchmark runs on share their cores with other tenants,
and their speed drifts by tens of percent over seconds to minutes.  While
the benchmark's child process runs what it measures in its main thread, a
:class:`Sampler` thread in the same process, pinned to the same CPU, does
units of reference work; the two threads take turns on the interpreter
lock every few tens of milliseconds, so both see the same host speed.  The
child measures the CPU time of each thread, and the benchmark divides the
measured CPU time by the CPU time of one unit, so that what it reports
does not move with the host's speed.

The probe does not use ``teichspace``, so a change to the program never
changes the probe.  A unit mixes the kinds of work the program does:
interpreter loops over ints and dicts, attributes of small objects,
``math`` functions and 2x2 numpy matrices.  Beside the set-up, which
imports numpy, the units leave the matrices out, so that the probe does
not import numpy first.
"""

from __future__ import annotations

import math
import threading
import time

# CPU time of one unit on a 2-vCPU Intel Xeon virtual machine (Python
# 3.11.7, numpy 2.4.6) at its usual speed, taking turns with the CLI call
# (REFERENCE_S) or with the set-up (SETUP_REFERENCE_S).  Scaled times are
# the times the measured work takes when a unit takes this long.
REFERENCE_S = 0.0105
SETUP_REFERENCE_S = 0.0078
# After each unit the sampler rests this many times the unit's CPU time.
REST = 2.0


class _Side:
    __slots__ = ("length", "half", "tag")

    def __init__(self, length, tag):
        self.length = length
        self.half = 0.5 * length
        self.tag = tag


# Units keep no objects the cyclic garbage collector tracks: such objects
# would trigger collections of the measured thread's objects and put their
# cost on either thread.
_SIDES = [_Side(0.0, 0) for _ in range(256)]


def _interpreter(rounds):
    table, window, acc = {}, [], 0
    for i in range(rounds):
        acc += (i * 7) % 13
        table[i & 1023] = acc
        window.append(table.get((i * 3) & 1023, 0))
        if len(window) > 100:
            window = window[50:]
    return acc


def _objects(rounds):
    acc = 0.0
    for i in range(rounds):
        side = _SIDES[i & 255]
        side.length = 0.5 + 0.001 * (i % 997)
        side.half = 0.5 * side.length
        side.tag = i
        acc += side.half + side.tag
    return acc


def _trig(rounds):
    acc = 0.0
    for i in range(rounds):
        a, b, c = (0.25 + 0.0005 * ((i * k) % 997) for k in (3, 5, 7))
        acc += math.acosh((math.cosh(c) + math.cosh(a) * math.cosh(b))
                          / (math.sinh(a) * math.sinh(b)))
    return acc


def _matrices(rounds):
    import numpy as np

    step = np.array([[1.0, 0.1], [0.2, 1.0]])
    m = np.eye(2)
    for _ in range(rounds):
        m = m @ step
        m = np.array([[m[1, 1], -m[0, 1]], [-m[1, 0], m[0, 0]]]) / (m[0, 0] + 1.0)
    return float(m[0, 0])


def work(matrices: bool = True):
    """One unit of mixed work."""
    acc = _interpreter(6000) + _objects(8000) + _trig(2000)
    return acc + _matrices(500) if matrices else acc


class Sampler:
    """A thread that does units of reference work until stopped and keeps
    ``(units done, its CPU time when the last one ended)``."""

    def __init__(self, matrices: bool = True):
        self.matrices = matrices
        self.done = (0, 0.0)
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, daemon=True)

    def _loop(self):
        units = 0
        while not self._stop.is_set():
            start = time.thread_time()
            work(self.matrices)
            units += 1
            end = time.thread_time()
            self.done = (units, end)
            # Rest, so that the measured thread gets most of the CPU.
            self._stop.wait(REST * (end - start))

    def start(self) -> "Sampler":
        self._thread.start()
        return self

    def finish(self, since, fewest: int) -> float:
        """Wait until ``fewest`` units have ended after the ``since``
        snapshot of :attr:`done` (a short measurement leaves the thread to
        finish them alone), stop, and return the CPU time of one unit."""
        while self.done[0] - since[0] < fewest:
            time.sleep(0.002)
        units, cpu = self.done
        self._stop.set()
        self._thread.join()
        return (cpu - since[1]) / (units - since[0])
