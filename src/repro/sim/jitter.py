"""Shared OS-jitter tapes: runs of one seed read one draw stream.

Every machine of one config seed draws the same per-core OS-jitter
stream (:func:`repro.sim.timebase.derive_rng` ``"jitter-core-<c>"``) on
purpose: it keeps the runs of one mix comparable across policies.  Yet
each machine draws that stream anew, tick by tick.  Inside a
:func:`shared_jitter` scope, machines of equal (config seed, core,
sigma) instead read one :class:`JitterTape`: the stream's factors
``exp(mu + z * sigma)``, ``z`` drawn by CPython's ``random.gauss``
algorithm in stream order, kept in an ``array('d')`` (8 bytes a draw)
until the scope exits.  Every run of a mix after the first then reads
the noise an earlier run drew.

A machine keeps one cursor per core (the draws its core has read) and
reads draw ``pos`` as ``tape.values[pos]``; once ``pos`` reaches
``tape.end`` the reader calls :meth:`JitterTape.fill` first.  Both
``Machine.tick`` and the span kernels of :mod:`repro.sim.spanplan` read
this way.  A machine built outside a scope reads no tape: it draws
each factor itself, the cheapest way for a lone reader.

A scope changes which object holds a draw, never the draw's value, so
every result is bit-identical with and without one.
"""

from __future__ import annotations

import math
from array import array
from contextlib import contextmanager
from contextvars import ContextVar
from typing import Dict, Iterator, List, Optional, Tuple

from repro.sim.timebase import derive_rng

__all__ = ["JitterScope", "JitterTape", "WINDOW", "shared_jitter",
           "shared_tapes"]

#: CPython's ``random.gauss`` angle scale (``2*pi``).
TWO_PI = 2.0 * math.pi

#: Draws one fill appends to a tape (even: Gaussian draws come in
#: pairs).
WINDOW = 512


class JitterTape:
    """One core's OS-jitter factors under one seed, drawn on demand.

    ``values[k]`` is the stream's draw ``k`` and ``end == len(values)``.
    A fill appends in place, so the ``values`` object a reader holds
    stays valid.
    """

    __slots__ = ("values", "end", "_random", "_mu", "_sigma",
                 "__weakref__")

    def __init__(self, seed: int, core: int, sigma: float) -> None:
        self._random = derive_rng(seed, "jitter-core-%d" % core).random
        self._sigma = sigma
        self._mu = -0.5 * sigma * sigma
        self.values = array("d")
        self.end = 0

    def fill(self, pos: int) -> int:
        """Make draw ``pos`` readable; returns the new ``end``.

        ``random.gauss(mu, sigma)`` inlined: each pair of ``random()``
        calls yields ``z = cos(x2pi) * g2rad`` and, for the next draw,
        ``sin(x2pi) * g2rad``; a factor is ``exp(mu + z * sigma)``.
        """
        rnd = self._random
        mu = self._mu
        sigma = self._sigma
        exp, cos, sin = math.exp, math.cos, math.sin
        sqrt, log = math.sqrt, math.log
        append = self.values.append
        while self.end <= pos:
            for _ in range(WINDOW // 2):
                x2pi = rnd() * TWO_PI
                g2rad = sqrt(-2.0 * log(1.0 - rnd()))
                append(exp(mu + cos(x2pi) * g2rad * sigma))
                append(exp(mu + sin(x2pi) * g2rad * sigma))
            self.end += WINDOW
        return self.end


class JitterScope:
    """The tapes the machines built inside one :func:`shared_jitter`
    block share, by (config seed, core, sigma)."""

    __slots__ = ("tapes", "draws")

    def __init__(self) -> None:
        self.tapes: Dict[Tuple[int, int, float], JitterTape] = {}
        #: Factors drawn by tapes the scope has dropped.
        self.draws = 0

    def tape(self, seed: int, core: int, sigma: float) -> JitterTape:
        """The tape of ``core``'s stream under ``seed``."""
        key = (seed, core, sigma)
        tape = self.tapes.get(key)
        if tape is None:
            tape = self.tapes[key] = JitterTape(seed, core, sigma)
        return tape

    def drawn(self) -> int:
        """Factors the scope's tapes have drawn."""
        return self.draws + sum(tape.end for tape in self.tapes.values())

    def close(self) -> None:
        """Drop the tapes; :meth:`drawn` keeps counting their draws."""
        self.draws = self.drawn()
        self.tapes.clear()


_SCOPE: ContextVar[Optional[JitterScope]] = ContextVar(
    "repro_jitter_scope", default=None
)


@contextmanager
def shared_jitter() -> Iterator[JitterScope]:
    """Share jitter tapes between the machines built inside the block.

    Scopes nest: inside an open scope the block joins it, and the
    outermost block's exit drops the tapes (a machine still running
    keeps its own).
    """
    scope = _SCOPE.get()
    if scope is not None:
        yield scope
        return
    scope = JitterScope()
    token = _SCOPE.set(scope)
    try:
        yield scope
    finally:
        _SCOPE.reset(token)
        scope.close()


def shared_tapes(seed: int, num_cores: int,
                 sigma: float) -> List[JitterTape]:
    """The open scope's tapes for a machine of config ``seed``, one per
    core; none outside a scope or without jitter (``sigma`` 0)."""
    scope = _SCOPE.get()
    if scope is None or sigma <= 0.0:
        return []
    return [scope.tape(seed, core, sigma) for core in range(num_cores)]
