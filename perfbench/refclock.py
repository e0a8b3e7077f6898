"""Reference clock that makes benchmark times steady against host drift.

On a shared virtual machine the host's speed drifts by tens of percent
within minutes, and CPU time follows wall time, so the drift is the host
and not scheduling.  The benchmark therefore interleaves a fixed piece of
pure-numpy reference work (a probe) with the program's trials and rescales
every measured time by how slow the probes ran in the same stretch:

    normalized_s = raw_s / mean(probe slowness)

A probe times two parts, small-array descent steps and one grid-sized
phase ramp plus FFT, and its slowness is 0.7 and 0.3 of each part's time
over its reference time.  That mix tracked both model and phy trials best
(see README.md).  A normalized second is a second at the host speed where
both parts take their reference times.  The probe uses no isacloc code, so
a change to the program moves the trials and never the probes.
"""

from __future__ import annotations

import functools
import statistics
import time

import numpy as np

# Median part times on the 2-core host the reference figures in README.md
# come from.  Changing them rescales every time metric.
REFERENCE_STEPS_S = 0.00285
REFERENCE_GRID_S = 0.00053
GRID_WEIGHT = 0.3

_STEPS = 120     # small-array descent steps per probe

_rng = np.random.default_rng(20261018)
_NODES = _rng.uniform(-100.0, 100.0, size=(6, 2))
_RANGES = _rng.uniform(100.0, 300.0, size=(6, 6))
_GRID = np.exp(2j * np.pi * _rng.uniform(size=(792, 14)))
_RAMP = np.arange(792)[:, None] * 1e-3


def _descent_steps() -> float:
    """Small-array steps that cost what a solver iteration costs."""
    acc = 0.0
    x = np.array([1.0, -2.0])
    for _ in range(_STEPS):
        delta = x - _NODES
        dist = np.hypot(delta[:, 0], delta[:, 1])
        units = delta / dist[:, None]
        res = _RANGES - (dist[:, None] + dist[None, :])
        acc += float(np.sum(res * res))
        x = x + 1e-5 * (res.sum(axis=1) @ units)
    return acc


def _grid_pass() -> float:
    """One grid-sized phase ramp and column FFT, like the physical-layer stages."""
    spectra = np.fft.ifft(_GRID * np.exp(-2j * np.pi * _RAMP), axis=0)
    return float(np.abs(spectra).mean())


class RefClock:
    """Takes probes between trials and turns raw times into normalized ones.

    `interpose` replaces a module's trial function with a wrapper that times
    each call and takes a probe once `every_s` seconds of trial time have
    passed since the last one, so probes are spread evenly through a run.
    """

    def __init__(self, every_s: float):
        self.every_s = every_s
        self.probes: list[float] = []     # probe durations, raw seconds
        self.slowness: list[float] = []   # probe slowness, 1.0 at reference speed
        self.trial_times: list[float] = []
        self.tracer = None   # when set, probes are recorded as spans
        self._since = 0.0

    def probe(self) -> float:
        if self.tracer is not None:
            with self.tracer.span("bench.probe"):
                return self._probe()
        return self._probe()

    def _probe(self) -> float:
        start = time.perf_counter()
        _descent_steps()
        middle = time.perf_counter()
        _grid_pass()
        end = time.perf_counter()
        self.probes.append(end - start)
        self.slowness.append((1.0 - GRID_WEIGHT) * (middle - start) / REFERENCE_STEPS_S
                             + GRID_WEIGHT * (end - middle) / REFERENCE_GRID_S)
        self._since = 0.0
        return end - start

    def interpose(self, module, attr: str):
        """Wrap module.attr with per-call timing; returns an undo callable."""
        original = getattr(module, attr)

        @functools.wraps(original)
        def timed(*args, **kwargs):
            start = time.perf_counter()
            result = original(*args, **kwargs)
            elapsed = time.perf_counter() - start
            self.trial_times.append(elapsed)
            self._since += elapsed
            if self._since >= self.every_s:
                self.probe()
            return result

        setattr(module, attr, timed)
        return lambda: setattr(module, attr, original)

    def factor(self, first_probe: int) -> float:
        """Scale from raw to normalized seconds over the probes from `first_probe` on."""
        return 1.0 / statistics.fmean(self.slowness[first_probe:])
