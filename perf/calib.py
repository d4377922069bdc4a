"""Frozen calibration kernels and the speed factor they yield.

The host this benchmark runs on drifts in speed by tens of percent over
windows of 10-30 s, so a raw wall-clock time mostly reports which
window a run landed in.  Every measured round is therefore bracketed by
a fixed calibration: three small kernels, each shaped like one regime
the workloads are bound by, timed before and after the round.  The
ratio of their frozen reference times (``perf/reference.json``) to what
they took around the round is the round's *speed factor*; a time
multiplied by it reads as it would have on the reference machine.

The kernels are part of the measuring instrument.  They import nothing
from ``repro`` (so no change to the program can move them), build their
inputs from a constant seed (never ``--seed``), and must not be edited
without re-freezing the reference times and re-measuring the baseline.
"""

from __future__ import annotations

import gc
import json
import math
import time
import zlib
from collections import OrderedDict
from pathlib import Path
from typing import Callable, Dict, Mapping, Optional

import numpy as np

KERNELS = ("interp", "numeric", "bandwidth")

REFERENCE_PATH = Path(__file__).resolve().parent / "reference.json"

_PAGE_BYTES = 4096
_ROW_BYTES = 256  # 32 float64
_LRU_PAGES = 64


class Kernels:
    """The three frozen kernels over inputs built once per process."""

    def __init__(self) -> None:
        rng = np.random.default_rng(20210419)
        # interp: 2304 row reads over 96 pages through a 64-page LRU.
        self._pages = [rng.bytes(_PAGE_BYTES) for _ in range(96)]
        self._keys = [int(key) for key in rng.integers(0, 96, size=2304)]
        self._rows_out = np.empty((len(self._keys), 32))
        # numeric: gather 8192 of 40000 rows, then einsum and matmul, all
        # into preallocated outputs.
        self._table = rng.standard_normal((40000, 32))
        self._gather = rng.integers(0, 40000, size=8192)
        self._matrix = rng.standard_normal((32, 32))
        self._weights = rng.standard_normal((32, 64))
        self._rows = np.empty((8192, 32))
        self._mixed = np.empty((8192, 32))
        self._product = np.empty((8192, 64))
        # bandwidth: a (256, 10, 32, 32) gather through a 21 MB buffer.
        self._transfer = rng.standard_normal((17, 32, 32))
        self._relations = rng.integers(0, 17, size=(256, 10))
        self._heads = rng.standard_normal((256, 10, 32))
        self._gathered = np.empty((256, 10, 32, 32))
        self._projected = np.empty((256, 10, 32))

    def interp(self) -> int:
        """Interpreter-bound: the shape of a paged row-by-row gather."""
        cache: "OrderedDict[int, bytes]" = OrderedDict()
        checksum = 0
        out = self._rows_out
        for position, key in enumerate(self._keys):
            page = cache.get(key)
            if page is None:
                page = self._pages[key]
                checksum ^= zlib.crc32(page)
                cache[key] = page
                if len(cache) > _LRU_PAGES:
                    cache.popitem(last=False)
            else:
                cache.move_to_end(key)
            out[position] = np.frombuffer(
                page,
                dtype=np.float64,
                count=32,
                offset=(position % 16) * _ROW_BYTES,
            )
        return checksum

    def numeric(self) -> float:
        """Cache-resident numeric work: gather, einsum, matmul.

        Every output is preallocated, so the kernel's time does not
        depend on what state the process's allocator is in.
        """
        np.take(self._table, self._gather, axis=0, out=self._rows)
        np.einsum("ij,nj->ni", self._matrix, self._rows, out=self._mixed)
        np.matmul(self._mixed, self._weights, out=self._product)
        return float(self._product[0, 0])

    def bandwidth(self) -> float:
        """Bandwidth-bound: the (B, k, d, d) temporary, written and read.

        The 21 MB buffer is far larger than the caches, so the kernel
        runs at memory speed; it is allocated once, because fresh pages
        cost whatever the kernel's memory management happens to be
        doing, which is neither host speed nor repeatable.
        """
        np.take(self._transfer, self._relations, axis=0, out=self._gathered)
        np.einsum(
            "bkij,bkj->bki", self._gathered, self._heads, out=self._projected
        )
        return float(self._projected[0, 0, 0])


def load_reference() -> Dict[str, float]:
    """The frozen per-kernel reference times, in milliseconds."""
    document = json.loads(REFERENCE_PATH.read_text("utf-8"))
    reference = document["calibration_reference_ms"]
    return {kernel: float(reference[kernel]) for kernel in KERNELS}


def load_weights(workload: str) -> Dict[str, Dict[str, float]]:
    """The frozen kernel mixes of ``workload``: how much of each regime
    its ``"setup"`` chain and its ``"rounds"`` are made of.  The weights
    of one mix sum to 1."""
    document = json.loads(REFERENCE_PATH.read_text("utf-8"))
    return {
        phase: {kernel: float(mix[kernel]) for kernel in KERNELS}
        for phase, mix in document["calibration_weights"][workload].items()
    }


def speed_factor(
    before: Mapping[str, float],
    after: Mapping[str, float],
    reference: Mapping[str, float],
    weights: Mapping[str, float],
) -> float:
    """Weighted geometric mean over kernels of ``reference / measured``.

    ``measured`` is the mean of the calibrations either side of the
    round.  Below 1 the host ran slower than the reference machine.
    """
    log_sum = 0.0
    for kernel in KERNELS:
        measured = 0.5 * (before[kernel] + after[kernel])
        log_sum += weights[kernel] * math.log(reference[kernel] / measured)
    return math.exp(log_sum)


class Calibrator:
    """Times the kernels; ``clock`` is injectable for the maths tests."""

    def __init__(
        self,
        reference: Mapping[str, float],
        clock: Callable[[], float] = time.perf_counter,
        kernels: Optional[Kernels] = None,
    ) -> None:
        self.reference = dict(reference)
        self.clock = clock
        self.kernels = kernels if kernels is not None else Kernels()
        #: Every calibration taken, in order (``harness.calib_*_ms``).
        self.history: list = []

    def measure(self) -> Dict[str, float]:
        """One calibration: milliseconds per kernel.

        Each kernel runs twice and the second run is timed.  The first
        pulls the kernel's working set back into the caches the round
        before it emptied; timed cold, the same kernel read 20-50 %
        slower inside a pass than alone, with 10x outliers, so it
        reported what the workload had just done, not how fast the
        host was.  Garbage collection is held off for the same reason.
        """
        sample: Dict[str, float] = {}
        collecting = gc.isenabled()
        gc.disable()
        try:
            for kernel in KERNELS:
                run = getattr(self.kernels, kernel)
                run()
                started = self.clock()
                run()
                sample[kernel] = (self.clock() - started) * 1e3
        finally:
            if collecting:
                gc.enable()
        self.history.append(sample)
        return sample

    def factor(
        self,
        before: Mapping[str, float],
        after: Mapping[str, float],
        weights: Mapping[str, float],
    ) -> float:
        return speed_factor(before, after, self.reference, weights)
