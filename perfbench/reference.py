"""A fixed reference loop that tells how fast the host runs right now.

On a shared virtual machine the same code runs up to a third faster or
slower from one minute to the next, and a run of this benchmark sees
one such regime.  Each run therefore times this loop between its own
operations, and scales its timings to a host on which one loop takes
``NOMINAL_MS``: a timing t becomes ``t * NOMINAL_MS / median(loop)``.
The raw wall-clock figures go to stderr.

The loop is the benchmark's own code, with the steps of a query: a
block decode (searchsorted, gather, cumsum) of 40k postings, a BM25
score, a dense accumulate into 300k documents, a top-k select, Python
dictionary lookups of 3,000 tokens, and first touches of 2 MB of fresh
pages (large query arrays are page-faulted in).  A change to
``raystorm`` cannot move it: it allocates no array large enough for
the allocator to map, and maps its fresh pages itself, so how the
program under test has used the allocator does not change its speed.
The loop is timed in this thread's CPU time, not wall time, so work
that a change pushes onto other threads or processes is not divided
out: a query that waits for it still shows it, and the loop does not.

Over ten runs per workload on the benchmark's host, the spread
(interquartile range over median) of the query latency percentiles was
0.17-0.27 unscaled and 0.03-0.09 scaled.  Within one process, over
windows of a few seconds, the loop tracks the queries no better than
chance: it corrects the slower drift between runs, not second-to-second
jitter.
"""

from __future__ import annotations

import mmap
import statistics
import time

import numpy as np

#: the median sample on the host where the benchmark was written (a
#: 2.0 GHz Xeon VM); scaled timings are "ms on that host"
NOMINAL_MS = 5.0
#: a run takes a sample when this long has passed since the last one
EVERY_S = 0.25
#: loops per sample; a sample is their median
BURST = 3

_N = 40_000
_CHUNK = 4096
_BLOCK = 128
_DOCS = 300_000
_TOKENS = 3000
_FAULT_BYTES = 2 << 20
_PAGE = mmap.PAGESIZE


class Reference:
    """The loop's inputs, built once per process from a fixed seed, and
    the samples taken so far."""

    def __init__(self):
        rng = np.random.default_rng(20_240_601)
        self.deltas = rng.integers(1, 30, size=_N)
        self.tfs = rng.integers(1, 5, size=_N).astype(np.int32)
        self.dls = rng.integers(5, 40, size=_N).astype(np.int32)
        self.co = np.arange(0, _N + _BLOCK, _BLOCK)
        self.idx = np.arange(_N)
        self.acc = np.zeros(_DOCS)
        self.vocab = {f"w{i:04d}": i for i in range(5000)}
        self.text = " ".join(f"w{int(i):04d}" for i in rng.integers(0, 5000, size=_TOKENS))
        self.samples: list[int] = []
        self._last = 0.0

    def loop(self) -> int:
        """One pass of the loop; returns its thread CPU time in ns."""
        t0 = time.thread_time_ns()
        acc = self.acc
        acc.fill(0.0)
        base = 0
        for lo in range(0, _N, _CHUNK):
            idx = self.idx[lo : lo + _CHUNK]
            blk = np.searchsorted(self.co, idx, side="right") - 1
            docids = np.cumsum(self.deltas[self.co[blk] + (idx - self.co[blk])]) + base
            base = int(docids[-1])
            tf = self.tfs[lo : lo + _CHUNK].astype(np.float64)
            dl = self.dls[lo : lo + _CHUNK].astype(np.float64)
            s = 2.1 * (tf * 2.2) / (tf + 1.2 * (0.25 + 0.75 * dl / 20.0))
            acc[docids % _DOCS] += s
            np.argpartition(-s, 9)[:10]
        [self.vocab.get(w, -1) for w in self.text.split()]
        fresh = mmap.mmap(-1, _FAULT_BYTES)
        pages = np.frombuffer(fresh, np.uint8)
        pages[::_PAGE] = 1
        del pages
        fresh.close()
        return time.thread_time_ns() - t0

    def sample(self) -> None:
        """Record the median loop time of one burst."""
        self.samples.append(statistics.median(self.loop() for _ in range(BURST)))
        self._last = time.perf_counter()

    def tick(self) -> None:
        """Take a sample if ``EVERY_S`` has passed since the last one."""
        if time.perf_counter() - self._last >= EVERY_S:
            self.sample()

    def take(self, n: int) -> None:
        """Take ``n`` samples now."""
        for _ in range(n):
            self.sample()

    def scale(self) -> float:
        """Factor that turns this run's timings into nominal-host ones."""
        return NOMINAL_MS * 1e6 / statistics.median(self.samples)
