"""Calendar-queue scheduler backend.

A Brown-style calendar queue [Brown88]_: a power-of-two array of
*buckets*, each covering ``width`` units of simulated time, indexed by
``int(time / width) mod nbuckets``.  Steady-state inserts are O(1)
(bucket index + a push into a near-empty per-bucket heap) and the drain
visits buckets in calendar order, so the queue beats a single binary
heap when the schedule is large and times are spread evenly -- exactly
the regime of a packet-level simulation, where most pending entries sit
within a few service times of ``now``.

Ordering is **exact**, not approximate.  Entries are the engine's
4-tuples ``(time, key, fn, args)`` where ``key`` packs
``(priority << 52) | seq`` and is unique, and:

* the bucket map ``time -> int(time * inv_width)`` is monotonic, so an
  entry can never land in an *earlier* virtual bucket than any entry
  that precedes it in ``(time, key)`` order;
* each bucket is maintained as a heap on the full tuple, so same-bucket
  entries pop in exact ``(time, key)`` order;
* entries whose virtual bucket lies beyond the current calendar year
  share a physical bucket with current-year entries but are deferred by
  comparing ``int(head_time * inv_width)`` against the virtual bucket
  cursor -- the *same* rounding used at insert, so placement and drain
  can never disagree about when an entry is due.

Together these give the same total order a single ``heapq`` produces,
which is what lets ``Simulator`` treat the backend as a pure swap: same
seed => byte-identical results (pinned by ``tests/test_golden_determinism``
and the cross-backend tests).

Contract: a pushed entry's time must be >= the time of the last entry
popped (the no-scheduling-into-the-past law every ``Simulator`` API
already enforces).  Resizing (doubling above ``2 * nbuckets`` entries,
halving below ``nbuckets // 2``) re-derives the bucket width from the
gaps of the earliest entries and redistributes; redistribution preserves
entry identity, never touches sequence numbers, and is therefore
invisible to results.

.. [Brown88] R. Brown, "Calendar queues: a fast O(1) priority queue
   implementation for the simulation event set problem", CACM 31(10).
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush

#: Floor for the adaptive bucket width; guards against a zero-span sample.
_MIN_WIDTH = 1e-9
#: The bucket array never shrinks below this (power of two).
_MIN_BUCKETS = 16
#: Width is derived from the gaps of this many earliest entries.
_SAMPLE = 64

_INF = float("inf")


class CalendarQueue:
    """An exact-order calendar queue over ``(time, key, fn, args)`` tuples."""

    __slots__ = (
        "_buckets",
        "_nbuckets",
        "_mask",
        "_width",
        "_inv",
        "_count",
        "_hi",
        "_lo",
        "_vcur",
    )

    def __init__(self, width: float = 1.0, nbuckets: int = _MIN_BUCKETS) -> None:
        if nbuckets < 1 or nbuckets & (nbuckets - 1):
            raise ValueError(f"nbuckets must be a power of two, got {nbuckets}")
        if not width > 0.0:
            raise ValueError(f"width must be positive, got {width!r}")
        self._buckets: list = [[] for _ in range(nbuckets)]
        self._nbuckets = nbuckets
        self._mask = nbuckets - 1
        self._width = float(width)
        self._inv = 1.0 / self._width
        self._count = 0
        self._hi = nbuckets * 2
        self._lo = nbuckets // 2
        self._vcur = 0

    # ------------------------------------------------------------------
    # Inserting
    # ------------------------------------------------------------------
    def push(self, entry) -> None:
        """Insert one entry.  O(1) amortized; never resizes in-line.

        Resize checks happen at bucket boundaries of :meth:`drain` /
        :meth:`pop` so that a drain loop's hoisted locals can never go
        stale mid-bucket.
        """
        heappush(self._buckets[int(entry[0] * self._inv) & self._mask], entry)
        self._count += 1

    # ------------------------------------------------------------------
    # Inspection
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return self._count

    def peek_time(self) -> float:
        """Time of the earliest entry, or ``inf`` when empty."""
        if not self._count:
            return _INF
        return min(b[0] for b in self._buckets if b)[0]

    def _min_entry(self):
        return min(b[0] for b in self._buckets if b)

    # ------------------------------------------------------------------
    # Removing
    # ------------------------------------------------------------------
    def pop(self):
        """Pop and return the earliest entry (exact order).

        Raises ``IndexError`` when empty.  This is the step-at-a-time
        path; bulk dispatch goes through :meth:`drain`.
        """
        if not self._count:
            raise IndexError("pop from an empty CalendarQueue")
        if self._count > self._hi or (
            self._count < self._lo and self._nbuckets > _MIN_BUCKETS
        ):
            self._resize()
        buckets, mask, inv = self._buckets, self._mask, self._inv
        nb = self._nbuckets
        v = self._vcur
        scans = 0
        while True:
            b = buckets[v & mask]
            if b and int(b[0][0] * inv) <= v:
                e = heappop(b)
                self._count -= 1
                self._vcur = v
                return e
            v += 1
            scans += 1
            if scans >= nb:
                # A whole calendar year without a due entry: jump the
                # cursor straight to the year of the global minimum.
                v = int(self._min_entry()[0] * inv)
                scans = 0

    def drain(self, sim, until: float) -> None:
        """Dispatch every entry with ``time < until`` through ``sim``.

        This is the hot loop of the calendar backend: the bucket array,
        index math, and dispatch plumbing are hoisted into locals once
        per bucket visit.  The entry count drops before each callback
        runs, so ``len()`` read inside a callback is exact, as it is on
        the heap backend.  ``sim._now`` and ``sim._processed`` are kept
        exact (including when a callback raises ``StopSimulation``).
        ``until`` may be ``inf`` to run the schedule dry.
        """
        n = 0
        pop = heappop
        try:
            while self._count:
                # Bucket-boundary housekeeping: adapt the bucket array
                # before hoisting locals, never during a bucket.
                if self._count > self._hi or (
                    self._count < self._lo and self._nbuckets > _MIN_BUCKETS
                ):
                    self._resize()
                buckets, mask, inv = self._buckets, self._mask, self._inv
                width = self._width
                nb = self._nbuckets
                v = int(sim._now * inv)
                scans = 0
                while True:
                    b = buckets[v & mask]
                    before = n
                    # Entries sharing this physical bucket are either due
                    # this year (vi <= v, time < ~(v+1)*width) or a whole
                    # year or more away (vi >= v + nbuckets), so any limit
                    # inside that gap separates them exactly; (v+2)*width
                    # sits a full bucket clear of rounding on both sides.
                    # That turns the per-entry due-check into one float
                    # compare, like the heap drain's boundary test.
                    lim = (v + 2) * width
                    if until < lim:
                        lim = until
                    while b:
                        e = b[0]
                        t = e[0]
                        if t >= lim:
                            if t >= until and int(t * inv) <= v:
                                # Due this year: nothing anywhere can be
                                # earlier, so the drain is finished.
                                return
                            break  # bucket exhausted for this visit
                        pop(b)
                        self._count -= 1
                        sim._now = t
                        n += 1
                        fn = e[2]
                        if fn is None:  # _EVENT_MARKER
                            e[3]._process()
                        else:
                            fn(*e[3])
                    if n != before:
                        if not self._count:
                            return
                        if self._count > self._hi or self._count < self._lo:
                            # Callbacks pushed (or the bucket emptied)
                            # past a resize threshold -- fall out to the
                            # housekeeping loop to re-hoist locals.
                            break
                        scans = 0
                    else:
                        scans += 1
                        if scans >= nb:
                            e = self._min_entry()
                            if e[0] >= until:
                                return
                            # A whole year without a due entry: jump the
                            # cursor to the year of the global minimum.
                            v = int(e[0] * inv)
                            scans = 0
                            continue
                    v += 1
        finally:
            self._vcur = int(sim._now * self._inv)
            sim._processed += n

    # ------------------------------------------------------------------
    # Maintenance
    # ------------------------------------------------------------------
    def remove_if(self, pred) -> int:
        """Remove every entry for which ``pred(entry)`` is true.

        Used by the engine's lazy-deletion compactor.  Entry identity and
        relative order of survivors are untouched, so compaction is
        invisible to the simulated trajectory.  Returns the number of
        entries removed.
        """
        removed = 0
        for b in self._buckets:
            if not b:
                continue
            kept = [e for e in b if not pred(e)]
            if len(kept) != len(b):
                removed += len(b) - len(kept)
                b[:] = kept
                heapify(b)
        self._count -= removed
        return removed

    def _resize(self) -> None:
        """Adapt bucket count and width to the current population.

        Doubles while ``count > 2 * nbuckets``, halves while
        ``count < nbuckets // 2`` (never below ``_MIN_BUCKETS``), and
        re-derives the width from the average gap of the earliest
        ``_SAMPLE`` entries (Brown's rule, x3 so a bucket holds a few
        entries).  Runs in O(count log count); amortized O(1) per
        operation because the thresholds are geometric.
        """
        entries = []
        for b in self._buckets:
            entries.extend(b)
        nb = self._nbuckets
        count = len(entries)
        while count > nb * 2:
            nb <<= 1
        while count < nb // 2 and nb > _MIN_BUCKETS:
            nb >>= 1
        entries.sort()
        k = min(count, _SAMPLE)
        if k >= 2:
            span = entries[k - 1][0] - entries[0][0]
            if span > 0.0:
                width = 3.0 * span / k
                if width < _MIN_WIDTH:
                    width = _MIN_WIDTH
                self._width = width
                self._inv = 1.0 / width
        self._nbuckets = nb
        self._mask = mask = nb - 1
        self._hi = nb * 2
        self._lo = nb // 2
        inv = self._inv
        buckets = [[] for _ in range(nb)]
        for e in entries:
            # Ascending append keeps each bucket a valid heap.
            buckets[int(e[0] * inv) & mask].append(e)
        self._buckets = buckets
        self._vcur = int(entries[0][0] * inv) if entries else 0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<CalendarQueue n={self._count} buckets={self._nbuckets} "
            f"width={self._width:g}>"
        )
