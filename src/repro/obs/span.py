"""Per-packet stage spans: the tracing half of :mod:`repro.obs`.

Every packet traversing an instrumented host leaves a lifecycle of
*stage spans*: ``nic_ring -> vswitch_queue -> sched_stall -> nf_service
-> reorder_buffer`` leaf stages that partition its end-to-end latency,
an enclosing ``path_transit`` span (whole-path sojourn), and a ``sink``
delivery instant.  Components report ``(time, stage, packet_id, dt,
extra)`` records to a :class:`SpanTracer`; the breakdown analyses and
the exporters (:mod:`repro.obs.export`) consume them.

Tracing is off by default: the :data:`NullTracer` singleton swallows all
records, and hot-path call sites guard with ``if tracer.enabled:`` so a
disabled run pays one attribute read per potential record and model code
never needs ``if tracer is not None:`` branches.

This module subsumes the old ``repro.sim.trace``; that alias went
through the full deprecation cycle (warned in 1.x) and was removed in
2.0 -- import from :mod:`repro.obs` only.
"""

from __future__ import annotations

from array import array
from typing import Any, Dict, Iterator, List, NamedTuple, Tuple

import numpy as np

#: Leaf stages, in lifecycle order.  Their ``dt`` values partition a
#: packet's end-to-end latency: summed per packet they reproduce
#: ``t_done - t_nic`` exactly (modulo float rounding) on fault-free runs.
LEAF_STAGES = (
    "nic_ring",        # rx-ring wait + rx processing (t_nic -> dispatch)
    "vswitch_queue",   # path-queue wait (t_enq -> batch service start)
    "sched_stall",     # vCPU wait: serialization behind the batch + stalls
    "nf_service",      # chain execution (includes mid-service stalls)
    "reorder_buffer",  # hold time in the sequence-restoring buffer
)

#: Enclosing spans: overlap the leaf stages, excluded from breakdown sums.
ENCLOSING_STAGES = ("path_transit",)

#: Zero-duration instants.  ``sink`` marks delivery; ``replicate`` marks
#: a replicated send, recorded on the primary copy with the clone pids
#: and chosen paths in ``extra`` (consumed by :mod:`repro.obs.forensics`
#: for replication-loss attribution).
INSTANT_STAGES = ("sink", "replicate")

#: Every stage name an instrumented host can emit.
ALL_STAGES = LEAF_STAGES + ENCLOSING_STAGES + INSTANT_STAGES

#: Stage name -> code in the stage column.  Codes of :data:`ALL_STAGES`
#: are fixed; other names get per-tracer codes from ``len(ALL_STAGES)``.
STAGE_CODE = {stage: code for code, stage in enumerate(ALL_STAGES)}

#: Extra-column codes: ``>= 0`` is the path id itself.
_NO_EXTRA = -1     # extra is None
_REPLICATE = -2    # side table holds the replicate dict as (copies, paths)
_OPAQUE = -3       # side table holds the extra object itself


class TraceRecord(NamedTuple):
    """One stage-latency observation."""

    time: float  #: simulation time when the stage completed
    stage: str  #: stage label, e.g. "vswitch_queue"
    packet_id: int
    dt: float  #: time spent in the stage
    extra: Any  #: component payload; path stages carry the path id here

    @property
    def start(self) -> float:
        """Simulation time when the stage began."""
        return self.time - self.dt


class SpanColumns(NamedTuple):
    """A copy of a tracer's columns, one row per record in record order.

    ``extra`` holds the path id (``>= 0``), ``-1`` for ``None``, or a
    negative side-table code: decode those rows with
    :meth:`SpanTracer.extra_at`.  A ``time`` that was not a float is
    stored here as ``float(time)`` (``nan`` when it has none); the
    record accessors return the original object.
    """

    time: np.ndarray       #: float64
    stage: np.ndarray      #: stage codes, names in ``stages``
    packet_id: np.ndarray  #: int64
    dt: np.ndarray         #: float64
    extra: np.ndarray      #: int64
    stages: Tuple[str, ...]

    def code(self, stage: str) -> int:
        """Stage code of ``stage`` (``-1`` when nothing recorded it)."""
        try:
            return self.stages.index(stage)
        except ValueError:
            return -1


def _column(arr: array, dtype, copy: bool = True) -> np.ndarray:
    """``arr`` as a numpy array.  ``copy=False`` gives a zero-copy view
    for use inside one call only: while a view is alive the array
    cannot grow, so a view must never be returned or stored."""
    if not len(arr):
        return np.empty(0, dtype=dtype)
    view = np.frombuffer(arr, dtype=dtype)
    return view.copy() if copy else view


class SpanTracer:
    """Accumulates stage spans as columns, indexed per packet on demand.

    A record is one row across five typed columns (``time`` and ``dt``
    float64, ``packet_id`` int64, ``stage`` a code into
    :data:`ALL_STAGES`, ``extra`` the path id or ``-1``), so a run of
    any length retains no per-record Python objects.  The rare payloads
    that do not fit a column -- the ``replicate`` instant's ``{"copies":
    [...], "paths": [...]}`` dict, any other non-path ``extra``, a
    ``time`` that is not a float -- go to side tables keyed by row and
    come back unchanged from :attr:`records` and :meth:`per_packet`.

    The per-packet index is a stable argsort of the ``packet_id``
    column, built on the first per-packet query after the last record
    and never per record.  :meth:`packet_total` and :meth:`leaf_totals`
    use the builtin ``sum()`` over a packet's leaf ``dt``s in record
    order, so totals are the same floats on every Python version.
    """

    __slots__ = ("enabled", "_time", "_stage", "_pid", "_dt", "_extra",
                 "_side", "_odd_time", "_stages", "_codes", "_index")

    def __init__(self) -> None:
        self.enabled = True
        self.clear()

    def record(
        self,
        time: float,
        stage: str,
        packet_id: int,
        dt: float,
        extra: Any = None,
    ) -> None:
        """Append one observation."""
        if type(time) is not float:
            self._odd_time[len(self._pid)] = time
            try:
                time = float(time)
            except (TypeError, ValueError):
                time = float("nan")
        code = self._codes.get(stage)
        if code is None:
            code = self._codes[stage] = len(self._stages)
            self._stages.append(stage)
        if extra is None:
            extra = _NO_EXTRA
        elif type(extra) is not int or extra < 0:
            extra = self._stash(extra)
        self._time.append(time)
        self._stage.append(code)
        self._pid.append(packet_id)
        self._dt.append(dt)
        self._extra.append(extra)

    def _stash(self, extra: Any) -> int:
        """Put a non-path ``extra`` in the side table; returns its code."""
        row = len(self._pid)
        if (type(extra) is dict and list(extra) == ["copies", "paths"]
                and type(extra["copies"]) is list
                and type(extra["paths"]) is list):
            self._side[row] = (tuple(extra["copies"]), tuple(extra["paths"]))
            return _REPLICATE
        self._side[row] = extra
        return _OPAQUE

    def clear(self) -> None:
        """Drop all accumulated records."""
        self._time = array("d")
        self._stage = array("H")
        self._pid = array("q")
        self._dt = array("d")
        self._extra = array("q")
        self._side: Dict[int, Any] = {}
        self._odd_time: Dict[int, Any] = {}
        self._stages: List[str] = list(ALL_STAGES)
        self._codes: Dict[str, int] = dict(STAGE_CODE)
        self._index = None

    # ------------------------------------------------------------------
    # Column access
    # ------------------------------------------------------------------
    def columns(self) -> SpanColumns:
        """A numpy copy of every column (see :class:`SpanColumns`)."""
        return SpanColumns(
            _column(self._time, np.float64),
            _column(self._stage, np.uint16),
            _column(self._pid, np.int64),
            _column(self._dt, np.float64),
            _column(self._extra, np.int64),
            tuple(self._stages),
        )

    def extra_at(self, row: int) -> Any:
        """The ``extra`` recorded at ``row``, as it was passed in."""
        code = self._extra[row]
        if code >= 0:
            return code
        if code == _NO_EXTRA:
            return None
        if code == _REPLICATE:
            copies, paths = self._side[row]
            return {"copies": list(copies), "paths": list(paths)}
        return self._side[row]

    def _time_at(self, row: int) -> Any:
        if row in self._odd_time:
            return self._odd_time[row]
        return self._time[row]

    def _record_at(self, row: int) -> TraceRecord:
        return TraceRecord(self._time_at(row), self._stages[self._stage[row]],
                           self._pid[row], self._dt[row], self.extra_at(row))

    def spans(self) -> Iterator[Tuple[Any, str, int, float, Any]]:
        """``(time, stage, packet_id, dt, extra)`` per record, in record
        order: the fields of :attr:`records` without building a
        :class:`TraceRecord` per row."""
        times = self._time.tolist()
        for row, t in self._odd_time.items():
            times[row] = t
        names = self._stages
        extras = [None if code == _NO_EXTRA else code
                  for code in self._extra]
        for row in self._side:
            extras[row] = self.extra_at(row)
        return zip(times, [names[c] for c in self._stage],
                   self._pid.tolist(), self._dt.tolist(), extras)

    @property
    def records(self) -> List[TraceRecord]:
        """Every record, in record order (built on each access)."""
        return list(map(TraceRecord._make, self.spans()))

    # ------------------------------------------------------------------
    # Per-packet index
    # ------------------------------------------------------------------
    def _packet_index(self):
        """``(pids, starts, ends, order)``: sorted unique pids, their row
        ranges in ``order``, and ``order`` (rows sorted by pid, stable)."""
        n = len(self._pid)
        index = self._index
        if index is not None and index[0] == n:
            return index[1]
        pid = _column(self._pid, np.int64, copy=False)
        order = np.argsort(pid, kind="stable")
        spid = pid[order]
        bounds = np.flatnonzero(spid[1:] != spid[:-1]) + 1
        starts = np.concatenate(([0], bounds)) if n else bounds
        ends = np.concatenate((bounds, [n])) if n else bounds
        built = (spid[starts], starts, ends, order)
        self._index = (n, built)
        return built

    def rows(self, packet_id: int) -> np.ndarray:
        """Row numbers of one packet's records, in record order."""
        pids, starts, ends, order = self._packet_index()
        k = int(np.searchsorted(pids, packet_id))
        if k == len(pids) or pids[k] != packet_id:
            return order[:0]
        return order[starts[k]:ends[k]]

    def per_packet(self, packet_id: int) -> List[TraceRecord]:
        """All records for one packet, in insertion (time) order."""
        return [self._record_at(row) for row in self.rows(packet_id).tolist()]

    def packet_ids(self) -> List[int]:
        """Every packet id that has at least one record, in order of
        first appearance."""
        pids, starts, _, order = self._packet_index()
        return pids[np.argsort(order[starts])].tolist()

    def packet_total(self, packet_id: int) -> float:
        """Sum of this packet's *leaf* stage durations (its e2e latency)."""
        rows = self.rows(packet_id).tolist()
        if not rows:
            return 0.0
        stage, dt, leaf = self._stage, self._dt, _LEAF_CODES
        return sum([dt[r] for r in rows if stage[r] in leaf])

    def leaf_totals(self, packet_ids=None) -> Dict[int, float]:
        """:meth:`packet_total` of many packets in one pass.

        Keys are ``packet_ids`` in the given order (default: every
        packet, in :meth:`packet_ids` order).
        """
        pids, starts, ends, order = self._packet_index()
        if packet_ids is None:
            keys = pids[np.argsort(order[starts])]
        else:
            keys = np.asarray(list(packet_ids), dtype=np.int64)
        ks = np.searchsorted(pids, keys)
        known = np.zeros(len(keys), dtype=bool)
        inside = ks < len(pids)
        known[inside] = pids[ks[inside]] == keys[inside]
        leaf = np.isin(_column(self._stage, np.uint16, copy=False)[order],
                       list(_LEAF_CODES))
        # Leaf dts in (pid, record) order; a packet's leaf rows are the
        # leaf rows inside its [start, end) range of ``order``.
        dts = _column(self._dt, np.float64, copy=False)[order[leaf]].tolist()
        before = np.concatenate(([0], np.cumsum(leaf)))
        found = ks[known]
        spans = iter(zip(before[starts[found]].tolist(),
                         before[ends[found]].tolist()))
        out: Dict[int, float] = {}
        for pid, hit in zip(keys.tolist(), known.tolist()):
            if hit:
                lo, hi = next(spans)
                out[pid] = sum(dts[lo:hi])
            else:
                out[pid] = 0.0
        return out

    def replicate_copies(self) -> Dict[int, Tuple]:
        """Clone pids per primary pid, from the ``replicate`` instants
        whose ``extra`` is a dict (later instants of a pid win)."""
        out: Dict[int, Tuple] = {}
        code = self._codes["replicate"]
        for row in np.flatnonzero(
                _column(self._stage, np.uint16, copy=False) == code).tolist():
            kind = self._extra[row]
            if kind == _REPLICATE:
                copies = self._side[row][0]
            elif kind == _OPAQUE and isinstance(self._side[row], dict):
                copies = tuple(self._side[row].get("copies", ()))
            else:
                continue
            out[self._pid[row]] = copies
        return out

    # ------------------------------------------------------------------
    # Aggregates
    # ------------------------------------------------------------------
    def _stage_groups(self):
        """``(name, dts)`` per recorded stage, in order of first record."""
        cols = self.columns()
        codes, first = np.unique(cols.stage, return_index=True)
        for code in codes[np.argsort(first)].tolist():
            yield cols.stages[code], cols.dt[cols.stage == code].tolist()

    def by_stage(self) -> Dict[str, List[float]]:
        """Group ``dt`` values by stage label."""
        return dict(self._stage_groups())

    def stage_totals(self) -> Dict[str, float]:
        """Total time spent per stage across all packets."""
        out: Dict[str, float] = {}
        for stage, dts in self._stage_groups():
            total = 0.0
            for dt in dts:
                total += dt
            out[stage] = total
        return out

    def __len__(self) -> int:
        return len(self._pid)


#: Codes of the leaf stages in the stage column.
_LEAF_CODES = frozenset(STAGE_CODE[stage] for stage in LEAF_STAGES)


#: Backward-compatible name: the pre-obs ``Tracer`` is this class.
Tracer = SpanTracer


class _NullTracer:
    """No-op tracer used when tracing is disabled."""

    __slots__ = ()

    enabled = False
    records: List[TraceRecord] = []

    def record(self, time, stage, packet_id, dt, extra=None) -> None:
        pass

    def clear(self) -> None:
        pass

    def columns(self) -> SpanColumns:
        return SpanTracer().columns()

    def spans(self) -> Iterator[Tuple[Any, str, int, float, Any]]:
        return iter(())

    def by_stage(self) -> Dict[str, List[float]]:
        return {}

    def stage_totals(self) -> Dict[str, float]:
        return {}

    def rows(self, packet_id: int) -> np.ndarray:
        return np.empty(0, dtype=np.int64)

    def per_packet(self, packet_id: int) -> List[TraceRecord]:
        return []

    def packet_ids(self) -> List[int]:
        return []

    def packet_total(self, packet_id: int) -> float:
        return 0.0

    def leaf_totals(self, packet_ids=None) -> Dict[int, float]:
        return {pid: 0.0 for pid in packet_ids or ()}

    def replicate_copies(self) -> Dict[int, Tuple]:
        return {}

    def __len__(self) -> int:
        return 0


#: Shared no-op tracer instance.
NullTracer = _NullTracer()
