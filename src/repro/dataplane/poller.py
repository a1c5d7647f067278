"""Batch service loop (DPDK PMD / vhost worker).

The poller drains its :class:`~repro.dataplane.queues.PathQueue` in
batches: it dequeues up to ``batch_size`` packets, charges a fixed batch
overhead plus each packet's chain cost to its :class:`VCpu`, and emits
per-packet completions at each packet's individual finish time.  When the
queue empties the poller idles; a fresh enqueue wakes it after
``wakeup_latency`` (the vhost-kick / eventfd cost -- zero for a spinning
PMD core).

Completions go to ``sink(packet)``; packets the chain drops go to
``drop_sink(packet)`` if provided (CPU cost is charged either way, as in
real datapaths).
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.dataplane.queues import PathQueue
from repro.dataplane.vcpu import VCpu
from repro.elements.base import Chain
from repro.net.packet import Packet
from repro.obs.span import NullTracer
from repro.sim.engine import NORMAL, _SEQ_BITS, Simulator

#: Packed ordering key base for NORMAL-priority heap entries; the fast
#: service loop pushes completions directly (same tuples ``call_at``
#: would build, minus the call overhead).
_NORMAL_KEY = NORMAL << _SEQ_BITS


class Poller:
    """Serves one queue with one chain on one vCPU."""

    __slots__ = (
        "sim",
        "name",
        "queue",
        "vcpu",
        "chain",
        "sink",
        "drop_sink",
        "batch_size",
        "batch_overhead",
        "wakeup_latency",
        "_busy",
        "frozen",
        "degrade",
        "served",
        "batches",
        "service_time",
        "tracer",
        "track",
    )

    def __init__(
        self,
        sim: Simulator,
        queue: PathQueue,
        vcpu: VCpu,
        chain: Chain,
        sink: Callable[[Packet], None],
        name: str = "poller",
        batch_size: int = 32,
        batch_overhead: float = 0.25,
        wakeup_latency: float = 0.0,
        drop_sink: Optional[Callable[[Packet], None]] = None,
        tracer=NullTracer,
        track: Optional[int] = None,
    ) -> None:
        if batch_size <= 0:
            raise ValueError(f"batch_size must be positive, got {batch_size}")
        if batch_overhead < 0 or wakeup_latency < 0:
            raise ValueError("overheads must be >= 0")
        self.sim = sim
        self.name = name
        self.queue = queue
        self.vcpu = vcpu
        self.chain = chain
        self.sink = sink
        self.drop_sink = drop_sink
        self.batch_size = batch_size
        self.batch_overhead = batch_overhead
        self.wakeup_latency = wakeup_latency
        self._busy = False
        #: Fault-injection state: a frozen poller serves nothing until
        #: unfrozen (crash/hang); ``degrade`` multiplies chain costs.
        self.frozen = False
        self.degrade = 1.0
        self.served = 0
        self.batches = 0
        #: Sum of chain service costs charged (µs), for T2 accounting.
        self.service_time = 0.0
        #: Span tracer (observability) and the track id (path id) its
        #: spans are attributed to.
        self.tracer = tracer
        self.track = track
        queue.on_enqueue = self._on_enqueue

    # ------------------------------------------------------------------
    @property
    def busy(self) -> bool:
        """True while a batch is in service."""
        return self._busy

    def freeze(self) -> None:
        """Stop serving (fault injection); in-flight batch work completes."""
        self.frozen = True

    def unfreeze(self) -> None:
        """Resume serving; kicks the loop if backlog accumulated."""
        self.frozen = False
        if not self._busy and len(self.queue) > 0:
            self._busy = True
            self.queue.on_enqueue = None
            self.sim.call_in(0.0, self._serve_batch, priority=2)

    def _on_enqueue(self) -> None:
        if self._busy or self.frozen:
            return
        self._busy = True
        # While the serve loop is armed, pushes need no wakeup: unhook
        # the queue callback so the enqueue fast path skips the call.
        self.queue.on_enqueue = None
        if self.wakeup_latency > 0:
            self.sim.call_in(self.wakeup_latency, self._serve_batch)
        else:
            # Still defer by one event so that a burst arriving at the
            # same timestamp is served as one batch, not N singletons.
            self.sim.call_in(0.0, self._serve_batch, priority=2)

    def _serve_batch(self) -> None:
        if self.frozen:
            self._busy = False
            self.queue.on_enqueue = self._on_enqueue
            return
        batch = self.queue.pop_batch(self.batch_size)
        if not batch:
            self._busy = False
            self.queue.on_enqueue = self._on_enqueue
            return
        self.batches += 1
        sim = self.sim
        now = sim._now
        # Charge the fixed batch overhead first (descriptor handling).
        if self.batch_overhead > 0:
            self.vcpu.execute(now, self.batch_overhead)
        last_finish = now
        tracing = self.tracer.enabled
        if tracing:
            record = self.tracer.record
            track = self.track
        # A degraded path (fault injection) scales each packet's chain
        # cost after it is summed, as Chain.process then a multiply would.
        degrade = self.degrade
        degraded = degrade != 1.0
        sink = self.sink
        drop_sink = self.drop_sink
        st = self.service_time
        # Completions are pushed straight into the event scheduler.
        # Nothing inside this loop schedules, so the cached sequence
        # counter stays exact and every push allocates the same (time,
        # key) a call_at would have.  The vCPU charge is inlined for the
        # stall-free case (the same arithmetic as VCpu.execute's fast
        # branch); any slice that could touch a stall window syncs state
        # back and takes the full call.
        push = sim._push
        seq = sim._seq
        vcpu = self.vcpu
        vcpu_execute = vcpu.execute
        free_at = vcpu._free_at
        s_start = vcpu._stall_start
        s_end = vcpu._stall_end
        bt = vcpu.busy_time
        nex = vcpu.executions
        chain = self.chain
        procs = chain._procs
        nproc = chain.processed
        for pkt in batch:
            # Inlined Chain.process (same accumulation order).
            nproc += 1
            cost = 0.0
            for proc in procs:
                cost += proc(pkt, now)
                if pkt.dropped is not None:
                    chain.dropped += 1
                    break
            if degraded:
                cost *= degrade
            st += cost
            start = now if now > free_at else free_at
            if s_end > start and s_start > start and cost <= s_start - start:
                free_at = finish = start + cost
                bt += cost
                nex += 1
            else:
                vcpu._free_at = free_at
                vcpu.busy_time = bt
                vcpu.executions = nex
                start, finish = vcpu_execute(now, cost)
                free_at = vcpu._free_at
                s_start = vcpu._stall_start
                s_end = vcpu._stall_end
                bt = vcpu.busy_time
                nex = vcpu.executions
            pkt.t_deq = start
            last_finish = finish
            if tracing:
                # The three poller stages partition t_enq -> finish: wait
                # in queue, stall before service (batch overhead +
                # serialization behind batchmates + vCPU jitter), then
                # service itself (mid-service stalls included).
                pid = pkt.pid
                record(now, "vswitch_queue", pid, now - pkt.t_enq, track)
                record(start, "sched_stall", pid, start - now, track)
                record(finish, "nf_service", pid, finish - start, track)
            if pkt.dropped is None:
                seq += 1
                push((finish, _NORMAL_KEY | seq, sink, (pkt,)))
            elif drop_sink is not None:
                seq += 1
                push((finish, _NORMAL_KEY | seq, drop_sink, (pkt,)))
        vcpu._free_at = free_at
        vcpu.busy_time = bt
        vcpu.executions = nex
        chain.processed = nproc
        # Loop: look for the next batch once this one's work is done.
        seq += 1
        push((last_finish, _NORMAL_KEY | seq, self._serve_batch, ()))
        sim._seq = seq
        self.service_time = st
        self.served += len(batch)

    def stats(self) -> dict:
        """Snapshot of service counters."""
        return {
            "served": self.served,
            "batches": self.batches,
            "service_time": self.service_time,
            "mean_batch": self.served / self.batches if self.batches else float("nan"),
        }
