"""The shard supervisor: crash-restart, bounded ingress, load shedding.

:meth:`PacketRuntime.serve` trusts its shards absolutely — an error
mid-slice ends the call, and an unbounded frame list is handed to each
shard up front.  This module is the production posture: each shard
gets a **bounded ingress queue** and a worker thread that drains it,
while a supervisor thread health-checks the workers and **restarts
crashed ones** (bounded restarts, exponential backoff).  The recovery
invariants, enforced by the chaos suite:

* a crash loses no packets and reorders none — the packet a worker died
  on is pushed back to the *front* of its queue, and per-shard order is
  queue order, so a fault-free extension's verdict stream is
  bit-identical to a crash-free run;
* a shard that exhausts its restart budget is declared **failed**: its
  remaining ingress is shed and *counted* (never silent), and the other
  shards are untouched;
* when a queue saturates, the feeder waits up to ``shed_timeout`` for
  space and then sheds the frame, again counted — bounded memory,
  graceful degradation, honest telemetry;
* mean time to recovery is measured, not guessed: every restart records
  crash-detection-to-running latency.

The supervisor never touches dispatch semantics: round-robin assignment
and per-shard packet order match :meth:`PacketRuntime.serve` exactly, so
a healthy supervised run produces bit-identical verdicts and counters
(and identical modeled cycles — supervision is host-side machinery and
costs zero modeled time).

Supervised serve runs its workers on **threads** by design: they exist
for crash-restart, which works by re-running the dispatch callable on a
fresh worker thread against shared queues and a shared extension table,
none of which can span a forked worker.  ``serve_supervised`` therefore
ignores ``RuntimeConfig.backend`` — the process backend
(:mod:`repro.runtime.backends`) applies to plain :meth:`PacketRuntime
.serve` only, where a worker's whole slice is handed over up front and
merged on join.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from dataclasses import dataclass, field

__all__ = [
    "IngressQueue",
    "InjectedCrash",
    "ShardSupervisor",
    "SupervisorReport",
]

#: Returned by :meth:`IngressQueue.get` when the stream is closed and
#: drained — the worker's signal to exit cleanly.
CLOSE = object()


class InjectedCrash(RuntimeError):
    """A chaos-injected worker-thread crash (see ``fault_hook``)."""


class IngressQueue:
    """A bounded FIFO with front-requeue, shed-fast rejection, and a
    close-when-drained end-of-stream signal.

    ``put`` blocks up to ``timeout`` for space (the backpressure path)
    and returns False when the caller should shed instead.  A failed
    shard's queue is flipped to *rejecting*: every put fails fast and
    blocked putters wake immediately.  ``push_front`` re-queues the
    packet a crashed worker was holding ahead of everything else —
    capacity is deliberately ignored there, because dropping or
    reordering it would break the bit-identical recovery invariant.
    """

    def __init__(self, capacity: int) -> None:
        if capacity < 1:
            raise ValueError("queue capacity must be positive")
        self.capacity = capacity
        self._items: deque = deque()
        self._cond = threading.Condition()
        self._closed = False
        self._rejecting = False

    def put(self, item, timeout: float = 0.0) -> bool:
        deadline = time.monotonic() + timeout
        with self._cond:
            while True:
                if self._rejecting:
                    return False
                if len(self._items) < self.capacity:
                    break
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    return False
                self._cond.wait(remaining)
            self._items.append(item)
            self._cond.notify_all()
            return True

    def push_front(self, item) -> None:
        with self._cond:
            self._items.appendleft(item)
            self._cond.notify_all()

    def get(self):
        """The next item, blocking; :data:`CLOSE` once closed + drained."""
        with self._cond:
            while not self._items:
                if self._closed:
                    return CLOSE
                self._cond.wait()
            item = self._items.popleft()
            self._cond.notify_all()
            return item

    def close(self) -> None:
        with self._cond:
            self._closed = True
            self._cond.notify_all()

    def reject(self) -> list:
        """Fail the queue: drop + return pending items, fail-fast puts."""
        with self._cond:
            self._rejecting = True
            pending = list(self._items)
            self._items.clear()
            self._cond.notify_all()
            return pending

    def __len__(self) -> int:
        with self._cond:
            return len(self._items)


class _Worker:
    """One shard's worker slot: the live thread plus its ledger."""

    def __init__(self, shard) -> None:
        self.shard = shard
        self.thread: threading.Thread | None = None
        self.queue: IngressQueue | None = None
        self.state = "idle"   # idle|running|crashed|failed|done
        self.dispatched = 0
        self.sheds = 0
        self.crashes = 0
        self.restarts = 0
        self.crash_time = 0.0
        self.last_error: str | None = None

    def note_crash(self, error: BaseException) -> None:
        self.crashes += 1
        self.last_error = f"{type(error).__name__}: {error}"
        self.crash_time = time.perf_counter()
        self.state = "crashed"   # written last: the monitor's trigger

    def health(self) -> dict:
        return {
            "shard": self.shard.index,
            "state": self.state,
            "dispatched": self.dispatched,
            "shed": self.sheds,
            "crashes": self.crashes,
            "restarts": self.restarts,
            "queue_depth": len(self.queue) if self.queue else 0,
            "last_error": self.last_error,
        }


@dataclass(frozen=True)
class SupervisorReport:
    """Outcome of one :meth:`ShardSupervisor.run` (≈ DispatchReport plus
    the recovery ledger)."""

    packets: int
    dispatched: int
    shed: int
    contract_drops: int
    crashes: int
    restarts: int
    failed_shards: tuple[int, ...]
    mttr_seconds: tuple[float, ...]
    wall_seconds: float
    shard_cycles: tuple[int, ...]
    clock_mhz: float
    workers: tuple[dict, ...] = field(default_factory=tuple)

    @property
    def healthy(self) -> bool:
        """No packets lost, no shard abandoned."""
        return not self.failed_shards and self.shed == 0 \
            and self.dispatched == self.packets

    @property
    def mean_mttr_seconds(self) -> float:
        if not self.mttr_seconds:
            return 0.0
        return sum(self.mttr_seconds) / len(self.mttr_seconds)

    @property
    def modeled_seconds(self) -> float:
        if not self.shard_cycles:
            return 0.0
        return max(self.shard_cycles) / (self.clock_mhz * 1e6)

    def to_dict(self) -> dict:
        return {
            "packets": self.packets,
            "dispatched": self.dispatched,
            "shed": self.shed,
            "contract_drops": self.contract_drops,
            "crashes": self.crashes,
            "restarts": self.restarts,
            "failed_shards": list(self.failed_shards),
            "mttr_seconds": list(self.mttr_seconds),
            "mean_mttr_seconds": self.mean_mttr_seconds,
            "wall_seconds": self.wall_seconds,
            "shard_cycles": list(self.shard_cycles),
            "clock_mhz": self.clock_mhz,
            "healthy": self.healthy,
            "workers": list(self.workers),
        }


class ShardSupervisor:
    """Supervised dispatch over a :class:`PacketRuntime`'s shards.

    ``fault_hook(shard_index, sequence)`` is the chaos-injection point:
    called before every dispatch, anything it raises kills that worker
    thread exactly as an unexpected dispatch error would (the in-hand
    packet is requeued first, so recovery is exact).  Hooks are expected
    to be stateful — a hook that raises unconditionally for a shard will
    burn through the restart budget and fail it, which is itself a
    scenario the chaos suite exercises.
    """

    def __init__(self, runtime, fault_hook=None) -> None:
        self.runtime = runtime
        self.config = runtime.config
        self.fault_hook = fault_hook
        self.extensions = ()
        self.policy = runtime.policy
        self.workers = [_Worker(shard) for shard in runtime.shards]
        self.mttr: list[float] = []
        self._stop = threading.Event()

    # -- worker + monitor loops ------------------------------------------

    def _work(self, worker: _Worker) -> None:
        queue = worker.queue
        shard = worker.shard
        hook = self.fault_hook
        extensions = self.extensions
        policy = self.policy
        while True:
            item = queue.get()
            if item is CLOSE:
                worker.state = "done"
                return
            sequence, frame = item
            try:
                if hook is not None:
                    hook(shard.index, sequence)
                shard.dispatch([frame], extensions, policy)
            except BaseException as error:
                queue.push_front(item)   # exact recovery: nothing lost
                worker.note_crash(error)
                return
            worker.dispatched += 1

    def _spawn(self, worker: _Worker) -> None:
        worker.state = "running"
        worker.thread = threading.Thread(
            target=self._work, args=(worker,),
            name=f"pcc-supervised-shard-{worker.shard.index}", daemon=True)
        worker.thread.start()

    def _monitor(self) -> None:
        config = self.config
        while not self._stop.is_set():
            for worker in self.workers:
                if worker.state != "crashed":
                    continue
                if worker.restarts >= config.max_restarts:
                    worker.state = "failed"
                    worker.sheds += len(worker.queue.reject())
                    continue
                backoff = min(
                    config.restart_backoff_cap,
                    config.restart_backoff * (2 ** worker.restarts))
                time.sleep(backoff)
                worker.restarts += 1
                self.mttr.append(time.perf_counter() - worker.crash_time)
                self._spawn(worker)
            self._stop.wait(config.health_interval)

    # -- the run ----------------------------------------------------------

    def run(self, frames) -> SupervisorReport:
        runtime = self.runtime
        config = self.config
        kept, drops = runtime._apply_contract(frames)
        self.extensions = runtime.extensions
        count = len(self.workers)
        before = [worker.shard.cycles for worker in self.workers]

        for worker in self.workers:
            worker.queue = IngressQueue(config.ingress_capacity)
            self._spawn(worker)
        monitor = threading.Thread(target=self._monitor,
                                   name="pcc-supervisor", daemon=True)
        monitor.start()

        started = time.perf_counter()
        try:
            for sequence, frame in enumerate(kept):
                worker = self.workers[sequence % count]
                if worker.state == "failed" or not worker.queue.put(
                        (sequence, frame), timeout=config.shed_timeout):
                    worker.sheds += 1
            for worker in self.workers:
                worker.queue.close()
            # Workers exit when closed + drained; crashed ones are
            # revived (or failed) by the monitor until none is left
            # mid-stream.
            while any(worker.state in ("running", "crashed")
                      for worker in self.workers):
                time.sleep(config.health_interval)
        finally:
            self._stop.set()
            monitor.join()
            for worker in self.workers:
                if worker.thread is not None:
                    worker.thread.join(timeout=1.0)
        wall = time.perf_counter() - started

        return SupervisorReport(
            packets=len(kept),
            dispatched=sum(worker.dispatched for worker in self.workers),
            shed=sum(worker.sheds for worker in self.workers),
            contract_drops=drops,
            crashes=sum(worker.crashes for worker in self.workers),
            restarts=sum(worker.restarts for worker in self.workers),
            failed_shards=tuple(worker.shard.index
                                for worker in self.workers
                                if worker.state == "failed"),
            mttr_seconds=tuple(self.mttr),
            wall_seconds=wall,
            shard_cycles=tuple(worker.shard.cycles - prior
                               for worker, prior in zip(self.workers,
                                                        before)),
            clock_mhz=config.cost_model.clock_mhz,
            workers=tuple(worker.health() for worker in self.workers),
        )

    def health(self) -> list[dict]:
        """Point-in-time worker health (state, depth, ledger)."""
        return [worker.health() for worker in self.workers]
