"""The process backend: :meth:`PacketRuntime.serve` on forked workers.

``RuntimeConfig(backend="serial")`` (the default) makes ``serve`` the
serial :meth:`PacketRuntime.dispatch`.  ``backend="process"`` hands it
to :class:`ProcessBackend`, which must be semantically invisible:
verdicts, per-extension counters, cycle clocks, histograms, and
quarantine transitions are bit-identical to the serial reference.  Only
the report's wall-clock phases (and its ``backend`` tag) may differ.

``ProcessBackend`` serves shard 0 in the calling process and forks one
shared-nothing worker for each of shards 1…N−1, before the parent
mutates anything; a one-shard serve forks nothing.  Each child inherits
(copy-on-write) the runtime it will serve — its shard's
:class:`~repro.alpha.machine.Memory`, engines, batch runners, the
extension table, and the contract-filtered frame list, from which it
takes its own round-robin slice ``kept[index::count]`` — executes that
slice exactly as serial dispatch would, then ships back only the *state
deltas*: shard clock and packet count, each extension's
:class:`~repro.runtime.extension.ShardCounters` for that one shard, and
its fault ledger.  The parent merges payloads **in shard-index order**,
so the merged state is a pure function of the dispatch inputs, not of
process scheduling:

* per-shard counters are disjoint by construction (shard ``i``'s worker
  is the only writer of ``shard_counters[i]``), so merging is assignment,
  not arithmetic, and cycle *histograms* make latency percentiles exact
  under any merge order;
* the fault ledger (``consecutive_faults``, ``last_fault``) is
  runtime-wide, but every child starts from the pre-serve ledger.  The
  merge folds it as serial dispatch, which runs the shards one after
  another, would: from the parent's ledger after shard 0, each child in
  turn adds its faults (or, if any of its invocations succeeded,
  replaces the run with the faults after its last success) and its last
  fault, if it recorded one this serve.  A run of faults that spans
  shards is folded exactly, but no one process sees all of it, so the
  quarantine threshold is checked per process;
* a quarantine crosses the process boundary as an event, between
  dispatch chunks (``batch_size`` is the relay granularity).  A child
  reports its transition as soon as it happens; the parent relays a
  **deactivation** to the other children and stops serving that
  extension on shard 0 without touching its ledger.  A quarantine on
  shard 0 is relayed to every child.  Either way every shard skips the
  extension from its next chunk on, modulo packets already in flight.
  The merge replays a child's transition once, unless shard 0 already
  made it, so ``quarantines`` counts each event exactly once, like the
  lock-guarded ``record_fault``.

Budget semantics need no relaying at all: budgets are resolved at
admission and carried by the extension objects the children inherit.

A worker that dies fails the serve with ``RuntimeError`` once every
child is reaped; shard 0's share of the serve stays applied, and no
child's is merged.  If the caller's own shard-0 dispatch raises, the
children are killed and reaped before the exception propagates.

The process backend requires ``os.fork`` (POSIX).  Where it is missing,
or while a canary upgrade is in flight (promotion mutates the shared
extension table through a runtime-lock callback that cannot span
processes), ``serve`` falls back to serial dispatch — reported honestly
via the report's ``backend`` field.
"""

from __future__ import annotations

import os
import pickle
import signal
import time
from functools import partial
from multiprocessing import Pipe
from multiprocessing.connection import wait

from repro.runtime.extension import ExtensionState
from repro.runtime.runtime import DispatchReport

__all__ = ["ProcessBackend"]


def _chunks(kept, index, count, batch_size):
    """Shard ``index``'s round-robin slice of ``kept`` in chunks of
    ``batch_size`` frames, each sliced straight from ``kept``."""
    step = batch_size * count
    for start in range(index, len(kept), step):
        yield kept[start:start + step:count]


class _Children:
    """The forked workers of one serve, seen from the parent."""

    def __init__(self) -> None:
        self.open: dict = {}      # parent-side conn -> shard index
        self.pids: list[int] = []
        self.payloads: dict[int, dict] = {}
        self.failures: dict[int, str] = {}

    def fork(self, index, run) -> None:
        """Fork the worker for shard ``index``; the child calls
        ``run(conn)``, which must not return."""
        parent_conn, child_conn = Pipe()
        pid = os.fork()
        if pid == 0:
            parent_conn.close()
            run(child_conn)
            os._exit(0)  # unreachable; run always exits
        child_conn.close()
        self.pids.append(pid)
        self.open[parent_conn] = index

    def send(self, message, skip=None) -> None:
        """Send ``message`` to every live child but ``skip``."""
        for conn in self.open:
            if conn is not skip:
                try:
                    conn.send(message)
                except OSError:
                    pass  # finished and gone: it needs no relay

    def receive(self, timeout=None) -> list[str]:
        """Handle the events ready within ``timeout`` (``None`` blocks
        until one is): relay each child quarantine to the other
        children, collect payloads and failures.  Returns the names the
        children quarantined."""
        quarantined = []
        for conn in wait(list(self.open), timeout):
            index = self.open[conn]
            try:
                kind, value = conn.recv()
            except (EOFError, OSError):
                kind, value = "error", "worker exited without a payload"
            if kind == "quarantine":
                self.send(("deactivate", value), skip=conn)
                quarantined.append(value)
                continue
            if kind == "done":
                self.payloads[index] = pickle.loads(value)
            else:
                self.failures[index] = value
            del self.open[conn]
            conn.close()
        return quarantined

    def kill(self) -> None:
        for pid in self.pids:
            try:
                os.kill(pid, signal.SIGKILL)
            except ProcessLookupError:
                pass

    def reap(self) -> None:
        for conn in self.open:
            conn.close()
        for pid in self.pids:
            os.waitpid(pid, 0)


class ProcessBackend:
    """Shard 0 in the caller, one forked shared-nothing worker for each
    other shard."""

    name = "process"

    def serve(self, runtime, frames) -> DispatchReport:
        extensions = runtime.extensions
        if not hasattr(os, "fork") or any(
                extension.canary is not None for extension in extensions):
            # A canary's promotion/rollback runs a runtime-lock callback
            # that must mutate the one true extension table; see the
            # module docstring.
            return runtime.dispatch(frames)
        began = time.perf_counter()
        kept, drops = runtime._apply_contract(frames)
        shards = runtime.shards
        count = len(shards)
        before = [shard.cycles for shard in shards]
        runs = {extension.name: extension.consecutive_faults
                for extension in extensions}
        contracted = time.perf_counter()

        children = _Children()
        try:
            for index in range(1, count):
                children.fork(index, partial(self._child, runtime, index,
                                             extensions, kept))
            forked = time.perf_counter()
            self._serve_shard0(runtime, extensions, kept, children)
            while children.open:
                children.receive()
        except BaseException:
            children.kill()
            raise
        finally:
            children.reap()
        executed = time.perf_counter()
        if children.failures:
            index = min(children.failures)
            raise RuntimeError(
                f"process-backend worker for shard {index} died:\n"
                f"{children.failures[index]}")
        self._merge(runtime, extensions, children.payloads, runs)
        merged = time.perf_counter()
        return DispatchReport(
            packets=len(kept), contract_drops=drops,
            phase_seconds={"contract": contracted - began,
                           "fork": forked - contracted,
                           "execute": executed - forked,
                           "merge": merged - executed},
            shard_cycles=tuple(shard.cycles - prior for shard, prior
                               in zip(shards, before)),
            clock_mhz=runtime.config.cost_model.clock_mhz,
            backend=self.name)

    def _serve_shard0(self, runtime, extensions, kept, children) -> None:
        """Shard 0's slice in the caller, relaying quarantines both ways
        between chunks."""
        shard = runtime.shards[0]
        serving = list(extensions)
        for chunk in _chunks(kept, 0, len(runtime.shards),
                             runtime.config.batch_size):
            if children.open:
                remote = children.receive(timeout=0)
                if remote:
                    # Skip it here, but leave the ledger to the merge,
                    # which replays the child's transition.
                    serving = [extension for extension in serving
                               if extension.name not in remote]
            active = [extension for extension in serving
                      if extension.active]
            shard.dispatch(chunk, serving, runtime.policy)
            for extension in active:
                if not extension.active:
                    children.send(("deactivate", extension.name))

    # -- child side ------------------------------------------------------

    def _child(self, runtime, index, extensions, kept, conn) -> None:
        try:
            shard = runtime.shards[index]
            baseline = {extension.name: extension.quarantines
                        for extension in extensions}
            for chunk in _chunks(kept, index, len(runtime.shards),
                                 runtime.config.batch_size):
                self._drain_deactivations(conn, extensions)
                shard.dispatch(chunk, extensions, runtime.policy)
                for extension in extensions:
                    if extension.quarantines > baseline[extension.name]:
                        baseline[extension.name] = extension.quarantines
                        conn.send(("quarantine", extension.name))
            conn.send(("done", self._payload(shard, extensions)))
            conn.close()
        except BaseException:
            import traceback
            try:
                conn.send(("error", traceback.format_exc()))
                conn.close()
            except OSError:
                pass
            os._exit(1)
        os._exit(0)

    @staticmethod
    def _drain_deactivations(conn, extensions) -> None:
        while conn.poll():
            kind, name = conn.recv()
            if kind == "deactivate":
                for extension in extensions:
                    if extension.name == name:
                        # Remote quarantine: stop serving, but leave the
                        # ledger alone — the parent's merge replays the
                        # full transition exactly once.
                        extension.active = False

    def _payload(self, shard, extensions) -> bytes:
        """One worker's state delta, pickled eagerly so the expensive
        serialization runs in the child, parallel to other workers."""
        return pickle.dumps({
            "cycles": shard.cycles,
            "packets": shard.packets,
            "canary_cycles": shard.canary_cycles,
            "extensions": {
                extension.name: {
                    "counters": extension.shard_counters[shard.index],
                    "consecutive_faults": extension.consecutive_faults,
                    "last_fault": extension.last_fault,
                    "quarantined":
                        extension.state is ExtensionState.QUARANTINED,
                }
                for extension in extensions
            },
        }, protocol=pickle.HIGHEST_PROTOCOL)

    # -- parent side -----------------------------------------------------

    def _merge(self, runtime, extensions, payloads, runs) -> None:
        """Fold the children's deltas into the parent, in shard-index
        order, as serial dispatch would run their slices after shard 0's;
        ``runs`` holds each extension's pre-serve fault run, which every
        child started from."""
        for index in sorted(payloads):
            payload = payloads[index]
            shard = runtime.shards[index]
            # Children inherit the parent's clocks, so these are
            # absolute values, not deltas.
            shard.cycles = payload["cycles"]
            shard.packets = payload["packets"]
            shard.canary_cycles = payload["canary_cycles"]
            for extension in extensions:
                delta = payload["extensions"][extension.name]
                old = extension.shard_counters[index]
                new = delta["counters"]
                extension.shard_counters[index] = new
                if new.packets_in - new.faults > old.packets_in - old.faults:
                    # A success reset the child's run: what is left is
                    # the faults after its last success.
                    extension.consecutive_faults = delta["consecutive_faults"]
                else:
                    extension.consecutive_faults += (
                        delta["consecutive_faults"] - runs[extension.name])
                if new.faults > old.faults:
                    extension.last_fault = delta["last_fault"]
                if delta["quarantined"] and extension.active:
                    # Replay the transition exactly once, as
                    # record_fault's lock-guarded `self.active` check
                    # does in-process.
                    extension.state = ExtensionState.QUARANTINED
                    extension.active = False
                    extension.quarantines += 1
