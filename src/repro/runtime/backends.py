"""The process backend: :meth:`PacketRuntime.serve` on forked workers.

``RuntimeConfig(backend="serial")`` (the default) makes ``serve`` the
serial :meth:`PacketRuntime.dispatch`.  ``backend="process"`` hands it
to :class:`ProcessBackend`, which must be semantically invisible:
verdicts, per-extension counters, cycle clocks, histograms, and
quarantine transitions are bit-identical to the serial reference.  Only
``wall_seconds`` (and the report's ``backend`` tag) may differ.

``ProcessBackend`` forks one shared-nothing worker per shard.  Each
child inherits (copy-on-write) the runtime it will serve — its shard's
:class:`~repro.alpha.machine.Memory`, engines, batch runners, and the
extension table — executes its slice exactly as serial dispatch would,
then ships back only the *state deltas*: shard clock and packet count,
each extension's :class:`~repro.runtime.extension.ShardCounters` for
that one shard, and the fault ledger.  The parent merges payloads **in
shard-index order**, so the merged state is a pure function of the
dispatch inputs, not of process scheduling:

* per-shard counters are disjoint by construction (shard ``i``'s worker
  is the only writer of ``shard_counters[i]``), so merging is assignment,
  not arithmetic, and cycle *histograms* make latency percentiles exact
  under any merge order;
* ``consecutive_faults`` is runtime-wide in-process but per-worker in
  children; the merge takes the maximum — with faults on one shard only
  (the deterministic case) that equals the serial value exactly;
* a child that quarantines an extension reports the transition as soon
  as it happens (not at join), and the parent relays a **deactivation**
  to the other workers, who drain it between dispatch chunks: every
  shard skips it from its next chunk on, modulo packets already in
  flight.  The parent then replays the state transition once, so
  ``quarantines`` counts each event exactly once, like the lock-guarded
  ``record_fault``.

Budget semantics need no relaying at all: budgets are resolved at
admission and carried by the extension objects the children inherit.

The process backend requires ``os.fork`` (POSIX).  Where it is missing,
or while a canary upgrade is in flight (promotion mutates the shared
extension table through a runtime-lock callback that cannot span
processes), ``serve`` falls back to serial dispatch — reported honestly
via the report's ``backend`` field.
"""

from __future__ import annotations

import os
import pickle
import time
from array import array
from multiprocessing import Pipe
from multiprocessing.connection import wait

from repro.runtime.runtime import DispatchReport

__all__ = ["ProcessBackend"]


class ProcessBackend:
    """One forked shared-nothing worker process per shard."""

    name = "process"

    def serve(self, runtime, frames) -> DispatchReport:
        extensions = runtime.extensions
        if not hasattr(os, "fork") or any(
                extension.canary is not None for extension in extensions):
            # A canary's promotion/rollback runs a runtime-lock callback
            # that must mutate the one true extension table; see the
            # module docstring.
            return runtime.dispatch(frames)
        kept, drops = runtime._apply_contract(frames)
        shards = runtime.shards
        count = len(shards)
        before = [shard.cycles for shard in shards]

        # Flatten the kept frames into one contiguous blob + offsets
        # *before* forking.  Children slice their own frames out of the
        # inherited blob: touching a 100 MB list of bytes objects from a
        # forked child would dirty every object header with refcount
        # writes (copy-on-write amplification); slicing the blob touches
        # only the pages actually read.
        offsets = array("Q", [0]) + array(
            "Q", (len(frame) for frame in kept))
        total = len(kept)
        for index in range(1, total + 1):
            offsets[index] += offsets[index - 1]
        blob = b"".join(kept)

        started = time.perf_counter()
        workers = []          # (pid, receive_conn, send_conn)
        for index, shard in enumerate(shards):
            parent_conn, child_conn = Pipe()
            pid = os.fork()
            if pid == 0:
                parent_conn.close()
                self._child(runtime, shard, extensions, blob, offsets,
                            index, count, child_conn)
                os._exit(0)  # unreachable; _child always exits
            child_conn.close()
            workers.append((pid, parent_conn))
        payloads: dict[int, dict] = {}
        failures: dict[int, str] = {}
        self._parent_loop(workers, payloads, failures)
        for pid, conn in workers:
            conn.close()
            os.waitpid(pid, 0)
        wall = time.perf_counter() - started
        if failures:
            index = min(failures)
            raise RuntimeError(
                f"process-backend worker for shard {index} died:\n"
                f"{failures[index]}")
        self._merge(runtime, extensions, payloads, count)
        return DispatchReport(
            packets=total, contract_drops=drops, wall_seconds=wall,
            shard_cycles=tuple(shard.cycles - prior for shard, prior
                               in zip(shards, before)),
            clock_mhz=runtime.config.cost_model.clock_mhz,
            backend=self.name)

    # -- child side ------------------------------------------------------

    def _child(self, runtime, shard, extensions, blob, offsets,
               index, count, conn) -> None:
        try:
            mine = [blob[offsets[j]:offsets[j + 1]]
                    for j in range(index, len(offsets) - 1, count)]
            baseline = {extension.name: extension.quarantines
                        for extension in extensions}
            batch_size = runtime.config.batch_size
            policy = runtime.policy
            for start in range(0, len(mine), batch_size):
                self._drain_deactivations(conn, extensions)
                shard.dispatch(mine[start:start + batch_size],
                               extensions, policy)
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
            "shard_index": shard.index,
            "cycles": shard.cycles,
            "packets": shard.packets,
            "canary_cycles": shard.canary_cycles,
            "extensions": {
                extension.name: {
                    "counters": extension.shard_counters[shard.index],
                    "consecutive_faults": extension.consecutive_faults,
                    "last_fault": extension.last_fault,
                    "quarantined": not extension.active,
                    "state": extension.state,
                }
                for extension in extensions
            },
        }, protocol=pickle.HIGHEST_PROTOCOL)

    # -- parent side -----------------------------------------------------

    def _parent_loop(self, workers, payloads, failures) -> None:
        """Relay quarantine events between live workers; collect final
        payloads."""
        conns = {conn: (index, pid)
                 for index, (pid, conn) in enumerate(workers)}
        open_conns = dict(conns)
        while open_conns:
            for conn in wait(list(open_conns)):
                index, pid = open_conns[conn]
                try:
                    kind, value = conn.recv()
                except (EOFError, OSError):
                    del open_conns[conn]
                    if index not in payloads and index not in failures:
                        failures[index] = "worker exited without a payload"
                    continue
                if kind == "quarantine":
                    for other, (other_index, _) in conns.items():
                        if other is not conn and other in open_conns:
                            try:
                                other.send(("deactivate", value))
                            except (BrokenPipeError, OSError):
                                pass
                elif kind == "done":
                    payloads[index] = pickle.loads(value)
                    del open_conns[conn]
                elif kind == "error":
                    failures[index] = value
                    del open_conns[conn]

    def _merge(self, runtime, extensions, payloads, count) -> None:
        """Fold worker deltas back into the parent, in shard-index order
        so the result is independent of completion order."""
        from repro.runtime.extension import ExtensionState

        by_name = {extension.name: extension for extension in extensions}
        ordered = [payloads[index] for index in sorted(payloads)]
        for payload in ordered:
            shard = runtime.shards[payload["shard_index"]]
            # Children inherit the parent's clocks, so these are
            # absolute values, not deltas.
            shard.cycles = payload["cycles"]
            shard.packets = payload["packets"]
            shard.canary_cycles = payload["canary_cycles"]
            for name, delta in payload["extensions"].items():
                by_name[name].shard_counters[payload["shard_index"]] = \
                    delta["counters"]
        for name, extension in by_name.items():
            deltas = [payload["extensions"][name] for payload in ordered]
            extension.consecutive_faults = max(
                (delta["consecutive_faults"] for delta in deltas),
                default=0)
            for delta in deltas:
                if delta["last_fault"] is not None:
                    extension.last_fault = delta["last_fault"]
            quarantining = [delta for delta in deltas
                            if delta["quarantined"]
                            and delta["state"] is not None
                            and delta["state"] is ExtensionState.QUARANTINED]
            if quarantining and extension.active:
                # Replay the transition exactly once, as record_fault's
                # lock-guarded `self.active` check does in-process.
                first = quarantining[0]
                extension.state = first["state"]
                extension.active = False
                extension.quarantines += 1

