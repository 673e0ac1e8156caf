"""The process backend: :meth:`PacketRuntime.serve` on forked workers.

``RuntimeConfig(backend="serial")`` (the default) makes ``serve`` the
serial :meth:`PacketRuntime.dispatch`.  ``backend="process"`` hands it
to :class:`ProcessBackend`, which runs the same schedule of rounds (see
:mod:`repro.runtime.runtime`) and must be semantically invisible:
verdicts, counters, fault runs, cycle clocks, histograms, shard memory
and quarantine transitions are bit-identical to serial dispatch.  Only
the report's wall-clock fields (``phase_seconds``, ``reexecuted``) and
its ``backend`` tag may differ.

``ProcessBackend`` serves shard 0 in the calling process and forks one
worker for each of shards 1…N−1, before the caller mutates anything; a
one-shard serve forks nothing.  Each child inherits (copy-on-write) the
runtime it will serve — its shard's memory, engines, batch runners, the
extension table, and the contract-filtered frame list — and runs its
shard's chunk of every round.  After each round but its last, a child
sends its shard's state — the clocks, each extension's
:class:`~repro.runtime.extension.ShardCounters` for that shard, and the
shard's memory regions, pickled in the child — through one blocking
exchange, and waits for the names quarantined at that boundary.  After
its last round, that same state is its final payload.  At every
boundary the caller installs each child's state (assignment, not
arithmetic: shard ``i``'s worker is the only writer of shard ``i``'s
state), then runs the boundary step serial dispatch runs.  A round is a
pure function of the state at the last boundary, so nothing depends on
process scheduling.

A child that dies or raises shows up as EOF on its pipe.  The caller
then runs that shard's remaining rounds itself, starting from the state
installed at the last boundary (or from its own untouched copy, before
the first), and lists the shard in :attr:`DispatchReport.reexecuted`.
If that re-executed work raises, or shard 0's does, the exception
propagates from the caller once every child is killed and reaped.

The process backend requires ``os.fork`` (POSIX).  Where it is missing,
or while a canary upgrade is in flight (its promotion mutates the
shared extension table through a runtime-lock callback that cannot span
processes), ``serve`` falls back to serial dispatch — reported honestly
via the report's ``backend`` field.
"""

from __future__ import annotations

import os
import pickle
import signal
import time
import traceback
from multiprocessing import Pipe

from repro.runtime.runtime import DispatchReport, rounds

__all__ = ["ProcessBackend"]


def _state(shard, extensions) -> bytes:
    """``shard``'s state at a boundary, pickled in the child so the
    serialization runs in parallel with the other workers."""
    return pickle.dumps((
        shard.cycles, shard.packets, shard.canary_cycles,
        [extension.shard_counters[shard.index] for extension in extensions],
        [(region.name, bytes(region.data))
         for region in shard.memory._regions],
    ), protocol=pickle.HIGHEST_PROTOCOL)


def _install(shard, extensions, payload: bytes) -> None:
    """Make the caller's copy of ``shard`` the state a child sent."""
    (shard.cycles, shard.packets, shard.canary_cycles, counters,
     regions) = pickle.loads(payload)
    for extension, mine in zip(extensions, counters):
        extension.shard_counters[shard.index] = mine
    for name, data in regions:
        shard.memory.rebind_region(name, data)


class ProcessBackend:
    """Shard 0 in the caller, one forked worker for each other shard."""

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
        before = [shard.cycles for shard in shards]
        schedule = rounds(len(kept), len(shards), runtime.config.batch_size)
        contracted = time.perf_counter()

        pipes: dict = {}          # shard index -> caller's end
        pids: list[int] = []
        local = [shards[0]]       # the shards the caller runs
        reexecuted: dict[int, float] = {}
        merging = 0.0
        try:
            for shard in shards[1:]:
                pipes[shard.index] = self._fork(
                    runtime, shard, extensions, kept, schedule, pids)
            forked = time.perf_counter()
            for number, chunks in enumerate(schedule):
                for shard in local:
                    shard.dispatch(kept[chunks[shard.index]], extensions,
                                   runtime.policy)
                for index, conn in list(pipes.items()):
                    shard = shards[index]
                    try:
                        payload = conn.recv_bytes()
                    except (EOFError, OSError):
                        # The worker died: re-run its round here, from
                        # the state installed at the last boundary.
                        detected = time.perf_counter()
                        del pipes[index]
                        conn.close()
                        shard.dispatch(kept[chunks[index]], extensions,
                                       runtime.policy)
                        reexecuted[index] = time.perf_counter() - detected
                        local.append(shard)
                        continue
                    installing = time.perf_counter()
                    _install(shard, extensions, payload)
                    merging += time.perf_counter() - installing
                quarantined = runtime._end_round(extensions)
                if number + 1 < len(schedule):
                    for conn in pipes.values():
                        try:
                            conn.send(quarantined)
                        except OSError:
                            pass  # dead: its next receive sees EOF
        except BaseException:
            for pid in pids:
                try:
                    os.kill(pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass
            raise
        finally:
            for conn in pipes.values():
                conn.close()
            for pid in pids:
                os.waitpid(pid, 0)
        executed = time.perf_counter()
        return DispatchReport(
            packets=len(kept), contract_drops=drops,
            phase_seconds={"contract": contracted - began,
                           "fork": forked - contracted,
                           "execute": executed - forked - merging,
                           "merge": merging},
            shard_cycles=tuple(shard.cycles - prior for shard, prior
                               in zip(shards, before)),
            clock_mhz=runtime.config.cost_model.clock_mhz,
            backend=self.name, reexecuted=reexecuted)

    def _fork(self, runtime, shard, extensions, kept, schedule, pids):
        """Fork ``shard``'s worker; returns the caller's end of its
        pipe."""
        parent_conn, child_conn = Pipe()
        pid = os.fork()
        if pid == 0:
            parent_conn.close()
            self._child(runtime, shard, extensions, kept, schedule,
                        child_conn)
        child_conn.close()
        pids.append(pid)
        return parent_conn

    @staticmethod
    def _child(runtime, shard, extensions, kept, schedule, conn) -> None:
        """A worker's whole life: ``shard``'s chunk of every round, with
        one state exchange at each boundary.  Never returns."""
        try:
            by_name = {extension.name: extension for extension in extensions}
            for number, chunks in enumerate(schedule):
                if number:
                    for name in conn.recv():
                        by_name[name].quarantine()
                shard.dispatch(kept[chunks[shard.index]], extensions,
                               runtime.policy)
                conn.send_bytes(_state(shard, extensions))
        except BaseException:
            # The caller sees EOF and re-executes this shard's rounds.
            traceback.print_exc()
            os._exit(1)
        os._exit(0)
