"""Extension-loader throughput: warm admission and batch validation.

The paper's Figure 9 amortizes validation against *execution*; a kernel
serving heavy traffic also reloads the same few extensions constantly,
so the loader amortizes validation across *reloads*: a warm (cache-hit)
load is an SHA-256 plus a dict probe.  This benchmark measures

* cold ``validate()`` vs warm ``loader.load()`` per admission — the
  acceptance bar is a >= 50x speedup (in practice it is thousands);
* batch admission throughput, sequential vs ``multiprocessing`` pool,
  with verdict-identity checked item for item;
* steady-state reload throughput (loads/second against a warm cache).

Scale comes from the shared ``--packets`` / ``PCC_BENCH_PACKETS`` quick
mode (see ``conftest.loader_workload``), so CI can run a reduced
workload with e.g. ``pytest benchmarks/bench_loader_throughput.py
--packets 2000``.
"""

import time

from repro.errors import ValidationError
from repro.pcc import certify, validate
from repro.pcc.loader import ExtensionLoader
from repro.perf import effective_startup


def _wall(fn) -> float:
    started = time.perf_counter()
    fn()
    return time.perf_counter() - started


def _distinct_sources(count: int) -> list[str]:
    """Tiny, distinct, certifiable filter programs."""
    return [f"LDQ r4, {8 * (index % 8)}(r1)\n"
            f"ADDQ r4, {index + 1}, r0\nRET"
            for index in range(count)]


def test_loader_throughput(benchmark, filter_policy, certified_filters,
                           loader_workload, record, record_json):
    blobs = {name: certified.binary.to_bytes()
             for name, certified in certified_filters.items()}

    # -- cold vs warm single admission (filter4, as in Figure 9) -------
    cold_seconds = {name: min(_wall(lambda b=blob:
                                    validate(b, filter_policy))
                              for __ in range(3))
                    for name, blob in blobs.items()}
    loader = ExtensionLoader(filter_policy)
    for blob in blobs.values():
        loader.load(blob)

    warm_loads = loader_workload["warm_loads"]
    items = list(blobs.values())

    def reload_storm():
        for index in range(warm_loads):
            loader.load(items[index % len(items)])

    storm_seconds = benchmark.pedantic(lambda: _wall(reload_storm),
                                       rounds=1, iterations=1)
    warm_per_load = storm_seconds / warm_loads
    cold_mean = sum(cold_seconds.values()) / len(cold_seconds)
    speedup = cold_mean / warm_per_load
    # per-admission startup once one cold validation is amortized over
    # the reload storm (the loader's analogue of Figure 9)
    effective = effective_startup(cold_mean, warm_per_load, warm_loads)

    # -- batch admission: sequential vs process pool -------------------
    sources = _distinct_sources(loader_workload["distinct_programs"])
    distinct = [certify(source, filter_policy).binary.to_bytes()
                for source in sources]
    corrupt = [blob[:-4] for blob in distinct[:2]]
    submissions = (distinct + corrupt) * loader_workload["batch_copies"]

    # explicit processes=2 so the fork pool really engages even on a
    # single-core machine (processes=None resolves to cpu_count there,
    # which falls back to the serial path)
    sequential_loader = ExtensionLoader(filter_policy, capacity=256)
    sequential_seconds = _wall(
        lambda: sequential_loader.validate_batch(submissions,
                                                 processes=0))
    parallel_loader = ExtensionLoader(filter_policy, capacity=256)
    parallel_seconds = _wall(
        lambda: parallel_loader.validate_batch(submissions, processes=2))

    sequential_items = sequential_loader.validate_batch(submissions,
                                                        processes=0)
    parallel_items = parallel_loader.validate_batch(submissions,
                                                    processes=2)
    assert [item.ok for item in sequential_items] \
        == [item.ok for item in parallel_items]
    rejected = sum(1 for item in sequential_items if not item.ok)
    assert rejected == 2 * loader_workload["batch_copies"]

    stats = loader.stats()
    lines = [
        "cold validate (s):   " + "  ".join(
            f"{name}={seconds * 1e3:.1f}ms"
            for name, seconds in cold_seconds.items()),
        f"warm load:           {warm_per_load * 1e6:.1f} us/load over "
        f"{warm_loads} reloads "
        f"({warm_loads / storm_seconds:,.0f} loads/s)",
        f"warm speedup:        {speedup:,.0f}x vs cold validation "
        f"(acceptance bar: 50x)",
        f"effective startup:   {effective * 1e6:.1f} us/admission after "
        f"{warm_loads} reloads (cold: {cold_mean * 1e6:,.0f} us)",
        "",
        f"batch of {len(submissions)} submissions "
        f"({len(distinct)} distinct valid, {len(corrupt)} distinct "
        f"corrupt, x{loader_workload['batch_copies']} copies):",
        f"  sequential:        {sequential_seconds * 1e3:.1f} ms "
        f"({len(submissions) / sequential_seconds:,.0f} items/s)",
        f"  process pool:      {parallel_seconds * 1e3:.1f} ms "
        f"({len(submissions) / parallel_seconds:,.0f} items/s)",
        f"  per-item isolation: {rejected} corrupt items rejected, "
        f"all others admitted",
        "",
        f"reload-storm cache:  {stats.hits} hits / {stats.misses} "
        f"misses / {stats.evictions} evictions "
        f"({stats.hit_rate:.1%} hit rate)",
    ]
    record("loader_throughput", lines)
    record_json("loader", {
        "cold_validate_seconds": cold_seconds,
        "warm_load_seconds": warm_per_load,
        "warm_loads": warm_loads,
        "warm_loads_per_second": warm_loads / storm_seconds,
        "warm_speedup": speedup,
        "effective_startup_seconds": effective,
        "batch_items": len(submissions),
        "batch_sequential_seconds": sequential_seconds,
        "batch_parallel_seconds": parallel_seconds,
        "batch_rejected_items": rejected,
        "cache": {
            "loads": stats.loads,
            "hits": stats.hits,
            "misses": stats.misses,
            "evictions": stats.evictions,
        },
    })

    # the acceptance bar: warm admission must be at least 50x cheaper
    assert speedup >= 50, f"warm load only {speedup:.1f}x faster"

    # sanity: the loader's own verdicts agree with cold validation
    for blob in distinct:
        assert loader.load(blob).program == \
            validate(blob, filter_policy).program
    for blob in corrupt:
        try:
            validate(blob, filter_policy)
            raise AssertionError("corrupt blob validated cold")
        except ValidationError:
            pass
