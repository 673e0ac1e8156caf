"""``pcc`` — command-line front end for the toolchain.

Subcommands mirror the paper's workflow:

* ``pcc certify <asm> -o <binary>`` — producer side: assemble + prove,
  emitting a PCC binary;
* ``pcc validate <binary>`` — consumer side: recompute the safety
  predicate and type-check the proof, printing the Table 1 metrics;
* ``pcc batch <binary>...`` — consumer side at load-heavy scale: run the
  submissions through the extension loader (content-addressed validation
  cache + ``multiprocessing`` pool), printing per-item verdicts and the
  cache hit/miss/eviction counters;
* ``pcc serve <binary>...`` — the dispatch plane: attach extensions
  through the loader, replay a synthetic trace across sharded workers
  with cycle budgets and fault quarantine, and print per-extension
  telemetry (``--json`` dumps the stats snapshot);
* ``pcc analyze <binary>`` — the static-analysis subsystem: recover the
  CFG, run the interval abstract interpreter against the policy's
  memory regions, bound the worst-case cycle count, and lint — all
  ahead of time, without executing or even validating the code;
* ``pcc upgrade <live> <candidate>`` — the supervised control plane:
  attach the live binary, admit the candidate as a shadow canary, replay
  a trace, and report the promotion/rollback decision;
* ``pcc chaos`` — the fault-injection harness: seeded faults at every
  layer (corrupted containers, adversarial packets, budget overruns,
  shard-worker crashes, wedged/killed validation-pool workers, divergent
  upgrades) with recovery invariants asserted; nonzero exit on any
  broken invariant;
* ``pcc disasm <binary>`` — decode the native-code section;
* ``pcc layout <binary>`` — print the Figure 7 section offsets;
* ``pcc filter <name> <trace-size>`` — certify one of the paper's four
  filters and run it (plus the baselines) over a synthetic trace.

Policies are selected with ``--policy`` (``resource-access``,
``packet-filter``, ``sfi-segment``, ``checksum-buffer`` or
``kv-packet``); these are the consumer-published contracts from the
paper, plus the write-capable KV/NAT/LB contract.  ``pcc serve
--policy kv-packet --builtin-filters`` serves the store-bearing family
over the Zipf key-popularity trace with persistent per-shard state.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from repro.errors import PccError
from repro.vcgen.policy import SafetyPolicy


def _load_policy(name: str) -> SafetyPolicy:
    from repro.baselines.sfi.policy import sfi_policy
    from repro.filters.checksum import checksum_policy
    from repro.filters.kv import kv_packet_policy
    from repro.filters.policy import packet_filter_policy
    from repro.vcgen.policy import resource_access_policy

    policies = {
        "resource-access": resource_access_policy,
        "packet-filter": packet_filter_policy,
        "sfi-segment": sfi_policy,
        "checksum-buffer": checksum_policy,
        "kv-packet": kv_packet_policy,
    }
    if name not in policies:
        raise SystemExit(f"unknown policy {name!r}; choose from "
                         f"{', '.join(sorted(policies))}")
    return policies[name]()


def _budget_value(text: str):
    """``--budget`` accepts an integer or the ``auto`` sentinel."""
    if text == "auto":
        return "auto"
    try:
        return int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"budget must be an integer or 'auto', not {text!r}")


def _cmd_certify(args: argparse.Namespace) -> int:
    from repro.pcc import certify

    source = Path(args.source).read_text()
    policy = _load_policy(args.policy)
    result = certify(source, policy)
    blob = result.binary.to_bytes()
    Path(args.output).write_bytes(blob)
    print(f"certified {len(result.program)} instructions under "
          f"{policy.name!r}: {len(blob)} bytes -> {args.output}")
    return 0


def _cmd_validate(args: argparse.Namespace) -> int:
    from repro.pcc import validate

    blob = Path(args.binary).read_bytes()
    policy = _load_policy(args.policy)
    report = validate(blob, policy, measure_memory=args.memory)
    print(f"VALID under policy {policy.name!r}")
    print(f"  instructions:     {report.instructions}")
    print(f"  code bytes:       {report.code_bytes}")
    print(f"  relocation bytes: {report.relocation_bytes}")
    print(f"  proof bytes:      {report.proof_bytes}")
    print(f"  validation time:  {report.validation_seconds * 1000:.1f} ms")
    if args.memory:
        print(f"  peak heap:        {report.peak_memory_bytes / 1024:.1f} "
              f"KB")
    return 0


def _cmd_batch(args: argparse.Namespace) -> int:
    from repro.pcc.loader import ExtensionLoader

    policy = _load_policy(args.policy)
    loader = ExtensionLoader(policy, capacity=args.cache_capacity)
    blobs = [Path(name).read_bytes() for name in args.binaries]
    valid = 0
    for round_number in range(args.repeat):
        items = loader.validate_batch(blobs, processes=args.jobs)
        if round_number:  # re-submissions only restate the verdicts
            continue
        for name, item in zip(args.binaries, items):
            if item.ok:
                valid += 1
                source = "cache" if item.cached else "validated"
                print(f"  VALID   {name}  "
                      f"({item.report.instructions} instructions, "
                      f"{source})")
            else:
                print(f"  INVALID {name}  ({item.error})")
    stats = loader.stats()
    print(f"policy {policy.name!r}: {valid}/{len(blobs)} valid")
    print(f"cache: {stats.hits} hits, {stats.misses} misses, "
          f"{stats.evictions} evictions over {stats.loads} loads "
          f"({stats.hit_rate:.0%} hit rate, "
          f"{stats.size}/{stats.capacity} entries)")
    return 0 if valid == len(blobs) else 1


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.filters.packets import inject_faults
    from repro.filters.trace import TraceConfig, generate_trace, replay_trace
    from repro.runtime import PacketRuntime, RuntimeConfig

    policy = _load_policy(args.policy)
    kv_mode = args.policy == "kv-packet"
    config_kwargs = dict(
        shards=args.shards,
        backend=args.backend,
        batch_size=args.batch_size,
        cycle_budget=args.budget,
        budget_slack=args.budget_slack,
        fault_threshold=args.fault_threshold,
        downgrade_unproven=args.downgrade,
    )
    if kv_mode:
        # The write-capable family needs the KV invocation contract:
        # writable packet, persistent per-shard state area.
        from repro.filters.kv import kv_registers, reusable_kv_memory
        config_kwargs.update(memory_factory=reusable_kv_memory,
                             registers_fn=kv_registers)
    config = RuntimeConfig(**config_kwargs)
    runtime = PacketRuntime(policy, config)

    submissions: list[tuple[str, bytes]] = [
        (Path(name).stem, Path(name).read_bytes())
        for name in args.binaries
    ]
    if args.builtin_filters:
        from repro.pcc import certify
        if kv_mode:
            from repro.filters.kv import KV_PROGRAMS
            for spec in KV_PROGRAMS:
                submissions.append((spec.name, certify(
                    spec.source, policy,
                    invariants=spec.invariants()).binary.to_bytes()))
        else:
            from repro.filters.programs import FILTERS
            for spec in FILTERS:
                submissions.append(
                    (spec.name,
                     certify(spec.source, policy).binary.to_bytes()))
    if not submissions:
        raise SystemExit("nothing to serve: pass PCC binaries or "
                         "--builtin-filters")
    for name, blob in submissions:
        try:
            extension = runtime.attach(name, blob)
        except PccError as error:
            print(f"  REJECTED {name}: {error}")
            continue
        tier = "checked (downgraded)" if extension.checked else "unchecked"
        note = ""
        if extension.cycle_budget is not None:
            note = f", budget {extension.cycle_budget} cycles"
            if extension.wcet_bound is not None:
                note += f" (wcet {extension.wcet_bound})"
        elif config.cycle_budget == "auto":
            note = ", unbudgeted (no WCET bound)"
        print(f"  ATTACHED {name}: {len(extension.program)} instructions, "
              f"{tier}{note}")
    if not runtime.extensions:
        raise SystemExit("no extension was admitted")

    if kv_mode:
        from repro.filters.trace import KvTraceConfig, generate_kv_trace
        trace = generate_kv_trace(
            KvTraceConfig(packets=args.packets, seed=args.seed))
    else:
        trace = generate_trace(
            TraceConfig(packets=args.packets, seed=args.seed))
    if args.inject_faults:
        inject_faults(trace, fraction=args.inject_faults)
    report = runtime.serve(replay_trace(trace, args.repeat))

    snapshot = runtime.snapshot(extra={"backend": report.backend,
                                       "wall_seconds": report.wall_seconds,
                                       "phase_seconds": report.phase_seconds})
    model = config.cost_model
    print(f"\nserved {report.packets} packets over {config.shards} "
          f"shard(s), {report.backend} backend "
          f"({report.contract_drops} contract drops)")
    print(f"  modeled:  {report.modeled_packets_per_second:,.0f} pkts/s "
          f"at {model.clock_mhz:.0f} MHz "
          f"({report.modeled_seconds * 1e3:.1f} ms)")
    print(f"  python:   {report.wall_packets_per_second:,.0f} pkts/s "
          f"wall ({report.wall_seconds * 1e3:.1f} ms)")
    print(f"\n{'extension':12} {'state':12} {'in':>9} {'accept':>9} "
          f"{'fault':>6} {'p50cy':>7} {'p99cy':>7}")
    for extension in snapshot.extensions:
        print(f"{extension.name:12} {extension.state:12} "
              f"{extension.packets_in:>9} {extension.accepted:>9} "
              f"{extension.faults:>6} {extension.p50_cycles:>7.0f} "
              f"{extension.p99_cycles:>7.0f}"
              + (f"  [{extension.last_fault}]"
                 if extension.last_fault else ""))
    if args.json:
        Path(args.json).write_text(snapshot.to_json() + "\n")
        print(f"\nstats snapshot -> {args.json}")
    return 0


def _cmd_upgrade(args: argparse.Namespace) -> int:
    from repro.filters.trace import TraceConfig, generate_trace
    from repro.runtime import CanaryConfig, PacketRuntime, RuntimeConfig

    policy = _load_policy(args.policy)
    runtime = PacketRuntime(policy, RuntimeConfig(
        shards=args.shards, cycle_budget=args.budget))
    name = Path(args.live).stem
    canary = CanaryConfig(sample_fraction=args.sample,
                          promote_after=args.promote_after,
                          seed=args.seed)
    try:
        base_blob = Path(args.live).read_bytes()
        live = runtime.attach(name, base_blob)
        print(f"  ATTACHED {name} v{live.version} "
              f"(digest {live.digest[:12]})")
        if args.incremental:
            # Candidate is assembly source: certify it as a block-level
            # proof patch against the serving container, reusing its
            # invariant table (loop edits keep their cut points) and the
            # runtime loader's shared subproof store.
            from repro.lf.encode import decode_logic_formula
            from repro.pcc.container import PccBinary, unpack_invariants
            from repro.pcc.incremental import certify_incremental

            base = PccBinary.from_bytes(base_blob)
            invariants = {
                pc: decode_logic_formula(term)
                for pc, term
                in unpack_invariants(base.invariants).items()}
            result = certify_incremental(
                base_blob, Path(args.candidate).read_text(), policy,
                invariants=invariants,
                store=runtime.loader.proof_store)
            print(f"  PATCH    {result.reused_parts}/{result.total_parts} "
                  f"subproofs reused, {result.proved_parts} proved fresh "
                  f"(blocks changed: "
                  f"{list(result.changed_blocks) or 'none'})")
            print(f"           {result.patch_bytes} patch bytes vs "
                  f"{result.full_proof_bytes} full proof bytes, certified "
                  f"in {result.certify_seconds * 1e3:.1f} ms")
            shadow = runtime.upgrade(name, canary=canary,
                                     patch=result.patch)
        else:
            shadow = runtime.upgrade(
                name, Path(args.candidate).read_bytes(), canary)
    except ValueError as error:
        raise SystemExit(f"error: {error}")
    candidate = shadow.candidate
    print(f"  SHADOW   {name} v{candidate.version} "
          f"(digest {candidate.digest[:12]}, sampling "
          f"{args.sample:.0%}, promote after {args.promote_after} clean)")

    trace = generate_trace(TraceConfig(packets=args.packets,
                                       seed=args.seed))
    runtime.serve(trace)
    record = shadow.record()
    if record.state == "shadow":
        print(f"  UNDECIDED after {record.sampled} sampled packets "
              f"({record.clean} clean); rolling back")
        record = runtime.rollback(name)

    print(f"\nupgrade {name}: v{record.from_version} -> "
          f"v{record.to_version}  [{record.state.upper()}]")
    print(f"  sampled {record.sampled}, clean {record.clean}, "
          f"divergences {record.divergences}, faults {record.faults}")
    if record.reason:
        print(f"  reason: {record.reason}")
    print(f"  decision after {record.decision_seconds * 1e3:.1f} ms; "
          f"now serving v{runtime.extension(name).version}")
    return 0 if record.state == "promoted" else 1


def _cmd_chaos(args: argparse.Namespace) -> int:
    import json

    from repro.runtime.chaos import ChaosConfig, run_chaos

    packets = args.packets
    rounds = args.mutation_rounds
    if args.quick:
        packets = min(packets, 150)
        rounds = min(rounds, 2)
    try:
        config = ChaosConfig(
            packets=packets, seed=args.seed, shards=args.shards,
            mutation_rounds=rounds,
            scenarios=tuple(args.scenario) if args.scenario else None)
    except ValueError as error:
        raise SystemExit(f"error: {error}")
    report = run_chaos(config)

    print(f"chaos campaign: {report.packets} packets, "
          f"{report.shards} shard(s), seed {report.seed:#x}\n")
    for scenario in report.scenarios:
        mark = "PASS" if scenario.passed else "FAIL"
        print(f"  {mark}  {scenario.name:22} "
              f"({scenario.wall_seconds:.2f}s)")
        for check, ok, detail in scenario.checks:
            if args.verbose or not ok:
                line = f"          {'ok    ' if ok else 'BROKEN'} {check}"
                if detail:
                    line += f": {detail}"
                print(line)
    mttr = report.mttr_seconds
    verdict = "ALL INVARIANTS HELD" if report.passed \
        else "INVARIANTS BROKEN"
    print(f"\n{verdict}: "
          f"{sum(s.passed for s in report.scenarios)}"
          f"/{len(report.scenarios)} scenarios in "
          f"{report.wall_seconds:.1f}s")
    if mttr:
        print(f"  recovery: {len(mttr)} incident(s), mean MTTR "
              f"{sum(mttr) / len(mttr) * 1e3:.1f} ms, worst "
              f"{max(mttr) * 1e3:.1f} ms")
    if args.json:
        Path(args.json).write_text(
            json.dumps(report.to_dict(), indent=2, sort_keys=True) + "\n")
        print(f"  chaos report -> {args.json}")
    return 0 if report.passed else 1


def _cmd_analyze(args: argparse.Namespace) -> int:
    import json

    from repro.alpha.encoding import decode_program
    from repro.analysis import analyze_program, context_for_policy
    from repro.analysis.prescreen import prescreen_blob
    from repro.errors import ValidationError
    from repro.pcc.container import PccBinary

    policy = _load_policy(args.policy)
    blob = Path(args.binary).read_bytes()
    try:
        binary = PccBinary.from_bytes(blob)
        code, is_container = binary.code, True
    except ValidationError:
        code, is_container = blob, False  # raw encoded code section
    program = decode_program(code)

    context = context_for_policy(policy)
    report = analyze_program(program, context)
    cfg, wcet, lint = report.cfg, report.wcet, report.lint

    print(f"analyzed {args.binary} under policy {policy.name!r}: "
          f"{len(program)} instructions, {len(cfg.blocks)} basic "
          f"block(s)")
    print("\nbasic blocks:")
    for block in cfg.blocks:
        marker = "" if block.index in cfg.reachable else "  (unreachable)"
        print(f"  {block}{marker}")
    if cfg.loops:
        print("\nloops:")
        for loop in cfg.loops:
            print(f"  {loop}")
    else:
        print("\nloops: none")

    if report.intervals.accesses:
        print("\nmemory accesses:")
        for access in report.intervals.accesses:
            print(f"  pc {access.pc:3d}  {access.kind}  "
                  f"{str(access.interval):24}  {access.verdict:8} "
                  f"{access.alignment}-aligned")
    else:
        print("\nmemory accesses: none")

    print(f"\n{wcet}")
    for bound in wcet.loop_bounds:
        print(f"  {bound}")
    budget = wcet.budget(args.slack)
    if budget is not None:
        print(f"  auto cycle budget (slack {args.slack:.0%}): {budget}")
    else:
        print("  auto cycle budget: none (unbounded; runtime falls back "
              "to unbudgeted dispatch)")

    if lint.clean:
        print("\nlint: clean")
    else:
        print(f"\nlint: {len(lint.errors)} error(s), "
              f"{len(lint.warnings)} warning(s)")
        for diagnostic in lint:
            print(f"  {diagnostic}")

    if is_container:
        verdict = prescreen_blob(blob, policy, context)
        print(f"\n{verdict}")

    if args.json:
        payload = report.to_dict()
        payload["auto_budget"] = budget
        payload["slack"] = args.slack
        Path(args.json).write_text(json.dumps(payload, indent=2,
                                              sort_keys=True) + "\n")
        print(f"\nanalysis report -> {args.json}")
    return 0 if not lint.errors else 1


def _cmd_disasm(args: argparse.Namespace) -> int:
    from repro.alpha.encoding import decode_program
    from repro.alpha.parser import format_program
    from repro.pcc.container import PccBinary

    binary = PccBinary.from_bytes(Path(args.binary).read_bytes())
    print(format_program(decode_program(binary.code)), end="")
    return 0


def _cmd_layout(args: argparse.Namespace) -> int:
    from repro.pcc.container import PccBinary

    binary = PccBinary.from_bytes(Path(args.binary).read_bytes())
    print("section        start    end")
    for name, start, end in binary.layout().rows():
        print(f"{name:12} {start:7} {end:6}")
    return 0


def _cmd_rules(args: argparse.Namespace) -> int:
    """Print the published rule set Delta — the consumer's proof logic."""
    from repro.proof.rules import RULES
    from repro.lf.signature import SIGNATURE

    print(f"rule set Delta: {len(RULES)} rules "
          f"(LF signature: {len(SIGNATURE.entries)} constants)\n")
    for name in sorted(RULES):
        doc = (RULES[name].__doc__ or "").strip().splitlines()
        summary = doc[0] if doc else ""
        entry = SIGNATURE.entries.get(name)
        guarded = ""
        if entry is not None and entry.side_condition is not None:
            guarded = "  [computational side condition]"
        print(f"  {name:18} {summary}{guarded}")
    return 0


def _cmd_filter(args: argparse.Namespace) -> int:
    from repro.filters.programs import FILTERS
    from repro.filters.trace import TraceConfig, generate_trace
    from repro.perf import ALPHA_175, run_approach

    spec = next((s for s in FILTERS if s.name == args.name), None)
    if spec is None:
        raise SystemExit(f"unknown filter {args.name!r}; choose from "
                         f"{', '.join(s.name for s in FILTERS)}")
    trace = generate_trace(TraceConfig(packets=args.packets))
    print(f"{spec.name}: {spec.description}")
    for approach in ("bpf", "bpf-jit", "m3", "m3-view", "sfi", "pcc"):
        result = run_approach(spec, approach, trace)
        print(f"  {approach:8} {result.cycles_per_packet:9.1f} cycles/pkt "
              f"({result.us_per_packet(ALPHA_175):.3f} us @175MHz), "
              f"accepted {result.accepted}/{result.packets}")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="pcc",
        description="Proof-carrying code toolchain (Necula & Lee, "
                    "OSDI '96 reproduction)")
    sub = parser.add_subparsers(dest="command", required=True)

    p_certify = sub.add_parser("certify", help="assemble + prove")
    p_certify.add_argument("source", help="Alpha assembly file")
    p_certify.add_argument("-o", "--output", required=True)
    p_certify.add_argument("--policy", default="packet-filter")
    p_certify.set_defaults(fn=_cmd_certify)

    p_validate = sub.add_parser("validate", help="consumer-side check")
    p_validate.add_argument("binary")
    p_validate.add_argument("--policy", default="packet-filter")
    p_validate.add_argument("--memory", action="store_true",
                            help="measure peak validation heap")
    p_validate.set_defaults(fn=_cmd_validate)

    p_batch = sub.add_parser(
        "batch", help="load many binaries through the caching loader")
    p_batch.add_argument("binaries", nargs="+")
    p_batch.add_argument("--policy", default="packet-filter")
    p_batch.add_argument("--jobs", type=int, default=None,
                         help="worker processes (0 = in-process)")
    p_batch.add_argument("--repeat", type=int, default=1,
                         help="re-submit the batch N times (warm loads "
                              "hit the cache)")
    p_batch.add_argument("--cache-capacity", type=int, default=64)
    p_batch.set_defaults(fn=_cmd_batch)

    p_serve = sub.add_parser(
        "serve", help="dispatch a packet trace through loaded extensions")
    p_serve.add_argument("binaries", nargs="*",
                         help="PCC binaries to attach (name = file stem)")
    p_serve.add_argument("--builtin-filters", action="store_true",
                         help="certify + attach the paper's four filters")
    p_serve.add_argument("--policy", default="packet-filter")
    p_serve.add_argument("--packets", type=int, default=10_000)
    p_serve.add_argument("--repeat", type=int, default=1,
                         help="replay the trace N times")
    p_serve.add_argument("--seed", type=int, default=19961028)
    p_serve.add_argument("--shards", type=int, default=4)
    p_serve.add_argument("--backend", choices=("serial", "process"),
                         default="serial",
                         help="run the shards serially in this process "
                              "(default), or shard 0 here and the others "
                              "on shared-nothing forked workers")
    p_serve.add_argument("--batch-size", type=int, default=8192,
                         help="frames per dispatch chunk on the batched "
                              "hot path")
    p_serve.add_argument("--budget", type=_budget_value, default=None,
                         help="per-invocation cycle budget (an int, or "
                              "'auto' to derive each extension's budget "
                              "from its static WCET bound)")
    p_serve.add_argument("--budget-slack", type=float, default=0.0,
                         help="headroom on 'auto' budgets (0.25 = +25%%)")
    p_serve.add_argument("--fault-threshold", type=int, default=3,
                         help="consecutive faults before quarantine")
    p_serve.add_argument("--downgrade", action="store_true",
                         help="run unproven binaries on the checked tier")
    p_serve.add_argument("--inject-faults", type=float, default=0.0,
                         metavar="FRACTION",
                         help="corrupt this fraction of the trace")
    p_serve.add_argument("--json", metavar="PATH",
                         help="write the stats snapshot as JSON")
    p_serve.set_defaults(fn=_cmd_serve)

    p_upgrade = sub.add_parser(
        "upgrade", help="hot-swap a binary behind a shadow canary")
    p_upgrade.add_argument("live", help="the currently-serving PCC binary")
    p_upgrade.add_argument("candidate",
                           help="the replacement PCC binary (or assembly "
                                "source with --incremental)")
    p_upgrade.add_argument("--incremental", action="store_true",
                           help="treat the candidate as assembly source "
                                "and admit it as a block-level proof "
                                "patch against the live container")
    p_upgrade.add_argument("--policy", default="packet-filter")
    p_upgrade.add_argument("--packets", type=int, default=2000)
    p_upgrade.add_argument("--seed", type=int, default=19961028)
    p_upgrade.add_argument("--shards", type=int, default=2)
    p_upgrade.add_argument("--budget", type=_budget_value, default="auto",
                           help="per-invocation cycle budget (int, 'auto')")
    p_upgrade.add_argument("--sample", type=float, default=1.0,
                           help="fraction of the stream the canary shadows")
    p_upgrade.add_argument("--promote-after", type=int, default=128,
                           help="clean sampled packets before promotion")
    p_upgrade.set_defaults(fn=_cmd_upgrade)

    p_chaos = sub.add_parser(
        "chaos", help="fault-injection harness with recovery invariants")
    p_chaos.add_argument("--packets", type=int, default=600)
    p_chaos.add_argument("--seed", type=int, default=0xC4405)
    p_chaos.add_argument("--shards", type=int, default=2)
    p_chaos.add_argument("--mutation-rounds", type=int, default=4,
                         help="corrupted containers per mutation kind")
    p_chaos.add_argument("--scenario", action="append", metavar="NAME",
                         help="run only this scenario (repeatable)")
    p_chaos.add_argument("--quick", action="store_true",
                         help="CI profile: small trace, fewer mutants")
    p_chaos.add_argument("--verbose", action="store_true",
                         help="print passing invariants too")
    p_chaos.add_argument("--json", metavar="PATH",
                         help="write the chaos report as JSON")
    p_chaos.set_defaults(fn=_cmd_chaos)

    p_analyze = sub.add_parser(
        "analyze", help="static analysis: CFG, intervals, WCET, lint")
    p_analyze.add_argument("binary",
                           help="PCC binary (or raw encoded code section)")
    p_analyze.add_argument("--policy", default="packet-filter")
    p_analyze.add_argument("--slack", type=float, default=0.0,
                           help="headroom on the auto cycle budget "
                                "(e.g. 0.25 = +25%%)")
    p_analyze.add_argument("--json", metavar="PATH",
                           help="write the analysis report as JSON")
    p_analyze.set_defaults(fn=_cmd_analyze)

    p_disasm = sub.add_parser("disasm", help="decode the code section")
    p_disasm.add_argument("binary")
    p_disasm.set_defaults(fn=_cmd_disasm)

    p_layout = sub.add_parser("layout", help="Figure 7 section offsets")
    p_layout.add_argument("binary")
    p_layout.set_defaults(fn=_cmd_layout)

    p_rules = sub.add_parser("rules", help="print the proof rule set")
    p_rules.set_defaults(fn=_cmd_rules)

    p_filter = sub.add_parser("filter", help="run a paper filter + "
                                             "baselines on a trace")
    p_filter.add_argument("name")
    p_filter.add_argument("--packets", type=int, default=2000)
    p_filter.set_defaults(fn=_cmd_filter)

    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except PccError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
