#!/usr/bin/env python3
"""The paper's main experiment in miniature: safe network packet filters.

Certifies the four hand-tuned Alpha filters against the §3 packet-filter
policy, installs them in a simulated kernel, and runs them over a synthetic
Ethernet trace next to the three baselines (BPF interpreter, SFI-rewritten
code, safe-language code), reporting per-packet cost the way Figure 8 does.

Run:  python examples/packet_filter_demo.py [packets]
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.filters import FILTERS, TraceConfig, generate_trace
from repro.filters.policy import packet_filter_policy
from repro.pcc.api import CodeConsumer, CodeProducer
from repro.perf import ALPHA_175, run_figure8


def main() -> None:
    packets = int(sys.argv[1]) if len(sys.argv) > 1 else 3000
    policy = packet_filter_policy()
    producer = CodeProducer(policy)
    consumer = CodeConsumer(policy)

    print(f"Certifying the four filters against policy "
          f"{policy.name!r}...")
    for spec in FILTERS:
        certified = producer.certify(spec.source)
        extension = consumer.install(certified.binary.to_bytes())
        print(f"  {spec.name}: {len(certified.program):3} instructions, "
              f"{certified.binary.size:5} byte binary, validated in "
              f"{extension.report.validation_seconds * 1000:5.1f} ms  "
              f"— {spec.description}")

    print(f"\nFiltering a {packets}-packet synthetic trace with every "
          f"approach (verdicts oracle-checked)...")
    trace = generate_trace(TraceConfig(packets=packets))
    benchmarks = run_figure8(trace)

    print(f"\n{'filter':10} {'approach':9} {'cycles/pkt':>11} "
          f"{'us @175MHz':>11} {'vs PCC':>7} {'accepted':>9}")
    for bench in benchmarks:
        pcc_cycles = bench.results["pcc"].cycles_per_packet
        for approach in ("bpf", "bpf-jit", "m3", "m3-view", "sfi", "pcc"):
            result = bench.results[approach]
            ratio = result.cycles_per_packet / pcc_cycles
            print(f"{result.filter_name:10} {approach:9} "
                  f"{result.cycles_per_packet:11.1f} "
                  f"{result.us_per_packet(ALPHA_175):11.3f} "
                  f"{ratio:6.2f}x {result.accepted:9}")
        print()

    print("The paper's Figure 8 shape: PCC fastest everywhere, SFI "
          "close behind,\nsafe-language code slower, the BPF interpreter "
          "roughly an order of\nmagnitude behind — with identical verdicts "
          "across all five pipelines.")


if __name__ == "__main__":
    main()
