"""Ablation (§4): proof-size growth on long conditional chains.

"In principle, the proofs can be exponentially large (in the size of the
program).  The blowup would tend to occur in programs that contain long
sequences of conditionals, with no intervening loops."

We synthesize filters that are k consecutive data-dependent conditionals,
each guarding a packet load, and measure how the PCC binary grows with k —
once with the DAG-sharing proof representation (our default; one of the
"several optimizations in the representation of the proofs") and once with
the naive tree encoding.  Sharing is what keeps the growth polynomial.
"""

from repro.lf.binary import serialize_lf
from repro.pcc import certify, validate
from repro.proof.encode import encode_proof


def _conditional_chain(depth: int) -> str:
    lines = []
    for index in range(depth):
        label = f"skip{index}"
        lines.append(f"    LDQ  r4, {8 * (index % 8)}(r1)")
        lines.append(f"    BEQ  r4, {label}")
        lines.append(f"    LDQ  r5, {8 * ((index + 1) % 8)}(r1)")
        lines.append(f"{label}: ADDQ r5, 1, r5")
    lines.append("    ADDQ r5, 0, r0")
    lines.append("    RET")
    return "\n".join(lines)


def test_proof_growth(benchmark, filter_policy, record):
    depths = (2, 4, 8, 16, 32, 64)

    def certify_all():
        return {depth: certify(_conditional_chain(depth), filter_policy)
                for depth in depths}

    certified = benchmark.pedantic(certify_all, rounds=1, iterations=1)

    lines = [f"{'depth':>6} {'instr':>6} {'shared-proof':>13} "
             f"{'naive-proof':>12} {'gain':>7} {'validate':>9}"]
    shared_sizes = []
    for depth in depths:
        result = certified[depth]
        lf_proof = encode_proof(result.proof, result.predicate)
        __, shared = serialize_lf(lf_proof, share=True)
        if depth <= 16:
            __, naive = serialize_lf(lf_proof, share=False)
            naive_size = str(len(naive))
            gain = f"{len(naive) / len(shared):6.1f}x"
        else:
            naive_size = "(skipped)"  # tree expansion too large to emit
            gain = "   huge"
        shared_sizes.append(len(shared))
        report = validate(result.binary.to_bytes(), filter_policy)
        lines.append(f"{depth:6} {len(result.program):6} "
                     f"{len(shared):13} {naive_size:>12} {gain:>7} "
                     f"{report.validation_seconds:8.2f}s")
    lines.append("")
    growth = shared_sizes[-1] / shared_sizes[0]
    depth_ratio = depths[-1] / depths[0]
    lines.append(
        f"shared-proof growth {growth:.1f}x over a {depth_ratio:.0f}x "
        f"deeper chain — polynomial, not the paper's feared exponential")
    record("ablation_proof_growth", lines)

    # Sharing must defeat the exponential: size grows sub-quadratically
    # in depth.
    assert growth < depth_ratio ** 2
