"""Scaling guards for the consumer's validator: validation must stay
near-linear in the (shared) proof size — the §2.3 performance story
depends on it, and two DAG-blowup regressions were fixed during
development (normalize and subst on shared LF nodes)."""

import time

from repro.lf.binary import deserialize_lf, serialize_lf
from repro.lf.encode import encode_formula, encode_proof
from repro.lf.signature import SIGNATURE
from repro.lf.syntax import LfApp, LfConst
from repro.lf.typecheck import check_proof_term
from repro.pcc import certify
from repro.filters.policy import packet_filter_policy
from repro.alpha.parser import parse_program


def _chain(depth: int) -> str:
    lines = []
    for index in range(depth):
        label = f"skip{index}"
        lines.append(f"LDQ  r4, {8 * (index % 8)}(r1)")
        lines.append(f"BEQ  r4, {label}")
        lines.append(f"LDQ  r5, {8 * ((index + 1) % 8)}(r1)")
        lines.append(f"{label}: ADDQ r5, 1, r5")
    lines.append("ADDQ r5, 0, r0")
    lines.append("RET")
    return "\n".join(lines)


def _validate_seconds(certified) -> float:
    lf_proof = encode_proof(certified.proof, certified.predicate)
    table, stream = serialize_lf(lf_proof)
    decoded = deserialize_lf(table, stream)
    expected = LfApp(LfConst("pf"),
                     encode_formula(certified.predicate, {}, 0))
    started = time.perf_counter()
    check_proof_term(decoded, expected, SIGNATURE)
    return time.perf_counter() - started


class TestValidationScaling:
    def test_conditional_chains_stay_tame(self, filter_policy):
        # The fastest of three timings per depth: one sample can double
        # under host load.  Each call re-deserializes, and the checker's
        # caches last for a single call, so no sample warms the next.
        times = {}
        for depth in (4, 8, 16):
            certified = certify(_chain(depth), filter_policy)
            times[depth] = min(_validate_seconds(certified)
                               for _ in range(3))
        # 4x the depth may not cost more than ~12x the time (roughly
        # linear with logging slack; exponential would be >1000x)
        assert times[16] < 12 * max(times[4], 0.005)

    def test_absolute_budget(self, certified_filters, filter_policy):
        """Every shipped filter validates within a second on any
        reasonable machine (the paper: 1-3 ms in C on a 175 MHz Alpha)."""
        from repro.pcc import validate
        for name, certified in certified_filters.items():
            report = validate(certified.binary.to_bytes(), filter_policy)
            assert report.validation_seconds < 1.0, name
