#!/usr/bin/env python3
"""Quickstart: the paper's §2 worked example, end to end.

A kernel publishes the *resource-access* safety policy: untrusted code
gets the address of a (tag, data) table entry in r0; the tag is read-only
and the data word may be written only when the tag is non-zero.

An application hand-writes a DEC Alpha extension (Figure 5 of the paper —
scheduled, register-reusing, the works), certifies it into a PCC binary,
and ships the bytes.  The kernel validates the enclosed LF proof against
the safety predicate it recomputes from the received code, then runs the
extension natively — with zero run-time checks.

Run:  python examples/quickstart.py
"""

import struct
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.alpha.machine import Memory
from repro.errors import ValidationError
from repro.logic.pretty import pp_formula
from repro.pcc.api import CodeConsumer, CodeProducer
from repro.vcgen.policy import resource_access_policy

# The paper's Figure 5, verbatim (with its deliberate low-level tricks:
# speculative loads, register reuse, access through a different register
# than the precondition names).
EXTENSION_SOURCE = """
    ADDQ r0, 8, r1    % address of data in r1
    LDQ  r0, 8(r0)    % data in r0 (speculative)
    LDQ  r2, -8(r1)   % tag in r2
    ADDQ r0, 1, r0    % increment data (speculative)
    BEQ  r2, L1       % skip if tag == 0
    STQ  r0, 0(r1)    % write back data
L1: RET
"""


def main() -> None:
    # -- the code consumer publishes its policy -----------------------------
    policy = resource_access_policy()
    print("Safety policy:", policy.name)
    print("Precondition:", pp_formula(policy.precondition))
    print()

    # -- the untrusted producer certifies its extension ----------------------
    producer = CodeProducer(policy)
    result = producer.certify(EXTENSION_SOURCE)
    binary = result.binary
    print(f"Certified {len(result.program)} instructions.")
    print("PCC binary layout (cf. Figure 7):")
    for name, start, end in binary.layout().rows():
        print(f"  {name:12} {start:5} .. {end}")
    print()

    # -- the kernel validates and installs -----------------------------------
    consumer = CodeConsumer(policy)
    extension = consumer.install(binary.to_bytes())
    report = extension.report
    print(f"Validated in {report.validation_seconds * 1000:.1f} ms "
          f"(proof {report.proof_bytes} bytes, "
          f"relocation {report.relocation_bytes} bytes).")
    print()

    # -- native execution, no run-time checks --------------------------------
    for tag, data in ((5, 41), (0, 41)):
        memory = Memory()
        memory.map_region(0x1000, struct.pack("<QQ", tag, data),
                          writable=True, name="table")
        machine_result = extension.run(memory, registers={0: 0x1000})
        new_tag, new_data = struct.unpack("<QQ",
                                          bytes(memory.region("table")))
        verdict = "written" if new_data != data else "left alone"
        print(f"table entry tag={tag}: data {data} -> {new_data} "
              f"({verdict}, {machine_result.instructions} instructions)")

    # -- and the part that makes it PCC: tampering is caught -----------------
    blob = bytearray(binary.to_bytes())
    blob[24] ^= 0x01  # flip a bit inside the native code
    try:
        consumer.install(bytes(blob))
        print("\ntampered binary accepted?!  (should never happen)")
    except ValidationError as error:
        print(f"\nTampered binary rejected: {error}")


if __name__ == "__main__":
    main()
