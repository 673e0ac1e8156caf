#!/usr/bin/env python3
"""Defining your own safety policy (paper §2.1).

"It is the job of the designer of the code consumer to define the safety
policy ... several different safety policies might be used, each one
tailored to the needs of specific tasks or services."

This example builds a policy the repository does not ship: a *message
buffer* service.  The kernel hands the extension two buffers — a read-only
input message (r1, length r2) and a writable 64-byte output area (r3) —
and requires that the extension never writes the input, a data-abstraction
guarantee beyond plain memory protection.  We then certify a small
"copy and frame" extension against it and watch an unsafe variant fail.

Run:  python examples/custom_policy.py
"""

import struct
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.alpha.machine import Memory
from repro.errors import CertificationError
from repro.logic.formulas import Forall, Implies, conj, eq, ge, lt, rd, wr
from repro.logic.terms import Var, add64, and64
from repro.pcc import certify
from repro.pcc.api import CodeConsumer, CodeProducer
from repro.vcgen.policy import SafetyPolicy, word_identity

OUT_SIZE = 64


def message_buffer_policy() -> SafetyPolicy:
    """r1 = message (readable, r2 bytes, >= 32); r3 = output (writable,
    64 bytes).  The output area is also readable (read-modify-write)."""
    r1, r2, r3 = Var("r1"), Var("r2"), Var("r3")
    i, j = Var("i"), Var("j")

    readable_msg = Forall("i", Implies(
        conj([ge(i, 0), lt(i, r2), eq(and64(i, 7), 0)]),
        rd(add64(r1, i))))
    out_guard = conj([ge(j, 0), lt(j, OUT_SIZE), eq(and64(j, 7), 0)])
    readable_out = Forall("j", Implies(out_guard, rd(add64(r3, j))))
    writable_out = Forall("j", Implies(out_guard, wr(add64(r3, j))))

    def make_checkers(registers, read_word):
        message, length, out = registers[1], registers[2], registers[3]

        def can_read(address):
            return (message <= address < message + length
                    or out <= address < out + OUT_SIZE)

        def can_write(address):
            return out <= address < out + OUT_SIZE

        return can_read, can_write

    return SafetyPolicy(
        name="message-buffer",
        precondition=conj([
            word_identity(r1), word_identity(r2), word_identity(r3),
            lt(r2, 1 << 63), ge(r2, 32),
            readable_msg, readable_out, writable_out,
        ]),
        make_checkers=make_checkers,
    )


# Copies the first three words of the message into the output area,
# framed by a magic header word.
SAFE_EXTENSION = """
    SUBQ r4, r4, r4
    LDA  r4, 0x7EAD(r4)   % header magic
    STQ  r4, 0(r3)
    LDQ  r5, 0(r1)
    STQ  r5, 8(r3)
    LDQ  r5, 8(r1)
    STQ  r5, 16(r3)
    LDQ  r5, 16(r1)
    STQ  r5, 24(r3)
    RET
"""

# Identical, except it also "fixes up" the message in place — which the
# policy forbids: the input is an abstraction the extension must not touch.
UNSAFE_EXTENSION = """
    LDQ  r5, 0(r1)
    ADDQ r5, 1, r5
    STQ  r5, 0(r1)
    RET
"""


def main() -> None:
    policy = message_buffer_policy()
    print(f"Published policy {policy.name!r}.\n")

    producer = CodeProducer(policy)
    consumer = CodeConsumer(policy)

    certified = producer.certify(SAFE_EXTENSION)
    extension = consumer.install(certified.binary.to_bytes())
    print(f"Safe extension: certified + validated "
          f"({len(certified.program)} instructions, "
          f"{certified.binary.size}-byte binary).")

    message = struct.pack("<QQQQ", 111, 222, 333, 444)
    memory = Memory()
    memory.map_region(0x1000, message, writable=False, name="message")
    memory.map_region(0x2000, bytes(OUT_SIZE), writable=True, name="out")
    extension.run(memory, registers={1: 0x1000, 2: len(message),
                                     3: 0x2000})
    out_words = struct.unpack("<8Q", bytes(memory.region("out")))
    print(f"Output area after run: {out_words[:4]} "
          f"(header + three copied words)\n")

    try:
        certify(UNSAFE_EXTENSION, policy)
        print("unsafe extension certified?!  (should never happen)")
    except CertificationError as error:
        message = str(error)
        print("Unsafe extension rejected at certification:")
        print(f"  {message[:160]}...")


if __name__ == "__main__":
    main()
