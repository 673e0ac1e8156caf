"""The BSD Packet Filter (McCanne & Jacobson 1993) — interpreted baseline.

A faithful classic-BPF implementation: the accumulator/index-register VM,
the static verifier the kernel runs at attach time (valid opcodes, forward
branches in range — "a few microseconds", which we also measure), and the
checked interpreter in which any out-of-bounds packet access terminates
the filter and rejects the packet.

The four paper filters are provided as idiomatic BPF programs in
:mod:`repro.baselines.bpf.programs`, including the classic
``ldx 4*([14]&0xf)`` header-length idiom for Filter 4.
"""

from repro.baselines.bpf.isa import (
    ld_w_abs,
    ld_h_abs,
    ld_b_abs,
    ld_w_ind,
    ld_imm,
    ldx_imm,
    ldx_msh,
    st,
    stx,
    alu_add_k,
    alu_and_k,
    alu_rsh_k,
    jmp_ja,
    jeq,
    ret_k,
    ret_a,
    tax,
    txa,
)
from repro.baselines.bpf.verify import verify_bpf
from repro.baselines.bpf.interp import BpfInterpreter
from repro.baselines.bpf.programs import BPF_FILTERS
from repro.baselines.bpf.compile import compile_bpf

__all__ = [
    "verify_bpf",
    "BpfInterpreter",
    "BPF_FILTERS",
    "compile_bpf",
    "ld_w_abs", "ld_h_abs", "ld_b_abs", "ld_w_ind", "ld_imm", "ldx_imm",
    "ldx_msh", "st", "stx", "alu_add_k", "alu_and_k", "alu_rsh_k",
    "jmp_ja", "jeq", "ret_k", "ret_a", "tax", "txa",
]
