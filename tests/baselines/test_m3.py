"""The safe-language baseline: interpreter semantics, compiler
correctness (interpreter == compiled code == oracle), check placement,
and the certifying-compiler experiment."""

import pytest

from repro.alpha.isa import Ldq, Operate
from repro.alpha.machine import Machine
from repro.baselines.m3 import (
    Bin,
    Const,
    If,
    Len,
    M3_FILTERS,
    M3_VIEW_FILTERS,
    PacketByte,
    ViewWord,
    compile_plain,
    compile_view,
    evaluate,
)
from repro.baselines.m3.lang import be16, be24, run_filter
from repro.errors import M3Error, M3RuntimeError
from repro.filters import ORACLES, filter_registers, packet_memory

PACKET = bytes(range(1, 101))


def _run_compiled(program, frame):
    machine = Machine(program, packet_memory(frame),
                      filter_registers(len(frame)))
    return machine.run().value


class TestLanguage:
    def test_constants_and_length(self):
        assert evaluate(Const(7), PACKET) == 7
        assert evaluate(Len(), PACKET) == len(PACKET)

    def test_byte_access_checked(self):
        assert evaluate(PacketByte(Const(3)), PACKET) == PACKET[3]
        with pytest.raises(M3RuntimeError):
            evaluate(PacketByte(Const(100)), PACKET)

    def test_view_word_checked(self):
        value = evaluate(ViewWord(Const(0)), PACKET)
        assert value == int.from_bytes(PACKET[:8], "little")
        with pytest.raises(M3RuntimeError):
            evaluate(ViewWord(Const(12)), PACKET)  # 100 // 8 == 12

    def test_be_helpers(self):
        assert evaluate(be16(0), PACKET) == (PACKET[0] << 8) | PACKET[1]
        assert evaluate(be24(4), PACKET) == \
            (PACKET[4] << 16) | (PACKET[5] << 8) | PACKET[6]

    def test_operators(self):
        assert evaluate(Bin("+", Const(2), Const(3)), PACKET) == 5
        assert evaluate(Bin("==", Const(2), Const(2)), PACKET) == 1
        assert evaluate(Bin("<", Const(3), Const(2)), PACKET) == 0
        assert evaluate(Bin("<<", Const(1), Const(8)), PACKET) == 256

    def test_if(self):
        expr = If(Bin("==", Const(1), Const(1)), Const(10), Const(20))
        assert evaluate(expr, PACKET) == 10

    def test_run_filter_rejects_on_failed_check(self):
        assert run_filter(PacketByte(Const(500)), PACKET) == 0

    def test_unknown_operator_rejected(self):
        with pytest.raises(M3Error):
            Bin("%%", Const(1), Const(2))


class TestCompilers:
    def test_plain_rejects_view(self):
        with pytest.raises(M3Error):
            compile_plain(ViewWord(Const(0)))

    def test_check_per_byte_access(self):
        """Plain compilation: one CMPULT per PacketByte — the checks the
        Modula-3 compiler cannot eliminate."""
        expr = Bin("+", PacketByte(Const(0)), PacketByte(Const(1)))
        program = compile_plain(expr)
        compares = [i for i in program
                    if isinstance(i, Operate) and i.name == "CMPULT"]
        assert len(compares) == 2

    def test_view_uses_fewer_loads(self):
        plain = compile_plain(M3_FILTERS["filter1"])
        view = compile_view(M3_VIEW_FILTERS["filter1"])
        plain_loads = sum(isinstance(i, Ldq) for i in plain)
        view_loads = sum(isinstance(i, Ldq) for i in view)
        assert view_loads < plain_loads

    def test_compiled_equals_interpreter(self, small_trace):
        for name, expr in M3_FILTERS.items():
            program = compile_plain(expr)
            for frame in small_trace[:150]:
                assert _run_compiled(program, frame) == \
                    run_filter(expr, frame), name

    def test_view_compiled_equals_interpreter(self, small_trace):
        for name, expr in M3_VIEW_FILTERS.items():
            program = compile_view(expr)
            for frame in small_trace[:150]:
                assert _run_compiled(program, frame) == \
                    run_filter(expr, frame), name

    def test_compiled_filters_match_oracles(self, small_trace):
        for name, expr in M3_FILTERS.items():
            program = compile_plain(expr)
            oracle = ORACLES[name]
            for frame in small_trace[:300]:
                assert bool(_run_compiled(program, frame)) == \
                    oracle(frame), name

    def test_view_filters_match_oracles(self, small_trace):
        for name, expr in M3_VIEW_FILTERS.items():
            program = compile_view(expr)
            oracle = ORACLES[name]
            for frame in small_trace[:300]:
                assert bool(_run_compiled(program, frame)) == \
                    oracle(frame), name

    def test_failed_check_rejects_at_machine_level(self):
        program = compile_plain(PacketByte(Bin("+", Len(), Const(10))))
        assert _run_compiled(program, bytes(64)) == 0

    def test_register_exhaustion_detected(self):
        deep = Const(1)
        for __ in range(10):
            deep = Bin("+", deep, PacketByte(deep))
        with pytest.raises(M3Error):
            compile_plain(deep)


class TestCertifyingCompiler:
    """The §4/§6 direction: 'starting with a safe programming language and
    then implementing a certifying compiler that produces PCC binaries' —
    our toy compilers' output is certifiable because the inserted checks
    make the safety predicate provable."""

    @pytest.mark.parametrize("name", ["filter1", "filter2", "filter4"])
    def test_plain_output_certifies(self, name, filter_policy):
        # filter3-plain also certifies but takes ~a minute; it is covered
        # by the slow marker below rather than the default run.
        from repro.pcc import certify
        certify(compile_plain(M3_FILTERS[name]), filter_policy)

    @pytest.mark.parametrize("name", ["filter1", "filter2", "filter4"])
    def test_view_output_certifies(self, name, filter_policy):
        from repro.pcc import certify
        certify(compile_view(M3_VIEW_FILTERS[name]), filter_policy)

    @pytest.mark.parametrize("variant", ["plain", "view"])
    def test_filter3_certifies(self, variant, filter_policy):
        # filter3 compiles to ~200 instructions with 24 checked accesses;
        # certification takes minutes and is exercised by the slow marker.
        from repro.pcc import certify
        if variant == "plain":
            certify(compile_plain(M3_FILTERS["filter3"]), filter_policy)
        else:
            certify(compile_view(M3_VIEW_FILTERS["filter3"]),
                    filter_policy)
