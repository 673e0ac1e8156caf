"""The four filters written in the safe language, plain and VIEW variants.

The plain versions read header fields the way a Modula-3 programmer would:
byte by byte, big-endian, every byte access implicitly checked.  The VIEW
versions cast the packet to an aligned 64-bit word array and extract
fields with shifts and masks — fewer (but still checked) memory
operations, the paper's measured ~20% improvement.

Both must agree with the oracles packet-for-packet on well-formed traffic;
the boundary behaviour (a failed check rejects) coincides with BPF's
semantics by construction.
"""

from __future__ import annotations

from repro.baselines.m3.lang import (
    Bin,
    Const,
    If,
    M3Expr,
    PacketByte,
    ViewWord,
    be16,
    be24,
)

ETHERTYPE_IP = 0x0800
ETHERTYPE_ARP = 0x0806
PROTO_TCP = 6
NETWORK_A_BE = 0x8002CE   # 128.2.206 as a big-endian 24-bit prefix
NETWORK_B_BE = 0x8002DC
TARGET_PORT = 25


def _eq(a: M3Expr, b: int) -> Bin:
    return Bin("==", a, Const(b))


def _and(a: M3Expr, b: M3Expr) -> Bin:
    return Bin("&", a, b)


def _or(a: M3Expr, b: M3Expr) -> Bin:
    return Bin("|", a, b)


# -- plain (byte-at-a-time) versions -----------------------------------------

def m3_filter1() -> M3Expr:
    return _eq(be16(12), ETHERTYPE_IP)


def m3_filter2() -> M3Expr:
    return If(_eq(be16(12), ETHERTYPE_IP),
              _eq(be24(26), NETWORK_A_BE),
              Const(0))


def m3_filter3() -> M3Expr:
    ip_case = _or(_and(_eq(be24(26), NETWORK_A_BE),
                       _eq(be24(30), NETWORK_B_BE)),
                  _and(_eq(be24(26), NETWORK_B_BE),
                       _eq(be24(30), NETWORK_A_BE)))
    arp_case = _or(_and(_eq(be24(28), NETWORK_A_BE),
                        _eq(be24(38), NETWORK_B_BE)),
                   _and(_eq(be24(28), NETWORK_B_BE),
                        _eq(be24(38), NETWORK_A_BE)))
    return If(_eq(be16(12), ETHERTYPE_IP), ip_case,
              If(_eq(be16(12), ETHERTYPE_ARP), arp_case, Const(0)))


def m3_filter4() -> M3Expr:
    header_length = Bin("*", Bin("&", PacketByte(Const(14)), Const(15)),
                        Const(4))
    port_offset = Bin("+", header_length, Const(16))  # 14 + ihl*4 + 2
    port = be16(port_offset)
    return If(_eq(be16(12), ETHERTYPE_IP),
              If(_eq(PacketByte(Const(23)), PROTO_TCP),
                 _eq(port, TARGET_PORT),
                 Const(0)),
              Const(0))


# -- VIEW (word-at-a-time) versions -------------------------------------------

def _view_field(word_index: M3Expr | int, byte_in_word: M3Expr | int,
                width_mask: int) -> M3Expr:
    """Little-endian field extraction from a VIEW word: the M3 idiom
    ``Word.And(Word.RightShift(view[w], 8*b), mask)``."""
    if isinstance(word_index, int):
        word_index = Const(word_index)
    if isinstance(byte_in_word, int):
        shift: M3Expr = Const(8 * byte_in_word)
    else:
        shift = Bin("*", byte_in_word, Const(8))
    return Bin("&", Bin(">>", ViewWord(word_index), shift),
               Const(width_mask))


#: Little-endian constants for VIEW comparisons (byte-swapped).
ETHERTYPE_IP_LE = 0x0008
ETHERTYPE_ARP_LE = 0x0608
NETWORK_A_LE = 0xCE0280
NETWORK_B_LE = 0xDC0280
TARGET_PORT_LE = 0x1900


def m3v_filter1() -> M3Expr:
    return _eq(_view_field(1, 4, 0xFFFF), ETHERTYPE_IP_LE)


def m3v_filter2() -> M3Expr:
    return If(_eq(_view_field(1, 4, 0xFFFF), ETHERTYPE_IP_LE),
              _eq(_view_field(3, 2, 0xFFFFFF), NETWORK_A_LE),
              Const(0))


def m3v_filter3() -> M3Expr:
    ip_src = _view_field(3, 2, 0xFFFFFF)       # bytes 26-28
    ip_dst = _or(_view_field(3, 6, 0xFFFF),    # bytes 30-31
                 Bin("<<", _view_field(4, 0, 0xFF), Const(16)))  # byte 32
    arp_src = _view_field(3, 4, 0xFFFFFF)      # bytes 28-30
    arp_dst = _or(_view_field(4, 6, 0xFFFF),   # bytes 38-39
                  Bin("<<", _view_field(5, 0, 0xFF), Const(16)))  # byte 40
    ip_case = _or(_and(_eq(ip_src, NETWORK_A_LE), _eq(ip_dst, NETWORK_B_LE)),
                  _and(_eq(ip_src, NETWORK_B_LE), _eq(ip_dst, NETWORK_A_LE)))
    arp_case = _or(_and(_eq(arp_src, NETWORK_A_LE),
                        _eq(arp_dst, NETWORK_B_LE)),
                   _and(_eq(arp_src, NETWORK_B_LE),
                        _eq(arp_dst, NETWORK_A_LE)))
    ethertype = _view_field(1, 4, 0xFFFF)
    return If(_eq(ethertype, ETHERTYPE_IP_LE), ip_case,
              If(_eq(ethertype, ETHERTYPE_ARP_LE), arp_case, Const(0)))


def m3v_filter4() -> M3Expr:
    ethertype = _view_field(1, 4, 0xFFFF)
    protocol = _view_field(2, 7, 0xFF)          # byte 23
    header_length = Bin("*", _view_field(1, 6, 0x0F), Const(4))
    port_offset = Bin("+", header_length, Const(16))
    port_word = ViewWord(Bin(">>", port_offset, Const(3)))
    port = Bin("&", Bin(">>", port_word,
                        Bin("*", Bin("&", port_offset, Const(7)),
                            Const(8))),
               Const(0xFFFF))
    return If(_eq(ethertype, ETHERTYPE_IP_LE),
              If(_eq(protocol, PROTO_TCP),
                 _eq(port, TARGET_PORT_LE),
                 Const(0)),
              Const(0))


M3_FILTERS: dict[str, M3Expr] = {
    "filter1": m3_filter1(),
    "filter2": m3_filter2(),
    "filter3": m3_filter3(),
    "filter4": m3_filter4(),
}

M3_VIEW_FILTERS: dict[str, M3Expr] = {
    "filter1": m3v_filter1(),
    "filter2": m3v_filter2(),
    "filter3": m3v_filter3(),
    "filter4": m3v_filter4(),
}
