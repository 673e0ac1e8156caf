"""The oracles themselves, pinned against hand-computed frames.

Everything else in the suite is cross-checked *against* the oracles, so
the oracles deserve their own ground-truth vectors built byte-by-byte.
"""

import struct

from repro.filters.oracle import oracle1, oracle2, oracle3, oracle4
from repro.filters.packets import (
    make_arp_packet,
    make_ip_packet,
    make_tcp_packet,
    make_udp_packet,
)


def _raw_ethernet(ethertype: int, payload: bytes) -> bytes:
    frame = b"\xff" * 6 + b"\x02" + b"\x00" * 5 \
        + struct.pack(">H", ethertype) + payload
    return frame + b"\x00" * max(0, 64 - len(frame))


class TestOracle1:
    def test_ip_accepted(self):
        assert oracle1(_raw_ethernet(0x0800, b"\x45" + b"\x00" * 30))

    def test_arp_rejected(self):
        assert not oracle1(_raw_ethernet(0x0806, b"\x00" * 28))

    def test_vlan_rejected(self):
        assert not oracle1(_raw_ethernet(0x8100, b"\x00" * 46))


class TestOracle2:
    def test_source_network_match(self):
        frame = make_ip_packet("128.2.206.42", "1.2.3.4", 17)
        assert oracle2(frame)

    def test_other_network_rejected(self):
        assert not oracle2(make_ip_packet("128.2.207.42", "1.2.3.4", 17))
        assert not oracle2(make_ip_packet("128.3.206.42", "1.2.3.4", 17))

    def test_non_ip_rejected(self):
        assert not oracle2(make_arp_packet("128.2.206.42", "1.2.3.4"))


class TestOracle3:
    def test_ip_both_directions(self):
        assert oracle3(make_ip_packet("128.2.206.1", "128.2.220.2", 6))
        assert oracle3(make_ip_packet("128.2.220.9", "128.2.206.8", 6))

    def test_ip_one_side_only_rejected(self):
        assert not oracle3(make_ip_packet("128.2.206.1", "9.9.9.9", 6))
        assert not oracle3(make_ip_packet("9.9.9.9", "128.2.220.2", 6))

    def test_arp_both_directions(self):
        assert oracle3(make_arp_packet("128.2.206.5", "128.2.220.7"))
        assert oracle3(make_arp_packet("128.2.220.5", "128.2.206.7"))

    def test_arp_mismatch_rejected(self):
        assert not oracle3(make_arp_packet("128.2.206.5", "128.2.206.7"))

    def test_other_ethertype_rejected(self):
        assert not oracle3(_raw_ethernet(0x9000, b"\x00" * 50))


class TestOracle4:
    def test_port_25_accepted(self):
        assert oracle4(make_tcp_packet("1.1.1.1", "2.2.2.2", 999, 25))

    def test_other_port_rejected(self):
        assert not oracle4(make_tcp_packet("1.1.1.1", "2.2.2.2", 999, 80))

    def test_port_hidden_behind_options(self):
        frame = make_tcp_packet("1.1.1.1", "2.2.2.2", 999, 25,
                                options=b"\x01" * 20)
        assert oracle4(frame)
        frame = make_tcp_packet("1.1.1.1", "2.2.2.2", 999, 80,
                                options=b"\x01" * 20)
        assert not oracle4(frame)

    def test_udp_rejected(self):
        assert not oracle4(make_udp_packet("1.1.1.1", "2.2.2.2", 999, 25))

    def test_source_port_25_not_enough(self):
        assert not oracle4(make_tcp_packet("1.1.1.1", "2.2.2.2", 25, 80))

    def test_max_ihl_boundary(self):
        """IHL 15: port offset 76, containing word at 72 — in bounds only
        when the frame is long enough."""
        frame = make_tcp_packet("1.1.1.1", "2.2.2.2", 999, 25,
                                options=b"\x01" * 40)
        assert oracle4(frame)
