"""Unit tests for the packet model."""

from __future__ import annotations

from repro.net.packet import ACK, ACK_BYTES, MTU_BYTES, make_ack, make_data


class TestPacket:
    def test_data_packet_defaults(self):
        packet = make_data(flow_id=1, src=0, dst=9, seq=5)
        assert packet.is_data and not packet.is_ack
        assert packet.size == MTU_BYTES
        assert packet.ect is True
        assert packet.ce is False
        assert packet.retransmit is False

    def test_uids_are_unique(self):
        a = make_data(1, 0, 1, 0)
        b = make_data(1, 0, 1, 1)
        assert a.uid != b.uid

    def test_service_field(self):
        packet = make_data(1, 0, 1, 0, service=5)
        assert packet.service == 5

    def test_non_ect_packet(self):
        packet = make_data(1, 0, 1, 0, ect=False)
        assert packet.ect is False


class TestMakeAck:
    def _data(self, ce=False, retransmit=False):
        data = make_data(flow_id=7, src=2, dst=8, seq=3, service=4)
        data.sent_time = 1.25
        data.ce = ce
        data.retransmit = retransmit
        return data

    def test_ack_reverses_direction(self):
        ack = make_ack(self._data(), ack_seq=4, ece=False)
        assert ack.src == 8 and ack.dst == 2
        assert ack.kind == ACK
        assert ack.flow_id == 7

    def test_ack_is_small_and_not_ect(self):
        ack = make_ack(self._data(), 4, False)
        assert ack.size == ACK_BYTES
        assert ack.ect is False

    def test_ack_echoes_ce_as_ece(self):
        assert make_ack(self._data(ce=True), 4, ece=True).ece is True
        assert make_ack(self._data(), 4, ece=False).ece is False

    def test_ack_echoes_send_timestamp(self):
        ack = make_ack(self._data(), 4, False)
        assert ack.echo_time == 1.25

    def test_ack_carries_cumulative_seq(self):
        ack = make_ack(self._data(), 42, False)
        assert ack.ack_seq == 42

    def test_ack_inherits_service(self):
        ack = make_ack(self._data(), 4, False)
        assert ack.service == 4

    def test_karns_rule_flag_propagates(self):
        assert make_ack(self._data(retransmit=True), 4, False).retransmit is True
        assert make_ack(self._data(), 4, False).retransmit is False

    def test_ack_echoes_train_width(self):
        data = self._data()
        data.train = 16
        assert make_ack(data, 4, False).train == 16
        assert make_ack(self._data(), 4, False).train == 1
