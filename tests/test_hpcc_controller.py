"""Unit tests for the HPCC window controller math."""

from repro.net.packet import IntRecord, Packet, PacketKind
from repro.transport.base import TransportConfig
from repro.transport.hpcc import HPCC_WAI_BYTES, HpccController


def make_controller(**kw):
    kw.setdefault("base_rtt_ns", 8_000)
    kw.setdefault("link_rate_bps", 40_000_000_000)
    return HpccController(TransportConfig(**kw))


def ack_with_int(ack, qlen, tx_bytes, ts, rate=40_000_000_000):
    pkt = Packet(1, 1, 0, PacketKind.ACK, ack=ack)
    pkt.int_echo = [IntRecord(qlen, tx_bytes, ts, rate)]
    return pkt


def test_initial_window_is_bdp():
    ctl = make_controller()
    assert ctl.window == 40_000  # 8 us x 40 Gbps


def test_no_int_no_change():
    ctl = make_controller()
    pkt = Packet(1, 1, 0, PacketKind.ACK, ack=1)
    ctl.on_ack(pkt, snd_nxt=10)
    assert ctl.window == 40_000


def test_deep_queue_shrinks_window():
    ctl = make_controller()
    # Queue of 10x BDP, zero measured tx delta in the first sample.
    ctl.on_ack(ack_with_int(1, qlen=400_000, tx_bytes=0, ts=0), snd_nxt=10)
    ctl.on_ack(ack_with_int(2, qlen=400_000, tx_bytes=10_000, ts=8_000), snd_nxt=10)
    assert ctl.window < 40_000


def test_idle_link_grows_reference_slowly():
    ctl = make_controller()
    # Empty queue, low utilization: additive increase takes over.
    ts = 0
    for ack in range(1, 8):
        ctl.on_ack(ack_with_int(ack, qlen=0, tx_bytes=ack * 1_000, ts=ts), snd_nxt=ack)
        ts += 8_000
    assert ctl.window >= 40_000 - 1  # never collapses on an idle link


def test_window_never_below_wai():
    ctl = make_controller()
    ts = 0
    for ack in range(1, 30):
        ctl.on_ack(
            ack_with_int(ack, qlen=4_000_000, tx_bytes=ack * 40_000, ts=ts),
            snd_nxt=ack,
        )
        ts += 8_000
    assert ctl.window >= HPCC_WAI_BYTES


def test_window_capped_at_bdp():
    ctl = make_controller()
    ts = 0
    for ack in range(1, 30):
        ctl.on_ack(ack_with_int(ack, qlen=0, tx_bytes=0, ts=ts), snd_nxt=ack)
        ts += 8_000
    assert ctl.window <= ctl.max_window


def test_reference_window_updates_once_per_rtt():
    ctl = make_controller()
    ctl.on_ack(ack_with_int(1, qlen=0, tx_bytes=0, ts=0), snd_nxt=100)
    wc_after_first = ctl.reference_window
    # Subsequent acks below snd_nxt=100 must not move the reference.
    ctl.on_ack(ack_with_int(2, qlen=0, tx_bytes=1_000, ts=8_000), snd_nxt=100)
    ctl.on_ack(ack_with_int(50, qlen=0, tx_bytes=2_000, ts=16_000), snd_nxt=100)
    assert ctl.reference_window == wc_after_first
    # An ack beyond the recorded snd_nxt starts a new update round.
    ctl.on_ack(ack_with_int(101, qlen=0, tx_bytes=3_000, ts=24_000), snd_nxt=200)
    assert ctl.reference_window != wc_after_first or ctl.inc_stage > 0
