"""Cross-optimization determinism proof.

The simulator's contract is that a run is a pure function of its
configuration and seeds. The fingerprints below pin the canonical
event order; every optimization and execution strategy (including
``--shards N``) must reproduce them bit-for-bit. If a change
legitimately alters the event sequence (it almost never should),
these values must NOT simply be refreshed — that would defeat the
proof. Find out why the sequence moved.

Pin history: originally captured on the pre-optimization engine
(plain object heap, no timer wheel, no packet pool) and reproduced
unchanged through the hot-path overhaul. Re-pinned ONCE when sharding
landed: same-nanosecond tie-breaking was redefined from global
schedule order to the decomposable wire-sequence key (locally
scheduled events first, then wire arrivals ordered by emitting port
rank and per-port FIFO index — see ``repro.net.link``), which is the
property that makes a spatially partitioned run bit-equal to the
single-core run at any scale. Only tie-sensitive fields moved;
durations, flow counts and loss counters were unchanged.

``dcqcn_pfc`` (alone) was re-pinned a second time when the RoCE
family's RED/ECN marking moved from one fabric-global RNG to
per-switch name-seeded streams (``derive_seed(seed, "ecn.<switch>")``
in ``build_network``): the old shared stream made every marking
decision depend on global packet-arrival order across switches — the
bug that kept dcqcn out of the shard-determinism gate — so the fix
necessarily changes which packets get marked. ``dctcp_tlt`` and
``hpcc_tlt`` (step marking / INT: stateless, no RNG) were reproduced
bit-for-bit through that change, pinning that only the RED RNG
plumbing moved.
"""

from functools import partial

import pytest

from repro.experiments.scale import TINY
from repro.experiments.scenarios import ScenarioConfig, run_scenario


def fingerprint(config: ScenarioConfig) -> dict:
    """A deep metrics digest of one scenario run: event counts, every
    loss/mark/pause counter, and order-sensitive sums of the timing
    samples (FCT, RTT, delivery, queue depth)."""
    return digest(run_scenario(config))


def digest(result) -> dict:
    """:func:`fingerprint` of a finished run."""
    stats = result.stats
    return {
        "duration_ns": result.duration_ns,
        "events": result.net.engine.events_processed,
        "timeouts": stats.timeouts,
        "fast_retransmits": stats.fast_retransmits,
        "ecn_marks": stats.ecn_marks,
        "pause_frames": stats.pause_frames,
        "resume_frames": stats.resume_frames,
        "drops_green": stats.drops_green,
        "drops_red": stats.drops_red,
        "drop_bytes": stats.drop_bytes,
        "green_data_packets": stats.green_data_packets,
        "red_data_packets": stats.red_data_packets,
        "clocking_packets": stats.clocking_packets,
        "flow_count": stats.flow_count(),
        "incomplete": stats.incomplete_flows(),
        "fct_fg_sum": sum(stats.fct_list("fg")),
        "fct_bg_sum": sum(stats.fct_list("bg")),
        "rtt_fg_sum": sum(stats.rtt_samples_fg),
        "rtt_bg_sum": sum(stats.rtt_samples_bg),
        "delivery_sum": sum(stats.delivery_samples),
        "queue_samples": len(result.queue_samples),
        "queue_sample_sum": sum(result.queue_samples),
    }


# Re-pinned when the wire-sequence tie-break landed with sharding
# (see module docstring); previously captured at commit 136bb3f.
EXPECTED = {
    "dctcp_tlt": {
        "duration_ns": 102854021,
        "events": 123079,
        "timeouts": 0,
        "fast_retransmits": 0,
        "ecn_marks": 725,
        "pause_frames": 0,
        "resume_frames": 0,
        "drops_green": 0,
        "drops_red": 0,
        "drop_bytes": 0,
        "green_data_packets": 104,
        "red_data_packets": 8233,
        "clocking_packets": 18,
        "flow_count": 40,
        "incomplete": 0,
        "fct_fg_sum": 780368,
        "fct_bg_sum": 7186415,
        "rtt_fg_sum": 8319342,
        "rtt_bg_sum": 988181499,
        "delivery_sum": 996500841,
        "queue_samples": 91,
        "queue_sample_sum": 5513871,
    },
    # Re-pinned with the per-switch ECN RNG streams (see module
    # docstring); previously captured with the fabric-global RNG.
    # ``events`` re-pinned once more with the one DCQCN timer (see the
    # lossy pin history below): 725 641 -> 725 202, its 439 alpha fires.
    "dcqcn_pfc": {
        "duration_ns": 101937158,
        "events": 725202,
        "timeouts": 0,
        "fast_retransmits": 0,
        "ecn_marks": 354,
        "pause_frames": 0,
        "resume_frames": 0,
        "drops_green": 0,
        "drops_red": 0,
        "drop_bytes": 0,
        "green_data_packets": 0,
        "red_data_packets": 0,
        "clocking_packets": 0,
        "flow_count": 40,
        "incomplete": 0,
        "fct_fg_sum": 335906,
        "fct_bg_sum": 25277635,
        "rtt_fg_sum": 2438256,
        "rtt_bg_sum": 2266898235,
        "delivery_sum": 2269336491,
        "queue_samples": 201,
        "queue_sample_sum": 6553295,
    },
    "hpcc_tlt": {
        "duration_ns": 102101540,
        "events": 1117425,
        "timeouts": 0,
        "fast_retransmits": 8,
        "ecn_marks": 0,
        "pause_frames": 0,
        "resume_frames": 0,
        "drops_green": 0,
        "drops_red": 0,
        "drop_bytes": 0,
        "green_data_packets": 2063,
        "red_data_packets": 70894,
        "clocking_packets": 2023,
        "flow_count": 40,
        "incomplete": 0,
        "fct_fg_sum": 302536,
        "fct_bg_sum": 27101885,
        "rtt_fg_sum": 2856238,
        "rtt_bg_sum": 944769752,
        "delivery_sum": 947625990,
        "queue_samples": 830,
        "queue_sample_sum": 809336,
    },
}

CONFIGS = {
    "dctcp_tlt": lambda: ScenarioConfig(
        transport="dctcp", tlt=True, scale=TINY, seed=3, audit=False
    ),
    "dcqcn_pfc": lambda: ScenarioConfig(
        transport="dcqcn", pfc=True, scale=TINY, seed=5, audit=False
    ),
    "hpcc_tlt": lambda: ScenarioConfig(
        transport="hpcc", tlt=True, scale=TINY, seed=7, audit=False
    ),
}


# ---------------------------------------------------------------- lossy pins
#
# The three EXPECTED pins above are loss-free (``timeouts == 0``, zero
# drops), so they fence none of the loss-recovery code. The rows below
# pin runs whose 60 kB ports overflow under a 32 kB incast without PFC:
# per run 1-19 timeouts, up to 1 907 fast retransmits and 2-16 325
# drops, so SACK-hole detection, dup-ACK early retransmit, RACK aging,
# go-back-N rewind and the RTO path all fire, with and without TLT.
#
# Pin history: captured at commit 3874c51 (PR 13), *before* the two
# transport families were moved onto one reliable-delivery core, on
# both backends (identical). Re-captured ONCE, and only the two
# ``dcqcn-sack`` seed-1 rows: ``RoceSender._retx_inflight`` was a set
# of PSNs, so retransmissions re-marked in one _detect_losses() pass
# were queued in CPython hash-slot order; it became an insertion-
# ordered dict (what ByteStreamSender already used) and those two runs
# — the only pinned ones that re-mark several aged retransmissions in
# one pass — moved. The other 22 rows and EXPECTED did not. The
# extraction of the shared core that followed moved nothing.
#
# The nine ``dctcp_<recovery>_s*`` rows pin the host recoveries the
# figures compare TLT against (TLP, RTO_min = 200 us, a fixed 160 us
# RTO). Captured at commit 9b0b563 on both backends (identical), when
# each was still a loose field (``tlp``, ``rto_min_ns``,
# ``fixed_rto_ns``), before they became ``recovery`` specs.
#
# ``dcqcn-sack_tlt_s1`` and ``_s2`` were re-pinned once more, for a bug
# fix: when the dup-ACK rule marked the head lost *after* SACK holes in
# the same _detect_losses() pass, ``RoceSender._on_loss_detected`` gave
# rate-based TLT the first hole as the retransmission round's first PSN,
# so the round's true first packet went out red against §5's
# first/last-packet rule. Only ``green_data_packets``/``red_data_packets``
# moved (-1/+1 and +2/-2); every drop, timeout and FCT sum held, and the
# other rows did not move.
#
# ``events`` of every DCQCN-family row (``dcqcn``, ``dcqcn-sack``, ``irn``
# and EXPECTED's ``dcqcn_pfc``) was re-pinned when DCQCN's alpha timer and
# rate timer became one timer. The two always fired back to back in the
# same nanosecond, so one event now does what two did: each row fell by
# exactly the alpha-timer fires it had before, and no other field moved.
# Fires (old events - new events), counted on the two-timer code:
# dcqcn_s2/_tlt_s2 854, dcqcn_s3/_tlt_s3 954, dcqcn-sack_s1/_tlt_s1 2 241,
# dcqcn-sack_s2/_tlt_s2 770, dcqcn-sack_s3/_tlt_s3 1 021, irn_s2 449,
# irn_s3 490, irn_tlt_s2 453, irn_tlt_s3 255. The ``hpcc`` rows run no
# DCQCN and did not move.

#: Same field set, same order, as the EXPECTED pins above.
LOSSY_FIELDS = tuple(EXPECTED["dctcp_tlt"])


#: Recovery specs by the name a lossy row gives them.
RECOVERIES = {
    "tlp": "tlp",
    "rto200us": {"name": "rto", "min_ns": 200_000},
    "fixed160us": {"name": "fixed-rto", "rto_ns": 160_000},
}


def lossy_config(name: str) -> ScenarioConfig:
    """``"<transport>[_tlt|_<recovery>]_s<seed>"`` -> the lossy scenario
    it names."""
    head, seed = name.rsplit("_s", 1)
    transport, _, variant = head.partition("_")
    return ScenarioConfig(
        transport=transport, tlt=variant == "tlt", recovery=RECOVERIES.get(variant),
        pfc=False, scale=TINY, seed=int(seed), audit=False,
        incast_flow_size=32 * 1024, buffer_per_port=60 * 1024,
    )


# One row per config, values in LOSSY_FIELDS order.
LOSSY_ROWS = {
    "dctcp_s1": (103013001, 506116, 2, 24, 0, 0, 0, 3544, 0, 1513024, 0, 0, 0, 40, 0, 2326324, 44104483, 33500472, 9819661750, 10937219615, 743, 33307371),
    "dctcp_s2": (102458094, 150313, 2, 0, 0, 0, 0, 93, 0, 139187, 0, 0, 0, 40, 0, 3254782, 24473442, 43142046, 2142582974, 2904782966, 77, 4961854),
    "dctcp_s3": (102854021, 129225, 3, 4, 0, 0, 0, 398, 0, 584369, 0, 0, 0, 40, 0, 2273148, 34048423, 32837682, 912353242, 2966698588, 44, 2126680),
    "dctcp_tlt_s1": (103013001, 507322, 3, 26, 0, 0, 0, 2575, 982, 1635689, 141, 41933, 32, 40, 0, 2326644, 52403871, 33504492, 9897819770, 11340266440, 748, 33325474),
    "dctcp_tlt_s2": (102458094, 150731, 2, 0, 0, 0, 0, 2, 92, 139236, 112, 10804, 33, 40, 0, 3254356, 24473430, 43144992, 2142591514, 2904794452, 76, 4968414),
    "dctcp_tlt_s3": (102854021, 128997, 1, 4, 0, 0, 0, 10, 388, 584369, 124, 8961, 39, 40, 0, 2273378, 11582011, 32840886, 916981324, 1055722762, 42, 2125270),
    "dcqcn_s2": (102458094, 295686, 10, 0, 23, 0, 0, 553, 0, 561648, 0, 0, 0, 40, 0, 33662804, 14634297, 35782907, 981572920, 25164284612, 103, 4591112),
    "dcqcn_s3": (102854021, 207905, 12, 0, 32, 0, 0, 1091, 0, 1107791, 0, 0, 0, 40, 0, 41315757, 8002410, 21443272, 241694203, 623614595, 113, 5378939),
    "dcqcn_tlt_s2": (102458094, 295686, 10, 0, 23, 0, 0, 30, 523, 561648, 303, 22711, 0, 40, 0, 33662804, 14634297, 35782907, 981572920, 25164284612, 103, 4591112),
    "dcqcn_tlt_s3": (102854021, 207905, 12, 0, 32, 0, 0, 57, 1034, 1107791, 219, 14188, 0, 40, 0, 41315757, 8002410, 21443272, 241694203, 623614595, 113, 5378939),
    "dcqcn-sack_s1": (103013001, 853105, 19, 1907, 126, 0, 0, 16325, 0, 8838790, 0, 0, 0, 40, 0, 74679985, 49343461, 26906902, 11160130788, 16390770178, 564, 30561589),
    "dcqcn-sack_s2": (102458094, 236371, 9, 310, 21, 0, 0, 548, 0, 556408, 0, 0, 0, 40, 0, 37663698, 5833431, 35898349, 936741513, 1141620540, 80, 3924456),
    "dcqcn-sack_s3": (102854021, 202546, 13, 87, 31, 0, 0, 1011, 0, 1043943, 0, 0, 0, 40, 0, 49358332, 7780356, 23783544, 256311918, 496601138, 110, 5345359),
    "dcqcn-sack_tlt_s1": (103013001, 853105, 19, 1907, 126, 0, 0, 9032, 7293, 8838790, 3641, 67591, 0, 40, 0, 74679985, 49343461, 26906902, 11160130788, 16390770178, 564, 30561589),
    "dcqcn-sack_tlt_s2": (102458094, 236371, 9, 310, 21, 0, 0, 102, 446, 556408, 591, 15682, 0, 40, 0, 37663698, 5833431, 35898349, 936741513, 1141620540, 80, 3924456),
    "dcqcn-sack_tlt_s3": (102854021, 202546, 13, 87, 31, 0, 0, 34, 977, 1043943, 268, 13363, 0, 40, 0, 49358332, 7780356, 23783544, 256311918, 496601138, 110, 5345359),
    "irn_s2": (102458094, 234691, 10, 18, 10, 0, 0, 120, 0, 106644, 0, 0, 0, 40, 0, 20661717, 5171963, 21970169, 184869608, 264050743, 72, 2563783),
    "irn_s3": (102854021, 198557, 12, 3, 10, 0, 0, 38, 0, 24196, 0, 0, 0, 40, 0, 24445226, 3749192, 23702931, 133926171, 202219841, 87, 2255323),
    "irn_tlt_s2": (102458094, 240639, 10, 30, 9, 0, 0, 28, 100, 116016, 445, 15810, 412, 40, 0, 20708570, 5342487, 22052388, 187723905, 271148239, 72, 2644597),
    "irn_tlt_s3": (102854021, 203562, 5, 27, 13, 0, 0, 17, 37, 42184, 376, 12632, 348, 40, 0, 11119629, 3787501, 23254316, 136779396, 192209082, 92, 2344659),
    "hpcc_s2": (102458094, 234118, 12, 13, 0, 0, 0, 107, 0, 94532, 0, 0, 0, 40, 0, 49319608, 4986621, 22750826, 143570101, 353070812, 35, 875358),
    "hpcc_s3": (102854021, 198140, 16, 3, 0, 0, 0, 54, 0, 38060, 0, 0, 0, 40, 0, 65267252, 3981546, 24218022, 111500870, 283018528, 76, 876971),
    "hpcc_tlt_s2": (102458094, 242093, 14, 20, 0, 0, 0, 29, 79, 95116, 577, 15790, 537, 40, 0, 57358750, 5227413, 23036991, 147480437, 313649476, 46, 918910),
    "hpcc_tlt_s3": (102854021, 204749, 16, 12, 0, 0, 0, 29, 23, 37940, 472, 12625, 432, 40, 0, 65268184, 4076704, 24208973, 112113703, 283538198, 91, 880655),
    "dctcp_tlp_s1": (103013001, 513937, 0, 34, 0, 0, 0, 3783, 0, 2598804, 0, 0, 0, 40, 0, 2326324, 37115704, 33500472, 8966424278, 9853555451, 719, 32869526),
    "dctcp_tlp_s2": (102458094, 150341, 1, 0, 0, 0, 0, 94, 0, 140695, 0, 0, 0, 40, 0, 3255402, 20885685, 43523642, 2142731779, 2912945473, 78, 4963362),
    "dctcp_tlp_s3": (102854021, 131177, 0, 5, 0, 0, 0, 638, 0, 945694, 0, 0, 0, 40, 0, 2273220, 8942974, 32838390, 936659438, 1210604434, 93, 4043922),
    "dctcp_rto200us_s1": (103013001, 520260, 32, 29, 0, 0, 0, 2038, 0, 982428, 0, 0, 0, 40, 0, 2326324, 56748328, 33500472, 9997102370, 11569688300, 498, 25310538),
    "dctcp_rto200us_s2": (102458094, 150846, 26, 10, 0, 0, 0, 94, 0, 140695, 0, 0, 0, 40, 0, 3500025, 18080121, 44119844, 2144685125, 2579839503, 78, 4964870),
    "dctcp_rto200us_s3": (102854021, 130732, 66, 5, 0, 0, 0, 894, 0, 1329150, 0, 0, 0, 40, 0, 2273148, 48242607, 32837682, 811329244, 5911817206, 75, 5112647),
    "dctcp_fixed160us_s1": (103013001, 517483, 93, 33, 0, 0, 0, 1321, 0, 946612, 0, 0, 0, 40, 0, 2326324, 71149482, 33500472, 9931552498, 12518944380, 439, 16556991),
    "dctcp_fixed160us_s2": (102458094, 153530, 33, 14, 0, 0, 0, 94, 0, 140695, 0, 0, 0, 40, 0, 3340446, 18488292, 42410034, 2089624796, 2447467455, 83, 5211370),
    "dctcp_fixed160us_s3": (102854021, 130202, 8, 6, 0, 0, 0, 634, 0, 936766, 0, 0, 0, 40, 0, 2273148, 36429222, 32837682, 897777698, 2838574911, 80, 4786861),
}

LOSSY_EXPECTED = {name: dict(zip(LOSSY_FIELDS, row)) for name, row in LOSSY_ROWS.items()}
LOSSY_CONFIGS = {name: partial(lossy_config, name) for name in LOSSY_ROWS}


@pytest.mark.parametrize("name", sorted(LOSSY_ROWS))
def test_lossy_fingerprint_matches_pinned_recovery_behaviour(name):
    actual = fingerprint(lossy_config(name))
    assert tuple(actual) == LOSSY_FIELDS
    assert actual == LOSSY_EXPECTED[name]


@pytest.mark.parametrize("name", sorted(EXPECTED))
def test_fingerprint_matches_pre_optimization_engine(name):
    assert fingerprint(CONFIGS[name]()) == EXPECTED[name]


def test_repeat_run_is_bit_identical():
    """Same config, same process, back-to-back: identical fingerprints
    (catches state leaking across runs, e.g. through the packet pool)."""
    config = CONFIGS["dctcp_tlt"]
    assert fingerprint(config()) == fingerprint(config())


def test_faulted_run_is_bit_identical():
    """A run with an armed fault schedule (corruption + a link flap +
    a PFC storm) is still a pure function of config and seed — and it
    genuinely diverges from the clean run it is derived from."""
    spec = {"events": [
        {"time_ns": 0, "kind": "corruption_on", "target": "tor0",
         "params": {"model": "gilbert_elliott", "p_enter": 0.001,
                    "p_exit": 0.2, "loss_bad": 1.0}},
        {"time_ns": 40_000_000, "kind": "corruption_off", "target": "tor0"},
        {"time_ns": 5_000_000, "kind": "link_down", "target": "tor1:0"},
        {"time_ns": 15_000_000, "kind": "link_up", "target": "tor1:0"},
        {"time_ns": 20_000_000, "kind": "pfc_storm", "target": "tor0:0",
         "params": {"duration_ns": 2_000_000}},
    ]}

    def config() -> ScenarioConfig:
        return ScenarioConfig(transport="dctcp", tlt=True, scale=TINY,
                              seed=3, audit=False, faults=spec)

    faulted = fingerprint(config())
    assert faulted == fingerprint(config())
    assert faulted != EXPECTED["dctcp_tlt"]
