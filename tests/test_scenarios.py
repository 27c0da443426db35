"""Integration tests for the scenario harness (and determinism)."""

import pytest

from repro.experiments.scale import SCALES, Scale
from repro.experiments.scenarios import ScenarioConfig, build_network, run_scenario

FAST = Scale("fast", num_spines=1, num_tors=2, hosts_per_tor=2,
             bg_flows=8, incast_events=1, incast_flows_per_sender=2)


def fast_config(**kw):
    kw.setdefault("scale", FAST)
    return ScenarioConfig(**kw)


def test_scenario_completes_all_flows():
    result = run_scenario(fast_config(transport="dctcp"))
    assert result.stats.incomplete_flows() == 0
    assert result.stats.flow_count("bg") == 8
    assert result.stats.flow_count("fg") == 1 * 3 * 2  # 3 senders x 2 flows


def test_scenario_is_deterministic():
    a = run_scenario(fast_config(transport="dctcp", seed=5))
    b = run_scenario(fast_config(transport="dctcp", seed=5))
    assert a.fct_summary("bg") == b.fct_summary("bg")
    assert a.fct_summary("fg") == b.fct_summary("fg")
    assert a.stats.timeouts == b.stats.timeouts


def test_different_seed_different_traffic():
    a = run_scenario(fast_config(transport="dctcp", seed=1))
    b = run_scenario(fast_config(transport="dctcp", seed=2))
    assert a.fct_summary("bg") != b.fct_summary("bg")


def test_family_resolution():
    assert fast_config(transport="tcp").family == "tcp"
    assert fast_config(transport="hpcc").family == "roce"
    with pytest.raises(ValueError):
        _ = fast_config(transport="quic").family


def test_link_delay_defaults_by_family():
    assert fast_config(transport="dctcp").resolved_link_delay_ns == 10_000
    assert fast_config(transport="dcqcn").resolved_link_delay_ns == 1_000


def test_bdp_matches_paper():
    # TCP family leaf-spine: 80 us x 40 Gbps = 400 kB.
    assert fast_config(transport="tcp").bdp_bytes == 400_000


def test_color_threshold_defaults():
    assert fast_config(transport="tcp").resolved_color_threshold is None
    assert fast_config(transport="tcp", tlt=True).resolved_color_threshold == 400_000
    assert fast_config(transport="irn", tlt=True).resolved_color_threshold == 200_000
    cfg = fast_config(transport="tcp", tlt=True, color_threshold_bytes=123)
    assert cfg.resolved_color_threshold == 123


def test_build_network_switch_features():
    net = build_network(fast_config(transport="hpcc"))
    assert all(s.config.int_enabled for s in net.switches)
    net = build_network(fast_config(transport="dctcp"))
    assert all(s.config.ecn is not None for s in net.switches)
    net = build_network(fast_config(transport="tcp"))
    assert all(s.config.ecn is None for s in net.switches)


def test_pfc_enabled_propagates():
    net = build_network(fast_config(transport="dctcp", pfc=True))
    assert all(s.pfc is not None for s in net.switches)


def test_queue_samples_collected_under_congestion():
    # Samples record only busy queues; force sustained congestion.
    result = run_scenario(
        fast_config(transport="dctcp", fg_share=0.2, queue_sample_interval_ns=2_000)
    )
    assert isinstance(result.queue_samples, list)
    assert result.queue_samples, "expected busy-queue samples under incast"


def test_disable_traffic_classes():
    result = run_scenario(fast_config(transport="dctcp", enable_incast=False))
    assert result.stats.flow_count("fg") == 0
    result = run_scenario(
        fast_config(transport="dctcp", enable_background=False, drain_ns=50_000_000)
    )
    assert result.stats.flow_count("bg") == 0


def test_scales_registry():
    assert set(SCALES) == {"tiny", "small", "medium", "paper"}
    assert SCALES["paper"].num_hosts == 96


def test_summary_row_keys():
    row = run_scenario(fast_config(transport="dctcp")).summary_row()
    for key in ("fg_p99_ms", "fg_p999_ms", "bg_avg_ms", "timeouts_per_1k",
                "pause_per_1k", "pause_fraction", "important_loss_rate",
                "important_fraction", "incomplete"):
        assert key in row


@pytest.mark.parametrize("transport", ["tcp", "dctcp", "dcqcn", "dcqcn-sack", "irn", "hpcc"])
def test_flows_share_one_config_and_never_write_it(monkeypatch, transport):
    """The transport config is resolved once per run and shared by all
    flows (one object, not one copy per flow), so a transport that
    wrote to ``self.config`` would change every other flow's."""
    from repro.experiments import scenarios
    from repro.transport.base import TransportConfig
    from repro.transport.reliable import ReliableSender

    class Guarded(TransportConfig):
        sealed = False

        def __setattr__(self, name, value):
            assert not self.sealed, f"a transport wrote config.{name}"
            super().__setattr__(name, value)

    real = scenarios.make_transport_config
    made = []

    def make(config):
        plain = real(config)
        guarded = Guarded(**{name: getattr(plain, name) for name in plain.__dataclass_fields__})
        guarded.sealed = True
        made.append(guarded)
        return guarded

    monkeypatch.setattr(scenarios, "make_transport_config", make)
    # A finished sender is no longer reachable from the network, so
    # collect them as they are built.
    senders = []
    real_init = ReliableSender.__init__

    def init(self, *args, **kwargs):
        real_init(self, *args, **kwargs)
        senders.append(self)

    monkeypatch.setattr(ReliableSender, "__init__", init)
    result = run_scenario(fast_config(transport=transport, tlt=True, audit=False, shards=1,
                                      incast_flow_size=64_000, buffer_per_port=40_000))
    (shared,) = made
    assert shared.ecn == (transport == "dctcp")
    assert all(sender.config is shared for sender in senders)
    assert len(senders) == result.stats.flow_count()
    assert result.stats.incomplete_flows() == 0
    # Every sender completed and left its host; the receivers stay.
    endpoints = [ep for host in result.net.hosts for ep in host.endpoints.values()]
    assert len(endpoints) == result.stats.flow_count()
    assert all(ep.config is shared for ep in endpoints)
    assert not any(isinstance(ep, ReliableSender) for ep in endpoints)
