"""Micro-scale smoke tests for the experiment modules.

Each module's ``run()`` must produce structurally valid rows at a
minimal scale (the benchmarks exercise them at full scale)."""


from repro.experiments.scale import Scale

#: Smallest meaningful scale: single-digit seconds per scenario.
MICRO = Scale("micro", num_spines=1, num_tors=2, hosts_per_tor=2,
              bg_flows=6, incast_events=1, incast_flows_per_sender=2)


def test_fig01_rows():
    from repro.experiments import fig01_rto_cdf as exp

    rows = exp.run(MICRO)
    assert len(rows) == 4
    assert {r["metric"] for r in rows} == {"rtt_us", "rto_us"}
    assert all(r["p50"] <= r["p99"] for r in rows)


def test_fig02_rows():
    from repro.experiments import fig02_fixed_rto as exp

    rows = exp.run(MICRO)
    assert [r["scheme"] for r in rows] == ["baseline_4ms", "fixed_160us"]


def test_fig08_rows():
    from repro.experiments import fig08_threshold_sweep as exp

    rows = exp.run(MICRO, thresholds=(200_000, 400_000))
    assert len(rows) == 4
    assert {r["threshold_kB"] for r in rows} == {200, 400}


def test_fig09_rows():
    from repro.experiments import fig09_load_sweep as exp

    rows = exp.run(MICRO, loads=(0.2,), transports=("dctcp",))
    assert len(rows) == 2  # ±TLT
    assert all(r["load"] == 0.2 for r in rows)


def test_fig10_rows():
    from repro.experiments import fig10_fg_share as exp

    rows = exp.run(MICRO, shares=(0.0, 0.1))
    assert len(rows) == 2
    assert rows[0]["important_fraction"] >= 0


def test_fig11_rows():
    from repro.experiments import fig11_queue_behavior as exp

    result = exp.run(MICRO)
    assert set(result) == {"fraction", "queues"}
    assert {r["scheme"] for r in result["queues"]} == {"dctcp", "dctcp+tlt"}


def test_fig13_rows():
    from repro.experiments import fig13_mixed_traffic as exp

    rows = exp.run(MICRO)
    assert len(rows) == 2
    assert all(r["answered"] == 152 for r in rows)


def test_fig13_audit_honours_dump_env(monkeypatch, tmp_path):
    # fig13 builds its own network, so it attaches its own auditor: it
    # must be the one every other --audit run gets (AuditConfig.from_env),
    # or a fig13 violation leaves no dump for the CI artifact upload.
    from repro.audit import Auditor
    from repro.experiments import fig13_mixed_traffic as exp

    dump = str(tmp_path / "audit_dump.json")
    monkeypatch.setenv("TLT_AUDIT", "1")
    monkeypatch.setenv("TLT_AUDIT_DUMP", dump)
    dump_paths = []
    final_check = Auditor.final_check

    def recording_final_check(self):
        dump_paths.append(self.config.dump_path)
        final_check(self)

    monkeypatch.setattr(Auditor, "final_check", recording_final_check)
    assert exp.run_one()["answered"] == 152
    assert dump_paths == [dump]


def test_fig16_rows():
    from repro.experiments import fig16_delivery_cdf as exp

    rows = exp.run(MICRO)
    assert {r["scheme"] for r in rows} == {"dctcp", "dctcp+tlt"}
    assert all(r["p50_us"] > 0 for r in rows)


def test_fig18_rows():
    from repro.experiments import fig18_incast_degree as exp

    rows = exp.run(MICRO, degrees=(2,), transports=("tcp",))
    assert len(rows) == 2


def test_table1_rows():
    from repro.experiments import table1_important_loss as exp

    rows = exp.run(MICRO, thresholds=(400_000,), shares=(0.05,),
                   transports=("dctcp",), include_stress=False)
    assert len(rows) == 1
    assert rows[0]["important_loss_rate"] >= 0


def test_ext_periodic_n_rows():
    from repro.experiments import ext_periodic_n as exp

    rows = exp.run(MICRO, ns=(None, 96))
    assert [r["periodic_n"] for r in rows] == ["off", 96]


def test_ext_corruption_rows():
    from repro.experiments import ext_corruption as exp

    rows = exp.run(MICRO, rates=(0.0, 1e-3))
    assert len(rows) == 2
    assert rows[0]["corrupted_green"] == 0


def test_fig12_single_point():
    from repro.experiments import fig12_redis_incast as exp

    row = exp.run_one("dctcp", tlt=True, requests=8, bursts=1)
    assert row["answered"] == 8
    assert row["timeouts"] == 0


def test_fig14_single_point():
    from repro.experiments import fig14_incast_microbench as exp

    row = exp.run_one("dctcp", "tlt", flows=8, runs=1)
    assert row["answered"] == 8
    assert row["p99_ms"] > 0
