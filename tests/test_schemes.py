"""Tests for the Fig 5/6 scheme builders."""

from repro.experiments.scenarios import ScenarioConfig
from repro.experiments.schemes import roce_schemes, tcp_schemes
from repro.sim.units import MICROS


def test_tcp_schemes_complete_set():
    schemes = tcp_schemes(ScenarioConfig(transport="dctcp"))
    assert set(schemes) == {
        "baseline", "baseline+pfc", "tlp", "rto200us", "tlt", "tlt+pfc",
    }
    assert schemes["baseline+pfc"].pfc
    assert schemes["tlp"].recovery == "tlp"
    assert schemes["rto200us"].recovery == {"name": "rto", "min_ns": 200 * MICROS}
    assert schemes["tlt"].tlt and not schemes["tlt"].pfc
    assert schemes["tlt+pfc"].tlt and schemes["tlt+pfc"].pfc


def test_tcp_schemes_do_not_mutate_base():
    base = ScenarioConfig(transport="tcp")
    tcp_schemes(base)
    assert not base.pfc and not base.tlt and base.recovery is None


def test_roce_schemes_irn_skips_pfc():
    schemes = roce_schemes(ScenarioConfig(transport="irn"))
    assert set(schemes) == {"baseline", "tlt"}


def test_roce_schemes_full_for_others():
    for transport in ("hpcc", "dcqcn", "dcqcn-sack"):
        schemes = roce_schemes(ScenarioConfig(transport=transport))
        assert set(schemes) == {"baseline", "baseline+pfc", "tlt", "tlt+pfc"}


def test_vanilla_dcqcn_gets_periodic_marking():
    from repro.core.config import TltConfig

    base = ScenarioConfig(transport="dcqcn", tlt_config=TltConfig(periodic_n=None))
    schemes = roce_schemes(base)
    assert schemes["tlt"].tlt_config.periodic_n == 96
