"""Tier-graph specification for the service emulator: plain JSON-able
data in ``ScenarioConfig.service``, parsed by ``ServiceSpec.from_spec``
and round-tripped by ``to_spec`` (format: docs/SERVICE.md)."""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Dict, Literal, Optional, Tuple

from repro.spec import (NonNegativeInt, PositiveFloat, PositiveInt, SpecError, build, check,
                        expected, within)
from repro.workload.distributions import DISTRIBUTIONS


@dataclass(frozen=True)
class TierSpec:
    """One backend tier the load balancer fans out to."""

    name: str
    #: Number of server endpoints (spread round-robin over the
    #: non-load-balancer hosts; tiers may share hosts at tiny scales).
    servers: PositiveInt = 2
    #: Shards queried per request (distinct servers, sampled from the
    #: tier's seeded RNG stream). The slowest shard gates the request.
    fanout: PositiveInt = 1
    #: Reply-size distribution: a name from
    #: :data:`repro.workload.distributions.DISTRIBUTIONS`.
    workload: Literal[tuple(DISTRIBUTIONS)] = "cache_follower"
    #: Clamp on drawn reply sizes (the published CDFs reach tens of MB;
    #: interactive GETs do not). 0 disables the clamp.
    max_bytes: NonNegativeInt = 64_000
    #: Mean server-side service time (exponentially distributed, per
    #: server seeded RNG stream); 0 = reply immediately.
    service_ns: NonNegativeInt = 5_000
    #: Hedge a shard op to one extra server if its reply is still
    #: outstanding after this long; None disables hedging.
    hedge_ns: Optional[PositiveInt] = None

    def __post_init__(self) -> None:
        check(self)
        if self.fanout > self.servers:
            raise expected("fanout", f"an int in [1, servers={self.servers}]", self.fanout)


@dataclass(frozen=True)
class ServiceSpec:
    """The whole tier graph plus the open-loop arrival process."""

    #: Open-loop requests to generate.
    requests: PositiveInt = 1000
    #: Mean arrival rate, requests/second.
    rate_rps: PositiveFloat = 10_000.0
    #: Interarrival process: "poisson" (exponential gaps) or
    #: "lognormal" (heavy-tailed gaps, same mean, shape ``sigma``).
    process: Literal["poisson", "lognormal"] = "poisson"
    #: Log-normal shape parameter (ignored for poisson).
    sigma: float = 1.0
    #: Load-balancer (front) tier: hosts that receive requests and fan
    #: them out. Also names the arrival RNG stream
    #: ``arrivals.<lb_name>``.
    lb_name: str = "lb"
    lb_hosts: PositiveInt = 1
    #: Backend tiers, queried in parallel per request.
    tiers: Tuple[TierSpec, ...] = field(default_factory=tuple)
    #: p99 response-time SLO (ms) the report grades against.
    slo_p99_ms: float = 4.0
    #: Timeout budget: RTO fires per 1k flows the report tolerates.
    timeout_budget_per_1k: float = 1.0
    #: Retire completed FlowRecords on this period (O(1) stats memory);
    #: 0 disables retirement.
    retire_interval_ns: NonNegativeInt = 2_000_000

    def __post_init__(self) -> None:
        check(self)
        if not self.tiers:
            raise expected("tiers", "at least one backend tier", self.tiers)
        names = [tier.name for tier in self.tiers] + [self.lb_name]
        if len(set(names)) != len(names):
            raise SpecError("tiers", f"expected tier names unique and not lb_name, got {names}")

    @classmethod
    def from_spec(cls, spec) -> "ServiceSpec":
        """Build from the JSON-able dict form (idempotent on instances)."""
        if isinstance(spec, ServiceSpec):
            return spec
        with within("service"):
            return build(cls, spec, "service")

    def to_spec(self) -> Dict:
        """Canonical JSON-able form (round-trips through from_spec)."""
        spec = asdict(self)
        spec["tiers"] = [asdict(tier) for tier in self.tiers]
        return spec

    @property
    def total_fanout(self) -> int:
        """Shard ops per request (before hedging)."""
        return sum(tier.fanout for tier in self.tiers)
