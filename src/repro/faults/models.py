"""Non-congestion loss models and the corruption interceptor.

TLT only concerns congestion losses; losses from problematic hardware
make it fall back to the underlying transport (§5). This module injects
exactly those: a :class:`FaultInjector` sits in a device's receive-path
interceptor chain and eats packets according to a :class:`LossModel`,
regardless of color — unlike color-aware dropping, a corrupted green
packet is gone too.

Loss models:

- :class:`BernoulliLoss` — i.i.d. corruption at a fixed rate (a noisy
  but stable optic);
- :class:`GilbertElliottLoss` — the classic two-state Markov burst
  model (a flapping transceiver: long clean stretches punctuated by
  windows where most packets die).

Determinism: the injector's RNG is derived from the scenario seed and
the device name via :func:`repro.sim.rng.derive_seed`, so a ``--seeds
N`` sweep corrupts a *different* packet set per seed while any single
seed stays bit-reproducible.
"""

from __future__ import annotations

import random
from typing import Callable, Optional

from repro.net.node import Device, Interceptor
from repro.net.packet import Packet, recycle
from repro.sim.rng import derive_seed


class LossModel:
    """Decides, per observed packet, whether the wire eats it."""

    def sample(self, rng: random.Random) -> bool:  # pragma: no cover - interface
        raise NotImplementedError

    def to_params(self) -> dict:  # pragma: no cover - interface
        raise NotImplementedError


class BernoulliLoss(LossModel):
    """Independent per-packet corruption with a fixed probability."""

    def __init__(self, probability: float):
        if not 0 <= probability <= 1:
            raise ValueError("loss probability must be within [0, 1]")
        self.probability = probability

    def sample(self, rng: random.Random) -> bool:
        return rng.random() < self.probability

    def to_params(self) -> dict:
        return {"model": "bernoulli", "rate": self.probability}

    def __repr__(self) -> str:  # pragma: no cover
        return f"BernoulliLoss({self.probability})"


class GilbertElliottLoss(LossModel):
    """Two-state Markov (Gilbert–Elliott) bursty loss.

    Per packet the chain first transitions — GOOD->BAD with
    ``p_enter``, BAD->GOOD with ``p_exit`` — then the packet is lost
    with the state's loss rate (``loss_good`` is usually 0, ``loss_bad``
    close to 1). Mean burst length is ``1/p_exit`` packets; stationary
    loss rate is ``p_enter/(p_enter+p_exit) * loss_bad`` (plus the good
    term).
    """

    def __init__(
        self,
        p_enter: float,
        p_exit: float,
        loss_good: float = 0.0,
        loss_bad: float = 1.0,
    ):
        for name, p in (
            ("p_enter", p_enter),
            ("p_exit", p_exit),
            ("loss_good", loss_good),
            ("loss_bad", loss_bad),
        ):
            if not 0 <= p <= 1:
                raise ValueError(f"{name} must be within [0, 1]")
        self.p_enter = p_enter
        self.p_exit = p_exit
        self.loss_good = loss_good
        self.loss_bad = loss_bad
        self.bad = False  # current chain state

    def sample(self, rng: random.Random) -> bool:
        if self.bad:
            if rng.random() < self.p_exit:
                self.bad = False
        elif rng.random() < self.p_enter:
            self.bad = True
        loss = self.loss_bad if self.bad else self.loss_good
        if loss <= 0.0:
            return False
        if loss >= 1.0:
            return True
        return rng.random() < loss

    def to_params(self) -> dict:
        return {
            "model": "gilbert_elliott",
            "p_enter": self.p_enter,
            "p_exit": self.p_exit,
            "loss_good": self.loss_good,
            "loss_bad": self.loss_bad,
        }

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"GilbertElliottLoss(p_enter={self.p_enter}, p_exit={self.p_exit}, "
            f"loss_bad={self.loss_bad})"
        )


def make_model(params: dict) -> LossModel:
    """Build a loss model from declarative ``FaultEvent`` params."""
    name = params.get("model", "bernoulli")
    if name == "bernoulli":
        return BernoulliLoss(float(params.get("rate", 0.0)))
    if name == "gilbert_elliott":
        return GilbertElliottLoss(
            float(params.get("p_enter", 0.0)),
            float(params.get("p_exit", 1.0)),
            float(params.get("loss_good", 0.0)),
            float(params.get("loss_bad", 1.0)),
        )
    raise ValueError(f"unknown loss model {name!r}")


class FaultInjector(Interceptor):
    """Random packet corruption at a device's receive path.

    Installs itself on ``device``'s interceptor chain (so it composes
    with tracing and survives audit toggling; remove with
    :meth:`detach`). Dropped packets are accounted as fault drops on
    ``stats`` (when given) and recycled to the packet pool.
    """

    def __init__(
        self,
        device: Device,
        loss_probability: Optional[float] = None,
        rng: Optional[random.Random] = None,
        selector: Optional[Callable[[Packet], bool]] = None,
        *,
        model: Optional[LossModel] = None,
        stats=None,
        seed: Optional[int] = None,
    ):
        if model is None:
            if loss_probability is None:
                raise ValueError("need a loss_probability or a model")
            model = BernoulliLoss(loss_probability)
        elif loss_probability is not None:
            raise ValueError("pass loss_probability or model, not both")
        self.device = device
        self.model = model
        if rng is None:
            base = seed if seed is not None else getattr(stats, "seed", 0)
            rng = random.Random(derive_seed(base, f"fault.corruption.{device.name}"))
        self.rng = rng
        self.selector = selector
        self.stats = stats
        self.corrupted = 0
        device.add_interceptor(self)

    def detach(self) -> None:
        self.device.remove_interceptor(self)

    def on_packet(self, packet: Packet, in_port, forward: Callable) -> None:
        if (self.selector is None or self.selector(packet)) and self.model.sample(
            self.rng
        ):
            self.corrupted += 1
            stats = self.stats
            if stats is not None:
                stats.count_fault_drop(packet)
                ring = stats.audit_ring
                if ring is not None:
                    ring.record(
                        "fault_drop", time_ns=self.device.engine.now,
                        device=self.device.name, flow=packet.flow_id,
                        seq=packet.seq, size=packet.size,
                        color=packet.color.name, info="corruption",
                    )
            recycle(packet)  # the wire ate it
            return
        forward(packet, in_port)
