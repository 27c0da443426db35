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
from dataclasses import dataclass, field, fields
from typing import Callable, Optional

from repro.net.node import Device, Interceptor
from repro.net.packet import Packet, recycle
from repro.sim.rng import derive_seed
from repro.spec import Named, Probability, check, named


class LossModel:
    """Decides, per observed packet, whether the wire eats it: a dataclass
    of its spec params (``model`` names it), checked on construction."""

    def __post_init__(self) -> None:
        check(self)

    def sample(self, rng: random.Random) -> bool:  # pragma: no cover - interface
        raise NotImplementedError

    def to_params(self) -> dict:
        return {"model": self.model,
                **{each.name: getattr(self, each.name) for each in fields(self) if each.init}}


@dataclass(eq=False)
class BernoulliLoss(LossModel):
    """Independent per-packet corruption with a fixed probability."""

    model = "bernoulli"
    rate: Probability = 0.0

    def sample(self, rng: random.Random) -> bool:
        return rng.random() < self.rate


@dataclass(eq=False)
class GilbertElliottLoss(LossModel):
    """Two-state Markov (Gilbert–Elliott) bursty loss.

    Per packet the chain first transitions — GOOD->BAD with
    ``p_enter``, BAD->GOOD with ``p_exit`` — then the packet is lost
    with the state's loss rate (``loss_good`` is usually 0, ``loss_bad``
    close to 1). Mean burst length is ``1/p_exit`` packets; stationary
    loss rate is ``p_enter/(p_enter+p_exit) * loss_bad`` (plus the good
    term).
    """

    model = "gilbert_elliott"
    p_enter: Probability = 0.0
    p_exit: Probability = 1.0
    loss_good: Probability = 0.0
    loss_bad: Probability = 1.0
    bad: bool = field(default=False, init=False)  # current chain state

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


#: Loss models by the ``model`` name of a ``corruption_on`` event's params.
LOSS_MODELS = {model.model: model for model in (BernoulliLoss, GilbertElliottLoss)}


def model_spec(params) -> Named:
    """The parsed loss model of ``corruption_on`` params (default bernoulli)."""
    return named("", params, LOSS_MODELS, "loss model", key="model", default="bernoulli")


def make_model(params) -> LossModel:
    """A fresh loss model from declarative ``FaultEvent`` params."""
    return model_spec(params).build()


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
