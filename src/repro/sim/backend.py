"""Hot-path backend selection: pure-Python vs compiled kernels.

The simulator's inner loops — the engine event loop, link
serialization/delivery, the switch enqueue/dequeue/MMU fast path, and
what a byte-stream endpoint does per arriving DATA or ACK packet and
per burst it sends — exist in two implementations behind this module:

``pure``
    The reference implementation (:class:`repro.sim.engine.Engine` and
    the Python methods of ``repro.net.link`` / ``repro.switchsim`` /
    ``repro.transport``; the switch has one admission pipeline,
    ``Switch._receive`` / ``Switch._poll``).
    Zero dependencies, always available, and the semantic baseline the
    determinism fingerprints are pinned against.

``compiled``
    A hand-written CPython extension (``repro.sim._ckernel``, built by
    ``setup.py``/``pyproject.toml``) providing a drop-in C engine and
    per-instance C kernels bound onto switches, hosts and ports at
    network-build time. It honors the exact same observable contract —
    the raw ``(time, seq, fn, args)`` / ``(time, seq, Event)`` tuple
    heap layout, the ``WIRE_SEQ_BASE`` wire ordering, the
    events-processed count — so fingerprints are bit-identical across
    backends (CI-gated). Asking for it when the build is absent is an
    error, from the environment as from :func:`set_backend`.

Selection: ``TLT_BACKEND=pure|compiled`` in the environment, or
:func:`set_backend` for programmatic control (tests, shard workers —
every shard of a run must use the coordinator's backend). The factory
:func:`create_engine` is what ``repro.net.topology`` builds networks
on; :func:`optimize_network` is the build-time hook that binds the
compiled kernels (a no-op on ``pure``).
"""

from __future__ import annotations

import os
from typing import Optional

from repro.net.link import Port
from repro.sim import engine as engine_mod
from repro.sim.engine import Engine

#: Names accepted by ``TLT_BACKEND`` / :func:`set_backend`.
BACKENDS = ("pure", "compiled")

#: Programmatic override (takes precedence over the environment).
_forced: Optional[str] = None

_ckernel = None
_ckernel_checked = False


def _compiled_module():
    """The ``_ckernel`` extension module, or ``None`` when not built."""
    global _ckernel, _ckernel_checked
    if not _ckernel_checked:
        _ckernel_checked = True
        try:
            from repro.sim import _ckernel as module
        except ImportError:
            module = None
        _ckernel = module
    return _ckernel


def compiled_available() -> bool:
    """True when the compiled extension is importable."""
    return _compiled_module() is not None


def available_backends() -> tuple:
    return BACKENDS if compiled_available() else ("pure",)


def _checked(name: str) -> str:
    """``name`` if it is a usable backend, else the error that says why."""
    if name not in BACKENDS:
        raise ValueError(f"unknown backend {name!r}; expected one of {BACKENDS}")
    if name == "compiled" and not compiled_available():
        raise RuntimeError(
            "compiled backend requested but repro.sim._ckernel is not built "
            "(run `python setup.py build_ext --inplace` or install with the "
            "[compiled] extra)"
        )
    return name


def set_backend(name: Optional[str]) -> None:
    """Force a backend for this process (``None`` restores env selection).

    Raises :class:`ValueError` for unknown names and
    :class:`RuntimeError` when ``compiled`` is requested but the
    extension is not built.
    """
    global _forced
    _forced = None if name is None else _checked(name)


def current_backend() -> str:
    """Resolve the active backend name: :func:`set_backend`'s, else
    ``TLT_BACKEND``'s (default ``pure``), which fails as ``set_backend``
    would — an unusable request never runs on another backend."""
    if _forced is not None:
        return _forced
    return _checked(os.environ.get("TLT_BACKEND", "") or "pure")


def set_attribution(table: Optional[dict]) -> None:
    """Install (``None``: clear) the per-callback attribution table,
    ``{qualname: [calls, total_ns]}``, in both run loops: each honors
    the hook through its own module global, and a process may run both.
    Two ``perf_counter_ns`` calls per event while installed, else nothing."""
    engine_mod.set_attribution(table)
    ck = _compiled_module()
    if ck is not None:
        ck.set_attribution(table)


def create_engine():
    """Engine factory: the single construction point for production
    engines (``repro.net.topology._build`` and benchmarks)."""
    if current_backend() == "compiled":
        return _compiled_module().CEngine()
    return Engine()


#: Transport modules whose ``alloc_packet`` global gets swapped for the
#: compiled allocator. Patched/restored at network-build time so an
#: in-process backend switch (tests, A/B harnesses) keeps ``pure`` runs
#: on the all-Python allocator.
_ALLOC_MODULES = ("repro.transport.base", "repro.transport.roce")
_alloc_patched = False


def _bind_fast_alloc(ck) -> None:
    global _alloc_patched
    import importlib

    for name in _ALLOC_MODULES:
        setattr(importlib.import_module(name), "alloc_packet", ck.alloc_packet)
    _alloc_patched = True


def _unbind_fast_alloc() -> None:
    global _alloc_patched
    if not _alloc_patched:
        return
    import importlib

    from repro.net.packet import alloc_packet

    for name in _ALLOC_MODULES:
        setattr(importlib.import_module(name), "alloc_packet", alloc_packet)
    _alloc_patched = False


def optimize_network(net) -> int:
    """Bind compiled kernels onto a freshly built network.

    Called at the end of every topology builder. On the ``pure``
    backend this binds nothing. Returns the number of objects that
    received compiled kernels (used by tests). What is bound, per
    device (the full table is in ``docs/PERFORMANCE.md``):

    - switches with the default admission (``admission is None``) get
      a ``SwitchKernel``; ``Switch._bind_data_path`` makes its
      ``receive``/``poll`` the data path while no auditor is installed
      and the Python ``_receive``/``_poll`` otherwise. Explicit
      admission policies never get a kernel;
    - hosts get ``HostKernel.send``/``poll``/``sink``. The sink also
      runs the per-packet work of stock byte-stream endpoints (DATA at
      a ``ByteStreamReceiver``, completion included; ACKs at a
      ``ByteStreamSender``, and the burst an ACK clocks out:
      ``try_send`` → ``_transmit`` → ``TltWindowSender.mark_data``) in
      C, checking on every packet and at every burst that the endpoint
      still uses the ``repro.transport``/``repro.core`` methods it
      transcribes; those stay the reference, and run whenever the
      check fails. The engine hands a sender's ``start()`` event to the
      same send path (found through ``sender.host.send``), so the
      initial window leaves from C as well;
    - exact :class:`~repro.net.link.Port` instances get
      ``PortKernel.tx_done``/``drain`` (``repro.sim.sharding`` rebinds
      ``port._tx_cb`` after retargeting a cut port to
      :class:`~repro.sim.sharding.CutPort`).
    """
    if current_backend() != "compiled":
        _unbind_fast_alloc()
        return 0
    ck = _compiled_module()
    _bind_fast_alloc(ck)
    bound = 0
    for switch in net.switches:
        if switch.config.admission is None:
            switch._kernel = ck.SwitchKernel(switch)
            switch._bind_data_path()
            bound += 1
    for host in net.hosts:
        kernel = ck.HostKernel(host)
        host.send = kernel.send
        host.poll = kernel.poll
        host._sink_receive = kernel.sink
        host._set_base_receive(kernel.sink)
        bound += 1
    for device in list(net.hosts) + list(net.switches):
        for port in device.ports:
            if type(port) is Port:
                kernel = ck.PortKernel(port)
                port._tx_cb = kernel.tx_done
                port._drain_cb = kernel.drain
                bound += 1
    return bound
