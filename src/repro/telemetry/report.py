"""ASCII/HTML run report: Fig-11-style queue timelines from telemetry.

Renders the in-memory sample window of a :class:`repro.telemetry.Telemetry`
into a plain-text report — per-queue green/red occupancy sparklines
against the color threshold K, shared-buffer timelines, FCT CDFs
(reusing :func:`repro.stats.ascii.ascii_cdf`) and the run's headline
counters. :func:`render_html` wraps a text report in a minimal page
(the service SLO report's HTML form).
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Tuple

from repro.stats.ascii import ascii_cdf

#: Density ramp for sparkline cells (space = zero).
LEVELS = " .:-=+*#%@"


def sparkline(
    points: Iterable[Tuple[int, float]],
    t0: int,
    t1: int,
    width: int = 64,
    vmax: Optional[float] = None,
) -> str:
    """Render ``(time, value)`` points as a fixed-width density strip.

    The window ``[t0, t1]`` is split into ``width`` buckets; each cell
    shows the bucket's **max** value (peaks are the signal — a mean
    would smear the incast spikes Fig 11 is about) on the
    :data:`LEVELS` ramp, scaled to ``vmax`` (default: observed max).
    Times with no sample render as empty cells.
    """
    cells = [0.0] * width
    span = max(t1 - t0, 1)
    top = 0.0
    for t, value in points:
        index = (t - t0) * width // span
        if index < 0 or value <= 0:
            continue
        if index >= width:
            index = width - 1
        if value > cells[index]:
            cells[index] = value
        if value > top:
            top = value
    scale = vmax if vmax else top
    if scale <= 0:
        return "|" + " " * width + "|"
    chars = []
    for value in cells:
        if value <= 0:
            chars.append(" ")
        else:
            level = int(value / scale * (len(LEVELS) - 1) + 0.5)
            chars.append(LEVELS[max(1, min(level, len(LEVELS) - 1))])
    return "|" + "".join(chars) + "|"


def _series(
    records: Iterable[Dict], key_fields: Tuple[str, ...], value_field: str
) -> Dict[Tuple, List[Tuple[int, float]]]:
    """Group records into per-key ``(t, value)`` series."""
    series: Dict[Tuple, List[Tuple[int, float]]] = {}
    for record in records:
        key = tuple(record.get(f) for f in key_fields)
        series.setdefault(key, []).append((record["t"], record.get(value_field) or 0))
    return series


def _fmt_bytes(n: Optional[float]) -> str:
    if n is None:
        return "-"
    if n >= 1_000_000:
        return f"{n / 1e6:.2f}MB"
    if n >= 1_000:
        return f"{n / 1e3:.0f}kB"
    return f"{int(n)}B"


def render_report(telemetry, width: int = 64, max_queues: int = 8) -> str:
    """The full plain-text run report for one :class:`Telemetry`."""
    net = telemetry.net
    stats = net.stats
    config = telemetry.scenario
    t0, t1 = 0, net.engine.now
    lines: List[str] = []
    lines.append(f"TLT telemetry report — run {telemetry.run_id}")
    if config is not None:
        lines.append(
            f"config: transport={config.transport} tlt={config.tlt} "
            f"pfc={config.pfc} scale={config.scale.name} seed={config.seed}"
        )
    counts = " ".join(
        f"{stream}={len(telemetry.samples[stream])}"
        for stream in sorted(telemetry.samples)
    )
    lines.append(f"window: [{t0}, {t1}] ns   samples: {counts or '(none)'}")
    recorder = telemetry.recorder
    lines.append(
        f"flight recorder: {len(recorder.dumps)} dump(s), "
        f"{len(recorder.triggers)} trigger(s), {recorder.suppressed} suppressed"
    )
    lines.append("")

    # -- Fig-11-style queue timelines -----------------------------------------
    queue_records = telemetry.samples.get("queue", ())
    if queue_records:
        green = _series(queue_records, ("switch", "port", "tclass"), "green")
        red = _series(queue_records, ("switch", "port", "tclass"), "red")
        occ = _series(queue_records, ("switch", "port", "tclass"), "occ")
        k_by_key = {
            tuple(r.get(f) for f in ("switch", "port", "tclass")): r.get("k")
            for r in queue_records
        }
        ranked = sorted(
            occ, key=lambda key: max(v for _, v in occ[key]), reverse=True
        )[:max_queues]
        lines.append(
            f"Queue occupancy by color vs threshold K "
            f"(top {len(ranked)} queues by peak, cell = bucket max):"
        )
        for key in ranked:
            switch, port, tclass = key
            k = k_by_key.get(key)
            peak = max(v for _, v in occ[key])
            red_peak = max((v for _, v in red.get(key, [])), default=0)
            scale = max(peak, k or 0)
            label = f"{switch}:p{port}/q{tclass}"
            lines.append(
                f"  {label:<14} K={_fmt_bytes(k):<8} peak={_fmt_bytes(peak):<9} "
                f"red_peak={_fmt_bytes(red_peak)}"
            )
            lines.append(
                f"    green {sparkline(green.get(key, []), t0, t1, width, scale)}"
            )
            lines.append(
                f"    red   {sparkline(red.get(key, []), t0, t1, width, scale)}"
                + ("  (full scale = K)" if k and k >= peak else "")
            )
        lines.append("")

    # -- shared buffer ---------------------------------------------------------
    buffer_records = telemetry.samples.get("buffer", ())
    if buffer_records:
        used = _series(buffer_records, ("switch",), "used")
        lines.append("Shared-buffer MMU occupancy:")
        for key in sorted(used):
            capacity = next(
                (r["capacity"] for r in buffer_records if r["switch"] == key[0]), None
            )
            peak = max(v for _, v in used[key])
            lines.append(
                f"  {key[0]:<14} cap={_fmt_bytes(capacity):<9} peak={_fmt_bytes(peak)}"
            )
            lines.append(f"    used  {sparkline(used[key], t0, t1, width, capacity)}")
        lines.append("")

    # -- PFC -------------------------------------------------------------------
    pfc_records = telemetry.samples.get("pfc", ())
    if pfc_records:
        paused = _series(pfc_records, ("device", "port"), "paused")
        lines.append("PFC pause state (ticks observed paused/asserted):")
        for key in sorted(paused):
            lines.append(
                f"  {key[0]}:p{key[1]}  {len(paused[key])} tick(s) "
                f"{sparkline(paused[key], t0, t1, width, 1.0)}"
            )
        lines.append("")

    # -- FCT CDFs (repro.stats.ascii) -----------------------------------------
    for group, title in (("fg", "foreground (incast)"), ("bg", "background")):
        samples = [fct / 1e6 for fct in stats.fct_list(group)]
        if samples:
            lines.append(ascii_cdf(samples, label=f"FCT CDF — {title}", unit=" ms"))
            lines.append("")

    # -- headline counters -----------------------------------------------------
    lines.append("Counters:")
    lines.append(
        f"  timeouts={stats.timeouts} fast_retx={stats.fast_retransmits} "
        f"ecn_marks={stats.ecn_marks} pause_frames={stats.pause_frames}"
    )
    lines.append(
        f"  drops: green={stats.drops_green} red={stats.drops_red} "
        f"fault={stats.drops_fault} bytes={stats.drop_bytes}"
    )
    lines.append(
        f"  flows: {stats.flow_count()} total, {stats.incomplete_flows()} incomplete"
    )
    return "\n".join(lines) + "\n"


def render_html(text: str, title: str = "TLT telemetry report") -> str:
    """Wrap an ASCII report in a minimal self-contained HTML page."""
    escaped = (
        text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
    )
    return (
        "<!DOCTYPE html>\n<html><head><meta charset=\"utf-8\">"
        f"<title>{title}</title>"
        "<style>body{background:#111;color:#ddd;}"
        "pre{font:12px/1.3 monospace;}</style></head>\n"
        f"<body><pre>{escaped}</pre></body></html>\n"
    )
