"""A live terminal dashboard on the observability bus.

:class:`Dashboard` is a tracer sink: attach it to a
:class:`~repro.obs.probe.Probe` (``repro simulate --dashboard`` does
this) and it redraws a compact text frame after every simulated slot --
backlog/latency/cost/price sparklines, running averages against the
budget, engine work counters, degraded-mode (``resilience.*``)
counters, and the latest monitor alerts.

Rendering reuses :func:`repro.analysis.text_plots.sparkline`; pass
``ascii_only=True`` for dumb terminals and every glyph in the frame
stays 7-bit ASCII.  On non-TTY streams (pipes, CI logs) ANSI cursor
control is disabled automatically and frames are printed sequentially.
"""

from __future__ import annotations

import sys
from collections import deque
from typing import IO

from repro.analysis.text_plots import sparkline
from repro.obs.telemetry import histogram_summaries

__all__ = ["Dashboard"]

#: ANSI "cursor home + clear below" used to redraw in place.
_ANSI_REDRAW = "\x1b[H\x1b[J"


class Dashboard:
    """Per-slot live dashboard (a tracer sink).

    Args:
        budget: Time-average energy budget ``Cbar`` shown next to the
            running cost average.
        stream: Output stream; ``sys.stdout`` (resolved at write time,
            so pytest capture works) when omitted.
        width: Sparkline width in characters (series keep a trailing
            window of this many samples).
        ascii_only: Render with 7-bit ASCII ramps only, and implies no
            ANSI cursor control -- safe for dumb terminals.
        use_ansi: Redraw in place with ANSI escapes; default auto
            (enabled on TTY streams unless *ascii_only*).
        refresh_every: Render every k-th slot (1 = every slot).
    """

    def __init__(
        self,
        *,
        budget: float | None = None,
        stream: "IO[str] | None" = None,
        width: int = 60,
        ascii_only: bool = False,
        use_ansi: bool | None = None,
        refresh_every: int = 1,
    ) -> None:
        self.budget = budget
        self._stream = stream
        self.width = int(width)
        self.ascii_only = bool(ascii_only)
        self._use_ansi = use_ansi
        self.refresh_every = max(1, int(refresh_every))
        history = self.width
        self._backlog: deque[float] = deque(maxlen=history)
        self._latency: deque[float] = deque(maxlen=history)
        self._cost: deque[float] = deque(maxlen=history)
        self._price: deque[float] = deque(maxlen=history)
        self._counters: dict[str, float] = {}
        self._alerts: deque[dict] = deque(maxlen=4)
        self._alert_count = 0
        self._slots = 0
        self._latency_sum = 0.0
        self._cost_sum = 0.0
        self._last_t: int | None = None

    # -- Sink protocol -------------------------------------------------
    def emit(self, event: dict) -> None:
        kind = event["kind"]
        if kind == "counter":
            name = event["name"]
            self._counters[name] = self._counters.get(name, 0.0) + event["value"]
        elif kind == "gauge":
            if event["name"] == "queue.backlog":
                self._backlog.append(float(event["value"]))
            elif event["name"] == "slot.price":
                self._price.append(float(event["value"]))
        elif kind == "event":
            name = event["name"]
            if name == "alert":
                self._alerts.append(event["data"])
                self._alert_count += 1
            elif name == "slot":
                self._observe_slot(event["data"])
                if self._slots % self.refresh_every == 0:
                    self._write_frame()

    def close(self) -> None:
        stream = self._resolve_stream()
        if self._slots and not self._ansi_enabled(stream):
            stream.write("\n")

    # ------------------------------------------------------------------
    def _observe_slot(self, data: dict) -> None:
        self._slots += 1
        self._last_t = data.get("t", self._slots - 1)
        latency = float(data.get("latency", 0.0))
        cost = float(data.get("cost", 0.0))
        self._latency.append(latency)
        self._cost.append(cost)
        self._latency_sum += latency
        self._cost_sum += cost

    def _resolve_stream(self) -> "IO[str]":
        return self._stream if self._stream is not None else sys.stdout

    def _ansi_enabled(self, stream: "IO[str]") -> bool:
        if self.ascii_only:
            return False
        if self._use_ansi is not None:
            return self._use_ansi
        return bool(getattr(stream, "isatty", lambda: False)())

    def _write_frame(self) -> None:
        stream = self._resolve_stream()
        frame = self.render()
        if self._ansi_enabled(stream):
            stream.write(_ANSI_REDRAW + frame + "\n")
        else:
            stream.write(frame + "\n" + "=" * (self.width + 10) + "\n")
        stream.flush()

    def _spark(self, values: "deque[float]") -> str:
        return sparkline(
            list(values), ascii_only=self.ascii_only, empty="(no data)"
        )

    def render(self) -> str:
        """The current frame as a string (no stream side effects)."""
        mean_latency = self._latency_sum / self._slots if self._slots else 0.0
        mean_cost = self._cost_sum / self._slots if self._slots else 0.0
        budget_part = (
            f" / budget {self.budget:.4g}" if self.budget is not None else ""
        )
        header = (
            f"slot {self._last_t if self._last_t is not None else '-'}"
            f" | avg latency {mean_latency:.4g} s"
            f" | avg cost {mean_cost:.4g} $" + budget_part
        )
        lines = [header, "-" * max(len(header), self.width)]

        def row(label: str, values: "deque[float]", now_fmt: str = "{:.4g}") -> str:
            now = now_fmt.format(values[-1]) if values else "-"
            return f"{label:<8} {self._spark(values)}  now {now}"

        lines.append(row("backlog", self._backlog))
        lines.append(row("latency", self._latency))
        lines.append(row("cost", self._cost))
        lines.append(row("price", self._price))
        resilience = {
            n: v for n, v in self._counters.items() if n.startswith("resilience.")
        }
        engine_counters = {
            n: v for n, v in self._counters.items() if n not in resilience
        }
        if engine_counters:
            # Engine-panel counters in a curated order (the warm-start
            # and P2-B fast-path counters tell the perf story), then any
            # remaining counters alphabetically, capped.
            preferred = (
                "engine.sweeps",
                "engine.moves",
                "engine.warm_start_hits",
                "p2b.scalar_solves",
                "p2b.fastpath",
            )
            shown = [name for name in preferred if name in engine_counters]
            shown += [n for n in sorted(engine_counters) if n not in preferred]
            parts = " ".join(
                f"{name}={engine_counters[name]:.0f}" for name in shown[:8]
            )
            lines.append(f"{'engine':<8} {parts}")
        if resilience:
            # The degraded-mode panel: faults injected, fallback tiers
            # used, quarantines, checkpoints -- the resilience story.
            parts = " ".join(
                f"{name.removeprefix('resilience.')}={resilience[name]:.0f}"
                for name in sorted(resilience)[:8]
            )
            lines.append(f"{'resil':<8} {parts}")
        if self._alert_count:
            lines.append(f"alerts   {self._alert_count} raised; latest:")
            for alert in self._alerts:
                lines.append(
                    f"  [{alert.get('severity')}] {alert.get('monitor')}: "
                    f"{alert.get('message')}"
                )
        else:
            lines.append("alerts   (none)")
        return "\n".join(lines)


def render_profile_report(
    registry,
    *,
    names: "tuple[str, ...]" = ("repro_phase_seconds", "repro_kernel_seconds"),
    top: int = 12,
    ascii_only: bool = False,
) -> str:
    """Render the per-phase/per-kernel latency profile of a registry.

    One table per histogram family in *names* (missing families are
    skipped): the ``top`` hottest label sets by total seconds, with
    count, total, p50/p95 (interpolated from the histogram buckets),
    and a sparkline of the bucket occupancy -- a quick shape check that
    distinguishes "uniformly slow" from "bimodal with a slow tail".

    Args:
        registry: A :class:`~repro.obs.telemetry.MetricsRegistry`.
        names: Histogram family names to report.
        top: Rows per family.
        ascii_only: Sparklines render with 7-bit ASCII ramps only.
    """
    out: list[str] = []
    for name in names:
        rows = histogram_summaries(registry, name)
        if not rows:
            continue
        if out:
            out.append("")
        out.append(name)
        headers = ("series", "count", "total s", "p50 ms", "p95 ms", "buckets")
        table = []
        for row in rows[: max(1, top)]:
            label = (
                ",".join(f"{k}={v}" for k, v in sorted(row["labels"].items()))
                or "(all)"
            )
            table.append(
                (
                    label,
                    str(row["count"]),
                    f"{row['sum']:.3f}",
                    f"{1e3 * row['p50']:.2f}",
                    f"{1e3 * row['p95']:.2f}",
                    sparkline(
                        [float(c) for c in row["bucket_counts"]],
                        ascii_only=ascii_only,
                        empty="(no data)",
                    ),
                )
            )
        widths = [
            max(len(headers[c]), *(len(r[c]) for r in table))
            for c in range(len(headers) - 1)
        ]
        out.append(
            "  ".join(h.ljust(w) for h, w in zip(headers, widths)).rstrip()
            + "  "
            + headers[-1]
        )
        out.append("  ".join("-" * w for w in widths) + "  " + "-" * 7)
        for r in table:
            out.append(
                "  ".join(v.ljust(w) for v, w in zip(r, widths)).rstrip()
                + "  "
                + r[-1]
            )
    if not out:
        return "(no profile histograms recorded)"
    return "\n".join(out)
