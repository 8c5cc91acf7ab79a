"""The engine behind ``repro profile``: one traced end-to-end update.

:func:`profile_update` drives the whole pipeline — compile the old
program, plan the update, disseminate the packetised script over a
grid, simulate both versions — with the process-wide tracer enabled,
then folds the collected spans into a per-phase wall-time/energy
breakdown and a per-run metrics delta.

Kept separate from :mod:`repro.obs.trace`/:mod:`repro.obs.metrics` on
purpose: those two are dependency-free so every pipeline stage can
import them, while this driver imports the pipeline itself.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..config import UpdateConfig
from ..core.compiler import compile_source
from ..core.update import UpdateResult, measure_cycles, plan_update
from ..energy.model import DEFAULT_ENERGY_MODEL
from ..energy.power_model import MICA2
from ..net.dissemination import disseminate
from ..net.lossy import disseminate_lossy
from ..net.topology import grid
from . import metrics, trace

#: Span names a default ``repro profile`` run always emits — the
#: contract the integration tests and docs/OBSERVABILITY.md pin.
CORE_PHASES = (
    "profile.total",
    "compile.full",
    "compile.front_middle",
    "compile.regalloc",
    "compile.datalayout",
    "compile.backend",
    "update.plan",
    "update.regalloc",
    "update.datalayout",
    "diff.images",
    "update.verify",
    "net.disseminate",
    "sim.run",
)


@dataclass
class PhaseRow:
    """Aggregated timing of all spans sharing one name."""

    name: str
    calls: int = 0
    total_ms: float = 0.0
    #: total minus time spent in child spans
    self_ms: float = 0.0
    energy: str = ""
    first_start_us: float = 0.0


@dataclass
class ProfileReport:
    """Everything one profiled update run produced."""

    label: str
    ra: str
    da: str
    grid_side: int
    loss: float
    result: UpdateResult
    rows: list = field(default_factory=list)
    events: list = field(default_factory=list)
    metrics_delta: dict = field(default_factory=dict)
    dissemination_energy_j: float = 0.0
    nodes: int = 0

    def phase_names(self) -> list[str]:
        return [row.name for row in self.rows]

    def render(self) -> str:
        result = self.result
        lines = [
            f"profile {self.label} (ra={self.ra} da={self.da} "
            f"grid={self.grid_side}x{self.grid_side} loss={self.loss:g})",
            f"update        : Diff_inst={result.diff_inst} "
            f"script={result.script_bytes} B "
            f"packets={result.packets.packet_count}",
            f"dissemination : {self.nodes} nodes, "
            f"{self.dissemination_energy_j:.4g} J network total",
        ]
        if result.old_cycles is not None:
            lines.append(
                f"simulation    : old={result.old_cycles} "
                f"new={result.new_cycles} cycles "
                f"(Diff_cycle={result.diff_cycle:+d})"
            )
        lines.append("")
        lines.append(
            f"{'phase':<24} {'calls':>5} {'total ms':>10} "
            f"{'self ms':>10} {'share':>6}  energy"
        )
        budget = sum(row.self_ms for row in self.rows) or 1.0
        for row in self.rows:
            share = 100.0 * row.self_ms / budget
            lines.append(
                f"{row.name:<24} {row.calls:>5} {row.total_ms:>10.2f} "
                f"{row.self_ms:>10.2f} {share:>5.1f}%  {row.energy}"
            )
        interesting = {
            name: value
            for name, value in sorted(self.metrics_delta.items())
            if value and not name.startswith("fuzz.")
        }
        if interesting:
            lines.append("")
            lines.append("metrics (this run):")
            for name, value in interesting.items():
                lines.append(f"  {name:<30} {value:g}")
        return "\n".join(lines)

    # -- trace export ---------------------------------------------------------

    def to_jsonl(self) -> str:
        import json

        return "\n".join(json.dumps(ev.to_dict()) for ev in self.events)

    def write_jsonl(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(self.to_jsonl())
            if self.events:
                handle.write("\n")

    def chrome_trace(self) -> dict:
        scratch = trace.Tracer()
        scratch._events = list(self.events)
        return scratch.chrome_trace()

    def write_chrome_trace(self, path: str) -> None:
        import json

        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.chrome_trace(), handle, indent=1)


def _self_times(events: list) -> dict[int, float]:
    """Per-event self time (duration minus child durations).

    Events arrive in completion order (children before parents), so a
    running per-depth accumulator of completed child time is exact.
    """
    acc: dict[int, float] = {}
    selfs: dict[int, float] = {}
    for index, ev in enumerate(events):
        child_time = acc.pop(ev.depth + 1, 0.0)
        selfs[index] = ev.duration_us - child_time
        acc[ev.depth] = acc.get(ev.depth, 0.0) + ev.duration_us
    return selfs


def aggregate_phases(events: list) -> list[PhaseRow]:
    """Fold spans into per-name rows, ordered by first start time."""
    selfs = _self_times(events)
    rows: dict[str, PhaseRow] = {}
    for index, ev in enumerate(events):
        row = rows.get(ev.name)
        if row is None:
            row = PhaseRow(name=ev.name, first_start_us=ev.start_us)
            rows[ev.name] = row
        row.calls += 1
        row.total_ms += ev.duration_us / 1000.0
        row.self_ms += selfs[index] / 1000.0
        row.first_start_us = min(row.first_start_us, ev.start_us)
    return sorted(rows.values(), key=lambda r: r.first_start_us)


def profile_update(
    old_source: str,
    new_source: str,
    grid_side: int = 4,
    loss: float = 0.0,
    loss_seed: int = 1,
    simulate: bool = True,
    label: str = "update",
    config: UpdateConfig | None = None,
) -> ProfileReport:
    """Run one traced end-to-end update and aggregate the telemetry.

    Resets the process-wide tracer, enables it for the duration of the
    run (restoring the previous enablement after), and reports metric
    *deltas* so back-to-back profiles do not bleed into each other.
    ``config`` carries the full planning configuration (strategies, cp,
    checked mode, knobs); ``None`` means ``UpdateConfig()``.
    """
    cfg = config if config is not None else UpdateConfig()
    tracer = trace.TRACER
    was_enabled = tracer.enabled
    tracer.reset()
    tracer.enable()
    before = metrics.REGISTRY.values()
    try:
        with trace.span("profile.total", ra=cfg.ra, da=cfg.da):
            old = compile_source(old_source)
            result = plan_update(old, new_source, config=cfg)
            topology = grid(grid_side, grid_side)
            if loss > 0.0:
                dissemination = disseminate_lossy(
                    topology, result.packets, loss=loss, seed=loss_seed, power=MICA2
                )
            else:
                dissemination = disseminate(topology, result.packets, MICA2)
            if simulate:
                measure_cycles(result)
    finally:
        if not was_enabled:
            tracer.disable()

    events = tracer.events()
    delta = metrics.REGISTRY.delta(before)
    rows = aggregate_phases(events)
    energy = DEFAULT_ENERGY_MODEL
    sim_cycles = delta.get("sim.cycles", 0.0)
    energy_by_phase = {
        "net.disseminate": f"{dissemination.total_energy_j:.4g} J",
        "net.disseminate_lossy": f"{dissemination.total_energy_j:.4g} J",
        "diff.images": (
            f"{energy.e_trans_words(result.diff_words) + energy.e_trans_bytes(result.data_script_bytes):.4g} u tx"
        ),
        "sim.run": f"{energy.e_exe_cycles(sim_cycles):.4g} u exe",
    }
    for row in rows:
        row.energy = energy_by_phase.get(row.name, "-")

    return ProfileReport(
        label=label,
        ra=cfg.ra,
        da=cfg.da,
        grid_side=grid_side,
        loss=loss,
        result=result,
        rows=rows,
        events=events,
        metrics_delta=delta,
        dissemination_energy_j=dissemination.total_energy_j,
        nodes=topology.node_count - 1,
    )


__all__ = [
    "CORE_PHASES",
    "PhaseRow",
    "ProfileReport",
    "aggregate_phases",
    "profile_update",
]
