"""The update planner: old binary + new source → update script.

This is the sink-side loop of paper Figures 1-2.  Given the previous
:class:`~repro.core.compiler.CompiledProgram` (which carries the old
register-allocation records and data layout) and the modified source,
the planner recompiles under the strategy an
:class:`~repro.config.UpdateConfig` selects:

* ``ra="ucc"``   — update-conscious register allocation (§3) per
  function, falling back to the baseline for brand-new functions;
* ``ra="gcc"``/``"linear"`` — the update-oblivious baselines;
* ``da="ucc"``   — threshold-based update-conscious data layout (§4);
* ``da="gcc"``   — the name-hash baseline layout.

It then diffs the binaries, builds the edit script, verifies the
sensor-side patch round-trips, and (optionally) simulates both versions
to measure ``Diff_cycle``.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from ..config import UpdateConfig
from ..datalayout.gcc_da import allocate_gcc_da
from ..datalayout.layout import collect_layout_objects
from ..datalayout.ucc_da import UCCDAReport, allocate_ucc_da
from ..diff.data_diff import DataScript, apply_data, diff_data
from ..diff.differ import BinaryDiff, diff_images
from ..diff.packets import Packetisation, packetize
from ..diff.patcher import verify_patch
from ..energy.model import DEFAULT_ENERGY_MODEL, EnergyModel
from ..ir.liveness import analyze
from ..obs import metrics, trace
from ..regalloc.base import verify_allocation
from .errors import PatchDivergenceError, PlanStateError
from ..regalloc.ucc_ra import UCCReport, allocate_ucc_greedy
from ..sim.devices import DeviceBoard, Timer
from ..sim.executor import run_image
from ..codegen.placement import baseline_placement, ucc_placement
from .compiler import (
    RA_BASELINES,
    CompiledProgram,
    Compiler,
    build_data_image,
    code_sizes,
    link,
    select_code,
)


@dataclass
class UpdateResult:
    """Everything measured about one code update."""

    old: CompiledProgram
    new: CompiledProgram
    ra_strategy: str
    da_strategy: str
    diff: BinaryDiff
    packets: Packetisation
    data_script: DataScript = field(default_factory=DataScript)
    ra_reports: dict[str, UCCReport] = field(default_factory=dict)
    da_report: UCCDAReport | None = None
    #: simulated cycles per single run (filled by measure_cycles)
    old_cycles: int | None = None
    new_cycles: int | None = None

    # -- headline metrics -----------------------------------------------------

    @property
    def diff_inst(self) -> int:
        """Paper's Diff_inst: differing instructions in the new binary."""
        return self.diff.diff_inst

    @property
    def diff_words(self) -> int:
        return self.diff.diff_words

    @property
    def script_bytes(self) -> int:
        """Total update payload: instruction script + data script."""
        return self.diff.script_bytes + self.data_script.size_bytes

    @property
    def code_script_bytes(self) -> int:
        return self.diff.script_bytes

    @property
    def data_script_bytes(self) -> int:
        return self.data_script.size_bytes

    @property
    def reused_instructions(self) -> int:
        return self.diff.reused

    @property
    def diff_cycle(self) -> int:
        """Paper's Diff_cycle: per-run cycle change old → new."""
        if self.old_cycles is None or self.new_cycles is None:
            raise PlanStateError(
                "measure_cycles", "call measure_cycles() first"
            )
        return self.new_cycles - self.old_cycles

    def diff_energy(
        self, cnt: float, energy: EnergyModel = DEFAULT_ENERGY_MODEL
    ) -> float:
        """Eq. 18 for this update under execution count ``cnt``,
        extended with the data-script payload."""
        return (
            energy.e_trans_words(self.diff_words)
            + energy.e_trans_bytes(self.data_script.size_bytes)
            + self.diff_cycle * cnt
        )

    def moves_inserted(self) -> int:
        return sum(r.moves_inserted for r in self.ra_reports.values())


class UpdatePlanner:
    """Plans updates against a compiled old version."""

    def __init__(
        self,
        old: CompiledProgram,
        energy: EnergyModel = DEFAULT_ENERGY_MODEL,
        profile=None,
        config: UpdateConfig | None = None,
    ):
        """``config`` carries every planning knob: the strategies plus
        ``k``/``expected_runs``/``space_threshold``.

        ``profile`` optionally carries a
        :class:`repro.sim.executor.RunResult` of the *old* binary with
        ``collect_profile=True`` (see :func:`profile_program`); its
        per-instruction execution counts then drive the paper's
        ``freq(s)`` instead of the static loop-nesting estimate."""
        self.config = config if config is not None else UpdateConfig()
        self.old = old
        self.energy = energy
        self.profile = profile

    def plan(
        self, new_source: str, config: UpdateConfig | None = None
    ) -> UpdateResult:
        """Recompile ``new_source`` under ``config`` (default: the
        planner's own) and diff.

        ``config.cp`` selects the code-placement strategy: ``"ucc"``
        keeps surviving functions at their old flash addresses (padding
        shrinkage), ``"gcc"`` packs afresh.  By default the
        update-conscious strategies evaluate *both* placements and ship
        whichever needs the smaller script — padding NOPs and call-site
        re-encodings trade against each other, and which wins depends
        on the call graph.

        ``config.checked`` runs the full :mod:`repro.analysis`
        verification passes over the planned update and raises
        :class:`~repro.analysis.VerificationError` on any finding;
        ``None`` inherits the old program's ``config.checked``.
        """
        cfg = config if config is not None else self.config
        with trace.span("update.plan", ra=cfg.ra, da=cfg.da):
            return self._plan(new_source, cfg)

    def _plan(self, new_source: str, cfg: UpdateConfig) -> UpdateResult:
        ra, da = cfg.ra, cfg.da
        cp = cfg.resolved_cp()
        verify = cfg.verify
        old = self.old
        checked = cfg.checked
        if checked is None:
            checked = old.config.checked
        compiler = Compiler(replace(old.config, checked=checked))
        module = compiler.front_and_middle(new_source)

        # -- register allocation ------------------------------------------
        ra_reports: dict[str, UCCReport] = {}
        records = {}
        baseline = RA_BASELINES[ra if ra in RA_BASELINES else old.config.ra]
        with trace.span("update.regalloc", ra=ra):
            for name, fn in module.functions.items():
                updatable = name in old.module.functions and name in old.records
                if ra == "ucc" and updatable:
                    old_profile = (
                        self.profile.ir_frequencies(name) if self.profile else None
                    )
                    record, report = allocate_ucc_greedy(
                        fn,
                        old.module.functions[name],
                        old.records[name],
                        energy=self.energy,
                        k=cfg.k,
                        expected_runs=cfg.expected_runs,
                        old_profile=old_profile,
                    )
                    ra_reports[name] = report
                elif ra == "ucc-ilp" and updatable:
                    from ..regalloc.ilp_ra import allocate_ucc_ilp

                    record, ilp_report = allocate_ucc_ilp(
                        fn,
                        old.module.functions[name],
                        old.records[name],
                        energy=self.energy,
                        k=cfg.k,
                        expected_runs=cfg.expected_runs,
                    )
                    ra_reports[name] = ilp_report.greedy
                else:
                    record = baseline(fn)
                verify_allocation(record, analyze(fn))
                records[name] = record

        # -- data layout ------------------------------------------------------
        with trace.span("update.datalayout", da=da):
            objects = collect_layout_objects(
                module,
                spill_orders={n: r.spill_order for n, r in records.items()},
                depths=dict(old.config.depths),
            )
            da_report = None
            if da == "ucc":
                layout, da_report = allocate_ucc_da(
                    objects, old.layout, cfg.space_threshold
                )
            else:
                layout = allocate_gcc_da(objects)

        # -- back end + diff -----------------------------------------------------
        # Select once, then link each distinct placement: under "auto"
        # the update-conscious and the baseline placement often
        # coincide, and equal slots link to the same image and diff.
        with trace.span("compile.backend", placement=cp):
            code = select_code(module, records, layout)
            sizes = code_sizes(code)
            order = list(code)
            headroom = compiler.config.placement_headroom
            plans = []
            if cp != "gcc":
                plans.append(ucc_placement(sizes, order, old.placement, headroom))
            if cp != "ucc":
                baseline = baseline_placement(sizes, order, headroom)
                if not plans or baseline.slots != plans[0].slots:
                    plans.append(baseline)
            data = build_data_image(module, layout)
            linked = [
                (plan, *link(code, plan, data, layout.segment_base)) for plan in plans
            ]
        candidates = [
            (machine, image, plan, diff_images(old.image, image))
            for plan, machine, image in linked
        ]
        # Ship the smaller code script; ties go to the ucc placement.
        candidates.sort(key=lambda c: (c[3].script.size_bytes, c[2].algorithm != "ucc"))
        machine, image, plan, diff = candidates[0]

        new_program = CompiledProgram(
            source=new_source,
            checked=module.checked,
            module=module,
            records=records,
            layout=layout,
            machine=machine,
            image=image,
            config=compiler.config,
            placement=plan,
        )
        data_script = diff_data(old.image.data, image.data)
        if verify:
            with trace.span("update.verify"):
                verify_patch(old.image, image, diff.script)
                if apply_data(old.image.data, data_script) != image.data:
                    raise PatchDivergenceError(
                        "data", "data-segment patch does not round-trip"
                    )
        packets = packetize(diff.script)
        packets = Packetisation(
            script_bytes=diff.script.size_bytes + data_script.size_bytes,
            payload_per_packet=packets.payload_per_packet,
            overhead_per_packet=packets.overhead_per_packet,
        )
        result = UpdateResult(
            old=old,
            new=new_program,
            ra_strategy=ra,
            da_strategy=da,
            diff=diff,
            packets=packets,
            data_script=data_script,
            ra_reports=ra_reports,
            da_report=da_report,
        )
        metrics.counter("update.plans").inc()
        metrics.histogram("update.script_bytes").observe(result.script_bytes)
        metrics.histogram("update.packets").observe(packets.packet_count)
        if checked:
            # Lazy import (see Compiler.compile).
            from ..analysis import verify_update

            verify_update(result, cnt=cfg.expected_runs).raise_if_failed()
        return result

    def plan_adaptive(
        self, new_source: str, config: UpdateConfig | None = None
    ) -> UpdateResult:
        """Plan under both UCC-RA and the baseline, measure both, and
        return whichever minimises eq. 18's total energy at the
        config's ``expected_runs``, priced with the planner's energy
        model.

        This is the paper's §5.5 fallback made explicit: *"UCC-RA falls
        back to GCC-RA when [the code] is executed more than 10^7 times
        because of the diminishing energy gain."*
        """
        base = config if config is not None else self.config
        cnt = base.expected_runs
        ucc = measure_cycles(
            self.plan(new_source, config=replace(base, ra="ucc"))
        )
        baseline = measure_cycles(
            self.plan(new_source, config=replace(base, ra="gcc"))
        )
        if ucc.diff_energy(cnt, self.energy) <= baseline.diff_energy(cnt, self.energy):
            ucc.ra_strategy = "ucc-adaptive(ucc)"
            return ucc
        baseline.ra_strategy = "ucc-adaptive(gcc)"
        return baseline


def measure_cycles(
    result: UpdateResult,
    fire_every_polls: int = 3,
    max_cycles: int = 20_000_000,
) -> UpdateResult:
    """Simulate both versions (single run) and fill
    ``old_cycles``/``new_cycles``.

    Uses the *poll-driven* timer so both binaries see the identical
    logical event schedule — Diff_cycle then reflects code quality, not
    timer-interleaving noise (see :class:`repro.sim.devices.Timer`).
    """
    old_run = run_image(
        result.old.image,
        devices=DeviceBoard(timer=Timer(fire_every_polls=fire_every_polls)),
        max_cycles=max_cycles,
    )
    new_run = run_image(
        result.new.image,
        devices=DeviceBoard(timer=Timer(fire_every_polls=fire_every_polls)),
        max_cycles=max_cycles,
    )
    result.old_cycles = old_run.cycles
    result.new_cycles = new_run.cycles
    return result


def profile_program(
    program: CompiledProgram,
    fire_every_polls: int = 3,
    max_cycles: int = 20_000_000,
):
    """Run ``program`` once with profiling on — paper §2.1's
    "program execution profiles" input to the update decisions."""
    return run_image(
        program.image,
        devices=DeviceBoard(timer=Timer(fire_every_polls=fire_every_polls)),
        max_cycles=max_cycles,
        collect_profile=True,
    )


def plan_update(
    old: CompiledProgram,
    new_source: str,
    config: UpdateConfig | None = None,
) -> UpdateResult:
    """Plan one update of ``old`` to ``new_source`` under an
    :class:`UpdateConfig` (strategy, knobs, verification)."""
    return UpdatePlanner(old, config=config).plan(new_source)
