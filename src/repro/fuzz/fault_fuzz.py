"""Fault-plan fuzzing: the campaign controller under random adversity.

A second fuzz dimension alongside the update-pair battery in
:mod:`.runner`: instead of mutating *programs*, each iteration mutates
the *deployment* — a random topology, link loss, and a randomly drawn
:class:`~repro.net.faults.FaultPlan` (crashes, reboots, partitions,
corruption, duplicates) — and drives a real compiled update through
:func:`~repro.net.campaign.run_campaign`.

:func:`run_versioned_fuzz` adds a third dimension on top: a random
*release history* (a generated program mutated into a short chain of
versions) and a **version-heterogeneous fleet** — every sensor node
starts at a randomly drawn release — planned through the version
graph (:mod:`repro.versioning`) and driven to convergence cohort by
cohort, optionally over the LT-coded transfer.  The oracle battery is
the versioned analogue of convergence-or-quarantine: every cohort
terminates, quarantined nodes stay within their cohort, every planned
path rebuilds the byte-identical target image (the replay-identity
oracle), a fault-free connected fleet must fully converge, and the
identical seed replays to a byte-identical report.

The oracle is **convergence-or-quarantine**: whatever the faults, the
campaign must terminate with a structured report in which every
non-quarantined node runs the fully verified new version, every
quarantined node still runs the resident golden version (never a torn
image), replaying the identical seed reproduces the byte-identical
report, and both final images behave like their from-scratch compiles
under the simulator's device-trace comparison (the crash-consistency
differential oracle).

Program pairs are expensive (compile + plan + three simulator runs) and
campaigns are cheap, so one pair is shared by :data:`PAIR_EVERY`
consecutive iterations — the sweep spends its time where the variance
is, in the fault space.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import random
from dataclasses import dataclass, field

from ..config import UpdateConfig
from ..core.compiler import compile_source
from ..core.update import UpdatePlanner
from ..diff.patcher import patched_words
from ..net.campaign import run_campaign
from ..net.faults import FaultPlan, generate_fault_plan, generate_power_traces
from ..net.fleet_base import FleetReport
from ..net.profiles import DeviceProfile, get_profile
from ..net.topology import Topology, grid, line, random_geometric
from ..obs import metrics, trace
from .oracles import MAX_CYCLES, _board

#: Iterations that share one compiled update pair (the fault space is
#: where the variance is; the program pair just has to be real).
PAIR_EVERY = 10

#: Campaign round budget per fuzz iteration.
FUZZ_MAX_ROUNDS = 120

#: Releases per generated version history in the versioned sweep.
VERSIONED_RELEASES = 4


@dataclass
class FaultFinding:
    """One campaign that violated the convergence-or-quarantine oracle."""

    iteration: int
    plan: str
    topology: str
    messages: list = field(default_factory=list)

    def render(self) -> str:
        what = "; ".join(self.messages)
        return (
            f"iteration {self.iteration} [{self.topology}; {self.plan}]: {what}"
        )


@dataclass
class FaultFuzzReport:
    """Outcome of one fault-plan sweep."""

    seed: int
    iterations: int
    findings: list = field(default_factory=list)
    converged: int = 0
    partial: int = 0
    quarantined_total: int = 0
    crashes_injected: int = 0
    partitions_injected: int = 0
    digest: str = ""
    profile: str | None = None
    power_traces_injected: int = 0
    brownouts_observed: int = 0
    resumed_applies_observed: int = 0

    @property
    def ok(self) -> bool:
        return not self.findings

    def render(self) -> str:
        lines = [
            f"fault fuzz seed={self.seed} iterations={self.iterations} "
            f"findings={len(self.findings)}",
            f"digest   : {self.digest}",
            f"outcomes : {self.converged} converged, {self.partial} partial "
            f"({self.quarantined_total} nodes quarantined)",
            f"injected : {self.crashes_injected} crashes, "
            f"{self.partitions_injected} partitions",
        ]
        if self.profile is not None:
            lines.append(
                f"profile  : {self.profile} — "
                f"{self.power_traces_injected} power traces injected, "
                f"{self.brownouts_observed} brownouts, "
                f"{self.resumed_applies_observed} resumed applies"
            )
        for finding in self.findings:
            lines.append("FAIL " + finding.render())
        return "\n".join(lines)


def _topology(rng: random.Random) -> tuple[str, Topology]:
    """Draw a deployment shape; deterministic in the RNG stream."""
    pick = rng.randrange(4)
    if pick == 0:
        return "grid3x3", grid(3, 3)
    if pick == 1:
        return "line6", line(6)
    if pick == 2:
        return "grid4x3", grid(4, 3)
    seed = rng.randrange(1 << 16)
    return f"geo10:{seed}", random_geometric(10, radio_range=0.45, seed=seed)


@dataclass
class _Pair:
    """One compiled update pair shared across consecutive iterations."""

    blob: bytes
    payload: int
    overhead: int
    sim_failures: list


def _build_pair(rng: random.Random, config: UpdateConfig) -> _Pair:
    """Compile a real update pair and run the crash-consistency
    differential oracle: the golden image and the patched image must
    both behave like their from-scratch compiles in the simulator —
    the two (and only two) binaries any campaign node may boot."""
    from ..sim.executor import run_image, traces_equal
    from .mutator import mutate
    from .progen import generate_program

    program = generate_program(rng)
    mutated, _edits = mutate(program, rng, rng.randrange(1, 3))
    old = compile_source(program.render())
    planner = UpdatePlanner(old, config=config)
    result = planner.plan(mutated.render())
    blob = result.diff.script.to_bytes() + result.data_script.to_bytes()

    failures: list = []
    rebuilt = patched_words(old.image, result.diff.script)
    if rebuilt != result.new.image.words():
        failures.append("patched image diverges from the sink binary")
    scratch = compile_source(mutated.render())
    golden_run = run_image(old.image, devices=_board(), max_cycles=MAX_CYCLES)
    new_run = run_image(
        result.new.image, devices=_board(), max_cycles=MAX_CYCLES
    )
    scratch_run = run_image(
        scratch.image, devices=_board(), max_cycles=MAX_CYCLES
    )
    if not golden_run.halted:
        failures.append("golden image did not halt in the simulator")
    if not new_run.halted:
        failures.append("patched image did not halt in the simulator")
    divergence = traces_equal(new_run, scratch_run)
    if divergence is not None:
        failures.append(
            "patched image diverges from the from-scratch compile: "
            + divergence.render()
        )
    return _Pair(
        blob=blob,
        payload=result.packets.payload_per_packet,
        overhead=result.packets.overhead_per_packet,
        sim_failures=failures,
    )


def _check_report(
    report: FleetReport,
    replay: FleetReport,
    plan: FaultPlan,
    profile: DeviceProfile | None = None,
) -> list:
    """The convergence-or-quarantine oracle over one campaign run.

    With an active device ``profile`` the golden-image invariant is the
    same check sharpened: under any power trace every node must end
    converged, resuming (quarantined at the golden version, checkpoint
    intact), or quarantined — never on a torn image — and the airtime
    budget is enforced in the kernel, so the violation counter must be
    pinned at zero.
    """
    messages = []
    allowed = ("converged", "partial")
    if profile is not None and profile.is_airtime_limited:
        allowed = ("converged", "partial", "stalled-budget")
    if report.outcome not in allowed:
        messages.append(f"unknown outcome {report.outcome!r}")
    stats = report.profile_stats
    if profile is not None and not profile.is_neutral:
        if stats is None:
            messages.append("profile campaign returned no profile stats")
        elif stats["airtime_violations"]:
            messages.append(
                f"{stats['airtime_violations']} airtime violations under a "
                "kernel-enforced duty-cycle budget"
            )
    if report.converged and report.quarantined:
        messages.append(
            f"converged outcome but quarantined nodes {report.quarantined}"
        )
    if not report.converged and not report.quarantined:
        messages.append("partial outcome but no quarantined nodes")
    quarantined = set(report.quarantined)
    for node, version in sorted(report.node_versions.items()):
        if node == 0:
            continue
        if node in quarantined and version != report.old_version:
            messages.append(
                f"quarantined node {node} reports v{version}, not the "
                f"golden v{report.old_version} — possible torn image"
            )
        if node not in quarantined and version != report.new_version:
            messages.append(
                f"converged node {node} reports v{version}, not "
                f"v{report.new_version}"
            )
    if not set(report.unreachable) <= quarantined:
        messages.append(
            f"unreachable nodes {report.unreachable} not all quarantined"
        )
    if plan.is_empty and not report.unreachable and report.outcome != "converged":
        messages.append("fault-free campaign over a connected fleet stalled")
    if any(ledger.total_j < 0.0 for ledger in report.ledgers.values()):
        messages.append("negative energy ledger")
    if report.to_json() != replay.to_json():
        messages.append(
            "replay with the identical seed and plan produced a different "
            f"report ({report.digest()[:12]} vs {replay.digest()[:12]})"
        )
    return messages


def run_fault_fuzz(
    seed: int = 0,
    iters: int = 50,
    intensity: float = 1.0,
    update_config: UpdateConfig | None = None,
    on_progress=None,
    profile: "DeviceProfile | str | None" = None,
) -> FaultFuzzReport:
    """Run one deterministic fault-plan sweep.

    Every iteration draws its own RNG from ``(seed, iteration)`` so any
    single case replays in isolation, exactly like :func:`.runner.run_fuzz`.

    ``profile`` pins a :class:`~repro.net.profiles.DeviceProfile` (or
    its name) on every campaign.  An energy-limited profile turns the
    sweep into the **intermittent-power oracle**: each iteration also
    draws seeded power traces (scripted brownout thresholds and harvest
    scales) that fire between individual flash page writes, and the
    oracle asserts the golden-image invariant — every node ends
    converged, resuming, or quarantined, never on a torn image — plus
    replay identity and a zero airtime-violation counter.
    """
    if isinstance(profile, str):
        profile = get_profile(profile)
    config = (
        update_config if update_config is not None else UpdateConfig()
    )
    report = FaultFuzzReport(
        seed=seed,
        iterations=iters,
        profile=None if profile is None else profile.name,
    )
    hasher = hashlib.sha256()
    pair: _Pair | None = None
    for iteration in range(iters):
        with trace.span("fuzz.fault.iteration", iteration=iteration) as span:
            rng = random.Random(f"repro-fault-fuzz:{seed}:{iteration}")
            if pair is None or iteration % PAIR_EVERY == 0:
                pair_rng = random.Random(
                    f"repro-fault-fuzz-pair:{seed}:{iteration // PAIR_EVERY}"
                )
                pair = _build_pair(pair_rng, config)
            shape, topology = _topology(rng)
            plan = generate_fault_plan(
                rng,
                topology.node_count,
                max_rounds=FUZZ_MAX_ROUNDS,
                intensity=intensity,
            )
            if profile is not None and profile.is_energy_limited:
                # Scale the scripted cuts to the blob's flash-write
                # cost so they land *between* individual page writes
                # of the apply, not past the campaign's total spend.
                scale_j = None
                if profile.is_paged:
                    scale_j = (
                        profile.pages_for(len(pair.blob))
                        * profile.flash_write_j_per_page
                    )
                plan = dataclasses.replace(
                    plan,
                    power_traces=generate_power_traces(
                        rng,
                        topology.node_count,
                        storage_j=profile.storage_j,
                        intensity=intensity,
                        scale_j=scale_j,
                    ),
                )
            loss = round(rng.uniform(0.0, 0.25), 3)
            link_seed = rng.randrange(1 << 31)

            # partial over the loop-carried values rather than a
            # closure: a closure would capture the *variables* (ruff
            # B023) and re-read whatever the loop last assigned.
            campaign = functools.partial(
                run_campaign,
                topology,
                pair.blob,
                plan,
                loss=loss,
                seed=link_seed,
                max_rounds=FUZZ_MAX_ROUNDS,
                payload_per_packet=pair.payload,
                overhead_per_packet=pair.overhead,
                profile=profile,
            )

            outcome = campaign()
            replay = campaign()
            messages = list(pair.sim_failures)
            messages += _check_report(outcome, replay, plan, profile=profile)
            span.set(ok=not messages, outcome=outcome.outcome)
        metrics.counter("fuzz.fault.campaigns").inc()
        if outcome.converged:
            report.converged += 1
        else:
            report.partial += 1
        report.quarantined_total += len(outcome.quarantined)
        report.crashes_injected += len(plan.crashes)
        report.partitions_injected += len(plan.partitions)
        report.power_traces_injected += len(plan.power_traces)
        if outcome.profile_stats is not None:
            report.brownouts_observed += outcome.profile_stats["brownouts"]
            report.resumed_applies_observed += outcome.profile_stats[
                "resumed_applies"
            ]
        hasher.update(plan.digest().encode())
        hasher.update(outcome.digest().encode())
        if messages:
            metrics.counter("fuzz.fault.findings").inc()
            report.findings.append(
                FaultFinding(
                    iteration=iteration,
                    plan=plan.describe(),
                    topology=shape,
                    messages=messages,
                )
            )
        if on_progress is not None:
            on_progress(iteration, outcome)
    report.digest = hasher.hexdigest()
    return report


def _build_version_history(rng: random.Random, config: UpdateConfig):
    """A generated release chain compiled into a version graph.

    The base program comes from the fuzzer's generator; each later
    release is a semantic mutation of its predecessor, so the chain's
    step edges are real update-conscious plans over real edits.
    """
    from ..versioning import build_version_graph
    from .mutator import mutate
    from .progen import generate_program

    program = generate_program(rng)
    releases = {1: program.render()}
    current = program
    for label in range(2, VERSIONED_RELEASES + 1):
        current, _edits = mutate(current, rng, rng.randrange(1, 3))
        releases[label] = current.render()
    return build_version_graph(releases, update_config=config)


def _check_versioned_report(report, replay, plan: FaultPlan, plans) -> list:
    """Convergence-or-quarantine, versioned edition."""
    messages = []
    if report.outcome not in ("converged", "partial"):
        messages.append(f"unknown outcome {report.outcome!r}")
    if not report.replay_identical:
        messages.append(
            "replay-identity violated: a cohort's path rebuilt an image "
            f"other than the canonical v{report.target_version}"
        )
    for cohort in report.cohorts:
        if cohort.outcome not in ("converged", "partial"):
            messages.append(
                f"cohort v{cohort.plan.from_version}: unknown outcome "
                f"{cohort.outcome!r}"
            )
        stray = set(cohort.quarantined) - set(cohort.plan.nodes)
        if stray:
            messages.append(
                f"cohort v{cohort.plan.from_version}: quarantined nodes "
                f"{sorted(stray)} outside the cohort"
            )
        if cohort.energy_j < 0.0:
            messages.append(
                f"cohort v{cohort.plan.from_version}: negative wave energy"
            )
    if plan.is_empty and not report.converged:
        messages.append(
            "fault-free versioned campaign over a connected fleet stalled"
        )
    if report.to_json() != replay.to_json():
        messages.append(
            "replay with the identical seed and plans produced a different "
            f"report ({report.digest()[:12]} vs {replay.digest()[:12]})"
        )
    if len(report.cohorts) != len(plans):
        messages.append(
            f"{len(plans)} cohort plans but {len(report.cohorts)} waves ran"
        )
    return messages


def run_versioned_fuzz(
    seed: int = 0,
    iters: int = 50,
    intensity: float = 1.0,
    update_config: UpdateConfig | None = None,
    on_progress=None,
) -> FaultFuzzReport:
    """Fuzz version-heterogeneous fleets through the versioned campaign.

    Iterations share one generated release history per
    :data:`PAIR_EVERY` draws (graphs are expensive, fleets are cheap);
    each iteration then draws a topology, a per-node version
    assignment, a fault plan, link loss, and — one draw in three — the
    LT-coded transfer, and checks the whole run against the versioned
    convergence-or-quarantine oracle.
    """
    from ..net.coding import CodedTransferParams
    from ..versioning import plan_cohorts, run_versioned_campaign

    config = (
        update_config if update_config is not None else UpdateConfig()
    )
    report = FaultFuzzReport(seed=seed, iterations=iters)
    hasher = hashlib.sha256()
    graph = None
    for iteration in range(iters):
        with trace.span("fuzz.versioned.iteration", iteration=iteration) as span:
            rng = random.Random(f"repro-versioned-fuzz:{seed}:{iteration}")
            if graph is None or iteration % PAIR_EVERY == 0:
                history_rng = random.Random(
                    f"repro-versioned-fuzz-history:{seed}:"
                    f"{iteration // PAIR_EVERY}"
                )
                graph = _build_version_history(history_rng, config)
            shape, topology = _topology(rng)
            versions = graph.versions
            fleet = {0: graph.target}
            for node in range(1, topology.node_count):
                fleet[node] = versions[rng.randrange(len(versions))]
            plans = plan_cohorts(graph, fleet)
            plan = generate_fault_plan(
                rng,
                topology.node_count,
                max_rounds=FUZZ_MAX_ROUNDS,
                intensity=intensity,
            )
            loss = round(rng.uniform(0.0, 0.25), 3)
            link_seed = rng.randrange(1 << 31)
            coding = (
                CodedTransferParams(burst=8)
                if rng.randrange(3) == 0
                else None
            )

            campaign = functools.partial(
                run_versioned_campaign,
                graph,
                plans,
                topology,
                loss=loss,
                seed=link_seed,
                coding=coding,
                fault_plan=plan,
                max_rounds=FUZZ_MAX_ROUNDS,
            )
            outcome = campaign()
            replay = campaign()
            messages = _check_versioned_report(outcome, replay, plan, plans)
            span.set(ok=not messages, outcome=outcome.outcome, cohorts=len(plans))
        metrics.counter("fuzz.versioned.campaigns").inc()
        if outcome.converged:
            report.converged += 1
        else:
            report.partial += 1
        report.quarantined_total += sum(
            len(c.quarantined) for c in outcome.cohorts
        )
        report.crashes_injected += len(plan.crashes)
        report.partitions_injected += len(plan.partitions)
        hasher.update(plan.digest().encode())
        hasher.update(outcome.digest().encode())
        if messages:
            metrics.counter("fuzz.versioned.findings").inc()
            report.findings.append(
                FaultFinding(
                    iteration=iteration,
                    plan=plan.describe(),
                    topology=shape,
                    messages=messages,
                )
            )
        if on_progress is not None:
            on_progress(iteration, outcome)
    report.digest = hasher.hexdigest()
    return report


__all__ = [
    "FUZZ_MAX_ROUNDS",
    "FaultFinding",
    "FaultFuzzReport",
    "PAIR_EVERY",
    "VERSIONED_RELEASES",
    "run_fault_fuzz",
    "run_versioned_fuzz",
]
