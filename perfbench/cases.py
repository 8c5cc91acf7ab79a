"""The benchmark's three workloads.

Each workload builds its inputs from the run seed in ``setup`` and
hands the run a list of timed steps per pass.  The seed only picks
*which* nodes, crash rounds and loss coins; it never changes how many
releases, nodes, cohorts or faults there are, so every seed does the
same amount of work.  See ``perfbench/README.md`` for why each
workload exists and which layers it stresses.
"""

from __future__ import annotations

import hashlib
import json
import random
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

CHAINS_DIR = Path(__file__).resolve().parent / "chains"

#: Poll-driven timer period of every image run (``measure_cycles``'s
#: default): both binaries of an update see the same event schedule.
FIRE_EVERY_POLLS = 3
MAX_CYCLES = 20_000_000
MAX_IR_STEPS = 20_000_000


@dataclass
class Outcome:
    """What one timed step returned."""

    ops: int
    failed: int
    #: simulated answers; must repeat exactly on every pass
    answers: dict
    #: kept from the first pass for the post-clock checks
    artifact: object = None


@dataclass
class Step:
    name: str
    run: Callable[[], Outcome]


def sha256_json(payload) -> str:
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def image_digest(image) -> str:
    return hashlib.sha256(image.to_bytes() + bytes(image.data)).hexdigest()


def adjacency(topology) -> dict:
    return {str(node): list(peers) for node, peers in topology.neighbors.items()}


def reset_caches() -> None:
    """Start every pass cold: the process-wide ILP solve memo would let
    later passes skip solves the first one paid for."""
    from repro.ilp.canonical import SOLVE_CACHE

    SOLVE_CACHE.clear()


def _board():
    from repro.sim import DeviceBoard, Timer

    return DeviceBoard(timer=Timer(fire_every_polls=FIRE_EVERY_POLLS))


def run_shipped_image(image):
    from repro.sim.executor import run_image

    return run_image(image, devices=_board(), max_cycles=MAX_CYCLES)


def ir_trace_mismatch(source: str, machine_run) -> str | None:
    """Compare a machine run with the IR interpreter on ``source``'s IR,
    built afresh by the front and middle end: the reference is
    independent of allocation, code generation and patching."""
    from repro.core import Compiler, CompilerOptions
    from repro.ir import run_ir

    module = Compiler(CompilerOptions()).front_and_middle(source)
    reference = run_ir(module, devices=_board(), max_steps=MAX_IR_STEPS)
    if not machine_run.halted or not reference.halted:
        return f"halted: machine={machine_run.halted} ir={reference.halted}"
    for channel, ours, theirs in (
        ("led", machine_run.devices.led.writes, reference.devices.led.writes),
        ("radio", machine_run.devices.radio.sent, reference.devices.radio.sent),
    ):
        if list(ours) != list(theirs):
            return f"{channel} trace differs from the IR interpreter"
    return None


def aes_mismatch(machine_run) -> str | None:
    from repro.workloads import AES_EXPECTED_CIPHERTEXT

    if bytes(machine_run.devices.radio.sent) != AES_EXPECTED_CIPHERTEXT:
        return "AES image does not reproduce the FIPS-197 ciphertext"
    return None


def aes_history() -> dict[int, str]:
    """The four-release AES history of the ``versioning`` bench area,
    relabelled v1..v4.  Derived here from the paper workload rather
    than imported from the ``repro.bench`` tooling, so an edit there
    cannot move this benchmark's inputs."""
    from repro.workloads import CASES

    case = CASES["10"]
    v1, v2 = case.old_source, case.new_source
    v3 = v2.replace("u16 blocks_done = 0;", "u16 blocks_done = 1;")
    v4 = v2.replace("u16 blocks_done = 0;", "u16 blocks_done = 2;").replace(
        "blocks_done = blocks_done + 1;", "blocks_done = blocks_done + 2;"
    )
    return {1: v1, 2: v2, 3: v3, 4: v4}


def nodes_off_target(report, nodes, version: int) -> int:
    """Nodes of ``nodes`` quarantined or not ending on ``version``."""
    quarantined = set(report.quarantined)
    return sum(
        1
        for node in nodes
        if node in quarantined or report.node_versions.get(node) != version
    )


# ---------------------------------------------------------------------------
# release_train: the sink-side compile loop (paper Figs. 1-2, 9, 11)
# ---------------------------------------------------------------------------


class ReleaseTrain:
    name = "release_train"
    loss = 0.1

    def setup(self, seed: int) -> dict:
        from repro import UpdateConfig, compile_source
        from repro.net.topology import grid
        from repro.workloads import CASES
        from repro.workloads.extra import EXTRA_CASES

        start = time.perf_counter()
        topology = grid(8, 8)
        topology_s = time.perf_counter() - start
        releases = []  # (label, old source or None, new source, program)
        for case_id, case in CASES.items():
            releases.append((f"case{case_id}", case.old_source, case.new_source, case.program))
        for case_id, (_, old, new) in EXTRA_CASES.items():
            releases.append((f"case{case_id}", old, new, "extra"))
        chains = {}
        for directory in sorted(CHAINS_DIR.iterdir()):
            files = sorted(directory.glob("v*.c"))
            chains[directory.name] = [path.read_text() for path in files]
        deployed = {label: compile_source(old) for label, old, _, _ in releases}
        for chain, sources in chains.items():
            deployed[chain] = compile_source(sources[0])
        return {
            "seed": seed,
            "topology": topology,
            "topology_s": topology_s,
            "releases": releases,
            "chains": chains,
            "deployed": deployed,
            "case_config": UpdateConfig(ra="ucc-ilp", checked=True),
            "chain_config": UpdateConfig(checked=True),
            "inputs": {
                "cases": [[label, old, new] for label, old, new, _ in releases],
                "chains": chains,
                "topology": adjacency(topology),
                "loss": self.loss,
                "seed": seed,
            },
        }

    def steps(self, state: dict) -> list[Step]:
        from repro import UpdateSession

        def session(label, config):
            return UpdateSession(
                state["deployed"][label],
                topology=state["topology"],
                loss=self.loss,
                loss_seed=state["seed"],
                config=config,
            )

        steps = []
        for label, _, new, program in state["releases"]:
            steps.append(self._release(label, session(label, state["case_config"]), new, program))
        for chain, sources in state["chains"].items():
            shared = session(chain, state["chain_config"])
            for version, source in enumerate(sources[1:], start=1):
                steps.append(self._release(f"{chain}/v{version:02d}", shared, source, "fuzz"))
        return steps

    @staticmethod
    def _release(label: str, session, source: str, program: str) -> Step:
        def run() -> Outcome:
            from repro import measure_cycles
            from repro.net.campaign import ROUND_S

            try:
                result = session.push_update(source)
                measure_cycles(result.update)
            except Exception as error:  # a release that raises is a failed op
                return Outcome(1, 1, {"error": f"{label}: {type(error).__name__}: {error}"})
            update, spread = result.update, result.dissemination
            answers = {
                "shipped_bytes": update.script_bytes,
                "energy_j": spread.total_energy_j,
                "transmissions": spread.broadcasts + spread.nacks,
                "sim_time_s": spread.rounds * ROUND_S,
                "image_cycles": update.new_cycles,
                "image": image_digest(update.new.image),
            }
            return Outcome(1, 0, answers, artifact=(label, source, program, update.new.image))

        return Step(label, run)

    def check(self, state: dict, outcomes: list[Outcome]) -> tuple[list[str], dict]:
        failures = []
        for outcome in outcomes:
            if outcome.artifact is None:
                continue
            label, source, program, image = outcome.artifact
            machine = run_shipped_image(image)
            problem = ir_trace_mismatch(source, machine)
            if problem is None and program == "AES":
                problem = aes_mismatch(machine)
            if problem is not None:
                failures.append(f"{label}: {problem}")
        return failures, {}


# ---------------------------------------------------------------------------
# flood_rollout: version graph + NACK flood waves + LT-coded re-task
# ---------------------------------------------------------------------------


class FloodRollout:
    name = "flood_rollout"
    loss = 0.15
    nodes = 1000
    crashes = 6
    island = 34

    def setup(self, seed: int) -> dict:
        from repro import compile_source
        from repro.net.coding import CodedTransferParams
        from repro.net.faults import FaultPlan, NodeCrash, PartitionWindow
        from repro.net.topology import random_geometric
        from repro.workloads.extra import SURGE

        start = time.perf_counter()
        topology = random_geometric(self.nodes, radio_range=0.1, seed=3)
        topology_s = time.perf_counter() - start
        history = aes_history()
        deployed = compile_source(history[1])

        rng = random.Random(f"perfbench:{self.name}:{seed}")
        sensors = list(range(1, self.nodes))
        rng.shuffle(sensors)
        cohorts = {0: 4}
        for rank, node in enumerate(sensors):
            cohorts[node] = 1 + 3 * rank // len(sensors)
        # Every crashed node is back before the partition heals, so the
        # heal, not the seed, sets the length of each wave.
        crashes = []
        for node in sorted(rng.sample(range(1, self.nodes), self.crashes)):
            at = rng.randint(2, 7)
            crashes.append(NodeCrash(node, at, reboot_round=at + rng.randint(3, 6)))
        cx, cy = topology.positions[rng.randrange(1, self.nodes)]
        by_distance = sorted(
            range(1, self.nodes),
            key=lambda n: ((topology.positions[n][0] - cx) ** 2
                           + (topology.positions[n][1] - cy) ** 2, n),
        )
        plan = FaultPlan(
            crashes=tuple(crashes),
            partitions=(PartitionWindow(4, 14, tuple(sorted(by_distance[: self.island]))),),
            corrupt_prob=0.01,
            duplicate_prob=0.02,
            seed=seed,
        )
        return {
            "seed": seed,
            "topology": topology,
            "topology_s": topology_s,
            "history": history,
            "deployed": deployed,
            "cohorts": cohorts,
            "plan": plan,
            "retask_source": SURGE,
            "coding": CodedTransferParams(scheme="lt", burst=16),
            "inputs": {
                "sources": {str(v): s for v, s in history.items()},
                "retask": SURGE,
                "topology": adjacency(topology),
                "fault_plan": repr(plan),
                "cohorts": {str(n): v for n, v in sorted(cohorts.items())},
                "loss": self.loss,
                "seed": seed,
            },
        }

    def steps(self, state: dict) -> list[Step]:
        from repro import UpdateSession
        from repro.net.campaign import ROUND_S
        from repro.obs.metrics import REGISTRY

        session = UpdateSession(
            state["deployed"],
            topology=state["topology"],
            loss=self.loss,
            loss_seed=state["seed"],
            version=1,
        )
        history, plan = state["history"], state["plan"]
        sensors = range(1, self.nodes)

        def rollout() -> Outcome:
            before = REGISTRY.values("campaign.")
            result = session.push_campaign(
                {v: history[v] for v in (2, 3, 4)},
                plan=plan,
                fleet_versions=state["cohorts"],
            )
            flood = REGISTRY.delta(before, "campaign.")
            report = result.report
            failed = 0
            for cohort in report.cohorts:
                if cohort.final_image_digest != report.target_digest:
                    failed += len(cohort.plan.nodes)
                else:
                    failed += len(cohort.quarantined)
            answers = {
                "shipped_bytes": sum(c.blob_bytes for c in report.cohorts),
                "energy_j": report.total_energy_j,
                "transmissions": int(flood["campaign.broadcasts"] + flood["campaign.nacks"]),
                "sim_time_s": sum(c.rounds for c in report.cohorts) * ROUND_S,
                "digest": report.digest(),
            }
            target = result.graph.programs[report.target_version]
            return Outcome(len(sensors), failed, answers, artifact=("v4", history[4], target.image))

        def retask() -> Outcome:
            result = session.push_campaign(
                {5: state["retask_source"]}, plan=plan, coding=state["coding"]
            )
            report = result.report
            answers = {
                "shipped_bytes": report.script_bytes,
                "energy_j": report.total_energy_j,
                "transmissions": report.broadcasts + report.nacks,
                "sim_time_s": report.rounds * ROUND_S,
                "digest": report.digest(),
            }
            failed = nodes_off_target(report, sensors, report.new_version)
            new = result.update.new
            return Outcome(len(sensors), failed, answers, artifact=("surge", new.source, new.image))

        return [Step("rollout", rollout), Step("retask", retask)]

    def check(self, state: dict, outcomes: list[Outcome]) -> tuple[list[str], dict]:
        failures, cycles = [], 0
        for outcome in outcomes:
            label, source, image = outcome.artifact
            machine = run_shipped_image(image)
            cycles += machine.cycles
            problem = aes_mismatch(machine) if label == "v4" else None
            problem = problem or ir_trace_mismatch(source, machine)
            if problem is not None:
                failures.append(f"{label}: {problem}")
        return failures, {"image_cycles": cycles}


# ---------------------------------------------------------------------------
# trickle_deploy: full-image install over the event kernel + FleetSim
# ---------------------------------------------------------------------------


class TrickleDeploy:
    name = "trickle_deploy"
    loss = 0.05
    side = 48
    crashes = 20
    block = 16

    def setup(self, seed: int) -> dict:
        from repro.net.faults import FaultPlan, NodeCrash, PartitionWindow
        from repro.net.topology import grid
        from repro.workloads import PROGRAMS

        start = time.perf_counter()
        topology = grid(self.side, self.side)
        topology_s = time.perf_counter() - start
        count = topology.node_count
        rng = random.Random(f"perfbench:{self.name}:{seed}")
        # Every crashed node is back before the partition heals.
        crashes = []
        for node in sorted(rng.sample(range(1, count), self.crashes)):
            at = rng.randint(5, 40)
            crashes.append(NodeCrash(node, at, reboot_round=at + rng.randint(5, 15)))
        # The block never holds the sink (node 0, the grid's corner).
        bx = rng.randint(1, self.side - self.block)
        by = rng.randint(1, self.side - self.block)
        block = tuple(
            y * self.side + x
            for y in range(by, by + self.block)
            for x in range(bx, bx + self.block)
        )
        plan = FaultPlan(
            crashes=tuple(crashes),
            partitions=(PartitionWindow(10, 60, block),),
            corrupt_prob=0.01,
            duplicate_prob=0.02,
            seed=seed,
        )
        source = PROGRAMS["AES"]
        return {
            "seed": seed,
            "topology": topology,
            "topology_s": topology_s,
            "plan": plan,
            "source": source,
            "inputs": {
                "source": source,
                "topology": adjacency(topology),
                "fault_plan": repr(plan),
                "loss": self.loss,
                "seed": seed,
            },
        }

    def steps(self, state: dict) -> list[Step]:
        def deploy() -> Outcome:
            from repro import compile_source
            from repro.api import run_trickle

            program = compile_source(state["source"])
            blob = program.image.to_bytes() + bytes(program.image.data)
            report = run_trickle(
                state["topology"], blob, state["plan"], loss=self.loss, seed=state["seed"]
            )
            answers = {
                "shipped_bytes": len(blob),
                "energy_j": report.total_energy_j,
                "transmissions": report.transmissions + report.beacons + report.requests,
                "sim_time_s": report.time_s,
                "digest": report.digest(),
                "blob": hashlib.sha256(blob).hexdigest(),
            }
            sensors = range(1, state["topology"].node_count)
            failed = nodes_off_target(report, sensors, report.new_version)
            return Outcome(len(sensors), failed, answers, artifact=program.image)

        return [Step("deploy", deploy)]

    def check(self, state: dict, outcomes: list[Outcome]) -> tuple[list[str], dict]:
        machine = run_shipped_image(outcomes[0].artifact)
        problem = aes_mismatch(machine)
        return ([f"AES: {problem}"] if problem else []), {"image_cycles": machine.cycles}


WORKLOADS = {w.name: w for w in (ReleaseTrain(), FloodRollout(), TrickleDeploy())}
