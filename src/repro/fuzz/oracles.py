"""Differential oracles: is an incremental update observably correct?

Given an update pair (old source, new source) the battery plans a UCC
incremental compile against the deployed old binary and cross-checks it
four independent ways:

* **patch**    — the sensor-side patcher applied to the old image must
  reproduce the incremental compile's new image word-for-word, and the
  data script must rebuild the new data segment byte-for-byte (paper
  Figure 2's round trip);
* **wire**     — the code and data scripts must survive
  serialise→parse→serialise unchanged, and the packet accounting must
  agree with the real wire bytes (§2.2);
* **trace**    — the patched image's simulated device trace (LED,
  radio, timer, ADC, halt status) must match a from-scratch compile of
  the new source: update-conscious reuse must never change behaviour;
  and the from-scratch image's LED and radio traces must match the IR
  interpreter run on the new source's IR, rebuilt by the front and
  middle end — a reference that shares no allocation, code generation,
  assembly or simulator code with the images;
* **analysis** — every :mod:`repro.analysis` verifier pass must come
  back clean, including the eq. 18 energy invariants (the run uses the
  cycles measured for the trace oracle, so the audit covers the full
  equation).

Failures are collected, not raised: the fuzz runner treats any
non-empty failure list as a finding to shrink and persist.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from ..config import UpdateConfig
from ..core.compiler import Compiler, compile_source
from ..core.update import UpdatePlanner
from ..diff.data_diff import apply_data, DataScript
from ..diff.edit_script import EditScript
from ..diff.patcher import PatchError, patched_words
from ..ir.interp import run_ir
from ..sim.devices import DeviceBoard, Timer
from ..sim.executor import run_image, traces_equal


@dataclass(frozen=True)
class OracleFailure:
    """One oracle violation for an update pair."""

    oracle: str  # "plan" | "patch" | "wire" | "trace" | "analysis"
    message: str

    def render(self) -> str:
        return f"[{self.oracle}] {self.message}"


@dataclass
class PairVerdict:
    """Everything the oracle battery measured about one pair."""

    failures: list = field(default_factory=list)
    script_bytes: int = 0
    diff_inst: int = 0
    old_cycles: int | None = None
    new_cycles: int | None = None

    @property
    def ok(self) -> bool:
        return not self.failures

    def summary(self) -> str:
        if self.ok:
            return "ok"
        return "; ".join(f.render() for f in self.failures)


#: Poll-driven timer period for oracle runs — both binaries see the
#: identical logical event schedule (see repro.sim.devices.Timer).
FIRE_EVERY_POLLS = 3

#: Cycle budget per simulated run; generated programs are bounded and
#: finish well under this, so hitting it indicates a real hang.
MAX_CYCLES = 4_000_000


def _board() -> DeviceBoard:
    return DeviceBoard(timer=Timer(fire_every_polls=FIRE_EVERY_POLLS))


def check_pair(
    old_source: str,
    new_source: str,
    config: UpdateConfig | None = None,
) -> PairVerdict:
    """Run every oracle over one update pair.

    ``config`` carries the full planning configuration (strategies, cp,
    checked mode, knobs; ``None`` means ``UpdateConfig()``); both
    sources compile under the default :class:`~repro.config
    .CompileConfig`.  Its ``verify`` flag is forced off — the planner's
    own assertions would raise, while the oracles below re-check those
    properties and *report* instead.
    """
    cfg = replace(config if config is not None else UpdateConfig(), verify=False)
    verdict = PairVerdict()

    def fail(oracle: str, message: str) -> None:
        verdict.failures.append(OracleFailure(oracle=oracle, message=message))

    # -- plan the incremental update -----------------------------------
    try:
        old = compile_source(old_source)
    except Exception as error:  # a generated program must always compile
        fail("plan", f"old source failed to compile: {error}")
        return verdict
    planner = UpdatePlanner(old, config=cfg)
    try:
        result = planner.plan(new_source)
    except Exception as error:
        fail("plan", f"update planning failed: {error}")
        return verdict
    verdict.script_bytes = result.script_bytes
    verdict.diff_inst = result.diff_inst

    # -- oracle: sensor-side patch reproduces the new image ------------
    try:
        rebuilt = patched_words(old.image, result.diff.script)
        expected = result.new.image.words()
        if rebuilt != expected:
            index = next(
                (
                    i
                    for i, (a, b) in enumerate(zip(rebuilt, expected))
                    if a != b
                ),
                min(len(rebuilt), len(expected)),
            )
            fail(
                "patch",
                f"patched image diverges from sink binary at word {index} "
                f"(rebuilt {len(rebuilt)} words, expected {len(expected)})",
            )
    except PatchError as error:
        fail("patch", f"script does not apply to the old image: {error}")
    try:
        patched_data = apply_data(old.image.data, result.data_script)
        if patched_data != result.new.image.data:
            fail("patch", "data script does not rebuild the new data segment")
    except Exception as error:
        fail("patch", f"data script failed to apply: {error}")

    # -- oracle: wire round-trips and packet accounting ----------------
    blob = result.diff.script.to_bytes()
    if len(blob) != result.diff.script.size_bytes:
        fail(
            "wire",
            f"script claims {result.diff.script.size_bytes} bytes but "
            f"serialises to {len(blob)}",
        )
    try:
        reparsed = EditScript.from_bytes(blob)
        if reparsed.to_bytes() != blob:
            fail("wire", "edit script does not round-trip through bytes")
    except Exception as error:
        fail("wire", f"serialised edit script does not parse: {error}")
    data_blob = result.data_script.to_bytes()
    try:
        data_reparsed = DataScript.from_bytes(data_blob)
        if data_reparsed.to_bytes() != data_blob:
            fail("wire", "data script does not round-trip through bytes")
    except Exception as error:
        fail("wire", f"serialised data script does not parse: {error}")
    packets = result.packets
    if packets.script_bytes != result.script_bytes:
        fail(
            "wire",
            f"packetisation covers {packets.script_bytes} bytes but the "
            f"update ships {result.script_bytes}",
        )
    if packets.bytes_on_air < packets.script_bytes:
        fail("wire", "bytes_on_air smaller than the script payload")

    # -- oracle: device-trace equivalence vs a from-scratch compile ----
    try:
        scratch = compile_source(new_source)
    except Exception as error:
        fail("trace", f"from-scratch compile of the new source failed: {error}")
        return verdict
    try:
        old_run = run_image(old.image, devices=_board(), max_cycles=MAX_CYCLES)
        incr_run = run_image(
            result.new.image, devices=_board(), max_cycles=MAX_CYCLES
        )
        scratch_run = run_image(
            scratch.image, devices=_board(), max_cycles=MAX_CYCLES
        )
    except Exception as error:
        fail("trace", f"simulation crashed: {error}")
        return verdict
    for label, run in (("incremental", incr_run), ("scratch", scratch_run)):
        if not run.halted:
            fail("trace", f"{label} binary did not halt within {MAX_CYCLES} cycles")
    divergence = traces_equal(incr_run, scratch_run)
    if divergence is not None:
        fail(
            "trace",
            "incremental and from-scratch binaries diverge: "
            + divergence.render(),
        )
    try:
        module = Compiler().front_and_middle(new_source)
        reference = run_ir(module, devices=_board(), max_steps=MAX_CYCLES)
    except Exception as error:
        fail("trace", f"IR interpreter failed on the new source: {error}")
    else:
        if not reference.halted:
            fail("trace", f"IR interpreter did not halt within {MAX_CYCLES} steps")
        for channel, machine, ir in (
            ("led", scratch_run.devices.led.writes, reference.devices.led.writes),
            ("radio", scratch_run.devices.radio.sent, reference.devices.radio.sent),
        ):
            if machine != ir:
                fail(
                    "trace",
                    f"from-scratch binary's {channel} trace differs from the "
                    f"IR interpreter's ({len(machine)} vs {len(ir)} events)",
                )
    verdict.old_cycles = old_run.cycles
    verdict.new_cycles = incr_run.cycles

    # -- oracle: the full static verification battery ------------------
    from ..analysis import verify_update

    result.old_cycles = old_run.cycles
    result.new_cycles = incr_run.cycles
    try:
        report = verify_update(result, cnt=cfg.expected_runs)
    except Exception as error:
        fail("analysis", f"verification crashed: {error}")
        return verdict
    for finding in report.findings:
        fail("analysis", finding.render())
    return verdict


__all__ = ["FIRE_EVERY_POLLS", "MAX_CYCLES", "OracleFailure", "PairVerdict", "check_pair"]
