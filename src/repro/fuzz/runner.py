"""The fuzz campaign driver behind ``repro fuzz``.

Each iteration derives its own RNG from ``(seed, iteration)``, so a
campaign is fully deterministic and any single iteration can be
replayed in isolation: generate a program, derive an update pair with
1..N semantic edits, run the differential oracle battery, and — on
failure — shrink to a minimal reproducer and persist it to the corpus
directory.

The report carries a SHA-256 digest over every iteration's sources and
verdicts; two runs with the same seed and configuration must produce
the same digest (pinned by tests), which is what makes nightly-run
findings replayable locally.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass, field

from ..config import UpdateConfig
from ..obs import metrics, trace
from ..obs.metrics import REGISTRY
from .mutator import apply_edits, mutate
from .oracles import check_pair
from .progen import GenConfig, generate_program
from .shrinker import FuzzCase, persist_case, shrink


@dataclass
class FuzzFinding:
    """One failing iteration, after shrinking."""

    iteration: int
    failures: list
    case_dir: str | None = None
    shrunk_edits: int = 0
    shrunk_statements: int = 0

    def render(self) -> str:
        where = f" -> {self.case_dir}" if self.case_dir else ""
        messages = "; ".join(f.render() for f in self.failures)
        return f"iteration {self.iteration}: {messages}{where}"


@dataclass
class FuzzReport:
    """Outcome of one campaign."""

    seed: int
    iterations: int
    findings: list = field(default_factory=list)
    edit_counts: dict = field(default_factory=dict)
    script_bytes_total: int = 0
    diff_inst_total: int = 0
    digest: str = ""
    #: per-campaign ``fuzz.*`` metric deltas from :mod:`repro.obs`;
    #: excluded from the digest so telemetry cannot change replay identity
    metrics: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.findings

    def render(self) -> str:
        lines = [
            f"fuzz seed={self.seed} iterations={self.iterations} "
            f"findings={len(self.findings)}",
            f"digest  : {self.digest}",
            f"shipped : {self.script_bytes_total} script bytes, "
            f"{self.diff_inst_total} Diff_inst total",
        ]
        if self.edit_counts:
            parts = ", ".join(
                f"{kind}:{count}"
                for kind, count in sorted(self.edit_counts.items())
            )
            lines.append(f"edits   : {parts}")
        if self.metrics:
            parts = ", ".join(
                f"{name.split('fuzz.', 1)[-1]}:{value:g}"
                for name, value in sorted(self.metrics.items())
                if value
            )
            if parts:
                lines.append(f"metrics : {parts}")
        for finding in self.findings:
            lines.append("FAIL " + finding.render())
        return "\n".join(lines)


def _iteration_rng(seed: int, iteration: int) -> random.Random:
    # String seeding hashes with SHA-512 internally — deterministic
    # across platforms and Python builds, unlike hash(tuple).
    return random.Random(f"repro-fuzz:{seed}:{iteration}")


def run_fuzz(
    seed: int = 0,
    iters: int = 100,
    max_edits: int = 3,
    corpus_dir: str | None = None,
    config: GenConfig | None = None,
    on_progress=None,
    shrink_findings: bool = True,
    update_config: UpdateConfig | None = None,
) -> FuzzReport:
    """Run one deterministic fuzz campaign.

    ``update_config`` carries the full planning configuration
    (strategies, cp, checked mode, knobs) for the oracle battery;
    ``None`` means ``UpdateConfig()``.
    """
    plan_cfg = update_config if update_config is not None else UpdateConfig()
    report = FuzzReport(seed=seed, iterations=iters)
    hasher = hashlib.sha256()
    before = REGISTRY.values("fuzz.")
    for iteration in range(iters):
        with trace.span("fuzz.iteration", iteration=iteration) as span:
            rng = _iteration_rng(seed, iteration)
            program = generate_program(rng, config)
            n_edits = rng.randrange(1, max_edits + 1)
            mutated, edits = mutate(program, rng, n_edits)
            for edit in edits:
                report.edit_counts[edit.kind] = (
                    report.edit_counts.get(edit.kind, 0) + 1
                )
            old_source = program.render()
            new_source = mutated.render()
            verdict = check_pair(old_source, new_source, config=plan_cfg)
            span.set(ok=verdict.ok)
        metrics.counter("fuzz.iterations").inc()
        _publish_verdict(verdict)
        report.script_bytes_total += verdict.script_bytes
        report.diff_inst_total += verdict.diff_inst
        hasher.update(old_source.encode())
        hasher.update(new_source.encode())
        hasher.update(verdict.summary().encode())
        if not verdict.ok:
            metrics.counter("fuzz.findings").inc()
            finding = _handle_failure(
                iteration,
                program,
                edits,
                verdict,
                seed=seed,
                corpus_dir=corpus_dir,
                plan_cfg=plan_cfg,
                shrink_findings=shrink_findings,
            )
            report.findings.append(finding)
        if on_progress is not None:
            on_progress(iteration, verdict)
    report.digest = hasher.hexdigest()
    report.metrics = REGISTRY.delta(before, "fuzz.")
    return report


def _publish_verdict(verdict) -> None:
    """Count each oracle violation under its own literal metric name
    (literal so ``tools/check_docs.py`` can see them)."""
    for failure in verdict.failures:
        if failure.oracle == "plan":
            metrics.counter("fuzz.oracle_failures.plan").inc()
        elif failure.oracle == "patch":
            metrics.counter("fuzz.oracle_failures.patch").inc()
        elif failure.oracle == "wire":
            metrics.counter("fuzz.oracle_failures.wire").inc()
        elif failure.oracle == "trace":
            metrics.counter("fuzz.oracle_failures.trace").inc()
        elif failure.oracle == "analysis":
            metrics.counter("fuzz.oracle_failures.analysis").inc()
        else:
            metrics.counter("fuzz.oracle_failures.other").inc()


def _handle_failure(
    iteration: int,
    program,
    edits,
    verdict,
    *,
    seed: int,
    corpus_dir: str | None,
    plan_cfg: UpdateConfig,
    shrink_findings: bool,
) -> FuzzFinding:
    case = FuzzCase(
        program=program,
        edits=list(edits),
        seed=seed,
        iteration=iteration,
        failures=list(verdict.failures),
    )

    def still_fails(reduced_program, reduced_edits) -> bool:
        old_source = reduced_program.render()
        new_source = apply_edits(reduced_program, reduced_edits).render()
        return not check_pair(old_source, new_source, config=plan_cfg).ok

    if shrink_findings and edits:
        case = shrink(case, still_fails)
        # Re-run the oracles on the shrunk pair so the persisted
        # failure messages describe the minimal reproducer.
        old_source, new_source = case.sources()
        case.failures = check_pair(old_source, new_source, config=plan_cfg).failures
    finding = FuzzFinding(
        iteration=iteration,
        failures=list(case.failures),
        shrunk_edits=len(case.edits),
        shrunk_statements=sum(
            1
            for fn in case.program.funcs
            for _ in _iter_stmts(fn.body)
        ),
    )
    if corpus_dir is not None:
        finding.case_dir = str(persist_case(corpus_dir, case))
    return finding


def _iter_stmts(body):
    from .progen import iter_stmts

    return iter_stmts(body)


__all__ = ["FuzzFinding", "FuzzReport", "run_fuzz"]
