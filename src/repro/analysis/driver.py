"""Verification driver: run every pass over a compilation product.

Two entry points mirror the two products the pipeline ships:

* :func:`verify_program` — one compiled binary: allocation, layout,
  and addressing passes;
* :func:`verify_update` — a planned update: the new program's checks
  plus the patch replay and the energy audit.

Both return a :class:`~repro.analysis.base.VerificationReport`;
callers that want hard failure use ``.raise_if_failed()`` (the
``checked=True`` pipeline mode does exactly that).
"""

from __future__ import annotations

from .alloc_verifier import PASS_NAME as ALLOCATION_PASS
from .alloc_verifier import verify_allocation_record
from .base import VerificationReport
from .energy_audit import PASS_NAME as ENERGY_PASS
from .energy_audit import audit_update
from .layout_verifier import (
    ADDRESSING_PASS,
    LAYOUT_PASS,
    verify_addressing,
    verify_data_image,
    verify_data_layout,
)
from .patch_verifier import PASS_NAME as PATCH_PASS
from .patch_verifier import verify_patch_product


def verify_program(program, ra_reports=None) -> VerificationReport:
    """Verify one compiled program (a
    :class:`~repro.core.compiler.CompiledProgram`).

    ``ra_reports`` optionally maps function name →
    :class:`~repro.regalloc.ucc_ra.UCCReport` for the preferred-tag
    accounting checks.
    """
    ra_reports = ra_reports or {}
    report = VerificationReport()

    allocation_findings = []
    for name, fn in program.module.functions.items():
        record = program.records.get(name)
        if record is None:
            continue  # coverage findings would need a record to check
        allocation_findings.extend(
            verify_allocation_record(fn, record, report=ra_reports.get(name))
        )
    report.extend(ALLOCATION_PASS, allocation_findings)

    layout_findings = verify_data_layout(program.layout)
    layout_findings.extend(
        verify_data_image(program.layout, program.image.data)
    )
    report.extend(LAYOUT_PASS, layout_findings)

    report.extend(ADDRESSING_PASS, verify_addressing(program))
    return report


def verify_update(result, cnt: float = 1000.0) -> VerificationReport:
    """Verify one planned update (an
    :class:`~repro.core.update.UpdateResult`)."""
    report = verify_program(result.new, ra_reports=result.ra_reports)
    report.extend(
        PATCH_PASS,
        verify_patch_product(
            result.old.image,
            result.new.image,
            result.diff.script,
            data_script=result.data_script,
        ),
    )
    report.extend(
        ENERGY_PASS,
        audit_update(result, _energy_of(result), cnt=cnt),
    )
    return report


def _energy_of(result):
    """The energy model the update was planned under (default when the
    planner did not record one)."""
    from ..energy.model import DEFAULT_ENERGY_MODEL

    return getattr(result, "energy", None) or DEFAULT_ENERGY_MODEL
