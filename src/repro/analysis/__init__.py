"""Static verification layer for compilation and update products.

``repro.analysis`` proves, from the shipped artefacts alone, that an
update is safe before it is disseminated:

* :mod:`.alloc_verifier` — register assignments respect liveness,
  calling conventions, and UCC-RA's preferred-tag accounting;
* :mod:`.layout_verifier` — the data layout is overlap-free and every
  memory-addressing instruction agrees with it;
* :mod:`.patch_verifier` — the edit script rebuilds the new image
  word-for-word on an independent replay;
* :mod:`.energy_audit` — dissemination/execution costs recompute from
  first principles, and ILP objectives match their models.

:func:`verify_program` / :func:`verify_update` orchestrate the passes
and return a :class:`VerificationReport`; ``checked=True`` pipeline
mode turns a failed report into a :class:`VerificationError`.
"""

from .base import Finding, VerificationError, VerificationReport
from .alloc_verifier import verify_allocation_record
from .driver import verify_program, verify_update
from .energy_audit import audit_ilp_solution, audit_update
from .layout_verifier import (
    verify_addressing,
    verify_data_image,
    verify_data_layout,
)
from .patch_verifier import verify_patch_product

__all__ = [
    "Finding",
    "VerificationError",
    "VerificationReport",
    "audit_ilp_solution",
    "audit_update",
    "verify_addressing",
    "verify_allocation_record",
    "verify_data_image",
    "verify_data_layout",
    "verify_patch_product",
    "verify_program",
    "verify_update",
]
