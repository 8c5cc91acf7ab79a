"""The ILP fast-path/reference-path switch.

The ILP kernels — the simplex pivot loop, integer-program matrix
lowering, chunk-model constraint generation, and the solve-memo warm
start — each exist twice: the *reference* implementation (the
original, loop-per-row code, kept verbatim) and the *fast*
implementation (vectorized with numpy).  They are the only code in
the repo with two implementations, so the switch lives here, next to
its readers: ``repro.ilp`` and ``repro.regalloc.ilp_model``.  Both
paths must produce bit-identical answers;
``tests/test_ilp_fastpath.py`` runs them side by side and
``benchmarks/test_ilp_fastpath_speedup.py`` times one against the
other on the Figure 13-15 sweep.

The fast path is the default; the reference path is selected either
with the ``REPRO_REFERENCE_PATH=1`` environment variable or with the
:func:`reference_mode` context manager (in-process differential tests
and the speedup benchmark).  The variable is read once, when this
module is first imported: at the first ILP model build or solve, not
at ``import repro``, which loads no ILP module.  Set it before the
process starts — handy for subprocesses and whole test runs.

The switch is deliberately *not* thread-local: the optimized and
reference paths return identical results, so a racing reader can never
observe a wrong answer — only a differently-priced one.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from typing import Iterator

#: Environment knob: any value other than "" / "0" starts the process
#: on the reference path.
ENV_FLAG = "REPRO_REFERENCE_PATH"

_reference = os.environ.get(ENV_FLAG, "") not in ("", "0")


def fastpath_enabled() -> bool:
    """Is the vectorized fast path active (the default)?"""
    return not _reference


@contextmanager
def reference_mode(enabled: bool = True) -> Iterator[None]:
    """Run a block on the retained reference implementations.

    ``reference_mode(False)`` selects the fast path for the block, even
    inside an outer reference block or a ``REPRO_REFERENCE_PATH=1``
    process.
    """
    global _reference
    previous = _reference
    _reference = enabled
    try:
        yield
    finally:
        _reference = previous


__all__ = ["ENV_FLAG", "fastpath_enabled", "reference_mode"]
