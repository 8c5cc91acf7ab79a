"""Binary differ: old image + new image → edit script + Diff_inst.

The differ aligns the two instruction streams optimally (LCS over the
encoded words of each instruction), which reproduces the paper's
baseline methodology: *"For GCC-RA, we manually find the best match
between the new and the old binaries.  This is the lower bound of
existing binary-diff-based code dissemination algorithms."*  Both
strategies are therefore measured against the same best-possible diff.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from difflib import SequenceMatcher

from ..isa.assembler import BinaryImage
from ..obs import metrics, trace
from .edit_script import EditScript


@dataclass
class FunctionDiff:
    """Per-function attribution of the differences."""

    function: str
    changed_instructions: int = 0
    total_instructions: int = 0


@dataclass
class BinaryDiff:
    """The outcome of diffing two binaries."""

    script: EditScript
    #: the paper's Diff_inst: differing instructions in the new binary
    diff_inst: int
    #: instruction words that must be transmitted
    diff_words: int
    #: new instructions that could be reused from the old binary
    reused: int
    old_instructions: int
    new_instructions: int
    per_function: dict[str, FunctionDiff] = field(default_factory=dict)

    @property
    def script_bytes(self) -> int:
        return self.script.size_bytes


def diff_images(old: BinaryImage, new: BinaryImage) -> BinaryDiff:
    """Diff two assembled binaries at instruction granularity."""
    with trace.span("diff.images"):
        diff = _diff_images(old, new)
    metrics.counter("diff.runs").inc()
    metrics.counter("diff.reused_instructions").inc(diff.reused)
    metrics.histogram("diff.script_bytes").observe(diff.script_bytes)
    metrics.histogram("diff.diff_inst").observe(diff.diff_inst)
    return diff


def _diff_images(old: BinaryImage, new: BinaryImage) -> BinaryDiff:
    old_units = [tuple(enc.words) for enc in old.code]
    new_units = [tuple(enc.words) for enc in new.code]

    matcher = SequenceMatcher(a=old_units, b=new_units, autojunk=False)
    script = EditScript()
    diff_inst = 0
    diff_words = 0
    reused = 0
    per_function: dict[str, FunctionDiff] = {}

    def fn_of(index: int) -> str:
        name = new.code[index].instr.comment
        return name or "<unattributed>"

    def bump_fn(index: int, changed: bool) -> None:
        name = fn_of(index)
        record = per_function.setdefault(name, FunctionDiff(function=name))
        record.total_instructions += 1
        if changed:
            record.changed_instructions += 1

    for tag, old_lo, old_hi, new_lo, new_hi in matcher.get_opcodes():
        if tag == "equal":
            script.copy(old_hi - old_lo)
            reused += new_hi - new_lo
            for index in range(new_lo, new_hi):
                bump_fn(index, changed=False)
        elif tag == "delete":
            script.remove(old_hi - old_lo)
        elif tag == "insert":
            groups = new_units[new_lo:new_hi]
            script.insert(groups)
            diff_inst += len(groups)
            diff_words += sum(len(g) for g in groups)
            for index in range(new_lo, new_hi):
                bump_fn(index, changed=True)
        else:  # replace
            removed = old_hi - old_lo
            groups = new_units[new_lo:new_hi]
            # A replace of unequal length decomposes into replace+insert
            # or replace+remove at the script level.
            common = min(removed, len(groups))
            script.replace(groups[:common])
            if len(groups) > common:
                script.insert(groups[common:])
            if removed > common:
                script.remove(removed - common)
            diff_inst += len(groups)
            diff_words += sum(len(g) for g in groups)
            for index in range(new_lo, new_hi):
                bump_fn(index, changed=True)

    return BinaryDiff(
        script=script,
        diff_inst=diff_inst,
        diff_words=diff_words,
        reused=reused,
        old_instructions=len(old_units),
        new_instructions=len(new_units),
        per_function=per_function,
    )
