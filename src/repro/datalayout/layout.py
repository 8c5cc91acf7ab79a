"""Data-layout data model.

A *layout object* is anything that occupies data memory and whose
address is embedded in instruction encodings: global scalars and
arrays, per-function parameter slots, spill slots, and local arrays.
Relocating an object re-encodes every ``LDS``/``STS``/address-forming
instruction that touches it — this is the cost the update-conscious
layout algorithm (paper §4) minimises.

The :class:`DataLayout` result maps object uid → byte address and is
persisted inside a compiled program so the next compile can be
update-conscious about it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..ir.function import IRModule
from ..ir.instructions import MemRef
from ..isa import devices
from ..lang.errors import CompileError


class SRAMOverflowError(CompileError):
    """Raised when the data segment does not fit in SRAM."""


@dataclass
class LayoutObject:
    """One allocatable data object."""

    uid: str
    size: int
    #: owning function name; None for globals (the paper's dummy ``P0``)
    function: str | None = None
    #: static number of instructions referencing the object (paper's
    #: ``Usage_i(a)``)
    usage: int = 0
    #: projected simultaneous activations of the owner (``Depth_i``)
    depth: int = 1
    kind: str = "global"  # global | param | spill | array


@dataclass
class Hole:
    """A free byte range inside the data segment."""

    address: int
    size: int


@dataclass
class DataLayout:
    """Assigned addresses for every layout object."""

    addresses: dict[str, int] = field(default_factory=dict)
    objects: dict[str, LayoutObject] = field(default_factory=dict)
    segment_base: int = devices.DATA_START
    segment_end: int = devices.DATA_START
    holes: list[Hole] = field(default_factory=list)
    algorithm: str = ""

    def address_of(self, uid: str) -> int:
        return self.addresses[uid]

    def extent(self, uid: str) -> tuple[int, int]:
        """Byte range ``[start, end)`` occupied by object ``uid``."""
        address = self.addresses[uid]
        return address, address + self.objects[uid].size

    def __contains__(self, uid: str) -> bool:
        return uid in self.addresses

    @property
    def used_bytes(self) -> int:
        return self.segment_end - self.segment_base

    @property
    def wasted_bytes(self) -> int:
        return sum(h.size for h in self.holes)

    def moved_objects(self, old: "DataLayout") -> list[str]:
        """Objects present in both layouts whose address changed."""
        return sorted(
            uid
            for uid, addr in self.addresses.items()
            if uid in old.addresses and old.addresses[uid] != addr
        )

    def check(self) -> None:
        """Assert that no two objects overlap (defensive invariant) and
        raise :class:`SRAMOverflowError` when the segment ends past SRAM."""
        sram_end = devices.DATA_START + devices.SRAM_SIZE
        if self.segment_end > sram_end:
            raise SRAMOverflowError(
                f"data segment ends at {self.segment_end:#06x}, past the "
                f"end of the {devices.SRAM_SIZE}-byte SRAM at {sram_end:#06x}"
            )
        spans = sorted(
            (addr, addr + self.objects[uid].size, uid)
            for uid, addr in self.addresses.items()
        )
        for (start_a, end_a, uid_a), (start_b, end_b, uid_b) in zip(spans, spans[1:]):
            if end_a > start_b:
                raise ValueError(
                    f"layout overlap: {uid_a} [{start_a},{end_a}) and "
                    f"{uid_b} [{start_b},{end_b})"
                )


def collect_layout_objects(
    module: IRModule,
    spill_orders: dict[str, list[str]] | None = None,
    depths: dict[str, int] | None = None,
) -> list[LayoutObject]:
    """Enumerate every data object of a module, in a deterministic order.

    ``spill_orders`` maps function name → spilled vreg names (from the
    allocation records); ``depths`` overrides per-function ``Depth_i``.
    """
    spill_orders = spill_orders or {}
    depths = depths or {}
    usage = _usage_counts(module)

    objects: list[LayoutObject] = []
    for sym in module.globals:
        objects.append(
            LayoutObject(
                uid=sym.uid,
                size=sym.ctype.size_bytes,
                function=None,
                usage=usage.get(sym.uid, 0),
                depth=1,
                kind="array" if sym.ctype.is_array else "global",
            )
        )
    for fn in module.functions.values():
        depth = depths.get(fn.name, fn.depth)
        for reg in fn.param_vregs:
            objects.append(
                LayoutObject(
                    uid=reg.name,
                    size=reg.ctype.element_size,
                    function=fn.name,
                    usage=usage.get(reg.name, 0) + 1,  # +1: entry load
                    depth=depth,
                    kind="param",
                )
            )
        for sym in fn.local_arrays:
            objects.append(
                LayoutObject(
                    uid=sym.uid,
                    size=sym.ctype.size_bytes,
                    function=fn.name,
                    usage=usage.get(sym.uid, 0),
                    depth=depth,
                    kind="array",
                )
            )
        for name in spill_orders.get(fn.name, []):
            if any(o.uid == name for o in objects):
                continue  # spilled param reuses its param slot
            vreg = next(r for r in fn.vregs() if r.name == name)
            uid = name if "." in name and not name.startswith("$") else f"{fn.name}.{name}"
            objects.append(
                LayoutObject(
                    uid=uid,
                    size=vreg.ctype.element_size,
                    function=fn.name,
                    usage=usage.get(name, 0),
                    depth=depth,
                    kind="spill",
                )
            )
    return objects


def spill_uid(function: str, vreg_name: str) -> str:
    """The layout-object uid of a spilled vreg's memory slot.

    Named locals/params already carry a function-qualified uid; bare
    temporaries (``$3.0``) get qualified here.  Spilled params share
    their parameter slot.
    """
    if "." in vreg_name and not vreg_name.startswith("$"):
        return vreg_name
    return f"{function}.{vreg_name}"


def _usage_counts(module: IRModule) -> dict[str, int]:
    counts: dict[str, int] = {}
    for fn in module.functions.values():
        for ins in fn.instrs:
            seen: set[str] = set()
            for arg in ins.args:
                if isinstance(arg, MemRef):
                    seen.add(arg.symbol)
            for reg in ins.vregs():
                seen.add(reg.name)
            for name in seen:
                counts[name] = counts.get(name, 0) + 1
    return counts
