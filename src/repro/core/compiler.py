"""The sink-side compiler: ucc-C source → executable binary image.

:class:`Compiler` runs the full pipeline of paper Figure 1 —
front end → IR → optimization → code generation — and captures every
code-generation *decision* (register allocation records, data layout)
in the returned :class:`CompiledProgram`, because those decisions are
exactly what the update-conscious recompilation
(:mod:`repro.core.update`) feeds back in.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..config import CompileConfig
from ..datalayout.gcc_da import allocate_gcc_da
from ..datalayout.layout import DataLayout, collect_layout_objects
from ..ir.builder import build_ir
from ..ir.function import IRModule
from ..isa.assembler import BinaryImage, assemble
from ..isa.instructions import MachineInstr
from ..lang import frontend
from ..lang.sema import CheckedProgram
from ..obs import trace
from ..opt.passes import optimize_module
from ..codegen.placement import (
    PlacementPlan,
    apply_placement,
    baseline_placement,
    code_size_words,
    ucc_placement,
)
from ..codegen.selector import select_function
from ..regalloc.base import AllocationRecord, verify_allocation
from ..regalloc.graph_coloring import allocate_graph_coloring
from ..regalloc.linear_scan import allocate_linear_scan
from ..ir.liveness import analyze

#: Baseline register allocators by name.
RA_BASELINES = {
    "gcc": allocate_graph_coloring,
    "linear": allocate_linear_scan,
}


@dataclass
class CompiledProgram:
    """A compiled binary plus every decision needed to update it later."""

    source: str
    checked: CheckedProgram
    module: IRModule
    records: dict[str, AllocationRecord]
    layout: DataLayout
    machine: list[MachineInstr]
    image: BinaryImage
    config: CompileConfig
    placement: PlacementPlan = field(default_factory=PlacementPlan)

    @property
    def instruction_count(self) -> int:
        return self.image.instruction_count()

    @property
    def size_words(self) -> int:
        return self.image.size_words

    def function_names(self) -> list[str]:
        return list(self.module.functions)

    def disassemble(self) -> str:
        return self.image.disassemble()


class Compiler:
    """Compiles ucc-C source with a chosen baseline allocator."""

    def __init__(self, config: CompileConfig | None = None):
        self.config = config if config is not None else CompileConfig()

    # Individual stages are exposed so the update planner can rerun the
    # back end with substituted decisions.

    def front_and_middle(self, source: str, filename: str = "<source>") -> IRModule:
        """Front end + optimization: source → optimized IR (paper's IR')."""
        with trace.span("compile.front_middle", filename=filename):
            checked = frontend(source, filename)
            module = build_ir(checked)
            for name, depth in self.config.depths:
                if name in module.functions:
                    module.functions[name].depth = depth
            if self.config.optimize:
                optimize_module(module)
            return module

    def allocate_registers(self, module: IRModule) -> dict[str, AllocationRecord]:
        with trace.span("compile.regalloc", allocator=self.config.ra):
            allocator = RA_BASELINES[self.config.ra]
            records = {}
            for name, fn in module.functions.items():
                record = allocator(fn)
                verify_allocation(record, analyze(fn))
                records[name] = record
            return records

    def lay_out_data(
        self, module: IRModule, records: dict[str, AllocationRecord]
    ) -> DataLayout:
        with trace.span("compile.datalayout", allocator="gcc"):
            objects = collect_layout_objects(
                module,
                spill_orders={name: rec.spill_order for name, rec in records.items()},
                depths=dict(self.config.depths),
            )
            return allocate_gcc_da(objects)

    def back_end(
        self,
        module: IRModule,
        records: dict[str, AllocationRecord],
        layout: DataLayout,
        old_placement: PlacementPlan | None = None,
        placement_strategy: str = "baseline",
        old_slot_words: dict[str, tuple[int, ...]] | None = None,
    ) -> tuple[list[MachineInstr], BinaryImage, PlacementPlan]:
        """Instruction selection + placement + assembly.

        ``placement_strategy="ucc"`` (with ``old_placement``) keeps
        surviving functions at their old flash addresses so call sites
        do not re-encode; ``"baseline"`` packs in definition order.
        """
        with trace.span("compile.backend", placement=placement_strategy):
            return self._back_end(
                module,
                records,
                layout,
                old_placement,
                placement_strategy,
                old_slot_words,
            )

    def _back_end(
        self,
        module: IRModule,
        records: dict[str, AllocationRecord],
        layout: DataLayout,
        old_placement: PlacementPlan | None,
        placement_strategy: str,
        old_slot_words: dict[str, tuple[int, ...]] | None,
    ) -> tuple[list[MachineInstr], BinaryImage, PlacementPlan]:
        function_code = {
            name: select_function(fn, records[name], layout, module)
            for name, fn in module.functions.items()
        }
        sizes = {
            name: code_size_words(code) for name, code in function_code.items()
        }
        order = list(module.functions)
        if placement_strategy == "ucc" and old_placement is not None:
            plan = ucc_placement(
                sizes,
                order,
                old_placement,
                self.config.placement_headroom,
                old_slot_words=old_slot_words,
            )
        else:
            plan = baseline_placement(
                sizes, order, self.config.placement_headroom
            )
        machine = apply_placement(function_code, plan)
        data = build_data_image(module, layout)
        image = assemble(machine, data=data, data_base=layout.segment_base)
        for slot in plan.slots:  # the plan must match reality
            assert image.symbols[slot.name] == slot.start, slot
        return machine, image, plan

    def compile(self, source: str, filename: str = "<source>") -> CompiledProgram:
        """Run the whole pipeline."""
        with trace.span("compile.full", filename=filename):
            return self._compile(source, filename)

    def _compile(self, source: str, filename: str) -> CompiledProgram:
        module = self.front_and_middle(source, filename)
        records = self.allocate_registers(module)
        layout = self.lay_out_data(module, records)
        machine, image, plan = self.back_end(module, records, layout)
        program = CompiledProgram(
            source=source,
            checked=module.checked,
            module=module,
            records=records,
            layout=layout,
            machine=machine,
            image=image,
            config=self.config,
            placement=plan,
        )
        if self.config.checked:
            # Lazy import: repro.analysis reaches back into regalloc and
            # datalayout, so a top-level import would cycle.
            from ..analysis import verify_program

            verify_program(program).raise_if_failed()
        return program


def build_data_image(module: IRModule, layout: DataLayout) -> bytes:
    """Initial data-segment bytes: global initialisers at their addresses."""
    size = layout.segment_end - layout.segment_base
    data = bytearray(size)
    inits = module.checked.global_inits
    for sym in module.globals:
        if sym.uid not in layout.addresses:
            continue
        offset = layout.addresses[sym.uid] - layout.segment_base
        value = inits.get(sym.name, 0)
        if sym.ctype.is_array:
            element = sym.ctype.element_size
            for i, item in enumerate(value):
                _poke(data, offset + i * element, item, element)
        else:
            _poke(data, offset, value, sym.ctype.element_size)
    return bytes(data)


def _poke(data: bytearray, offset: int, value: int, size: int) -> None:
    data[offset] = value & 0xFF
    if size == 2:
        data[offset + 1] = (value >> 8) & 0xFF


def compile_source(
    source: str,
    config: CompileConfig | None = None,
    filename: str = "<source>",
) -> CompiledProgram:
    """Compile one translation unit under a :class:`CompileConfig`."""
    return Compiler(config).compile(source, filename)
