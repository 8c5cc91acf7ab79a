"""Compiler-pipeline invariants: determinism, structure, data image."""

import pytest

from repro.config import CompileConfig
from repro.core import Compiler, build_data_image, compile_source
from repro.isa import disassemble_words
from repro.lang import CompileError


class TestDeterminism:
    def test_identical_source_identical_binary(self, simple_source):
        a = compile_source(simple_source)
        b = compile_source(simple_source)
        assert a.image.words() == b.image.words()
        assert a.layout.addresses == b.layout.addresses

    def test_disassembly_roundtrip(self, simple_program):
        back = disassemble_words(simple_program.image.words())
        assert len(back) == simple_program.instruction_count


class TestStructure:
    def test_functions_emitted_in_source_order(self, simple_program):
        symbols = simple_program.image.symbols
        assert symbols["bump"] < symbols["main"]

    def test_entry_is_main(self, simple_program):
        assert simple_program.image.entry == simple_program.image.symbols["main"]

    def test_every_instruction_attributed(self, simple_program):
        for enc in simple_program.image.code:
            assert enc.instr.comment in simple_program.module.functions

    def test_records_cover_all_functions(self, simple_program):
        assert set(simple_program.records) == set(simple_program.module.functions)

    def test_machine_labels_function_qualified(self, simple_program):
        for name in simple_program.image.symbols:
            assert name in simple_program.module.functions or "." in name


class TestDataImage:
    def test_global_initial_values_placed(self, simple_program):
        layout = simple_program.layout
        data = simple_program.image.data
        offset = layout.addresses["mask"] - layout.segment_base
        assert data[offset] == 7

    def test_u16_little_endian(self):
        prog = compile_source("u16 big = 0x1234; void main() { halt(); }")
        offset = prog.layout.addresses["big"] - prog.layout.segment_base
        assert prog.image.data[offset] == 0x34
        assert prog.image.data[offset + 1] == 0x12

    def test_const_array_in_data_segment(self):
        prog = compile_source(
            "const u8 t[4] = {9, 8, 7, 6}; u8 r;"
            " void main() { r = t[2]; halt(); }"
        )
        offset = prog.layout.addresses["t"] - prog.layout.segment_base
        assert list(prog.image.data[offset : offset + 4]) == [9, 8, 7, 6]

    def test_data_image_sized_to_segment(self, simple_program):
        layout = simple_program.layout
        assert len(simple_program.image.data) == layout.segment_end - layout.segment_base

    def test_build_data_image_direct(self, simple_program):
        data = build_data_image(simple_program.module, simple_program.layout)
        assert data == simple_program.image.data


class TestOptionsAndErrors:
    def test_missing_main_raises(self):
        from repro.isa import AssemblyError

        with pytest.raises(AssemblyError):
            compile_source("void f() { }")

    def test_front_end_errors_propagate(self):
        with pytest.raises(CompileError):
            compile_source("void main() { undeclared = 1; }")

    def test_linear_allocator_option(self, simple_source):
        prog = compile_source(simple_source, CompileConfig(ra="linear"))
        assert all(r.algorithm == "linear-scan" for r in prog.records.values())

    def test_unknown_allocator_rejected(self, simple_source):
        with pytest.raises(ValueError, match="CompileConfig.ra"):
            CompileConfig(ra="magic")

    def test_depth_override_reaches_ir(self, simple_source):
        config = CompileConfig(depths=(("bump", 3),))
        prog = Compiler(config).compile(simple_source)
        assert prog.module.functions["bump"].depth == 3

    def test_optimize_flag_reduces_code(self, simple_source):
        optimized = compile_source(simple_source, CompileConfig(optimize=True))
        plain = compile_source(simple_source, CompileConfig(optimize=False))
        assert optimized.size_words <= plain.size_words
