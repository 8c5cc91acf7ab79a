"""IR-interpreter tests, including IR-vs-machine differential checks."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.config import CompileConfig
from repro.core import Compiler, compile_source
from repro.ir import IRInterpError, run_ir
from repro.sim import run_image


def front_middle(source, optimize=True):
    return Compiler(CompileConfig(optimize=optimize)).front_and_middle(source)


class TestBasics:
    def test_arithmetic_and_globals(self):
        module = front_middle(
            "u16 r; void main() { u16 a = 300; r = a * 3 + 7; halt(); }"
        )
        result = run_ir(module)
        assert result.halted
        assert result.globals["r"] == (300 * 3 + 7) & 0xFFFF

    def test_function_calls(self):
        module = front_middle(
            "u8 r; u8 sq(u8 x) { return x * x; } void main() { r = sq(9); halt(); }"
        )
        assert run_ir(module).globals["r"] == 81

    def test_arrays(self):
        module = front_middle(
            "u8 t[4]; u8 r;"
            " void main() { u8 i; for (i = 0; i < 4; i++) { t[i] = i * 3; }"
            " r = t[0] + t[1] + t[2] + t[3]; halt(); }"
        )
        assert run_ir(module).globals["r"] == 0 + 3 + 6 + 9

    def test_devices(self):
        module = front_middle(
            "void main() { led_set(5); radio_send(0x1234); halt(); }"
        )
        result = run_ir(module)
        assert result.devices.led.writes == [5]
        assert result.devices.radio.sent == [0x1234]

    def test_out_of_bounds_detected(self):
        module = front_middle(
            "u8 t[2]; void main() { u8 i = 5; t[i] = 1; halt(); }",
            optimize=False,
        )
        with pytest.raises(IRInterpError):
            run_ir(module)

    def test_step_budget(self):
        module = front_middle("void main() { while (1) { } }")
        result = run_ir(module, max_steps=1000)
        assert not result.halted
        assert result.steps >= 1000

    def test_division_by_zero_matches_machine(self):
        src = "u8 r; void main() { u8 a = 7; u8 z = a - a; r = a / z; halt(); }"
        module = front_middle(src, optimize=False)
        ir_result = run_ir(module)
        prog = compile_source(src, CompileConfig(optimize=False))
        from repro.sim import Simulator

        sim = Simulator(prog.image)
        sim.run()
        assert ir_result.globals["r"] == sim.load(prog.layout.addresses["r"])


class TestIRvsMachineDifferential:
    """The IR interpreter and the machine simulator must observe the
    same behaviour — this isolates back-end bugs from front-end ones."""

    def _compare(self, source):
        module = front_middle(source)
        ir_result = run_ir(module, max_steps=10_000_000)
        program = compile_source(source)
        machine = run_image(program.image, max_cycles=20_000_000)
        assert ir_result.halted and machine.halted
        assert ir_result.devices.radio.sent == machine.devices.radio.sent
        assert ir_result.devices.led.writes == machine.devices.led.writes
        return ir_result, program

    def test_benchmarks_agree(self):
        from repro.workloads import AES

        self._compare(AES)

    def test_nontrivial_control_flow_agrees(self):
        self._compare(
            """
            u16 acc;
            void main() {
                u8 i; u8 j;
                for (i = 0; i < 12; i++) {
                    for (j = 0; j < 5; j++) {
                        if ((i ^ j) & 1) { acc = acc + i * j; }
                        else { acc = acc - j; }
                    }
                    if (acc > 500) { break; }
                }
                radio_send(acc);
                halt();
            }
            """
        )

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 10_000))
    def test_random_programs_agree(self, seed):
        import random

        rng = random.Random(seed)
        ops = ["+", "-", "^", "&", "|", "*"]
        lines = [f"u8 v{i} = {i + 1};" for i in range(4)]
        for _ in range(rng.randrange(1, 16)):
            dst, a, b = (rng.randrange(4) for _ in range(3))
            lines.append(f"v{dst} = v{a} {rng.choice(ops)} v{b};")
        body = "\n    ".join(lines)
        source = (
            f"void main() {{\n    {body}\n    radio_send(v0 ^ v1 ^ v2 ^ v3);\n"
            "    halt();\n}"
        )
        self._compare(source)
