"""Regression tests for the ERR001 migration.

Every bare ``raise ValueError/RuntimeError/AssertionError`` in
``repro.net`` and ``repro.core`` moved onto the structured hierarchies
(:mod:`repro.net.errors`, :mod:`repro.core.errors`).  Each test pins
three things: the precise type is raised, it still subclasses the
builtin it replaced (so pre-migration handlers keep working), and its
structured attributes carry the offending values.

The compiler's own failures are one hierarchy too: every back-end
error is a :class:`~repro.lang.CompileError`, so a caller can tell a
program the pipeline cannot compile from a crash.
"""

import pytest

from repro.codegen import SelectionError
from repro.config import UpdateConfig
from repro.core import compile_source, plan_update
from repro.core.errors import (
    EmptyFleetError,
    PatchDivergenceError,
    PlanStateError,
)
from repro.core.session import SessionResult, UpdateSession
from repro.datalayout import SRAMOverflowError
from repro.isa import AssemblyError, EncodingError
from repro.lang import CompileError
from repro.net.campaign import run_campaign
from repro.net.errors import FaultPlanError, NetConfigError, TopologyError
from repro.net.faults import FaultPlan, NodeCrash, PartitionWindow
from repro.net.lossy import disseminate_lossy
from repro.net.node_state import packetise_blob
from repro.net.topology import build_topology, grid

OLD = """
u16 counter = 0;

u16 bump(u16 x) {
    return x + 1;
}

void main() {
    counter = bump(counter);
    halt();
}
"""
NEW = OLD.replace("x + 1", "x + 2")


class TestFaultPlanErrors:
    def test_node_crash_bad_node(self):
        with pytest.raises(FaultPlanError) as info:
            NodeCrash(node=0, round=1)
        assert info.value.field == "node"
        assert info.value.value == 0

    def test_node_crash_bad_round(self):
        with pytest.raises(FaultPlanError) as info:
            NodeCrash(node=1, round=0)
        assert info.value.field == "round"

    def test_node_crash_bad_reboot(self):
        with pytest.raises(FaultPlanError) as info:
            NodeCrash(node=1, round=5, reboot_round=5)
        assert info.value.field == "reboot_round"
        assert info.value.value == 5

    def test_partition_bad_start(self):
        with pytest.raises(FaultPlanError) as info:
            PartitionWindow(start=0, end=3, nodes=(1,))
        assert info.value.field == "start"

    def test_partition_bad_end(self):
        with pytest.raises(FaultPlanError) as info:
            PartitionWindow(start=3, end=3, nodes=(1,))
        assert info.value.field == "end"

    def test_partition_empty_nodes(self):
        with pytest.raises(FaultPlanError) as info:
            PartitionWindow(start=1, end=3, nodes=())
        assert info.value.field == "nodes"

    def test_partition_contains_sink(self):
        with pytest.raises(FaultPlanError) as info:
            PartitionWindow(start=1, end=3, nodes=(0, 1))
        assert info.value.field == "nodes"

    def test_plan_bad_corrupt_prob(self):
        with pytest.raises(FaultPlanError) as info:
            FaultPlan(corrupt_prob=1.5)
        assert info.value.field == "corrupt_prob"
        assert info.value.value == 1.5

    def test_plan_bad_duplicate_prob(self):
        with pytest.raises(FaultPlanError) as info:
            FaultPlan(duplicate_prob=-0.1)
        assert info.value.field == "duplicate_prob"

    def test_plan_duplicate_crash_nodes(self):
        with pytest.raises(FaultPlanError) as info:
            FaultPlan(crashes=(NodeCrash(1, 1), NodeCrash(1, 2)))
        assert info.value.field == "crashes"

    def test_is_still_a_value_error(self):
        # Pre-migration handlers dispatched on ValueError.
        with pytest.raises(ValueError):
            NodeCrash(node=-1, round=1)


class TestNetConfigErrors:
    def test_packetise_blob_bad_payload(self):
        with pytest.raises(NetConfigError) as info:
            packetise_blob(b"abc", payload_per_packet=0)
        assert info.value.parameter == "payload_per_packet"
        assert info.value.value == 0

    def test_lossy_bad_loss(self):
        with pytest.raises(NetConfigError) as info:
            disseminate_lossy(grid(2, 2), [], loss=1.0)
        assert info.value.parameter == "loss"
        assert info.value.value == 1.0

    def test_campaign_bad_loss(self):
        with pytest.raises(NetConfigError) as info:
            run_campaign(grid(2, 2), b"blob", loss=-0.5)
        assert info.value.parameter == "loss"

    def test_is_still_a_value_error(self):
        with pytest.raises(ValueError):
            packetise_blob(b"abc", payload_per_packet=-1)


class TestTopologyErrors:
    def test_unknown_kind(self):
        with pytest.raises(TopologyError) as info:
            build_topology("torus")
        assert info.value.kind == "torus"

    def test_unsampleable_random_geometric(self):
        with pytest.raises(TopologyError) as info:
            build_topology("random", nodes=30, radio_range=0.01)
        assert info.value.kind == "random"

    def test_is_still_a_value_error(self):
        with pytest.raises(ValueError, match="grid/line/random"):
            build_topology("torus")


class TestCoreErrors:
    def test_plan_state_error_before_measure(self):
        old = compile_source(OLD)
        plan = plan_update(old, NEW, config=UpdateConfig(ra="ucc", da="ucc"))
        with pytest.raises(PlanStateError) as info:
            plan.diff_cycle
        assert info.value.needed == "measure_cycles"
        with pytest.raises(ValueError):  # legacy handler contract
            plan.diff_cycle

    def test_empty_fleet_per_node_energy(self):
        session = UpdateSession(compile_source(OLD), topology=grid(2, 2))
        result = session.push_update(NEW)
        empty = SessionResult(
            update=result.update,
            dissemination=result.dissemination,
            nodes_patched=0,
        )
        with pytest.raises(EmptyFleetError) as info:
            empty.per_node_energy_j
        assert info.value.node_count == 0
        with pytest.raises(ValueError):
            empty.per_node_energy_j

    def test_empty_fleet_no_sensor_nodes(self):
        with pytest.raises(EmptyFleetError) as info:
            UpdateSession(compile_source(OLD), topology=grid(1, 1))
        assert info.value.node_count == 1
        with pytest.raises(ValueError, match="no sensor nodes"):
            UpdateSession(compile_source(OLD), topology=grid(1, 1))

    def test_patch_divergence_is_assertion_error(self):
        # The type contract: session/data divergence checks raise a
        # PatchDivergenceError that *is* an AssertionError, with a
        # stage attribute — constructed here directly since a healthy
        # pipeline never diverges.
        error = PatchDivergenceError("session", "diverged")
        assert isinstance(error, AssertionError)
        assert error.stage == "session"


class TestBackEndErrorsAreCompileErrors:
    @pytest.mark.parametrize(
        "cls", [AssemblyError, EncodingError, SelectionError, SRAMOverflowError]
    )
    def test_subclasses_compile_error(self, cls):
        assert issubclass(cls, CompileError)

    def test_branch_out_of_range(self):
        # No branch relaxation yet: 60 else-if arms push the first arm's
        # rjmp past its 10-bit offset.
        arms = " else ".join(f"if (x == {i}) {{ y = {i}; }}" for i in range(60))
        source = f"u8 x; u8 y; void main() {{ {arms} led_set(y); halt(); }}"
        with pytest.raises(CompileError, match="branch offset 648 out of range"):
            compile_source(source)
