"""The typed public API (`repro.api` + `repro.config`).

Pins the facade's behaviour: typed configs validate at construction,
the facade functions produce the same artefacts as the underlying
classes, and empty fleets are rejected up front.
"""

import pytest

import repro.api as api
from repro.config import (
    CompileConfig,
    FleetJob,
    TopologySpec,
    UpdateConfig,
    baseline_ra,
)
from repro.workloads import CASES

CASE = CASES["6"]


# ---------------------------------------------------------------------------
# Config validation
# ---------------------------------------------------------------------------


class TestConfigValidation:
    def test_update_config_rejects_unknown_ra(self):
        with pytest.raises(ValueError, match="UpdateConfig.ra"):
            UpdateConfig(ra="bogus")

    def test_update_config_rejects_unknown_da(self):
        with pytest.raises(ValueError, match="UpdateConfig.da"):
            UpdateConfig(da="bogus")

    def test_update_config_rejects_unknown_cp(self):
        with pytest.raises(ValueError, match="UpdateConfig.cp"):
            UpdateConfig(cp="bogus")

    def test_update_config_rejects_bad_k(self):
        with pytest.raises(ValueError, match="k must be >= 0"):
            UpdateConfig(k=-1)
        # §3.2: a chunk is unchanged when larger than K, so K = 0 is
        # defined (no unchanged run is merged).
        assert UpdateConfig(k=0).k == 0

    def test_update_config_rejects_negative_runs(self):
        with pytest.raises(ValueError, match="expected_runs"):
            UpdateConfig(expected_runs=-1.0)

    def test_compile_config_rejects_update_strategies(self):
        # "ucc" is an *update* strategy; a from-scratch compile needs a
        # baseline allocator.  CompileConfig.of does the mapping.
        with pytest.raises(ValueError, match="CompileConfig.ra"):
            CompileConfig(ra="ucc")

    def test_compile_config_of_maps_update_strategy_to_baseline(self):
        assert CompileConfig.of(ra="ucc").ra == "gcc"
        assert CompileConfig.of(ra="ucc-ilp").ra == "gcc"
        assert CompileConfig.of(ra="linear").ra == "linear"
        assert baseline_ra("ucc") == "gcc"

    def test_topology_spec_rejects_unknown_kind(self):
        with pytest.raises(ValueError, match="grid/line/random"):
            TopologySpec(kind="torus")

    def test_fleet_job_rejects_bad_loss(self):
        with pytest.raises(ValueError, match="loss"):
            FleetJob(old_source="", new_source="", loss=1.0)

    def test_configs_are_frozen(self):
        with pytest.raises(AttributeError):
            UpdateConfig().ra = "gcc"


class TestConfigSemantics:
    def test_resolved_cp_strategy_defaults(self):
        assert UpdateConfig(ra="ucc").resolved_cp() == "auto"
        assert UpdateConfig(ra="ucc-ilp").resolved_cp() == "auto"
        assert UpdateConfig(ra="gcc").resolved_cp() == "gcc"
        assert UpdateConfig(ra="linear").resolved_cp() == "gcc"
        assert UpdateConfig(ra="ucc", cp="gcc").resolved_cp() == "gcc"

    def test_digests_are_content_addresses(self):
        assert UpdateConfig().digest() == UpdateConfig().digest()
        assert UpdateConfig().digest() != UpdateConfig(ra="gcc").digest()
        job = FleetJob(old_source="a", new_source="b")
        assert job.digest() == FleetJob(old_source="a", new_source="b").digest()
        assert job.digest() != FleetJob(old_source="a", new_source="c").digest()

    def test_topology_spec_builds_the_right_shape(self):
        grid = TopologySpec.grid(3, 4)
        assert grid.node_count() == 12
        assert grid.build().node_count == 12
        line = TopologySpec.line(5)
        assert line.build().node_count == 5


# ---------------------------------------------------------------------------
# The facade functions
# ---------------------------------------------------------------------------


class TestFacade:
    def test_compile_source_matches_compiler(self):
        from repro.core.compiler import Compiler

        via_api = api.compile_source(CASE.old_source, CompileConfig())
        direct = Compiler(CompileConfig().to_options()).compile(CASE.old_source)
        assert via_api.image.words() == direct.image.words()

    def test_plan_update_matches_planner(self):
        old = api.compile_source(CASE.old_source)
        cfg = UpdateConfig(ra="ucc", da="ucc")
        via_api = api.plan_update(old, CASE.new_source, cfg)
        direct = api.UpdatePlanner(old, config=cfg).plan(CASE.new_source)
        assert via_api.diff_inst == direct.diff_inst
        assert via_api.script_bytes == direct.script_bytes
        assert via_api.diff.script.render() == direct.diff.script.render()

    def test_facade_reexports_one_implementation(self):
        import repro
        import repro.service

        assert repro.plan_update is api.plan_update
        assert api.run_batch is repro.service.run_batch

    def test_make_session_accepts_topology_spec(self):
        old = api.compile_source(CASE.old_source)
        session = api.make_session(old, TopologySpec.grid(3, 3))
        result = session.push_update(
            CASE.new_source, config=UpdateConfig(ra="ucc", da="ucc")
        )
        assert result.nodes_patched == 8  # 9 nodes minus the sink

    def test_make_session_rejects_empty_fleet(self):
        old = api.compile_source(CASE.old_source)
        with pytest.raises(ValueError, match="no sensor nodes"):
            api.make_session(old, TopologySpec.grid(1, 1))

    def test_all_is_sorted_and_complete(self):
        assert api.__all__ == sorted(api.__all__)
        for name in api.__all__:
            assert getattr(api, name) is not None
