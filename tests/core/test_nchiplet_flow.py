"""N-chiplet flow path: topology cache keys and e2e runs.

The generalization contract (GUIDE section 15) has two halves:

* ``num_chiplets=2, arrangement="grid"`` is the paper's logic/memory
  flow; ``tests/core/test_flow_golden.py`` pins it byte for byte across
  every registered design.
* Any other topology runs the full pipeline end to end: N-way
  partition, per-part implementation, arrangement-aware placement,
  interposer routing/PDN/SI/thermal, and a complete Table IV row.
"""

import pytest

from repro.core.flow import FlowTaskSpec, run_design, run_flow_task

from tests.core.test_flow_golden import canonical_result_bytes

SCALE = 0.02


class TestDefaultTopologyByteIdentity:
    def test_default_cache_key_unchanged(self):
        # Spelling out the default topology names the same result.
        base = FlowTaskSpec(design="glass_25d", scale=SCALE, seed=7)
        explicit = FlowTaskSpec(design="glass_25d", scale=SCALE, seed=7,
                                num_chiplets=2, arrangement="grid")
        assert base.cache_token() == explicit.cache_token()
        tagged = FlowTaskSpec(design="glass_25d", scale=SCALE, seed=7,
                              num_chiplets=4, arrangement="row")
        assert tagged.cache_token() != base.cache_token()


class TestNchipletEndToEnd:
    @pytest.fixture(scope="class")
    def hex9(self):
        return run_design("glass_25d", scale=SCALE, seed=7,
                          num_chiplets=9, arrangement="hexagonal",
                          with_eyes=False, with_thermal=True,
                          use_cache=False)

    def test_nine_parts_implemented(self, hex9):
        assert hex9.num_chiplets == 9
        assert hex9.arrangement == "hexagonal"
        assert hex9.chiplets is not None and len(hex9.chiplets) == 9
        assert len(hex9.placement.dies) == 9
        assert not hex9.placement.overlaps()

    def test_representatives_alias_parts(self, hex9):
        assert hex9.logic in hex9.chiplets
        assert hex9.memory in hex9.chiplets
        assert hex9.logic.kind == "logic"

    def test_route_and_analyses_complete(self, hex9):
        assert hex9.route is not None and hex9.route.routed_nets()
        assert hex9.pdn_impedance is not None
        assert hex9.ir_drop is not None
        assert hex9.thermal is not None
        assert hex9.fullchip.total_power_mw > 0

    def test_table4_row_complete(self, hex9):
        row = hex9.table4_row()
        for key in ("signal_layers", "total_wl_mm", "via_usage"):
            assert key in row

    def test_deterministic(self, hex9):
        again = run_design("glass_25d", scale=SCALE, seed=7,
                           num_chiplets=9, arrangement="hexagonal",
                           with_eyes=False, with_thermal=True,
                           use_cache=False)
        assert canonical_result_bytes(again) == canonical_result_bytes(hex9)

    def test_flow_task_roundtrip_runs_nchiplet(self):
        task = FlowTaskSpec(design="glass_25d", scale=SCALE, seed=7,
                            with_eyes=False, with_thermal=False,
                            num_chiplets=3, arrangement="row")
        assert FlowTaskSpec.from_dict(task.to_dict()) == task
        out = run_flow_task(task, use_cache=False)
        assert out.ok, out.error_message
        assert out.result.num_chiplets == 3
        assert len(out.result.placement.dies) == 3

    def test_stacked_arrangement_embeds(self):
        result = run_design("glass_3d", scale=SCALE, seed=7,
                            num_chiplets=4, arrangement="stacked",
                            with_eyes=False, with_thermal=False,
                            use_cache=False)
        levels = {d.level for d in result.placement.dies}
        assert levels == {"top", "embedded"}

    def test_tsv_stack_collapses_to_column(self):
        result = run_design("silicon_3d", scale=SCALE, seed=7,
                            num_chiplets=4, arrangement="grid",
                            with_eyes=False, with_thermal=False,
                            use_cache=False)
        assert result.route is None  # no interposer to route
        assert len({d.level for d in result.placement.dies}) == 4


class TestTopologyValidation:
    def test_run_design_rejects_bad_count(self):
        with pytest.raises(ValueError, match="num_chiplets"):
            run_design("glass_25d", scale=SCALE, num_chiplets=1)

    def test_run_design_rejects_bad_arrangement(self):
        with pytest.raises(ValueError, match="arrangement"):
            run_design("glass_25d", scale=SCALE, arrangement="ring")

    def test_task_spec_rejects_bad_topology(self):
        with pytest.raises(ValueError):
            FlowTaskSpec(design="glass_25d", num_chiplets=65)
        with pytest.raises(ValueError):
            FlowTaskSpec.from_dict({"design": "glass_25d",
                                    "arrangement": "ring"})

    def test_stacked_needs_cavity_interposer(self):
        with pytest.raises(ValueError, match="embed"):
            run_design("silicon_25d", scale=SCALE, num_chiplets=4,
                       arrangement="stacked", with_eyes=False,
                       with_thermal=False, use_cache=False)
