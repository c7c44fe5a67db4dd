"""Unit tests for repro.vlsi: macro mapping and the end-to-end flow."""

import pytest

from repro.arch.config import config_by_name
from repro.arch.workloads import workload_by_name
from repro.library.sram_compiler import SramCompiler
from repro.vlsi.flow import VlsiFlow
from repro.vlsi.macro_mapping import MacroMapper


@pytest.fixture(scope="module")
def mapper():
    return MacroMapper(SramCompiler())


class TestMacroMapper:
    def test_exact_legal_shape_single_macro(self, mapper):
        mapping = mapper.map(64, 256)
        assert mapping.n_macros == 1
        assert mapping.macro.width == 64
        assert mapping.macro.depth == 256

    def test_width_rounds_up_to_legal(self, mapper):
        mapping = mapper.map(120, 8)  # the C1 meta block
        assert mapping.macro.width == 128
        assert mapping.macro.depth == 16
        assert (mapping.n_row, mapping.n_col) == (1, 1)

    def test_wide_block_tiles_rows(self, mapper):
        mapping = mapper.map(240, 40)  # the C15 meta block
        assert mapping.macro.width == 128
        assert mapping.n_row == 2
        assert mapping.n_col == 1

    def test_deep_block_stacks_columns(self, mapper):
        mapping = mapper.map(64, 3000)
        assert mapping.macro.depth == 1024
        assert mapping.n_col == 3

    def test_macro_bits_cover_block_bits(self, mapper):
        for width, depth in ((120, 8), (240, 40), (22, 64), (64, 256), (48, 32)):
            mapping = mapper.map(width, depth)
            assert mapping.bits >= width * depth

    def test_invalid_shape_rejected(self, mapper):
        with pytest.raises(ValueError):
            mapper.map(0, 8)

    def test_deterministic_rule(self, mapper):
        assert mapper.map(30, 100) == mapper.map(30, 100)


class TestVlsiFlow:
    @pytest.mark.parametrize("bad", ["off", "", 0, True, "/tmp/flow-cache"])
    def test_invalid_disk_cache_rejected_at_construction(self, bad):
        # Used to be accepted and to fail later with AttributeError.
        with pytest.raises(TypeError, match="disk_cache"):
            VlsiFlow(disk_cache=bad)

    def test_disk_cache_choices_accepted(self, tmp_path):
        from repro.dse.cache import FlowDiskCache

        assert VlsiFlow(disk_cache=None).disk_cache is None
        store = FlowDiskCache(str(tmp_path))
        assert VlsiFlow(disk_cache=store).disk_cache is store
        VlsiFlow(disk_cache="auto")

    def test_run_caches(self, flow):
        c1 = config_by_name("C1")
        w = workload_by_name("towers")
        assert flow.run(c1, w) is flow.run(c1, w)

    def test_design_and_netlist_cached(self, flow):
        c1 = config_by_name("C1")
        assert flow.design(c1) is flow.design(c1)
        assert flow.netlist(c1) is flow.netlist(c1)

    def test_result_is_consistent(self, flow):
        res = flow.run(config_by_name("C5"), workload_by_name("median"))
        assert res.power.config_name == "C5"
        assert res.power.workload_name == "median"
        assert res.events.cycles > 0
        assert res.true.cycles > 0

    def test_run_many_cross_product(self, flow):
        configs = [config_by_name("C1"), config_by_name("C2")]
        workloads = [workload_by_name("towers"), workload_by_name("median")]
        results = flow.run_many(configs, workloads)
        assert len(results) == 4

    def test_power_at_scale_monotone(self, flow):
        c2 = config_by_name("C2")
        gemm = workload_by_name("gemm")
        low = flow.power_at_scale(c2, gemm, 0.6).total
        mid = flow.power_at_scale(c2, gemm, 1.0).total
        high = flow.power_at_scale(c2, gemm, 1.4).total
        assert low < mid < high

    def test_events_differ_from_true(self, flow):
        # The perf simulator must not be a perfect oracle.
        res = flow.run(config_by_name("C5"), workload_by_name("qsort"))
        diff = abs(res.events.counts["dcache_misses"] - res.true.events["dcache_misses"])
        assert diff > 0

    def test_fresh_flow_reproduces_results(self):
        a = VlsiFlow().run(config_by_name("C4"), workload_by_name("vvadd"))
        b = VlsiFlow().run(config_by_name("C4"), workload_by_name("vvadd"))
        assert a.power.total == pytest.approx(b.power.total)
        assert a.events.counts == b.events.counts
