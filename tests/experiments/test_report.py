from repro.experiments.report import (
    render_bandwidth_table,
    render_breakdown_table,
    shape_checks_bandwidth,
)


BW_DATA = {
    "8_4M": {"BW Cache Disable": 2.0, "BW Cache Enable": 1.5, "TBW Cache Enable": 3.0},
    "64_4M": {"BW Cache Disable": 2.0, "BW Cache Enable": 20.0, "TBW Cache Enable": 20.5},
}

BD_DATA = {
    "8_4M": {"write": 1.5, "comm": 0.7, "not_hidden_sync": 9.0},
    "64_4M": {"write": 0.4, "comm": 0.2},
}


class TestRendering:
    def test_bandwidth_table_contains_all_cells(self):
        out = render_bandwidth_table("Fig 4", BW_DATA)
        assert "Fig 4" in out
        assert "8_4M" in out and "64_4M" in out
        assert "20.00" in out and "1.50" in out
        assert "GiB/s" in out

    def test_breakdown_table_orders_phases(self):
        out = render_breakdown_table("Fig 5", BD_DATA)
        assert out.index("comm") < out.index("write") < out.index("not_hidden_sync")
        assert "9.000" in out

    def test_breakdown_missing_phase_rendered_zero(self):
        out = render_breakdown_table("Fig 5", BD_DATA)
        lines = [l for l in out.splitlines() if l.startswith("64_4M")]
        assert "0.000" in lines[0]  # 64_4M has no not_hidden_sync


class TestShapeChecks:
    def test_paper_shapes_pass_on_paper_like_data(self):
        checks = shape_checks_bandwidth(BW_DATA)
        assert all(checks.values()), checks

    def test_detects_missing_speedup(self):
        bad = {
            "64_4M": {
                "BW Cache Disable": 2.0,
                "BW Cache Enable": 2.1,
                "TBW Cache Enable": 2.2,
            },
            "8_4M": {
                "BW Cache Disable": 2.0,
                "BW Cache Enable": 1.9,
                "TBW Cache Enable": 2.0,
            },
        }
        checks = shape_checks_bandwidth(bad)
        assert not checks["cache_speedup_at_16plus_aggregators"]
