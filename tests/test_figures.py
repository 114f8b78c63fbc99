"""Figure harnesses produce the right structures (small-scale runs)."""

import numpy as np
import pytest

from repro.experiments.figures import (
    compare_transports,
    fig3_single_link,
    fig8_frame_timeline,
    fig10a_delay_cdf,
    fig10b_redundancy,
    fig13a_qrlnc_ablation,
    fig13b_loss_detection_ablation,
)

SHORT = 6.0
SEEDS = (0, 1)


@pytest.mark.slow  # four multi-second single-link streams
class TestFig3:
    def test_all_four_configurations(self):
        out = fig3_single_link(duration=SHORT, seed=0)
        assert set(out) == {"LTE-10", "LTE-30", "5G-10", "5G-30"}

    def test_rf_series_present(self):
        out = fig3_single_link(duration=SHORT, seed=0)
        cell = out["5G-30"]
        assert len(cell.rf_times) == len(cell.rsrp_dbm) == len(cell.sinr_db)
        assert len(cell.rf_times) == int(SHORT)

    def test_metrics_sane(self):
        out = fig3_single_link(duration=SHORT, seed=0)
        for cell in out.values():
            assert 0.0 <= cell.loss_rate <= 1.0
            assert cell.delay_p50 <= cell.delay_p99 <= cell.delay_max

    def test_higher_bitrate_no_better(self):
        """30 Mbps over one link cannot beat 10 Mbps on loss (Fig. 3 trend)."""
        out = fig3_single_link(duration=10.0, seed=1)
        # allow small noise but the trend must hold on average across techs
        worse = sum(
            out["%s-30" % tech].loss_rate >= out["%s-10" % tech].loss_rate - 0.02
            for tech in ("LTE", "5G")
        )
        assert worse >= 1


class TestFig8:
    def test_timelines_aligned(self):
        out = fig8_frame_timeline(duration=SHORT, seed=1)
        assert set(out) == {"mpquic", "cellfusion"}
        assert len(out["mpquic"].statuses) == len(out["cellfusion"].statuses)

    def test_status_vocabulary(self):
        out = fig8_frame_timeline(duration=SHORT, seed=1)
        for tl in out.values():
            assert set(tl.statuses) <= {"normal", "corrupt", "missing"}


class TestCompare:
    def test_summary_structure(self):
        res = compare_transports(["cellfusion", "bonding"], duration=SHORT, seeds=SEEDS,
                                 bitrate_mbps=10.0)
        assert set(res.stall) == {"cellfusion", "bonding"}
        assert res.stall["cellfusion"].n == len(SEEDS)

    def test_stall_reduction_helper(self):
        res = compare_transports(["cellfusion", "bonding"], duration=SHORT, seeds=SEEDS,
                                 bitrate_mbps=10.0)
        red = res.stall_reduction_vs("cellfusion", "bonding")
        assert -200.0 <= red <= 100.0


@pytest.mark.slow  # three transports x full delay CDF
class TestFig10:
    def test_delay_cdf_structure(self):
        res = fig10a_delay_cdf(duration=SHORT, seeds=(0,))
        assert set(res.delays) == {"cellfusion", "5G-only", "LTE-only"}
        for arm, pct in res.percentiles.items():
            if pct:
                assert pct["p50"] <= pct["p99"] <= pct["p99.9"]

    def test_redundancy_days(self):
        days = fig10b_redundancy(days=3, duration=4.0)
        assert len(days) == 3
        for _day, ratio in days:
            assert 0.0 <= ratio < 0.25


class TestFig13:
    def test_qrlnc_ablation_structure(self):
        res = fig13a_qrlnc_ablation(duration=SHORT, seeds=(1,))
        assert set(res.metric_a) == {"Q-RLNC", "w/o Q-RLNC"}
        for arm in res.summary.values():
            assert 0.0 <= arm["mean"] <= 1.0

    def test_loss_detection_ablation_structure(self):
        res = fig13b_loss_detection_ablation(duration=SHORT, seeds=(1,))
        assert set(res) == {"qoe-aware", "pto-only", "reduction_pct"}
        for arm in ("qoe-aware", "pto-only"):
            pct = res[arm]
            assert pct["p25"] <= pct["p50"] <= pct["p99"]
