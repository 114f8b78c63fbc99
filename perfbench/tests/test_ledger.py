"""Percentiles with sample counts, and the base of every ratio."""

import pytest

import ledger
import run
import workloads
from ledger import Ledger, layer_metrics
from repro.obs.metrics import Histogram


def test_nearest_rank_reports_samples_and_beyond():
    xs = [float(i) for i in range(1, 101)]
    p = ledger.nearest_rank(xs, 0.99)
    assert (p.value, p.samples, p.beyond) == (99.0, 100, 1)
    p = ledger.nearest_rank(xs, 0.50)
    assert (p.value, p.samples, p.beyond) == (50.0, 100, 50)
    assert ledger.nearest_rank([7.0], 0.99) == ledger.Percentile(7.0, 1, 0)
    with pytest.raises(ValueError):
        ledger.nearest_rank([], 0.5)


def test_delay_percentiles_censor_p50_and_keep_p99_delivered():
    delays = [0.010 * i for i in range(1, 91)]  # 90 delivered
    p50, p99 = ledger.delay_percentiles(delays, missing=10)
    assert (p50.samples, p99.samples) == (100, 90)
    assert p50.value == pytest.approx(0.50)  # 50th of 100, censored tail above
    assert p99.value == pytest.approx(0.90)  # top of the delivered only
    _, p99_lossy = ledger.delay_percentiles(delays, missing=60)
    assert p99_lossy.value < ledger.CENSOR_S


def test_histogram_quantile_tracks_the_samples():
    h = Histogram("d")
    values = [0.001 * (1 + i % 97) for i in range(5000)]
    h.record_many(values + [1.0] * 100)  # 100 censored
    state = h.state_dict()
    xs = sorted(values)
    p50 = ledger.histogram_quantile(state, 0.5)
    assert p50.samples == 5100 and p50.beyond == 2550
    assert p50.value == pytest.approx(sorted(xs + [1.0] * 100)[2549], rel=0.03)
    p99 = ledger.histogram_quantile(state, 0.99, count=5000)
    assert p99.samples == 5000 and p99.beyond == 50
    assert p99.value == pytest.approx(xs[4949], rel=0.03)
    assert p99.value < 1.0


def test_per_packet_and_per_call_bases():
    L = Ledger(stats={
        ("emulation.link", "send"): [300, 0.3, 0.3, 0, 0],
        ("emulation.link", "dispatch"): [50, 0.1, 0.05, 0, 0],
        ("emulation.events", "dispatch"): [50, 0.1, 0.1, 0, 0],
        ("quic.ack", "build_ack"): [40, 0.004, 0.002, 0, 0],
        ("core.recovery", "plan_recovery"): [20, 0.001, 0.001, 0, 0],
        ("transport.base", "send_app_packet"): [200, 0.02, 0.01, 0, 0],
    }, counters={"ack.frames": 30, "ack.ranges": 90, "recovery.coded_plans": 5,
                 "link.enqueued": 1000, "link.dropped": 25},
        app_pkts=200)
    m = layer_metrics(L)
    assert m["emulation.link.sends_per_pkt"] == 300 / 200
    assert m["emulation.events.dispatches_per_pkt"] == 100 / 200
    assert m["emulation.link.self_us_per_pkt"] == pytest.approx((0.3 + 0.05) * 1e6 / 200)
    assert m["emulation.link.drop_ratio"] == 25 / 1000
    assert m["quic.ack.builds_per_pkt"] == 40 / 200
    assert m["quic.ack.us_per_build"] == pytest.approx(0.004 * 1e6 / 40)
    assert m["quic.ack.ranges_per_ack"] == 90 / 30  # None results excluded
    assert m["core.recovery.plans_per_pkt"] == 20 / 200
    assert m["core.recovery.sent_plan_ratio"] == 5 / 20
    assert m["transport.base.send_us_per_pkt"] == pytest.approx(0.02 * 1e6 / 200)


def test_coder_fleet_and_trace_bases():
    L = Ledger(stats={
        ("cloud.nat", "translate"): [8000, 1.0, 0.5, 0, 0],
        ("cloud.nat", "expire_idle"): [100, 2.0, 2.0, 0, 0],
        ("fleet", "plan_fleet"): [2, 4.0, 0.4, 0, 0],
        ("fleet", "simulate_vehicle"): [2000, 1.0, 1.0, 0, 0],
        ("obs.aggregate", "merge"): [2000, 0.05, 0.05, 0, 0],
        ("obs.aggregate", "from_state"): [2000, 0.05, 0.05, 0, 0],
    }, counters={"nat.scanned": 200000, "nat.evicted": 50,
                 "decode.coded": 40, "decode.dependent": 10, "gf.bytes": 4000},
        app_pkts=100, vehicles=2000, sessions=2, traced_wall=10.0, untraced_wall=8.0)
    m = layer_metrics(L)
    assert m["cloud.nat.translates_per_vehicle"] == 8000 / 2000
    assert m["cloud.nat.entries_scanned_per_expire"] == 200000 / 100
    assert m["cloud.nat.evict_yield"] == 50 / 200000
    assert m["cloud.nat.self_s"] == pytest.approx(2.5 / 2)  # per fleet run
    assert m["fleet.plan_s"] == 2.0
    assert m["fleet.vehicle_ms"] == pytest.approx(0.5)
    assert m["obs.aggregate.merge_us_per_vehicle"] == pytest.approx(0.1 * 1e6 / 2000)
    assert m["core.rlnc.useful_coded_ratio"] == 30 / 40
    assert m["core.gf256.bytes_per_pkt"] == 4000 / 100
    assert m["trace.overhead_ratio"] == 10.0 / 8.0
    assert m["trace.unattributed_share"] == pytest.approx((10.0 - 4.0) / 10.0)


def test_empty_bases_read_zero():
    m = layer_metrics(Ledger())
    assert all(v == 0.0 for v in m.values())


def test_benchmark_json_names_what_the_code_computes():
    spec = run.SPEC
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [m["name"] for m in spec["per_layer"]] == list(ledger.PER_LAYER)
    p = ledger.Percentile(0.05, 100, 1)
    op = workloads.OpResult(0, 1.0, 100, 1, 90, "d", p50=p, p99=p, avg_fps=30.0,
                            stall_ratio=0.0, ssim=0.9, first_tx_bytes=1000)
    values, _notes = run.end_to_end([op], [op], 0.2, 1.0, ledger)
    assert list(values) == [m["name"] for m in spec["end_to_end"]]
    assert all(v > 0 for v in values.values())


def test_host_times_are_scaled_to_the_reference_speed():
    p = ledger.Percentile(0.05, 100, 1)
    op = workloads.OpResult(0, 2.0, 100, 1, 90, "d", p50=p, p99=p, first_tx_bytes=1000)
    op.host_scale = 0.5  # the machine ran at half the reference speed
    values, _notes = run.end_to_end([op], [op], 0.2, 1.0, ledger)
    assert values["app_pkts_per_s"] == 100 / (2.0 * 0.5)
    assert values["vehicles_per_s"] == 1 / (2.0 * 0.5)
