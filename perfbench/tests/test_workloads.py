"""Per-op checks: a doctored result counts as a failed operation."""

import dataclasses
import json
import time

import pytest

import run
import workloads
from repro.scenarios.oracles import evaluate_oracles
from repro.scenarios.zoo import get_scenario


class Verdict:
    def __init__(self, oracle, ok, detail="ok"):
        self.oracle, self.ok, self.detail = oracle, ok, detail


def test_check_op_passes_a_clean_result():
    assert workloads.check_op(100, 100, [Verdict("delivery_floor", True)]) == []


def test_check_op_flags_each_broken_guarantee():
    assert workloads.check_op(100, 101) == ["delivered 101 > sent 100"]
    assert workloads.check_op(0, 0) == ["nothing was sent"]
    assert workloads.check_op(10, 5, terminal_error="wedged") == ["terminal error: wedged"]
    (failure,) = workloads.check_op(10, 5, [Verdict("nat_consistency", False, "2 > 1")])
    assert "nat_consistency" in failure


def test_digest_book_flags_a_mismatch_and_persists(tmp_path):
    path = str(tmp_path / "digests.json")
    book = workloads.DigestBook(path, "code-A")
    assert book.check("w/1/0", "aaaa") is None
    assert book.check("w/1/0", "aaaa") is None
    assert "digest mismatch" in book.check("w/1/0", "bbbb")
    book.save()
    again = workloads.DigestBook(path, "code-A")
    assert "digest mismatch" in again.check("w/1/0", "cccc")
    other_code = workloads.DigestBook(path, "code-B")
    assert other_code.check("w/1/0", "cccc") is None
    other_code.save()  # keeps code-A's record beside its own
    assert "digest mismatch" in workloads.DigestBook(path, "code-A").check("w/1/0", "cccc")
    assert workloads.DigestBook(path, "code-B").check("w/1/0", "cccc") is None


def test_source_key_covers_the_benchmark_modules(tmp_path):
    src, bench = tmp_path / "src", tmp_path / "bench"
    for d in (src, bench, bench / "tests"):
        d.mkdir()
    (src / "a.py").write_text("x = 1\n")
    (bench / "workloads.py").write_text("N = 1\n")
    (bench / "tests" / "test_a.py").write_text("")
    key = workloads.source_key((str(src), str(bench)))
    (bench / "tests" / "test_a.py").write_text("# edited\n")
    assert workloads.source_key((str(src), str(bench))) == key
    (bench / "workloads.py").write_text("N = 2\n")
    assert workloads.source_key((str(src), str(bench))) != key


def short(name, duration):
    return dataclasses.replace(workloads.WORKLOADS[name], duration=duration)


@pytest.fixture
def capture():
    cap = workloads.StreamCapture()
    cap.install()
    yield cap
    cap.uninstall()


def test_stream_session_is_deterministic_and_checked(capture):
    wl = short("clean_4path", 0.5)
    inputs = workloads.make_inputs(wl, 3, 0)
    a = workloads.run_session(wl, 3, 0, inputs, capture, time.perf_counter)
    b = workloads.run_session(wl, 3, 0, inputs, capture, time.perf_counter)
    assert a.failures == [] and a.digest == b.digest
    assert a.sub_seed == workloads.sub_seed(3, 0) and a.vehicles == 1 and a.app_pkts > 0
    assert a.p50.samples == a.app_pkts and a.p99.samples == a.delivered


def test_doctored_soak_report_fails_its_oracles(capture):
    wl = short("brownout_coding", 1.0)
    plan = workloads.make_inputs(wl, 0, 0)
    op = workloads.run_session(wl, 0, 0, plan, capture, time.perf_counter)
    assert op.failures == []
    from repro.faults.soak import run_chaos_soak

    report = run_chaos_soak(0, duration=1.0, plan=plan, sanitize=False)
    report.watchdog_closes = 1  # doctored: the stream watchdog fired
    verdicts = evaluate_oracles(report, plan, get_scenario("brownout_cascade").expectations)
    failures = workloads.check_op(report.packets_sent, report.packets_received, verdicts)
    assert any("no_watchdog_wedge" in f for f in failures)


def test_doctored_digest_counts_as_failed_op(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(run, "OUT", str(tmp_path))
    monkeypatch.setitem(workloads.WORKLOADS, "clean_4path", dataclasses.replace(
        short("clean_4path", 0.5), min_sessions=4))
    assert run.main(["--workload", "clean_4path", "--seed", "5", "--seconds", "0"]) == 0
    capsys.readouterr()
    book_path = tmp_path / "digests.json"
    book = json.loads(book_path.read_text())
    (code,) = book
    key = "clean_4path/0.5/%d" % workloads.sub_seed(5, 1)
    book[code][key] = "0" * 64  # doctored: a different recorded digest
    book_path.write_text(json.dumps(book))
    assert run.main(["--workload", "clean_4path", "--seed", "5", "--seconds", "0"]) == 1
    out = capsys.readouterr().out.strip().splitlines()
    result = json.loads(out[-1])
    assert result["correct"] is False and result["failed"] == 1
    assert result["attempted"] == workloads.WORKLOADS["clean_4path"].min_sessions + 1
    assert result["metrics"]["ok_ops_ratio"]["value"] < 1.0
    assert any("digest mismatch" in line for line in out)
