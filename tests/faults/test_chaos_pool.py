"""Chaos tests: real workers, real kills, real deadlines.

The acceptance scenario of the isolation layer: a batch containing a
hanging script, an allocation bomb, and two crashers completes; every
poison script is quarantined under its correct cause; every other verdict
is byte-identical to a fault-free scan; and re-scanning skips the poison
entirely via the journal.
"""

import json
import os
import pathlib
import signal
import subprocess
import sys

import numpy as np
import pytest

import repro
from repro.core import load_detector, save_detector
from repro.faults import (
    CAUSE_CRASHED,
    CAUSE_OOM,
    CAUSE_TIMEOUT,
    IsolatedPool,
    QuarantineJournal,
    ScanLimits,
    Task,
)
from repro.obs import MetricsRegistry
from repro.pipeline import BatchScanner

HANG = "/* @repro-fault:hang */ var a = 1;"
ALLOCBOMB = "/* @repro-fault:allocbomb */ var b = 2;"
EXIT137 = "/* @repro-fault:exit137 */ var c = 3;"
RAISE = "/* @repro-fault:raise */ var d = 4;"

LIMITS = ScanLimits(timeout_s=3.0, max_rss_mb=256)

#: Scans stdin's JSON list of sources with two workers and no limits, and
#: prints what the parent test compares against an in-process scan.
POOL_DEATH_CHILD = """
import json, sys
from repro.core import load_detector
from repro.pipeline import BatchScanner

with BatchScanner(load_detector(sys.argv[1]), n_workers=2) as scanner:
    report = scanner.scan(json.load(sys.stdin))
print(json.dumps({
    "workers_used": report.workers_used,
    "statuses": [r.status for r in report.results],
    "labels": report.label_array.tolist(),
    "path_counts": [r.path_count for r in report.results],
    "proba": report.probability_matrix.tobytes().hex(),
}))
"""


@pytest.fixture(scope="module")
def clean_report(detector, split):
    return BatchScanner(detector, n_workers=1).scan(split.test.sources[:4])


class TestIsolatedPoolDirect:
    """Pool-level behavior, analyze-only tasks (no model needed).

    Markers here carry the ``@analysis`` stage scope because analyze-kind
    tasks only fire analysis-stage faults.
    """

    def test_deadline_kill_is_classified_timeout(self, inject):
        source = "/* @repro-fault:hang@analysis */ var a = 1;"
        with IsolatedPool(None, limits=ScanLimits(timeout_s=1.0), n_workers=1) as pool:
            [outcome] = pool.run([Task(kind="analyze", index=0, source=source)])
        assert not outcome.ok
        assert outcome.cause == CAUSE_TIMEOUT
        assert "deadline" in outcome.detail

    def test_sigkill_style_death_is_classified_crashed(self, inject):
        source = "/* @repro-fault:exit137@analysis */ var c = 3;"
        with IsolatedPool(None, limits=ScanLimits(timeout_s=30.0), n_workers=1) as pool:
            [outcome] = pool.run([Task(kind="analyze", index=0, source=source)])
        assert not outcome.ok
        assert outcome.cause == CAUSE_CRASHED
        assert "137" in outcome.detail

    def test_pool_survives_mixed_batch_and_keeps_order(self, inject):
        clean = "var ok = eval('1');"
        tasks = [
            Task(kind="analyze", index=0, source=clean),
            Task(kind="analyze", index=1, source="/* @repro-fault:exit137@analysis */ var c;"),
            Task(kind="analyze", index=2, source=clean),
            Task(kind="analyze", index=3, source="/* @repro-fault:raise@analysis */ var d;"),
        ]
        with IsolatedPool(None, limits=ScanLimits(timeout_s=30.0), n_workers=2) as pool:
            outcomes = pool.run(tasks)
            assert [o.index for o in outcomes] == [0, 1, 2, 3]
            assert outcomes[0].ok and outcomes[2].ok
            assert not outcomes[1].ok and not outcomes[3].ok
            assert pool.workers_lost >= 1
            # The pool is still serviceable after burying workers.
            [again] = pool.run([Task(kind="analyze", index=9, source=clean)])
            assert again.ok

    def test_markers_are_inert_without_the_env_flag(self, monkeypatch):
        monkeypatch.delenv("REPRO_FAULT_INJECT", raising=False)
        source = "/* @repro-fault:raise@analysis */ var d = 4;"
        with IsolatedPool(None, limits=ScanLimits(timeout_s=5.0), n_workers=1) as pool:
            [outcome] = pool.run([Task(kind="analyze", index=0, source=source)])
        assert outcome.ok


class TestScannerChaos:
    """The ISSUE acceptance scenario, end to end through BatchScanner."""

    def test_hostile_batch_completes_with_correct_causes(
        self, detector, split, clean_report, inject
    ):
        sources = list(split.test.sources[:4]) + [HANG, ALLOCBOMB, EXIT137, RAISE]
        journal = QuarantineJournal()
        metrics = MetricsRegistry()
        scanner = BatchScanner(
            detector, n_workers=2, limits=LIMITS, quarantine=journal, metrics=metrics
        )
        report = scanner.scan(sources)

        statuses = [r.status for r in report.results]
        assert statuses[:4] == ["ok"] * 4
        assert statuses[4:] == ["timeout", "oom", "crashed", "crashed"]
        assert report.fault_count == 4
        assert len(journal) == 4
        assert {e.cause for e in journal.entries()} == {CAUSE_TIMEOUT, CAUSE_OOM, CAUSE_CRASHED}

        # Every non-faulted verdict is byte-identical to a fault-free scan.
        for clean, hostile in zip(clean_report.results, report.results[:4]):
            assert clean.label == hostile.label
            assert clean.probability == hostile.probability
            assert clean.path_count == hostile.path_count
        assert np.array_equal(
            clean_report.probability_matrix, report.probability_matrix[:4]
        )

        # Faulted scripts got a degraded triage-only verdict, not silence.
        for result in report.results[4:]:
            assert result.degraded
            assert result.analysis is not None
            assert result.fault["cause"] == result.status
            assert 0.0 <= result.probability <= 1.0

        text = metrics.render()
        assert 'repro_scan_failures_total{cause="timeout"} 1' in text
        assert 'repro_scan_failures_total{cause="oom"} 1' in text
        assert 'repro_scan_failures_total{cause="crashed"} 2' in text

    def test_rescan_skips_known_poison(self, detector, inject):
        journal = QuarantineJournal()
        scanner = BatchScanner(detector, n_workers=1, limits=LIMITS, quarantine=journal)
        first = scanner.scan([EXIT137])
        assert first.results[0].status == "crashed"
        assert "known" not in (first.results[0].fault or {})

        second = scanner.scan([EXIT137])
        assert second.results[0].status == "crashed"
        assert second.results[0].fault["known"] is True
        assert len(journal) == 1

    def test_oom_script_reports_rusage(self, detector, inject):
        journal = QuarantineJournal()
        scanner = BatchScanner(detector, n_workers=1, limits=LIMITS, quarantine=journal)
        report = scanner.scan([ALLOCBOMB])
        assert report.results[0].status == "oom"
        entry = journal.entries()[0]
        assert entry.rusage is not None and entry.rusage["max_rss_kb"] > 0

    def test_limits_without_faults_match_plain_scan(self, detector, split, clean_report):
        # Isolation on, chaos seam dormant: verdicts are still byte-identical.
        scanner = BatchScanner(detector, n_workers=2, limits=LIMITS)
        report = scanner.scan(list(split.test.sources[:4]))
        assert [r.status for r in report.results] == ["ok"] * 4
        assert report.fault_count == 0
        for clean, isolated in zip(clean_report.results, report.results):
            assert clean.label == isolated.label
            assert clean.probability == isolated.probability

    def test_dying_worker_without_limits_does_not_stall_the_batch(
        self, detector, split, tmp_path, inject
    ):
        # A worker lost mid-script must cost that script an in-process
        # re-run, not the batch: the scan runs in a child process so a
        # hang fails this test instead of the suite.
        sources = list(split.test.sources[:3]) + [EXIT137, RAISE]
        save_detector(detector, tmp_path / "model")
        env = dict(os.environ, PYTHONPATH=str(pathlib.Path(repro.__file__).parents[1]))
        child = subprocess.Popen(
            [sys.executable, "-c", POOL_DEATH_CHILD, str(tmp_path / "model")],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            text=True, env=env, start_new_session=True,
        )
        try:
            out, err = child.communicate(json.dumps(sources), timeout=90)
        except subprocess.TimeoutExpired:
            os.killpg(child.pid, signal.SIGKILL)
            child.communicate()
            pytest.fail("a scan with a dying worker never returned")
        assert child.returncode == 0, err
        assert "scanning sequentially" not in err
        pooled = json.loads(out)
        assert pooled["workers_used"] == 2
        assert pooled["statuses"] == ["ok"] * 5

        reference = BatchScanner(load_detector(tmp_path / "model"), n_workers=1).scan(sources)
        assert pooled["labels"] == reference.label_array.tolist()
        assert pooled["path_counts"] == [r.path_count for r in reference.results]
        assert pooled["proba"] == reference.probability_matrix.tobytes().hex()

    def test_result_json_round_trip_keeps_fault_fields(self, detector, inject):
        from repro.pipeline import ScanReport

        scanner = BatchScanner(detector, n_workers=1, limits=LIMITS)
        report = scanner.scan([HANG])
        reloaded = ScanReport.from_json(report.to_json())
        result = reloaded.results[0]
        assert result.status == "timeout"
        assert result.degraded == report.results[0].degraded
        assert result.fault["cause"] == "timeout"
        assert reloaded.fault_count == 1
