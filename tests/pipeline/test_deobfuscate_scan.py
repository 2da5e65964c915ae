"""Scanner integration for the deobfuscation pre-pass.

The load-bearing invariant: with the pass enabled, a clean script's
verdict is identical to a pass-off scan in every field except measured
wall-clock timings, while an obfuscated script carries a
``normalization`` report in its result, provenance, and trace.
"""

from pathlib import Path

import pytest

from repro.core import JSRevealer, JSRevealerConfig
from repro.datasets import experiment_split
from repro.pipeline import BatchScanner, FeatureCache

EXAMPLES = Path(__file__).resolve().parents[2] / "examples"
OBFUSCATED = (EXAMPLES / "obfuscated" / "obfuscator_io.js").read_text()
CLEAN = (EXAMPLES / "corpus" / "vendor_0.js").read_text()

#: Result fields that measure wall-clock time and so differ between any
#: two runs of the same scan; everything else must match exactly.
TIMING_KEYS = {"stage_ms"}


def strip_timings(result_dict):
    out = {k: v for k, v in result_dict.items() if k not in TIMING_KEYS}
    norm = out.get("normalization")
    if isinstance(norm, dict):
        out["normalization"] = {k: v for k, v in norm.items() if k != "elapsed_ms"}
    return out


@pytest.fixture(scope="module")
def split():
    return experiment_split(seed=7, pretrain_per_class=6, train_per_class=12, test_per_class=8)


@pytest.fixture(scope="module")
def detector(split):
    det = JSRevealer(JSRevealerConfig(embed_dim=16, pretrain_epochs=3, k_benign=4, k_malicious=4, seed=7))
    det.pretrain(split.pretrain.sources, split.pretrain.labels)
    det.fit(split.train.sources, split.train.labels)
    return det


class TestCleanByteIdentity:
    def test_clean_verdicts_identical_with_pass_enabled(self, detector):
        plain = BatchScanner(detector).scan([CLEAN], names=["clean.js"])
        passed = BatchScanner(detector).scan([CLEAN], names=["clean.js"], deobfuscate=True)
        a = strip_timings(plain.results[0].to_dict())
        b = strip_timings(passed.results[0].to_dict())
        assert a == b
        assert passed.results[0].normalization is None

    def test_clean_report_has_no_deobfuscate_stage_time(self, detector):
        passed = BatchScanner(detector).scan([CLEAN], deobfuscate=True)
        assert "deobfuscate" not in passed.results[0].stage_ms


class TestObfuscatedAnnotations:
    def test_normalization_attached_to_result(self, detector):
        report = BatchScanner(detector).scan([OBFUSCATED], names=["obf.js"], deobfuscate=True)
        norm = report.results[0].normalization
        assert norm is not None
        assert norm["changed"] is True
        assert norm["rewrites"].get("string_array", 0) >= 1
        assert report.results[0].to_dict()["normalization"] == norm

    def test_batch_stage_totals_include_deobfuscate(self, detector):
        report = BatchScanner(detector).scan([OBFUSCATED, CLEAN], deobfuscate=True)
        assert "deobfuscate" in report.stage_ms

    def test_pass_off_results_carry_no_normalization(self, detector):
        report = BatchScanner(detector).scan([OBFUSCATED])
        assert report.results[0].normalization is None
        assert "normalization" not in report.results[0].to_dict()

    def test_obfuscated_variants_dedup_to_one_cache_entry(self, detector):
        """Normalization runs before content keying, so two obfuscated
        spellings of one payload share a cache entry."""
        variant_a = 'var u = "h" + "i";\nfetch(u);\n'
        variant_b = 'var u = "\\x68\\x69";\nfetch(u);\n'
        scanner = BatchScanner(detector, cache=FeatureCache(detector.fingerprint()))
        first = scanner.scan([variant_a], deobfuscate=True)
        second = scanner.scan([variant_b], deobfuscate=True)
        assert first.results[0].probability == second.results[0].probability
        assert second.results[0].cache_hit


class TestPerScriptFlags:
    def test_mixed_flags_match_uniform_scans(self, detector):
        # The same obfuscated text both flagged and unflagged: only the
        # flagged copy is normalized, so the two never dedup together.
        sources = [OBFUSCATED, CLEAN, OBFUSCATED, CLEAN]
        names = ["obf-on.js", "clean-off.js", "obf-off.js", "clean-on.js"]
        flags = [True, False, False, True]
        mixed = BatchScanner(detector).scan(sources, names=names, deobfuscate=flags)
        flagged = BatchScanner(detector).scan(sources, names=names, deobfuscate=True)
        unflagged = BatchScanner(detector).scan(sources, names=names)
        for result, flag, on, off in zip(mixed.results, flags, flagged.results, unflagged.results):
            expected = on if flag else off
            assert strip_timings(result.to_dict()) == strip_timings(expected.to_dict()), result.path
            assert list(result.stage_ms) == list(expected.stage_ms), result.path
        assert mixed.results[0].normalization is not None
        assert mixed.results[2].normalization is None
        assert "deobfuscate" in mixed.stage_ms
        none_flagged = BatchScanner(detector).scan(sources, names=names, deobfuscate=[False] * 4)
        assert "deobfuscate" not in none_flagged.stage_ms

    def test_flag_count_must_match_sources(self, detector):
        with pytest.raises(ValueError, match="deobfuscate"):
            BatchScanner(detector).scan([CLEAN, CLEAN], deobfuscate=[True])


class TestTracedScan:
    def test_deobfuscate_span_and_provenance(self, detector):
        report = BatchScanner(detector).scan(
            [OBFUSCATED], names=["obf.js"], trace=True, deobfuscate=True
        )
        trace = report.results[0].trace
        assert trace is not None
        assert trace["provenance"]["normalization"]["changed"] is True

    def test_degraded_normalization_marks_span_error(self, detector, monkeypatch):
        monkeypatch.setenv("REPRO_FAULT_INJECT", "1")
        source = '/* @repro-fault:raise@deobfuscate */\nvar u = "h" + "i";\n'
        report = BatchScanner(detector).scan([source], deobfuscate=True)
        norm = report.results[0].normalization
        assert norm is not None
        assert norm["degraded"] is True
        # The scan itself still completes with a real verdict.
        assert report.results[0].verdict in ("benign", "malicious")
