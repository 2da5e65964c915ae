"""Scanner integration for taint-flow triage.

The ordering invariant ISSUE 8 pins down: with the pre-pass enabled,
triage analysis must run over the *normalized* text (deobfuscation
strictly precedes analysis), and the findings it produces must carry
both normalized spans and — via the normalization line map — ``raw_line``
spans pointing into the script the caller actually submitted.
"""

from pathlib import Path

import pytest

from repro.analysis import Analyzer
from repro.core import JSRevealer, JSRevealerConfig
from repro.datasets import experiment_split
from repro.pipeline import BatchScanner

EXAMPLES = Path(__file__).resolve().parents[2] / "examples"

#: An obfuscated decode→eval chain: raw, the decode callee hides behind a
#: computed member key (`window["at" + "ob"]`) that neither the syntactic
#: catalog nor the taint source match can see; constant folding exposes
#: it, so a decisive decode-chain verdict *proves* analysis ran after
#: deobfuscation — and the witness's raw_line spans must still point at
#: the submitted lines.
OBFUSCATED_CHAIN = 'var p = window["at" + "ob"](x);\neval(p);\n'


@pytest.fixture(scope="module")
def detector():
    split = experiment_split(seed=7, pretrain_per_class=6, train_per_class=12, test_per_class=2)
    det = JSRevealer(JSRevealerConfig(embed_dim=16, pretrain_epochs=3, k_benign=4, k_malicious=4, seed=7))
    det.pretrain(split.pretrain.sources, split.pretrain.labels)
    det.fit(split.train.sources, split.train.labels)
    return det


def scan_one(detector, source, deobfuscate=True, **kwargs):
    scanner = BatchScanner(detector, triage=Analyzer(), **kwargs)
    return scanner.scan([source], names=["t.js"], deobfuscate=deobfuscate).results[0]


class TestAnalysisSeesNormalizedText:
    def test_analysis_runs_after_deobfuscation(self, detector):
        """Ordering regression: the sample is decisive only when analysis
        sees the normalized text, so a triage hit proves deobfuscation
        strictly preceded analysis."""
        without = scan_one(detector, OBFUSCATED_CHAIN, deobfuscate=False)
        assert not without.triaged
        result = scan_one(detector, OBFUSCATED_CHAIN)
        assert result.normalization is not None
        assert result.normalization["changed"] is True
        rules = {f["rule_id"] for f in result.analysis["findings"]}
        assert "decode-chain" in rules
        assert result.triaged

    def test_findings_carry_raw_line_spans(self, detector):
        result = scan_one(detector, OBFUSCATED_CHAIN)
        flow = next(
            f for f in result.analysis["findings"] if f["rule_id"] == "decode-chain"
        )
        raw_lines = [hop.get("raw_line") for hop in flow["witness"]]
        assert all(isinstance(line, int) for line in raw_lines)
        # Both span systems present: normalized lines in `line`, raw in
        # `raw_line`, and the raw sink span points at the eval statement.
        assert flow["witness"][-1]["raw_line"] == 2
        assert flow.get("raw_line") == 2

    def test_no_line_map_annotations_without_deobfuscation(self, detector):
        result = scan_one(detector, OBFUSCATED_CHAIN, deobfuscate=False)
        for finding in result.analysis["findings"]:
            assert finding.get("raw_line") is None

    def test_clean_scripts_get_no_raw_spans(self, detector):
        clean = (EXAMPLES / "corpus" / "vendor_0.js").read_text()
        result = scan_one(detector, clean)
        assert result.normalization is None
        if result.analysis:
            for finding in result.analysis.get("findings", []):
                assert finding.get("raw_line") is None

    def test_raw_directive_suppresses_across_normalization(self, detector):
        """Normalization drops the comment carrying the directive; the
        scanner must still honor it (lexed from the raw text, matched on
        raw_line), so the suppressed flow cannot triage the script."""
        suppressed_src = OBFUSCATED_CHAIN.replace(
            "eval(p);", "eval(p); // repro-ignore: decode-chain"
        )
        result = scan_one(detector, suppressed_src)
        rules = {f["rule_id"] for f in result.analysis["findings"]}
        assert "decode-chain" not in rules
        assert {"rule_id": "decode-chain", "line": 2} in result.analysis["suppressed_at"]
        assert not result.triaged


class TestProvenanceCarriesWitness:
    def test_provenance_rules_include_witness_and_spans(self, detector):
        scanner = BatchScanner(detector, triage=Analyzer())
        result = scanner.scan(
            [OBFUSCATED_CHAIN], names=["t.js"], trace=True, deobfuscate=True
        ).results[0]
        provenance = result.trace["provenance"]
        flow_entries = [
            entry for entry in provenance["rules"] if entry.get("witness")
        ]
        assert flow_entries
        entry = next(e for e in flow_entries if e["rule_id"] == "decode-chain")
        assert entry["decisive"] is True
        assert entry["line"] >= 1 and entry["raw_line"] == 2
        hops = entry["witness"]
        assert hops[0]["op"].startswith("source:")
        assert hops[-1]["op"].startswith("sink:")

    def test_obfuscator_io_decisive_via_dispatch_without_prepass(self, detector):
        """The acceptance sample: raw obfuscator.io input triages decisive
        through the dataflow dispatch rule even with the pre-pass off."""
        source = (EXAMPLES / "obfuscated" / "obfuscator_io.js").read_text()
        result = scan_one(detector, source, deobfuscate=False)
        assert result.triaged
        rules = {f["rule_id"] for f in result.analysis["findings"]}
        assert "flow-tainted-dispatch" in rules
