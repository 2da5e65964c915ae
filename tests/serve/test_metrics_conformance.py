"""Prometheus exposition conformance for the full ``/metrics`` payload.

``test_server.py`` checks that known families appear and lines match the
sample grammar; this module audits the exposition *as a whole* the way a
strict scraper would: every sample belongs to exactly one announced
family, every family announces HELP and TYPE exactly once, histogram
buckets are cumulative-monotone and end at ``+Inf``, and metric names
follow the unit-suffix conventions (``_total`` for counters, base units
like ``_seconds`` — no ``_ms``/``_mb``).
"""

import http.client
import json
import re

import pytest

from repro.core import JSRevealer, JSRevealerConfig
from repro.datasets import experiment_split
from repro.serve import BackgroundServer, ServeConfig

NAME = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
NUMBER = r"-?[0-9.]+(?:e-?[0-9]+)?|\+Inf|NaN"
SAMPLE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?:\{(?P<labels>[^}]*)\})? (?P<value>" + NUMBER + r")"
    # OpenMetrics-style exemplar annotation (histogram bucket lines only —
    # enforced below, not by the grammar).
    r'(?P<exemplar> # \{trace_id="[0-9a-f]+"\} (?:' + NUMBER + r"))?$"
)


@pytest.fixture(scope="module")
def exposition():
    """One /v1/metrics payload from a server that has seen real traffic."""
    split = experiment_split(seed=7, pretrain_per_class=6, train_per_class=12, test_per_class=8)
    det = JSRevealer(JSRevealerConfig(embed_dim=16, pretrain_epochs=3, k_benign=4, k_malicious=4, seed=7))
    det.pretrain(split.pretrain.sources, split.pretrain.labels)
    det.fit(split.train.sources, split.train.labels)
    with BackgroundServer(det, ServeConfig(port=0)) as background:
        def request(method, path, payload=None):
            connection = http.client.HTTPConnection(background.host, background.port, timeout=30)
            body = json.dumps(payload) if payload is not None else None
            connection.request(method, path, body=body,
                               headers={"Content-Type": "application/json"} if body else {})
            response = connection.getresponse()
            data = response.read()
            connection.close()
            return data

        # Drive every subsystem so all families render with samples.
        request("POST", "/v1/scan", {"source": split.test.sources[0], "name": "m0"})
        request("POST", "/v1/scan/batch", {"scripts": split.test.sources[1:3]})
        request("POST", "/v1/scan", {"source": 'var u = "h" + "i";\nfetch(u);\n',
                                     "name": "ob0", "deobfuscate": True})
        request("POST", "/v1/scan", {"source": "greet(user);\n",
                                     "name": "cl0", "deobfuscate": True})
        request("POST", "/v1/analyze", {"source": "eval('x');"})
        # A real taint flow (decode source → eval sink) so the dataflow
        # histogram and the flow-rule hit counters carry samples.
        request("POST", "/v1/analyze",
                {"source": "var p = atob(window.name);\neval(p);\n"})
        request("POST", "/v1/analyze",
                {"source": 'var u = "h" + "i";\neval(u);\n', "deobfuscate": True})
        request("GET", "/v1/healthz")
        request("GET", "/v1/nope")
        text = request("GET", "/v1/metrics").decode("utf-8")
    return text


def parse(text):
    """(help, type, samples-by-family) with structural validation."""
    helps: dict[str, str] = {}
    types: dict[str, str] = {}
    samples: dict[str, list] = {}
    for line in text.splitlines():
        if not line:
            continue
        if line.startswith("# HELP "):
            _, _, rest = line.partition("# HELP ")
            name, _, docstring = rest.partition(" ")
            assert name not in helps, f"duplicate HELP for {name}"
            helps[name] = docstring
        elif line.startswith("# TYPE "):
            _, _, rest = line.partition("# TYPE ")
            name, _, kind = rest.partition(" ")
            assert name not in types, f"duplicate TYPE for {name}"
            assert kind in ("counter", "gauge", "histogram"), (name, kind)
            types[name] = kind
        elif line.startswith("#"):
            continue
        else:
            match = SAMPLE.match(line)
            assert match, f"unparsable sample line: {line!r}"
            sample_name = match.group("name")
            if match.group("exemplar"):
                assert sample_name.endswith("_bucket"), (
                    f"exemplar on a non-bucket sample: {line!r}"
                )
            family = re.sub(r"_(bucket|sum|count)$", "", sample_name)
            family = family if family in types else sample_name
            samples.setdefault(family, []).append(
                (sample_name, match.group("labels") or "", match.group("value"))
            )
    return helps, types, samples


class TestExposition:
    def test_every_family_announced_exactly_once(self, exposition):
        helps, types, samples = parse(exposition)
        assert set(helps) == set(types), "HELP/TYPE must pair up"
        for family in samples:
            assert family in types, f"samples for unannounced family {family}"

    def test_no_duplicate_samples(self, exposition):
        _, _, samples = parse(exposition)
        for family, rows in samples.items():
            seen = [(name, labels) for name, labels, _ in rows]
            assert len(seen) == len(set(seen)), f"duplicate sample in {family}"

    def test_metric_names_well_formed_with_repro_prefix(self, exposition):
        _, types, _ = parse(exposition)
        for name in types:
            assert NAME.match(name), name
            assert name.startswith("repro_"), name

    def test_unit_suffix_conventions(self, exposition):
        _, types, _ = parse(exposition)
        for name, kind in types.items():
            if kind == "counter":
                assert name.endswith("_total"), f"counter {name} must end in _total"
            else:
                assert not name.endswith("_total"), f"{kind} {name} must not end in _total"
            # Base units only: milliseconds/megabytes never appear in names.
            for bad in ("_ms", "_millis", "_mb", "_kb"):
                assert not name.endswith(bad), f"{name} uses non-base unit {bad}"

    def test_histograms_complete_and_monotone(self, exposition):
        _, types, samples = parse(exposition)
        for family, kind in types.items():
            if kind != "histogram":
                continue
            rows = samples.get(family, [])
            if not rows:
                continue
            # Group bucket series by their non-"le" labels (histograms can
            # be labeled per stage, per cause, …).
            series: dict[str, list] = {}
            sums: dict[str, float] = {}
            counts: dict[str, float] = {}
            for name, labels, value in rows:
                stripped = ",".join(
                    part for part in labels.split(",") if part and not part.startswith("le=")
                )
                if name.endswith("_bucket"):
                    le = next(p for p in labels.split(",") if p.startswith("le="))
                    bound = le.split("=", 1)[1].strip('"')
                    series.setdefault(stripped, []).append(
                        (float("inf") if bound == "+Inf" else float(bound), float(value))
                    )
                elif name.endswith("_sum"):
                    sums[stripped] = float(value)
                elif name.endswith("_count"):
                    counts[stripped] = float(value)
            for key, buckets in series.items():
                buckets.sort(key=lambda pair: pair[0])
                assert buckets[-1][0] == float("inf"), f"{family}{{{key}}} missing +Inf"
                values = [count for _, count in buckets]
                assert values == sorted(values), f"{family}{{{key}}} buckets not cumulative"
                assert key in sums and key in counts, f"{family}{{{key}}} missing _sum/_count"
                assert buckets[-1][1] == counts[key], f"{family}{{{key}}} +Inf != _count"

    def test_build_info_and_uptime_present(self, exposition):
        _, types, samples = parse(exposition)
        assert types.get("repro_build_info") == "gauge"
        build_rows = samples["repro_build_info"]
        assert len(build_rows) == 1
        _, labels, value = build_rows[0]
        assert "version=" in labels and "python=" in labels
        assert value == "1"
        assert types.get("repro_uptime_seconds") == "gauge"
        uptime = float(samples["repro_uptime_seconds"][0][2])
        assert uptime >= 0

    def test_renamed_size_histograms_carry_unit_suffix(self, exposition):
        _, types, _ = parse(exposition)
        assert "repro_serve_batch_size_scripts" in types
        assert "repro_serve_batch_size" not in types


class TestDeobfuscateFamilies:
    """The deobfuscation pre-pass pre-registers its families at server
    boot, so they are announced (and conformance-audited above) even
    before the first flagged request — and carry real samples after."""

    def test_families_announced_with_expected_types(self, exposition):
        _, types, _ = parse(exposition)
        assert types.get("repro_deobfuscate_scripts_total") == "counter"
        assert types.get("repro_deobfuscate_rewrites_total") == "counter"
        assert types.get("repro_deobfuscate_forced_exec_total") == "counter"
        assert types.get("repro_deobfuscate_fixpoint_iterations") == "histogram"

    def test_flagged_traffic_lands_in_result_labels(self, exposition):
        _, _, samples = parse(exposition)
        rows = {labels: float(value)
                for _, labels, value in samples["repro_deobfuscate_scripts_total"]}
        assert rows.get('result="changed"', 0) >= 1
        assert rows.get('result="unchanged"', 0) >= 1

    def test_rewrite_stages_preregistered(self, exposition):
        _, _, samples = parse(exposition)
        stages = {labels for _, labels, _ in samples["repro_deobfuscate_rewrites_total"]}
        assert 'stage="fold"' in stages
        assert 'stage="string_array"' in stages
        assert 'stage="forced_exec"' in stages


class TestDataflowFamilies:
    """The taint-flow engine's observability: the dataflow latency
    histogram is announced from boot, and every flow rule's hit counter
    is pre-registered at zero so dashboards can alert on first fire."""

    FLOW_RULES = (
        "decode-chain",
        "flow-decode-to-timer",
        "flow-decode-to-write",
        "flow-hexsoup-to-sink",
        "flow-location-to-eval",
        "flow-xhr-to-eval",
        "flow-tainted-innerhtml",
        "flow-tainted-src",
        "flow-tainted-dispatch",
    )

    def test_dataflow_histogram_announced(self, exposition):
        _, types, _ = parse(exposition)
        assert types.get("repro_analysis_dataflow_seconds") == "histogram"

    def test_dataflow_histogram_observed_analyzed_scripts(self, exposition):
        _, _, samples = parse(exposition)
        counts = {name: float(value)
                  for name, labels, value in samples["repro_analysis_dataflow_seconds"]
                  if name.endswith("_count")}
        assert counts and all(v >= 1 for v in counts.values())

    def test_every_flow_rule_preregistered(self, exposition):
        _, _, samples = parse(exposition)
        labels = {labels for _, labels, _ in samples["repro_analysis_findings_total"]}
        for rule_id in self.FLOW_RULES:
            assert f'rule="{rule_id}"' in labels, f"{rule_id} not pre-registered"

    def test_flow_hit_lands_in_rule_counter(self, exposition):
        _, _, samples = parse(exposition)
        rows = {labels: float(value)
                for _, labels, value in samples["repro_analysis_findings_total"]}
        assert rows.get('rule="decode-chain"', 0) >= 1


class TestAggregatedExposition:
    """The federated view must satisfy the same conformance rules as a
    single daemon's exposition — a strict scraper can't tell whether it
    is talking to one process or a merged fleet.  Two "shards" are
    simulated by parsing the real server exposition twice, which also
    pins the merge arithmetic: every summed histogram bucket must carry
    exactly the sum of the per-shard cumulative counts."""

    @pytest.fixture(scope="class")
    def aggregated(self, exposition):
        from repro.obs import FleetMetrics, parse_exposition

        fleet = FleetMetrics()
        fleet.update("shard-0", parse_exposition(exposition))
        fleet.update("shard-1", parse_exposition(exposition))
        return fleet.render("sum"), fleet.render("by-shard")

    def test_summed_view_is_conformant(self, aggregated):
        summed, _ = aggregated
        helps, types, samples = parse(summed)
        assert set(helps) <= set(types)
        for family in samples:
            assert family in types, f"samples for unannounced family {family}"

    def test_by_shard_view_labels_every_sample(self, aggregated):
        _, by_shard = aggregated
        _, types, samples = parse(by_shard)
        for family, rows in samples.items():
            for _name, labels, _value in rows:
                assert 'shard="shard-' in labels, f"{family} sample missing shard label"

    def test_exemplar_syntax_parses_in_aggregate(self, exposition, aggregated):
        from repro.obs import parse_exposition

        summed, _ = aggregated
        # parse() above already asserts every line matches the exemplar-aware
        # grammar; the structured parser must agree with itself round-trip.
        families = parse_exposition(summed)
        assert families, "aggregated exposition parsed to nothing"
        if " # {" in exposition:  # sampled traces landed an exemplar
            assert " # {" in summed, "exemplar lost in the merge"

    def test_merged_bucket_counts_equal_per_shard_sums(self, exposition, aggregated):
        from repro.obs import parse_exposition

        summed, _ = aggregated
        single = parse_exposition(exposition)
        merged = parse_exposition(summed)
        checked = 0
        for name, family in single.items():
            if family.kind != "histogram":
                continue
            for sample in family.samples:
                if not sample.name.endswith("_bucket"):
                    continue
                merged_value = merged[name].value(labels=sample.labels, suffix="_bucket")
                assert merged_value == 2 * sample.value, (name, sample.labels)
                checked += 1
        assert checked > 0, "no histogram buckets audited"

    def test_summed_histograms_stay_cumulative(self, aggregated):
        summed, _ = aggregated
        _, types, samples = parse(summed)
        audited = 0
        for family, kind in types.items():
            if kind != "histogram":
                continue
            for name, labels, value in samples.get(family, []):
                if name.endswith("_count"):
                    audited += 1
        assert audited > 0
        # Full monotonicity/+Inf structure is asserted by reusing the
        # single-exposition audit on the merged text.
        TestExposition().test_histograms_complete_and_monotone(summed)
