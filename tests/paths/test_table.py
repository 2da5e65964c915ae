"""The columnar path table: list behaviour, featurizer parity on hand-made
contexts, and no ``PathContext`` built on the untraced scan path."""

import operator

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import JSRevealer, JSRevealerConfig
from repro.dataflow import build_enhanced_ast
from repro.datasets import experiment_split
from repro.jsparser import parse
from repro.paths import NODE_TYPES, PathContext, PathFeaturizer, PathTable, extract_paths
from repro.pipeline import BatchScanner

from . import oracle

SOURCE = "var total = 0; for (var i = 0; i < n; i++) { total += f(i, 'x'); } g(total);"

#: Node types the featurizer counts, plus two it has no column for.
TYPES = st.sampled_from(NODE_TYPES + ("ClassBody", "TemplateElement"))
#: Endpoint values: a small pool, so values repeat, and free text with and
#: without the data-dependency prefix.
VALUES = st.sampled_from(["a", "@dd_int", "@var_str", "this", ""]) | st.builds(
    operator.add, st.sampled_from(["", "@dd_"]), st.text(max_size=3)
)


@st.composite
def contexts(draw):
    nodes = tuple(draw(st.lists(TYPES, min_size=1, max_size=12)))
    arrow = draw(st.integers(0, len(nodes) - 1))
    return PathContext(draw(VALUES), nodes, draw(VALUES), arrow)


@settings(max_examples=200, deadline=None)
@given(st.lists(contexts(), max_size=20))
def test_featurizer_matches_per_path_oracle(paths):
    featurizer = PathFeaturizer()
    matrix = featurizer.transform(paths)
    assert matrix.tobytes() == oracle.featurize_per_path(paths).tobytes()
    if paths:
        assert featurizer.transform_one(paths[0]).tobytes() == matrix[0].tobytes()
    assert list(PathTable.from_contexts(paths)) == paths


class TestSequence:
    @pytest.fixture(scope="class")
    def table(self):
        return extract_paths(SOURCE)

    @pytest.fixture(scope="class")
    def expected(self):
        return oracle.extract_all_pairs(build_enhanced_ast(parse(SOURCE)))

    def test_len_and_iteration(self, table, expected):
        assert len(table) == len(expected) > 10
        assert list(table) == expected
        assert [table[k] for k in range(len(table))] == expected

    def test_negative_indices(self, table, expected):
        assert table[-1] == expected[-1]
        assert table[-len(table)] == expected[0]
        assert table[np.int64(-2)] == expected[-2]

    def test_index_error_past_either_end(self, table):
        for index in (len(table), -len(table) - 1):
            with pytest.raises(IndexError):
                table[index]

    def test_slices_are_lists(self, table, expected):
        assert table[2:5] == expected[2:5]
        assert table[::-3] == expected[::-3]
        assert table[len(table):] == []

    def test_empty_table(self):
        table = extract_paths(";")
        assert len(table) == 0 and not table and list(table) == []
        assert PathFeaturizer().transform(table).shape == (0, PathFeaturizer.feature_dim)

    def test_unrepresentable_arrow_rejected(self):
        with pytest.raises(ValueError):
            PathTable.from_contexts([PathContext("a", ("Identifier", "Literal"), "b", 2)])


@pytest.fixture(scope="module")
def detector():
    split = experiment_split(seed=7, pretrain_per_class=6, train_per_class=12, test_per_class=1)
    det = JSRevealer(JSRevealerConfig(embed_dim=16, pretrain_epochs=2, k_benign=3, k_malicious=3, seed=7))
    det.pretrain(split.pretrain.sources, split.pretrain.labels)
    det.fit(split.train.sources, split.train.labels)
    return det


@pytest.fixture
def built(monkeypatch):
    """The number of ``PathContext`` objects constructed so far."""
    count = [0]
    init = PathContext.__init__

    def counting_init(self, *args, **kwargs):
        count[0] += 1
        init(self, *args, **kwargs)

    monkeypatch.setattr(PathContext, "__init__", counting_init)
    return count


class TestContextsOnDemand:
    """A scan featurizes from columns; contexts exist only for provenance."""

    @pytest.fixture(scope="class")
    def script(self):
        source = oracle.concatenated_script(1024, seed=0)
        assert len(extract_paths(source)) > 300
        return source

    def test_untraced_scan_builds_no_context(self, detector, script, built):
        report = BatchScanner(detector, n_workers=1).scan([script])
        assert report.results[0].path_count > 300
        assert built[0] == 0

    def test_traced_scan_builds_only_reported_paths(self, detector, script, built):
        scanner = BatchScanner(detector, n_workers=1)
        report = scanner.scan([script, script + "\nvar tail = 1;"], trace=True)
        top_paths = [result.trace["provenance"]["top_paths"] for result in report.results]
        assert [len(paths) for paths in top_paths] == [5, 5]
        assert built[0] <= 5 * len(top_paths)
