"""Unit tests for family classification, persistence, and the CLI."""

import dataclasses

import numpy as np
import pytest

from repro.core import (
    FamilyClassifier,
    JSRevealer,
    JSRevealerConfig,
    load_detector,
    save_detector,
)
from repro.datasets import experiment_split


@pytest.fixture(scope="module")
def split():
    return experiment_split(seed=21, pretrain_per_class=10, train_per_class=24, test_per_class=12, realistic=True)


@pytest.fixture(scope="module")
def detector(split):
    det = JSRevealer(JSRevealerConfig(embed_dim=24, pretrain_epochs=5, k_benign=5, k_malicious=5, seed=21))
    det.pretrain(split.pretrain.sources, split.pretrain.labels)
    det.fit(split.train.sources, split.train.labels)
    return det


class TestPersistence:
    def test_roundtrip_predictions_identical(self, detector, split, tmp_path):
        save_detector(detector, tmp_path / "model")
        loaded = load_detector(tmp_path / "model")
        original = detector.predict(split.test.sources)
        restored = loaded.predict(split.test.sources)
        assert np.array_equal(original, restored)

    def test_roundtrip_probabilities_close(self, detector, split, tmp_path):
        save_detector(detector, tmp_path / "m2")
        loaded = load_detector(tmp_path / "m2")
        assert np.allclose(
            detector.predict_proba(split.test.sources[:5]),
            loaded.predict_proba(split.test.sources[:5]),
        )

    def test_loaded_forest_is_the_fitted_one(self, detector, split, tmp_path):
        from ..ml.test_tree_forest import _aligned_proba_oracle, _with_thresholds_and_nan

        save_detector(detector, tmp_path / "m10")
        loaded = load_detector(tmp_path / "m10")
        forest, restored = detector.classifier, loaded.classifier
        assert len(restored.estimators_) == len(forest.estimators_)
        for fitted, tree in zip(forest.estimators_, restored.estimators_):
            for name in ("feature_", "threshold_", "left_", "right_", "value_"):
                assert getattr(tree, name).tobytes() == getattr(fitted, name).tobytes(), name
        rows = [detector.script_row(source).row for source in split.test.sources[:8]]
        X = _with_thresholds_and_nan(forest, detector.feature_extractor.transform(rows))
        proba = restored.predict_proba(X)
        assert proba.tobytes() == _aligned_proba_oracle(forest, X).tobytes()
        assert proba.tobytes() == forest.predict_proba(X).tobytes()
        # Saved again, the loaded model writes the same bytes.
        save_detector(loaded, tmp_path / "m11")
        for name in ("model.json", "model.npz"):
            assert (tmp_path / "m11" / name).read_bytes() == (tmp_path / "m10" / name).read_bytes()

    def test_explanations_survive(self, detector, tmp_path):
        save_detector(detector, tmp_path / "m3")
        loaded = load_detector(tmp_path / "m3")
        original = detector.explain(top_n=3)
        restored = loaded.explain(top_n=3)
        assert [e.central_path_signature for e in original] == [e.central_path_signature for e in restored]

    def test_unfitted_detector_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            save_detector(JSRevealer(JSRevealerConfig()), tmp_path / "nope")

    def test_version_gate(self, detector, tmp_path):
        import json

        save_detector(detector, tmp_path / "m4")
        meta_path = tmp_path / "m4" / "model.json"
        meta = json.loads(meta_path.read_text())
        meta["format_version"] = 999
        meta_path.write_text(json.dumps(meta))
        with pytest.raises(ValueError):
            load_detector(tmp_path / "m4")

    def test_fingerprint_stored_and_roundtrips(self, detector, tmp_path):
        import json

        save_detector(detector, tmp_path / "m5")
        meta = json.loads((tmp_path / "m5" / "model.json").read_text())
        assert meta["format_version"] == 3
        assert meta["model_fingerprint"] == detector.fingerprint()
        assert load_detector(tmp_path / "m5").fingerprint() == detector.fingerprint()

    def test_version2_model_loads_under_the_tensor_only_rule(self, detector, split, tmp_path):
        import json

        save_detector(detector, tmp_path / "m9")
        meta_path = tmp_path / "m9" / "model.json"
        meta = json.loads(meta_path.read_text())
        meta["format_version"] = 2
        meta["model_fingerprint"] = detector._digest(settings=False)
        meta_path.write_text(json.dumps(meta))

        loaded = load_detector(tmp_path / "m9")
        # Loaded, it takes today's fingerprint, so its cache namespace moves.
        assert loaded.fingerprint() == detector.fingerprint() != meta["model_fingerprint"]
        assert np.array_equal(loaded.predict(split.test.sources[:4]), detector.predict(split.test.sources[:4]))

        # A version-2 file is checked by its own rule: today's value is a mismatch.
        meta["model_fingerprint"] = detector.fingerprint()
        meta_path.write_text(json.dumps(meta))
        with pytest.raises(ValueError):
            load_detector(tmp_path / "m9")

    def test_version1_model_loads_with_derived_fingerprint(self, detector, split, tmp_path):
        import json

        save_detector(detector, tmp_path / "m6")
        meta_path = tmp_path / "m6" / "model.json"
        meta = json.loads(meta_path.read_text())
        meta["format_version"] = 1
        del meta["model_fingerprint"]
        meta_path.write_text(json.dumps(meta))

        loaded = load_detector(tmp_path / "m6")
        assert loaded.fingerprint() == detector.fingerprint()
        assert np.array_equal(loaded.predict(split.test.sources[:4]), detector.predict(split.test.sources[:4]))

    def test_serve_boot_leaves_scipy_stats_unloaded(self, detector, split, tmp_path):
        # scipy.stats serves only MetaOD selection at training time; a
        # daemon that imports the serve path and loads a model never needs it.
        import os
        import subprocess
        import sys
        from pathlib import Path

        import repro

        save_detector(detector, tmp_path / "m8")
        probe = (
            "import sys\n"
            "import repro.cli, repro.serve.app\n"
            "from repro.core.persistence import load_detector\n"
            "detector = load_detector(sys.argv[1])\n"
            "detector.scan(sys.argv[2])\n"
            "print(sorted(m for m in sys.modules if m.startswith('scipy.stats')))\n"
        )
        env = dict(os.environ, PYTHONPATH=str(Path(repro.__file__).resolve().parents[1]))
        completed = subprocess.run(
            [sys.executable, "-c", probe, str(tmp_path / "m8"), split.test.sources[0]],
            capture_output=True, text=True, timeout=120, env=env,
        )
        assert completed.returncode == 0, completed.stderr
        assert completed.stdout.strip() == "[]"

    def test_tampered_fingerprint_rejected(self, detector, tmp_path):
        import json

        save_detector(detector, tmp_path / "m7")
        meta_path = tmp_path / "m7" / "model.json"
        meta = json.loads(meta_path.read_text())
        meta["model_fingerprint"] = "0" * 64
        meta_path.write_text(json.dumps(meta))
        with pytest.raises(ValueError):
            load_detector(tmp_path / "m7")


def _twin(detector: JSRevealer, **settings) -> JSRevealer:
    """A fitted detector with ``detector``'s tensors and forest but other settings."""
    twin = JSRevealer(dataclasses.replace(detector.config, **settings))
    twin.embedder = detector.embedder
    twin.feature_extractor.features_ = detector.feature_extractor.features_
    twin.classifier = detector.classifier
    twin._fitted = True
    return twin


class TestFingerprintCoversRowSettings:
    @pytest.mark.parametrize(
        "settings",
        [
            {"assignment": "hard"},
            {"assign_radius_factor": 1.5},
            {"max_paths_per_script": 40},
            {"max_path_length": 8},
            {"max_path_width": 3},
            {"use_dataflow": False},
        ],
        ids=lambda settings: next(iter(settings)),
    )
    def test_each_row_setting_moves_the_fingerprint(self, detector, settings):
        twin = _twin(detector, **settings)
        assert twin._digest(settings=False) == detector._digest(settings=False)
        assert twin.fingerprint() != detector.fingerprint()

    def test_seed_alone_keeps_the_fingerprint(self, detector):
        assert _twin(detector, seed=detector.config.seed + 1).fingerprint() == detector.fingerprint()

    def test_soft_and_hard_twins_share_no_cache_rows(self, detector, split, tmp_path):
        soft, hard = detector, _twin(detector, assignment="hard")
        sources = split.test.sources[:8]
        cache_dir = str(tmp_path / "cache")
        first = soft.scan_batch(sources, cache_dir=cache_dir)
        shared = hard.scan_batch(sources, cache_dir=cache_dir)
        assert shared.cache_hits == 0
        alone = hard.scan_batch(sources)
        assert shared.probability_matrix.tobytes() == alone.probability_matrix.tobytes()
        # The rule matters here: soft's rows would have answered differently.
        assert first.probability_matrix.tobytes() != alone.probability_matrix.tobytes()


class TestFamilyClassifier:
    def _malicious(self, corpus):
        sources = [s for s, y in zip(corpus.sources, corpus.labels) if y == 1]
        families = [f.split(":")[1] for f, y in zip(corpus.families, corpus.labels) if y == 1]
        return sources, families

    def test_learns_families(self, detector, split):
        train_src, train_fam = self._malicious(split.train)
        test_src, test_fam = self._malicious(split.test)
        classifier = FamilyClassifier(detector, seed=0).fit(train_src, train_fam)
        predictions = classifier.predict(test_src)
        agreement = sum(p == t for p, t in zip(predictions, test_fam)) / len(test_fam)
        assert agreement >= 0.5  # well above the 1/6 chance level

    def test_evaluate_reports_all_families(self, detector, split):
        train_src, train_fam = self._malicious(split.train)
        classifier = FamilyClassifier(detector, seed=0).fit(train_src, train_fam)
        reports = classifier.evaluate(train_src, train_fam)
        assert {r.family for r in reports} == set(classifier.families_)
        assert all(0.0 <= r.precision <= 1.0 and 0.0 <= r.recall <= 1.0 for r in reports)

    def test_proba_shape(self, detector, split):
        train_src, train_fam = self._malicious(split.train)
        classifier = FamilyClassifier(detector, seed=0).fit(train_src, train_fam)
        proba = classifier.predict_proba(train_src[:3])
        assert proba.shape == (3, len(classifier.families_))

    def test_requires_fitted_detector(self):
        with pytest.raises(ValueError):
            FamilyClassifier(JSRevealer(JSRevealerConfig()))

    def test_unfit_predict_rejected(self, detector):
        with pytest.raises(RuntimeError):
            FamilyClassifier(detector).predict(["var x = 1;"])


class TestCLI:
    def test_train_scan_explain_flow(self, tmp_path, monkeypatch):
        from repro.cli import main

        model_dir = tmp_path / "model"
        code = main(
            [
                "train",
                "--out",
                str(model_dir),
                "--train-per-class",
                "14",
                "--pretrain-per-class",
                "8",
                "--embed-dim",
                "16",
                "--epochs",
                "3",
                "--k-benign",
                "4",
                "--k-malicious",
                "4",
            ]
        )
        assert code == 0
        assert (model_dir / "model.npz").exists()

        from repro.datasets import generate_benign

        target = tmp_path / "site"
        target.mkdir()
        (target / "app.js").write_text(generate_benign(np.random.default_rng(0)))
        scan_code = main(["scan", "--model", str(model_dir), str(target)])
        assert scan_code in (0, 1)

        assert main(["explain", "--model", str(model_dir), "--top", "3"]) == 0

    def test_scan_json_format_and_cache(self, tmp_path, capsys):
        import json

        from repro.cli import main
        from repro.datasets import generate_benign, generate_malicious

        model_dir = tmp_path / "model"
        main(
            ["train", "--out", str(model_dir), "--train-per-class", "14",
             "--pretrain-per-class", "8", "--embed-dim", "16", "--epochs", "3",
             "--k-benign", "4", "--k-malicious", "4"]
        )
        target = tmp_path / "site"
        target.mkdir()
        (target / "app.js").write_text(generate_benign(np.random.default_rng(1)))
        (target / "dropper.js").write_text(generate_malicious(np.random.default_rng(2)))
        cache_dir = tmp_path / "cache"
        capsys.readouterr()  # drop train output

        args = ["scan", "--model", str(model_dir), "--format", "json",
                "--cache-dir", str(cache_dir), "--workers", "2", str(target)]
        code_cold = main(args)
        cold = json.loads(capsys.readouterr().out)
        code_warm = main(args)
        warm = json.loads(capsys.readouterr().out)

        # Golden JSON shape: one ScanReport object.
        for report in (cold, warm):
            assert set(report) >= {
                "n_files", "n_malicious", "threshold", "n_workers", "workers_used",
                "elapsed_ms", "stage_ms", "cache_hits", "cache_misses",
                "model_fingerprint", "results",
            }
            assert report["n_files"] == 2
            assert len(report["results"]) == 2
            for result in report["results"]:
                assert result["verdict"] in ("benign", "malicious")
                assert 0.0 <= result["probability"] <= 1.0
                assert result["path"].endswith(".js")
        assert cold["cache_hits"] == 0
        assert warm["cache_hits"] == 2
        assert all(r["cache_hit"] for r in warm["results"])
        # Verdicts and probabilities are identical cold vs cached.
        assert [r["probability"] for r in cold["results"]] == [r["probability"] for r in warm["results"]]
        assert code_cold == code_warm

        # explain --format json emits a parseable ranked feature list.
        assert main(["explain", "--model", str(model_dir), "--top", "3", "--format", "json"]) == 0
        explain = json.loads(capsys.readouterr().out)
        assert len(explain) == 3
        assert all({"importance", "cluster_label", "central_path_signature", "cluster_size"} <= set(e) for e in explain)

    def test_scan_missing_input(self, tmp_path):
        from repro.cli import main

        # Empty input directory and absent model both fall under the
        # usage/IO leg of the exit-code contract: 2, not a traceback.
        assert main(["scan", "--model", str(tmp_path / "absent"), str(tmp_path)]) == 2
