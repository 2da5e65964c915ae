"""Save/load trained detectors — the deployment feature RQ4 implies.

A trained :class:`~repro.core.detector.JSRevealer` consists of numpy
parameter tensors (the embedding model), the cluster features (centers,
radii, labels, central-path signatures), and the random-forest structure.
Everything serializes into a single ``.npz`` plus a JSON sidecar inside a
directory, with a format-version gate.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from repro.ml import DecisionTreeClassifier, RandomForestClassifier
from repro.ml.tree import append_node

from .config import JSRevealerConfig
from .detector import JSRevealer
from .features import ClusterFeature

#: Version 2 added ``model_fingerprint`` (SHA-256 of the model tensors,
#: namespacing the content-addressed cluster-row cache); version 3 hashes
#: the settings the row depends on too (``JSRevealer.fingerprint``).
#: Version-2 files still load, their stored value checked against the
#: tensor-only rule; version-1 models have none to check.  A loaded model
#: of either older version takes the version-3 fingerprint.
FORMAT_VERSION = 3
_SUPPORTED_VERSIONS = (1, 2, 3)


def save_detector(detector: JSRevealer, directory: str | Path) -> Path:
    """Persist a fitted detector to ``directory`` (created if missing)."""
    if not detector._fitted:
        raise ValueError("cannot save an unfitted detector")
    if not isinstance(detector.classifier, RandomForestClassifier):
        raise ValueError("persistence supports the default random-forest classifier")
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)

    arrays: dict[str, np.ndarray] = {}
    for name, tensor in detector.embedder.model.parameters().items():
        arrays[f"embed_{name}"] = tensor
    features = detector.feature_extractor.features_
    arrays["centers"] = np.vstack([f.center for f in features])
    arrays["radii"] = np.array([f.radius for f in features])
    arrays["sizes"] = np.array([f.size for f in features])
    np.savez_compressed(directory / "model.npz", **arrays)

    config = detector.config
    meta = {
        "format_version": FORMAT_VERSION,
        "model_fingerprint": detector.fingerprint(),
        "config": {
            "k_benign": config.k_benign,
            "k_malicious": config.k_malicious,
            "embed_dim": config.embed_dim,
            "max_path_length": config.max_path_length,
            "max_path_width": config.max_path_width,
            "use_dataflow": config.use_dataflow,
            "contamination": config.contamination,
            "overlap_threshold": config.overlap_threshold,
            "max_paths_per_script": config.max_paths_per_script,
            "assign_radius_factor": config.assign_radius_factor,
            "assignment": config.assignment,
            "seed": config.seed,
        },
        "feature_labels": [f.label for f in features],
        "feature_signatures": [f.central_path_signature for f in features],
        "forest": _forest_to_dict(detector.classifier),
    }
    (directory / "model.json").write_text(json.dumps(meta))
    return directory


def load_detector(directory: str | Path) -> JSRevealer:
    """Reconstruct a fitted detector from :func:`save_detector` output."""
    directory = Path(directory)
    meta = json.loads((directory / "model.json").read_text())
    if meta.get("format_version") not in _SUPPORTED_VERSIONS:
        raise ValueError(f"unsupported format version {meta.get('format_version')!r}")
    arrays = np.load(directory / "model.npz")

    config = JSRevealerConfig(**meta["config"])
    detector = JSRevealer(config)

    detector.embedder.model.load_parameters(
        {name[len("embed_") :]: arrays[name] for name in arrays.files if name.startswith("embed_")}
    )
    detector.embedder._trained = True

    features = []
    for i, (label, signature) in enumerate(zip(meta["feature_labels"], meta["feature_signatures"])):
        features.append(
            ClusterFeature(
                center=arrays["centers"][i],
                label=label,
                radius=float(arrays["radii"][i]),
                size=int(arrays["sizes"][i]),
                central_path_signature=signature,
            )
        )
    detector.feature_extractor.features_ = features

    detector.classifier = _forest_from_dict(meta["forest"])
    detector._fitted = True
    detector._fingerprint = None  # hash the loaded tensors, not the constructor's

    # Version 1 predates stored fingerprints: derive one from the loaded
    # model.  Otherwise the stored value must match the model under its
    # version's rule, so a hand-edited npz can never silently reuse another
    # model's cache.
    stored = meta.get("model_fingerprint")
    if stored is not None:
        legacy = meta["format_version"] == 2
        derived = detector._digest(settings=False) if legacy else detector.fingerprint()
        if stored != derived:
            raise ValueError("model_fingerprint does not match the model; refusing to load")
    return detector


# ------------------------------------------------------- forest (de)serialize
#
# ``model.json`` keeps each tree as a nested dict: a split is
# ``{"feature", "threshold", "left", "right", "classes"}`` and a leaf
# ``{"leaf": probabilities, "classes"}``, with the tree's own classes on
# every node.  A fitted tree is pre-order arrays (:mod:`repro.ml.tree`);
# both directions walk the nodes in pre-order, so loading rebuilds the
# arrays the fit produced and saving writes the bytes earlier versions wrote.


def _forest_to_dict(forest: RandomForestClassifier) -> dict:
    return {
        "classes": [int(c) for c in forest.classes_],
        "feature_importances": [float(v) for v in (forest.feature_importances_ if forest.feature_importances_ is not None else [])],
        "trees": [_tree_to_dict(tree, 0) for tree in forest.estimators_],
    }


def _tree_to_dict(tree: DecisionTreeClassifier, node: int) -> dict:
    classes = [int(c) for c in tree.classes_]
    if tree.left_[node] == node:
        return {"leaf": [float(p) for p in tree.value_[node]], "classes": classes}
    return {
        "feature": int(tree.feature_[node]),
        "threshold": float(tree.threshold_[node]),
        "left": _tree_to_dict(tree, int(tree.left_[node])),
        "right": _tree_to_dict(tree, int(tree.right_[node])),
        "classes": classes,
    }


def _forest_from_dict(data: dict) -> RandomForestClassifier:
    return RandomForestClassifier.from_estimators(
        [_tree_from_dict(tree_data) for tree_data in data["trees"]],
        classes=np.array(data["classes"]),
        feature_importances=np.array(data["feature_importances"]),
    )


def _tree_from_dict(data: dict) -> DecisionTreeClassifier:
    tree = DecisionTreeClassifier()
    tree.classes_ = np.array(data["classes"])
    nodes: list[list] = []

    def rebuild(node_data: dict) -> int:
        if "leaf" in node_data:
            return append_node(nodes, np.array(node_data["leaf"]))
        node = append_node(
            nodes, np.zeros(len(tree.classes_)), node_data["feature"], node_data["threshold"]
        )
        nodes[node][2] = rebuild(node_data["left"])
        nodes[node][3] = rebuild(node_data["right"])
        return node

    rebuild(data)
    tree.set_nodes(nodes)
    return tree
