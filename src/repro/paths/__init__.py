"""Path extraction: bounded AST path contexts as a columnar table + deterministic featurizer."""

from .extraction import (
    DEFAULT_MAX_LENGTH,
    DEFAULT_MAX_WIDTH,
    ExtractionError,
    PathContext,
    PathExtractor,
    PathTable,
    extract_paths,
)
from .featurizer import FEATURE_DIM, NODE_TYPES, VALUE_BUCKETS, PathFeaturizer

__all__ = [
    "DEFAULT_MAX_LENGTH",
    "DEFAULT_MAX_WIDTH",
    "ExtractionError",
    "PathContext",
    "PathExtractor",
    "PathTable",
    "extract_paths",
    "FEATURE_DIM",
    "NODE_TYPES",
    "VALUE_BUCKETS",
    "PathFeaturizer",
]
