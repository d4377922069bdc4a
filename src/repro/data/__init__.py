"""Synthetic e-commerce data: the Alibaba-PKG substitution.

Generates the catalog (products, seller listings, and the product KG),
seller titles, per-category alignment pairs, and preference-driven
implicit-feedback interactions — the inputs to PKGM pre-training and to
all three downstream tasks.
"""

from .alignment import (
    AlignmentDataset,
    AlignmentPair,
    RankingCase,
    build_alignment_dataset,
)
from .catalog import Catalog, CatalogConfig, generate_catalog
from .classification import (
    ClassificationDataset,
    ClassificationExample,
    build_classification_dataset,
)
from .interactions import InteractionConfig, InteractionDataset, generate_interactions
from .schema import (
    AttributeSpec,
    build_default_schema,
    make_brand_pool,
    make_series_pool,
)
from .titles import MARKETING_WORDS, TitleConfig, TitleGenerator, title_vocabulary

__all__ = [
    "AlignmentDataset",
    "AlignmentPair",
    "AttributeSpec",
    "Catalog",
    "CatalogConfig",
    "ClassificationDataset",
    "ClassificationExample",
    "InteractionConfig",
    "InteractionDataset",
    "MARKETING_WORDS",
    "RankingCase",
    "TitleConfig",
    "TitleGenerator",
    "build_alignment_dataset",
    "build_classification_dataset",
    "build_default_schema",
    "generate_catalog",
    "generate_interactions",
    "make_brand_pool",
    "make_series_pool",
    "title_vocabulary",
]
