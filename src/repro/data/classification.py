"""Item-classification dataset builder (paper §III-B, Table III).

The paper frames item classification as text classification over item
titles, with item categories as target classes, and deliberately caps
each category at <100 training instances to showcase pre-training under
scarce supervision.  This builder reproduces that protocol on the
synthetic catalog: one example per item (title, category label), capped
per category, split train/test/dev.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import Dict, List, Tuple

import numpy as np

from .catalog import Catalog, ItemRecord
from .titles import TitleGenerator


@dataclass(frozen=True)
class ClassificationExample:
    """One labelled example: a title and its category."""

    item_id: int
    entity_id: int
    title: Tuple[str, ...]
    label: int


@dataclass
class ClassificationDataset:
    """Train/test/dev splits plus bookkeeping (Table III shape)."""

    num_categories: int
    train: List[ClassificationExample]
    test: List[ClassificationExample]
    dev: List[ClassificationExample]

    def sizes(self) -> Tuple[int, int, int]:
        return (len(self.train), len(self.test), len(self.dev))

    def as_table_row(self, name: str = "dataset") -> str:
        """Format like Table III: name | # category | # Train | # Test | # Dev."""
        return (
            f"{name} | {self.num_categories} | {len(self.train)} | "
            f"{len(self.test)} | {len(self.dev)}"
        )


def build_classification_dataset(
    catalog: Catalog,
    titles: TitleGenerator,
    max_per_category: int = 100,
    test_fraction: float = 0.2,
    dev_fraction: float = 0.2,
    seed: int = 0,
) -> ClassificationDataset:
    """Build the classification dataset from a catalog.

    Follows the paper's preparation: "we constrain the instance of each
    category less than 100 during data preparation".  Splits are
    stratified by category so every class appears in every split when
    it has enough instances.
    """
    if max_per_category < 1:
        raise ValueError("max_per_category must be >= 1")
    if test_fraction < 0 or dev_fraction < 0 or test_fraction + dev_fraction >= 1:
        raise ValueError("fractions must be nonnegative and sum below 1")
    rng = np.random.default_rng(seed)

    by_category: Dict[int, List[ItemRecord]] = defaultdict(list)
    for item in catalog.items:
        by_category[item.category_id].append(item)

    train: List[ClassificationExample] = []
    test: List[ClassificationExample] = []
    dev: List[ClassificationExample] = []
    for category_id in sorted(by_category):
        members = by_category[category_id]
        order = rng.permutation(len(members))[: min(max_per_category, len(members))]
        chosen = [members[i] for i in order]
        examples = [
            ClassificationExample(
                item_id=item.item_id,
                entity_id=item.entity_id,
                title=tuple(titles.title_of(item)),
                label=category_id,
            )
            for item in chosen
        ]
        n = len(examples)
        n_test = int(round(n * test_fraction))
        n_dev = int(round(n * dev_fraction))
        # Keep at least one training example per category when possible.
        if n - n_test - n_dev < 1 and n >= 1:
            n_test = max(0, min(n_test, n - 1))
            n_dev = max(0, min(n_dev, n - 1 - n_test))
        test.extend(examples[:n_test])
        dev.extend(examples[n_test : n_test + n_dev])
        train.extend(examples[n_test + n_dev :])

    for split in (train, test, dev):
        order = rng.permutation(len(split))
        split[:] = [split[i] for i in order]

    return ClassificationDataset(
        num_categories=len(catalog.schema),
        train=train,
        test=test,
        dev=dev,
    )
