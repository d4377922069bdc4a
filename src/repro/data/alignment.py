"""Product-alignment dataset builder (paper §III-C, Table V).

Two items *align* when they are listings of the same product.  The
paper builds three per-category datasets of labelled title pairs (7 :
1.5 : 1.5 train/test/dev), evaluated two ways:

* *classification* (Test-C / Dev-C): binary paraphrase-style accuracy
  over positive and negative pairs;
* *ranking* (Test-R / Dev-R): each aligned pair is ranked against 99
  corrupted pairs, reported as Hit@k.

Our generator mirrors that: positives are item pairs sharing a
``product_id``; negatives pair items of *different* products within the
same category (cross-category pairs would be trivially negative — the
paper notes alignment is only needed within a type).
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import Dict, List, Tuple

import numpy as np

from .catalog import Catalog, ItemRecord
from .titles import TitleGenerator


@dataclass(frozen=True)
class AlignmentPair:
    """A labelled pair of item titles (1 = same product)."""

    item_a: int
    item_b: int
    entity_a: int
    entity_b: int
    title_a: Tuple[str, ...]
    title_b: Tuple[str, ...]
    label: int


@dataclass(frozen=True)
class RankingCase:
    """One ranking instance: an aligned pair plus corrupted candidates.

    ``candidates`` holds ``n`` replacement items for ``item_b`` (the
    paper corrupts one side of the aligned pair with 99 random items);
    the model should rank the true pair above all corrupted ones.
    """

    positive: AlignmentPair
    candidates: Tuple[AlignmentPair, ...]


@dataclass
class AlignmentDataset:
    """One per-category alignment dataset (a row of Table V)."""

    category_id: int
    category_name: str
    train: List[AlignmentPair]
    test_c: List[AlignmentPair]
    dev_c: List[AlignmentPair]
    test_r: List[RankingCase]
    dev_r: List[RankingCase]

    def as_table_row(self, name: str) -> str:
        """Format like Table V: name | # Train | # Test-C | # Dev-C | # Test-R | # Dev-R."""
        return (
            f"{name} | {len(self.train)} | {len(self.test_c)} | {len(self.dev_c)} | "
            f"{len(self.test_r)} | {len(self.dev_r)}"
        )


def build_alignment_dataset(
    catalog: Catalog,
    titles: TitleGenerator,
    category_id: int,
    negatives_per_positive: int = 1,
    ranking_candidates: int = 99,
    train_fraction: float = 0.7,
    test_fraction: float = 0.15,
    train_samples_per_pair: int = 1,
    seed: int = 0,
) -> AlignmentDataset:
    """Build the alignment dataset for one category.

    Positive pairs: all unordered item pairs within a product (each
    side's title generated independently, so surfaces differ).
    Negative pairs: for each positive, ``negatives_per_positive`` pairs
    of items from different products of the same category.
    Ranking cases: built from test/dev positives with
    ``ranking_candidates`` corruptions each.

    ``train_samples_per_pair`` re-samples each *training* positive that
    many times with freshly generated titles — label-preserving data
    augmentation that mirrors sellers re-listing the same product with
    new copy.  Test/dev splits are never augmented.
    """
    if train_samples_per_pair < 1:
        raise ValueError("train_samples_per_pair must be >= 1")
    if not 0 < train_fraction < 1 or not 0 < test_fraction < 1:
        raise ValueError("fractions must be in (0, 1)")
    if train_fraction + 2 * test_fraction > 1.0 + 1e-9:
        raise ValueError("train + 2*test fractions exceed 1")
    rng = np.random.default_rng(seed)

    members = catalog.items_of_category(category_id)
    if not members:
        raise ValueError(f"category {category_id} has no items")
    by_product: Dict[int, List[ItemRecord]] = defaultdict(list)
    for item in members:
        by_product[item.product_id].append(item)

    positives: List[Tuple[ItemRecord, ItemRecord]] = []
    for product_items in by_product.values():
        for i in range(len(product_items)):
            for j in range(i + 1, len(product_items)):
                positives.append((product_items[i], product_items[j]))
    if not positives:
        raise ValueError(
            f"category {category_id} has no multi-item products; "
            "increase max_items_per_product"
        )

    order = rng.permutation(len(positives))
    positives = [positives[i] for i in order]

    def make_pair(a: ItemRecord, b: ItemRecord, label: int) -> AlignmentPair:
        return AlignmentPair(
            item_a=a.item_id,
            item_b=b.item_id,
            entity_a=a.entity_id,
            entity_b=b.entity_id,
            title_a=tuple(titles.title_of(a)),
            title_b=tuple(titles.title_of(b)),
            label=label,
        )

    def sample_negative_partner(anchor: ItemRecord) -> ItemRecord:
        while True:
            other = members[int(rng.integers(len(members)))]
            if other.product_id != anchor.product_id:
                return other

    n = len(positives)
    n_train = int(round(n * train_fraction))
    n_test = int(round(n * test_fraction))
    train_pos = positives[:n_train]
    test_pos = positives[n_train : n_train + n_test]
    dev_pos = positives[n_train + n_test :]

    def build_classification_split(
        pos: List[Tuple[ItemRecord, ItemRecord]], samples_per_pair: int = 1
    ) -> List[AlignmentPair]:
        pairs: List[AlignmentPair] = []
        for a, b in pos:
            for _ in range(samples_per_pair):
                pairs.append(make_pair(a, b, 1))
                for _ in range(negatives_per_positive):
                    pairs.append(make_pair(a, sample_negative_partner(a), 0))
        shuffle = rng.permutation(len(pairs))
        return [pairs[i] for i in shuffle]

    def build_ranking_split(pos: List[Tuple[ItemRecord, ItemRecord]]) -> List[RankingCase]:
        cases: List[RankingCase] = []
        for a, b in pos:
            positive_pair = make_pair(a, b, 1)
            candidates = tuple(
                make_pair(a, sample_negative_partner(a), 0)
                for _ in range(ranking_candidates)
            )
            cases.append(RankingCase(positive=positive_pair, candidates=candidates))
        return cases

    category_name = next(
        c.name for c in catalog.schema if c.category_id == category_id
    )
    return AlignmentDataset(
        category_id=category_id,
        category_name=category_name,
        train=build_classification_split(train_pos, train_samples_per_pair),
        test_c=build_classification_split(test_pos),
        dev_c=build_classification_split(dev_pos),
        test_r=build_ranking_split(test_pos),
        dev_r=build_ranking_split(dev_pos),
    )
