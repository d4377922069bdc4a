"""Item attribute prediction — the paper's fourth named application.

The introduction lists "item attributes prediction" among the
knowledge-enhanced tasks the product KG serves, and the conclusion
leaves "apply PKGM to more downstream tasks" as future work.  This
module implements it as an extension experiment:

* hold out every ``(item, relation, value)`` triple of one target
  relation for a test set of items;
* predict the missing value, either with the **majority** baseline
  (the most common value of that relation in the item's category) or
  with **PKGM**: decode ``S_T(item, relation)`` to the nearest value
  entity.

PKGM needs no task-specific training — the pre-trained service answers
directly, which is exactly the "uniform knowledge service" pitch.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from dataclasses import dataclass
from typing import Dict, List, Tuple

import numpy as np

from ..core import PKGM
from ..data import Catalog
from ..kg import TripleStore


@dataclass(frozen=True)
class AttributePredictionResult:
    """Accuracy of one predictor on held-out attribute values."""

    method: str
    relation: str
    hit1: float
    hit3: float
    num_cases: int

    def as_row(self) -> str:
        return (
            f"{self.method} | {self.relation} | {100 * self.hit1:.2f} | "
            f"{100 * self.hit3:.2f} | n={self.num_cases}"
        )


class AttributePredictionTask:
    """Predict held-out attribute values for items.

    Parameters
    ----------
    catalog:
        The full catalog (ground truth source).
    relation_label:
        The attribute to predict (e.g. ``"colorIs"``).
    holdout_fraction:
        Share of that relation's triples moved to the test set.
    seed:
        Hold-out sampling seed.
    """

    def __init__(
        self,
        catalog: Catalog,
        relation_label: str,
        holdout_fraction: float = 0.3,
        seed: int = 0,
    ) -> None:
        if relation_label not in catalog.relations:
            raise KeyError(f"unknown relation {relation_label!r}")
        if not 0.0 < holdout_fraction < 1.0:
            raise ValueError("holdout_fraction must be in (0, 1)")
        self.catalog = catalog
        self.relation_label = relation_label
        self.relation_id = catalog.relations.id_of(relation_label)
        rng = np.random.default_rng(seed)

        target = [
            triple
            for triple in catalog.store
            if triple.relation == self.relation_id
        ]
        if len(target) < 4:
            raise ValueError(
                f"relation {relation_label!r} has too few triples to hold out"
            )
        order = rng.permutation(len(target))
        n_test = max(1, int(round(len(target) * holdout_fraction)))
        test_triples = [target[i] for i in order[:n_test]]
        test_set = set(test_triples)

        self.observed = TripleStore(
            (t.head, t.relation, t.tail)
            for t in catalog.store
            if t not in test_set
        )
        self.test_cases: List[Tuple[int, int]] = [
            (t.head, t.tail) for t in test_triples
        ]
        # Candidate answers: every value entity the relation ever takes.
        self.candidate_values = np.asarray(
            sorted({t.tail for t in target}), dtype=np.int64
        )

    # ------------------------------------------------------------------
    def majority_baseline(self) -> AttributePredictionResult:
        """Predict each category's most frequent observed value."""
        per_category: Dict[int, Counter] = defaultdict(Counter)
        for triple in self.observed.triples_with_relation(self.relation_id):
            category = self.catalog.category_of_entity(triple.head)
            per_category[category][triple.tail] += 1
        global_counts = Counter()
        for counts in per_category.values():
            global_counts.update(counts)
        global_ranked = [v for v, _ in global_counts.most_common()]

        hits1 = hits3 = 0
        for head, true_value in self.test_cases:
            category = self.catalog.category_of_entity(head)
            ranked = [v for v, _ in per_category[category].most_common()]
            ranked = ranked + [v for v in global_ranked if v not in ranked]
            if ranked and ranked[0] == true_value:
                hits1 += 1
            if true_value in ranked[:3]:
                hits3 += 1
        n = len(self.test_cases)
        return AttributePredictionResult(
            method="majority",
            relation=self.relation_label,
            hit1=hits1 / n,
            hit3=hits3 / n,
            num_cases=n,
        )

    def pkgm_prediction(self, model: PKGM) -> AttributePredictionResult:
        """Decode ``S_T(item, relation)`` to the nearest candidate value."""
        heads = np.asarray([h for h, _ in self.test_cases], dtype=np.int64)
        relations = np.full(len(heads), self.relation_id, dtype=np.int64)
        service = model.service_triple(heads, relations)
        top = model.nearest_entities(
            service, k=3, candidate_ids=self.candidate_values
        )
        hits1 = hits3 = 0
        for i, (_, true_value) in enumerate(self.test_cases):
            if top[i][0] == true_value:
                hits1 += 1
            if true_value in top[i]:
                hits3 += 1
        n = len(self.test_cases)
        return AttributePredictionResult(
            method="pkgm",
            relation=self.relation_label,
            hit1=hits1 / n,
            hit3=hits3 / n,
            num_cases=n,
        )
