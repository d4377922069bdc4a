"""Implicit-feedback interaction generator (paper §III-D, Table IX).

The paper samples Taobao click/purchase records: 29,015 users, 37,847
items, 443,425 interactions, every user with >= 10 interactions, and
evaluates NCF leave-one-out on the *latest* interaction per user.

We substitute a preference-model generator whose key property is the
one PKGM exploits: **interactions correlate with item attributes**.
Each user draws a persona — a couple of preferred categories and a few
preferred attribute values (a brand she trusts, a color she likes) —
and interacts mostly with matching items plus a popularity-weighted
exploration tail.  NCF alone sees only the bipartite graph; the PKGM
service vectors carry exactly the attribute signal that explains it.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import Dict, List, Set, Tuple

import numpy as np

from .catalog import Catalog


@dataclass(frozen=True)
class InteractionConfig:
    """Scale and behaviour knobs for interaction generation."""

    num_users: int = 100
    min_interactions_per_user: int = 10
    max_interactions_per_user: int = 25
    preferred_categories_per_user: int = 2
    preferred_values_per_user: int = 3
    preference_strength: float = 6.0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.num_users < 1:
            raise ValueError("num_users must be >= 1")
        if not 1 <= self.min_interactions_per_user <= self.max_interactions_per_user:
            raise ValueError(
                "need 1 <= min_interactions_per_user <= max_interactions_per_user"
            )
        if self.preference_strength < 0:
            raise ValueError("preference_strength must be >= 0")


@dataclass(frozen=True)
class Interaction:
    """One implicit-feedback event; ``timestamp`` orders a user's history."""

    user_id: int
    item_id: int
    timestamp: int


@dataclass
class InteractionDataset:
    """The generated bipartite interaction data (Table IX shape)."""

    num_users: int
    num_items: int
    interactions: List[Interaction]
    user_personas: List[Dict[str, object]]

    def as_table_row(self, name: str = "TAOBAO-Recommendation (synthetic)") -> str:
        """Format like Table IX: name | # Items | # Users | # Interactions."""
        return (
            f"{name} | {self.num_items} | {self.num_users} | "
            f"{len(self.interactions)}"
        )

    def by_user(self) -> Dict[int, List[Interaction]]:
        """Interactions grouped per user, sorted by timestamp."""
        grouped: Dict[int, List[Interaction]] = defaultdict(list)
        for interaction in self.interactions:
            grouped[interaction.user_id].append(interaction)
        for history in grouped.values():
            history.sort(key=lambda x: x.timestamp)
        return dict(grouped)

    def leave_one_out(self) -> Tuple[List[Interaction], Dict[int, Interaction]]:
        """The paper's evaluation split: hold out each user's latest event.

        Returns (train interactions, {user_id: held-out interaction}).
        """
        train: List[Interaction] = []
        held: Dict[int, Interaction] = {}
        for user_id, history in self.by_user().items():
            held[user_id] = history[-1]
            train.extend(history[:-1])
        return train, held


def generate_interactions(
    catalog: Catalog,
    config: InteractionConfig,
) -> InteractionDataset:
    """Generate preference-driven implicit feedback over catalog items."""
    rng = np.random.default_rng(config.seed)
    items = catalog.items
    if len(items) < config.max_interactions_per_user:
        raise ValueError(
            "catalog has fewer items than max_interactions_per_user; "
            "grow the catalog or shrink the config"
        )
    num_categories = len(catalog.schema)

    # Zipf-ish base popularity: a few blockbuster items, a long tail.
    popularity = 1.0 / (1.0 + np.arange(len(items)))
    popularity = popularity[rng.permutation(len(items))]

    # Pre-compute each item's attribute value set for fast matching.
    item_values: List[Set[str]] = [set(item.attributes.values()) for item in items]
    item_category = np.asarray([item.category_id for item in items])

    all_values = sorted({v for values in item_values for v in values})
    interactions: List[Interaction] = []
    personas: List[Dict[str, object]] = []

    for user_id in range(config.num_users):
        n_cat = min(config.preferred_categories_per_user, num_categories)
        liked_categories = set(
            int(c) for c in rng.choice(num_categories, size=n_cat, replace=False)
        )
        n_val = min(config.preferred_values_per_user, len(all_values))
        liked_values = set(
            all_values[i] for i in rng.choice(len(all_values), size=n_val, replace=False)
        )
        personas.append(
            {"categories": liked_categories, "values": liked_values}
        )

        affinity = popularity.copy()
        in_category = np.isin(item_category, list(liked_categories))
        affinity = affinity * np.where(in_category, config.preference_strength, 1.0)
        value_match = np.asarray(
            [len(values & liked_values) for values in item_values], dtype=np.float64
        )
        affinity = affinity * (1.0 + config.preference_strength * value_match)
        probabilities = affinity / affinity.sum()

        count = int(
            rng.integers(
                config.min_interactions_per_user,
                config.max_interactions_per_user + 1,
            )
        )
        chosen = rng.choice(len(items), size=count, replace=False, p=probabilities)
        for timestamp, item_index in enumerate(chosen):
            interactions.append(
                Interaction(
                    user_id=user_id,
                    item_id=items[int(item_index)].item_id,
                    timestamp=timestamp,
                )
            )

    return InteractionDataset(
        num_users=config.num_users,
        num_items=len(items),
        interactions=interactions,
        user_personas=personas,
    )
