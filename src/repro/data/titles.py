"""Seller title generation.

Item titles on the platform are keyword soups assembled by shop
managers: brand + attribute keywords + category noun + marketing filler,
in idiosyncratic order.  The classification and alignment tasks both
consume titles, so the generator controls exactly the signal/noise
trade-off those tasks measure:

* attribute words may be *dropped* (title under-describes the item —
  the gap PKGM service vectors fill);
* marketing noise words are *injected*;
* word order is shuffled per listing, so two listings of the same
  product have different surface forms (the alignment challenge).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from .catalog import Catalog, ItemRecord
from .schema import CategorySpec

MARKETING_WORDS = (
    "new", "hot", "sale", "2021", "free-shipping", "official", "promo",
    "quality", "fashion", "trend", "gift", "best", "deal", "genuine",
    "limited", "cheap", "boutique", "flagship",
)


@dataclass(frozen=True)
class TitleConfig:
    """Noise knobs for title generation.

    ``noun_drop_probability`` lets sellers omit the category noun
    itself ("floral chiffon 2021 sale" with no "skirt"), which is
    common on real platforms and is what keeps classification from
    being trivially solvable from the noun alone.
    """

    attribute_drop_probability: float = 0.35
    noun_drop_probability: float = 0.0
    noise_word_count_max: int = 4
    shuffle: bool = True

    def __post_init__(self) -> None:
        if not 0.0 <= self.attribute_drop_probability < 1.0:
            raise ValueError("attribute_drop_probability must be in [0, 1)")
        if not 0.0 <= self.noun_drop_probability < 1.0:
            raise ValueError("noun_drop_probability must be in [0, 1)")
        if self.noise_word_count_max < 0:
            raise ValueError("noise_word_count_max must be >= 0")


class TitleGenerator:
    """Generates word-sequence titles for catalog items."""

    def __init__(
        self,
        catalog: Catalog,
        config: Optional[TitleConfig] = None,
        seed: int = 0,
    ) -> None:
        self.catalog = catalog
        self.config = config if config is not None else TitleConfig()
        self.rng = np.random.default_rng(seed)
        self._category_by_id: Dict[int, CategorySpec] = {
            c.category_id: c for c in catalog.schema
        }

    def title_of(self, item: ItemRecord) -> List[str]:
        """Generate one title for ``item`` (stochastic per call).

        The title always contains the category noun; each seller-filled
        attribute value appears unless dropped; marketing words pad the
        remainder.
        """
        category = self._category_by_id[item.category_id]
        words: List[str] = []
        if self.rng.random() >= self.config.noun_drop_probability:
            words.append(category.title_noun)
        for value in item.attributes.values():
            if self.rng.random() >= self.config.attribute_drop_probability:
                words.append(value)
        n_noise = int(self.rng.integers(0, self.config.noise_word_count_max + 1))
        if n_noise:
            picks = self.rng.choice(len(MARKETING_WORDS), size=n_noise, replace=False)
            words.extend(MARKETING_WORDS[i] for i in picks)
        if not words:  # never emit an empty title
            words.append(category.title_noun)
        if self.config.shuffle:
            order = self.rng.permutation(len(words))
            words = [words[i] for i in order]
        return words


def title_vocabulary(catalog: Catalog) -> List[str]:
    """Every word that can appear in any title of ``catalog``.

    Category nouns + all schema attribute values + per-product model
    codes + the marketing words — a closed vocabulary, so the tokenizer
    never emits [UNK] on generated titles.
    """
    words = set(MARKETING_WORDS)
    for category in catalog.schema:
        words.add(category.title_noun)
        for attribute in category.attributes:
            words.update(attribute.values)
    for product in catalog.products:
        words.update(product.attributes.values())
    return sorted(words)
