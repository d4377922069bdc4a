"""Category / attribute schema for the synthetic product catalog.

The real PKG organizes ~0.2B items under an item category tree, with
seller-filled attributes whose vocabulary depends on the category
(skirts have fabrics and lengths; phones have memory and screen sizes).
This module builds a configurable schema with the same *shape*:

* a pool of attribute templates (brand, color, material, ...), each with
  its own value vocabulary and fill probability;
* category specs that pick a subset of templates, optionally with a
  category-restricted value subset (so brands cluster by category, as
  they do in reality);
* combinatorially generated category names, enough to scale to the
  paper's 1293-category classification task.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

# ----------------------------------------------------------------------
# Attribute template pool
# ----------------------------------------------------------------------

_BRAND_SYLLABLES = (
    "au", "bel", "cor", "dan", "el", "fei", "gran", "hua", "jin", "kai",
    "lan", "mei", "nor", "os", "pan", "qi", "ran", "sol", "tian", "uni",
    "vel", "wei", "xin", "yue", "zen",
)

_COLORS = (
    "red", "green", "blue", "black", "white", "pink", "purple", "grey",
    "yellow", "navy", "beige", "brown", "orange", "teal", "coral", "ivory",
)

_MATERIALS = (
    "cotton", "silk", "wool", "linen", "polyester", "denim", "leather",
    "bamboo", "nylon", "cashmere", "velvet", "lace", "chiffon", "canvas",
)

_SIZES = ("xs", "s", "m", "l", "xl", "xxl", "90cm", "100cm", "110cm", "120cm")

_STYLES = (
    "casual", "sweet", "vintage", "sport", "elegant", "korean", "classic",
    "minimalist", "bohemian", "street", "preppy", "romantic",
)

_SEASONS = ("spring", "summer", "autumn", "winter", "all-season")

_CROWDS = (
    "girls", "boys", "women", "men", "children", "teens", "toddlers",
    "students", "parents",
)

_ORIGINS = (
    "guangdong", "zhejiang", "jiangsu", "fujian", "shandong", "shanghai",
    "hangzhou", "shenzhen", "imported",
)

_PATTERNS = (
    "solid", "striped", "floral", "polka-dot", "plaid", "cartoon",
    "geometric", "animal-print", "letter-print",
)

_MEMORIES = ("64gb", "128gb", "256gb", "512gb", "1tb")

_SCREENS = ("5.8in", "6.1in", "6.5in", "6.7in", "10.2in")

_CAPACITIES = ("250ml", "350ml", "500ml", "750ml", "1l", "1.5l")

_LENGTHS = ("mini", "knee-length", "midi", "maxi", "ankle-length")

_CLOSURES = ("zipper", "button", "elastic", "drawstring", "velcro", "lace-up")

_SLEEVES = ("sleeveless", "short-sleeve", "long-sleeve", "three-quarter")

_SERIES_SYLLABLES = ("nova", "pro", "max", "air", "lite", "plus", "ultra", "neo")


def make_brand_pool(count: int, rng: np.random.Generator) -> Tuple[str, ...]:
    """Synthesize ``count`` distinct brand names from syllables."""
    brands = set()
    while len(brands) < count:
        parts = rng.choice(len(_BRAND_SYLLABLES), size=2, replace=False)
        brands.add(_BRAND_SYLLABLES[parts[0]] + _BRAND_SYLLABLES[parts[1]])
    return tuple(sorted(brands))


def make_series_pool(count: int, rng: np.random.Generator) -> Tuple[str, ...]:
    """Synthesize product-series names ('nova-3', 'pro-7', ...)."""
    series = set()
    while len(series) < count:
        word = _SERIES_SYLLABLES[int(rng.integers(len(_SERIES_SYLLABLES)))]
        series.add(f"{word}-{int(rng.integers(1, 12))}")
    return tuple(sorted(series))


@dataclass(frozen=True)
class AttributeSpec:
    """One attribute a category's items may carry.

    ``fill_probability`` models seller behaviour: the real PKG is sparse
    because sellers fill only some attribute fields — this is the
    incompleteness PKGM is designed to paper over.
    """

    relation: str
    values: Tuple[str, ...]
    fill_probability: float = 0.8

    def __post_init__(self) -> None:
        if not self.values:
            raise ValueError(f"attribute {self.relation} has no values")
        if not 0.0 < self.fill_probability <= 1.0:
            raise ValueError("fill_probability must be in (0, 1]")


@dataclass(frozen=True)
class CategorySpec:
    """A leaf of the category tree with its attribute templates."""

    category_id: int
    name: str
    attributes: Tuple[AttributeSpec, ...]
    title_noun: str

    def attribute_relations(self) -> List[str]:
        return [a.relation for a in self.attributes]


# ----------------------------------------------------------------------
# Schema construction
# ----------------------------------------------------------------------

_CATEGORY_MODIFIERS = (
    "womens", "mens", "childrens", "girls", "boys", "unisex", "baby",
    "teen", "outdoor", "home",
)

_CATEGORY_NOUNS = (
    "skirts", "socks", "hair-accessories", "phone-cases", "t-shirts",
    "sneakers", "backpacks", "watches", "headphones", "teapots", "dresses",
    "jackets", "scarves", "gloves", "mugs", "lamps", "pillows", "towels",
    "sandals", "belts", "hats", "sunglasses", "keyboards", "speakers",
    "notebooks", "pens", "umbrellas", "wallets", "blankets", "curtains",
)


def build_default_schema(
    num_categories: int,
    rng: np.random.Generator,
    brand_pool_size: int = 40,
    brands_per_category: int = 8,
    min_attributes: int = 6,
    max_attributes: int = 12,
    noun_pool_size: Optional[int] = None,
) -> List[CategorySpec]:
    """Build ``num_categories`` category specs with realistic attributes.

    Every category gets ``brandIs`` (with a category-restricted brand
    subset) plus a random selection from the template pool, mirroring
    how attribute schemas vary across the real category tree.

    ``noun_pool_size`` restricts the distinct title nouns, forcing
    categories to share nouns (e.g. *womens-skirts* vs *girls-skirts*).
    Shared-noun categories can only be told apart through attribute
    words — the regime where the paper's PKGM vectors pay off.
    """
    nouns = list(_CATEGORY_NOUNS)
    if noun_pool_size is not None:
        if noun_pool_size < 1:
            raise ValueError("noun_pool_size must be >= 1")
        picked = rng.choice(len(nouns), size=min(noun_pool_size, len(nouns)), replace=False)
        nouns = [nouns[i] for i in sorted(picked)]
    max_names = len(_CATEGORY_MODIFIERS) * len(nouns)
    if num_categories < 1 or num_categories > max_names:
        raise ValueError(f"num_categories must be in [1, {max_names}]")
    if not min_attributes <= max_attributes:
        raise ValueError("min_attributes must be <= max_attributes")

    brand_pool = make_brand_pool(brand_pool_size, rng)
    series_pool = make_series_pool(20, rng)
    optional_templates: Dict[str, Tuple[Tuple[str, ...], float]] = {
        "colorIs": (_COLORS, 0.9),
        "materialIs": (_MATERIALS, 0.7),
        "sizeIs": (_SIZES, 0.75),
        "styleIs": (_STYLES, 0.6),
        "seasonIs": (_SEASONS, 0.55),
        "crowdIs": (_CROWDS, 0.5),
        "originIs": (_ORIGINS, 0.45),
        "patternIs": (_PATTERNS, 0.5),
        "memoryIs": (_MEMORIES, 0.65),
        "screenIs": (_SCREENS, 0.5),
        "capacityIs": (_CAPACITIES, 0.5),
        "lengthIs": (_LENGTHS, 0.55),
        "closureIs": (_CLOSURES, 0.4),
        "sleeveIs": (_SLEEVES, 0.45),
        "seriesIs": (series_pool, 0.6),
    }

    names = [
        f"{modifier}-{noun}"
        for modifier in _CATEGORY_MODIFIERS
        for noun in nouns
    ]
    order = rng.permutation(len(names))[:num_categories]

    categories: List[CategorySpec] = []
    template_keys = sorted(optional_templates)
    for category_id, name_index in enumerate(order):
        name = names[name_index]
        noun = name.split("-", 1)[1]
        brand_ids = rng.choice(
            len(brand_pool), size=min(brands_per_category, len(brand_pool)), replace=False
        )
        attributes = [
            AttributeSpec(
                relation="brandIs",
                values=tuple(brand_pool[i] for i in sorted(brand_ids)),
                fill_probability=0.95,
            )
        ]
        target = int(rng.integers(min_attributes, max_attributes + 1)) - 1
        target = min(target, len(template_keys))
        chosen = rng.choice(len(template_keys), size=target, replace=False)
        for key_index in sorted(chosen):
            relation = template_keys[key_index]
            values, fill = optional_templates[relation]
            # Restrict each category to a value subset: different categories
            # favour different colors/materials, like the real catalog.
            k = max(3, int(np.ceil(len(values) * 0.6)))
            k = min(k, len(values))
            picked = rng.choice(len(values), size=k, replace=False)
            attributes.append(
                AttributeSpec(
                    relation=relation,
                    values=tuple(values[i] for i in sorted(picked)),
                    fill_probability=fill,
                )
            )
        categories.append(
            CategorySpec(
                category_id=category_id,
                name=name,
                attributes=tuple(attributes),
                title_noun=noun,
            )
        )
    return categories
