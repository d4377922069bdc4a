"""Knowledge graph substrate: storage, queries, sampling, splitting, stats.

This package replaces the symbolic side of Alibaba's product KG
infrastructure: the indexed triple store, the two query services of
§II, the Graph-learn edge sampler, negative sampling, and dataset
splits including the incompleteness hold-out used to test PKGM's
completion-during-service capability.
"""

from .graph import (
    connected_component_sizes,
    shared_value_neighbors,
    to_networkx,
)
from .negatives import UniformNegativeSampler
from .queries import QueryEngine, recover_all_triples
from .rules import Rule, RuleCompleter, RuleMiner
from .sampling import EdgeSampler
from .splits import holdout_incompleteness, split_triples
from .stats import kg_statistics
from .store import Triple, TripleStore
from .vocab import EntityVocabulary, RelationVocabulary, Vocabulary

__all__ = [
    "EdgeSampler",
    "EntityVocabulary",
    "QueryEngine",
    "RelationVocabulary",
    "Rule",
    "RuleCompleter",
    "RuleMiner",
    "Triple",
    "TripleStore",
    "UniformNegativeSampler",
    "connected_component_sizes",
    "shared_value_neighbors",
    "to_networkx",
    "Vocabulary",
    "holdout_incompleteness",
    "kg_statistics",
    "recover_all_triples",
    "split_triples",
]
