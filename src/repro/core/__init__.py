"""PKGM core: the paper's primary contribution.

Triple and relation query modules, the joint margin-loss pre-training,
key-relation selection, and the service-vector API that downstream
tasks consume instead of triple data.
"""

from .key_relations import KeyRelationSelector
from .modules import RelationQueryModule, TripleQueryModule
from .pkgm import PKGM, PKGMConfig
from .service import PKGMServer, SnapshotError
from .trainer import PKGMTrainer, TrainerConfig, TrainingHistory, pretrain_pkgm

__all__ = [
    "KeyRelationSelector",
    "PKGM",
    "PKGMConfig",
    "PKGMServer",
    "PKGMTrainer",
    "RelationQueryModule",
    "SnapshotError",
    "TrainerConfig",
    "TrainingHistory",
    "TripleQueryModule",
    "pretrain_pkgm",
]
