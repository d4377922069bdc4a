"""The paper's three downstream tasks, each with Base and PKGM variants.

* :mod:`repro.tasks.classification` — item classification (Table IV);
* :mod:`repro.tasks.alignment` — product alignment (Tables VI–VII);
* :mod:`repro.tasks.recommendation` — NCF recommendation (Table VIII).
"""

from .alignment import ProductAlignmentTask
from .attribute_prediction import AttributePredictionTask
from .classification import ItemClassificationTask
from .common import FineTuneConfig, minibatches
from .recommendation import NCF, NCFConfig, RecommendationTask

__all__ = [
    "AttributePredictionTask",
    "FineTuneConfig",
    "ItemClassificationTask",
    "NCF",
    "NCFConfig",
    "ProductAlignmentTask",
    "RecommendationTask",
    "minibatches",
]
