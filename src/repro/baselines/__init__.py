"""KGE baselines and link-prediction evaluation.

Implements the translational (TransE/TransH/TransR) and semantic
matching (DistMult/ComplEx/RESCAL) families cited in the paper's
related work, with a shared trainer and the standard filtered ranking
protocol — used to validate the KGE substrate and to ablate PKGM's
triple-scorer choice.
"""

from .conve import ConvE
from .hyperbolic import MuRP
from .link_prediction import evaluate_link_prediction, evaluate_link_prediction_ann
from .scorers import (
    SCORERS,
    ComplEx,
    DistMult,
    RESCAL,
    TranSparse,
    TransD,
    TransE,
    TransH,
    TransR,
    make_scorer,
)
from .trainer import KGETrainer, KGETrainerConfig

# ConvE lives in its own module (it needs the conv machinery); register
# it in the factory alongside the classic scorers.
SCORERS["conve"] = ConvE
SCORERS["murp"] = MuRP

__all__ = [
    "ComplEx",
    "ConvE",
    "DistMult",
    "KGETrainer",
    "KGETrainerConfig",
    "MuRP",
    "RESCAL",
    "SCORERS",
    "TransD",
    "TransE",
    "TranSparse",
    "TransH",
    "TransR",
    "evaluate_link_prediction",
    "evaluate_link_prediction_ann",
    "make_scorer",
]
