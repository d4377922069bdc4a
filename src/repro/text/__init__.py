"""Text substrate: tokenizer, mini-BERT, MLM pre-training, task heads.

Substitutes the pre-trained Chinese BERT-base of the paper with a
from-scratch transformer encoder pre-trained via masked LM on the
synthetic title corpus, plus the PKGM service-vector injection path of
§II-E (sequence-input integration).
"""

from .bert import MiniBert, MiniBertConfig
from .heads import PairClassifier, TextClassifier
from .integration import (
    VARIANTS,
    pair_service_payload,
    pair_service_segment_ids,
    service_payload,
    validate_variant,
    vectors_per_item,
)
from .mlm import MLMConfig, MLMTrainer, mask_tokens
from .pair_pretrain import PairPretrainConfig, PairPretrainer
from .tokenizer import WordTokenizer

__all__ = [
    "MLMConfig",
    "MLMTrainer",
    "MiniBert",
    "MiniBertConfig",
    "PairClassifier",
    "PairPretrainConfig",
    "PairPretrainer",
    "TextClassifier",
    "VARIANTS",
    "WordTokenizer",
    "mask_tokens",
    "pair_service_payload",
    "pair_service_segment_ids",
    "service_payload",
    "validate_variant",
    "vectors_per_item",
]
