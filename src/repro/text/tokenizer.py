"""Word-level tokenizer with BERT-style special tokens.

The paper tokenizes Chinese titles with BERT's WordPiece; our synthetic
titles are already word sequences, so a closed word vocabulary with the
standard ``[PAD]/[UNK]/[CLS]/[SEP]/[MASK]`` specials reproduces the
input pipeline (including the pair encoding used for alignment).
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Sequence, Tuple

import numpy as np

PAD, UNK, CLS, SEP, MASK = "[PAD]", "[UNK]", "[CLS]", "[SEP]", "[MASK]"
SPECIAL_TOKENS = (PAD, UNK, CLS, SEP, MASK)


class WordTokenizer:
    """Maps word sequences to fixed-length id arrays.

    Parameters
    ----------
    vocabulary:
        The closed set of real words (specials are added automatically,
        occupying ids 0..4).
    """

    def __init__(self, vocabulary: Iterable[str]) -> None:
        words = sorted(set(vocabulary) - set(SPECIAL_TOKENS))
        self._id_of: Dict[str, int] = {
            token: i for i, token in enumerate(SPECIAL_TOKENS)
        }
        for word in words:
            self._id_of[word] = len(self._id_of)
        self._token_of = {i: t for t, i in self._id_of.items()}

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def vocab_size(self) -> int:
        return len(self._id_of)

    @property
    def pad_id(self) -> int:
        return self._id_of[PAD]

    @property
    def unk_id(self) -> int:
        return self._id_of[UNK]

    @property
    def cls_id(self) -> int:
        return self._id_of[CLS]

    @property
    def sep_id(self) -> int:
        return self._id_of[SEP]

    @property
    def mask_id(self) -> int:
        return self._id_of[MASK]

    def id_of(self, token: str) -> int:
        """Id of ``token`` (UNK id if unknown)."""
        return self._id_of.get(token, self.unk_id)

    def token_of(self, index: int) -> str:
        if index not in self._token_of:
            raise IndexError(f"id {index} not in vocabulary")
        return self._token_of[index]

    def is_special(self, index: int) -> bool:
        return index < len(SPECIAL_TOKENS)

    # ------------------------------------------------------------------
    # Encoding
    # ------------------------------------------------------------------
    def encode(
        self, words: Sequence[str], max_length: int
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Encode one title: ``[CLS] words... [SEP]`` padded to ``max_length``.

        Follows the paper's truncation rule: overly long inputs keep the
        *first* words ("we reserve the first 127 words").

        Returns (token_ids, attention_mask, segment_ids), each of shape
        (max_length,).
        """
        if max_length < 3:
            raise ValueError("max_length must be >= 3 ([CLS] word [SEP])")
        body = [self.id_of(w) for w in words][: max_length - 2]
        ids = [self.cls_id] + body + [self.sep_id]
        mask = [1] * len(ids)
        pad = max_length - len(ids)
        ids.extend([self.pad_id] * pad)
        mask.extend([0] * pad)
        return (
            np.asarray(ids, dtype=np.int64),
            np.asarray(mask, dtype=np.int64),
            np.zeros(max_length, dtype=np.int64),
        )

    def encode_pair(
        self,
        words_a: Sequence[str],
        words_b: Sequence[str],
        max_length: int,
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Encode a sentence pair: ``[CLS] a... [SEP] b... [SEP]``.

        Each side is truncated to an equal share of the budget, like the
        paper restricting each title to 63 tokens inside a length-128
        pair.  Segment ids are 0 for the first sentence (incl. [CLS] and
        its [SEP]) and 1 for the second.
        """
        if max_length < 5:
            raise ValueError("max_length must be >= 5 for a pair")
        budget = max_length - 3  # [CLS] + 2x[SEP]
        per_side = budget // 2
        a = [self.id_of(w) for w in words_a][:per_side]
        b = [self.id_of(w) for w in words_b][: budget - len(a)]
        ids = [self.cls_id] + a + [self.sep_id] + b + [self.sep_id]
        segments = [0] * (len(a) + 2) + [1] * (len(b) + 1)
        mask = [1] * len(ids)
        pad = max_length - len(ids)
        ids.extend([self.pad_id] * pad)
        mask.extend([0] * pad)
        segments.extend([0] * pad)
        return (
            np.asarray(ids, dtype=np.int64),
            np.asarray(mask, dtype=np.int64),
            np.asarray(segments, dtype=np.int64),
        )

    def encode_batch(
        self, titles: Sequence[Sequence[str]], max_length: int
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Vectorized :meth:`encode` over a batch of titles."""
        encoded = [self.encode(t, max_length) for t in titles]
        ids = np.stack([e[0] for e in encoded])
        mask = np.stack([e[1] for e in encoded])
        segments = np.stack([e[2] for e in encoded])
        return ids, mask, segments

    def encode_pair_batch(
        self,
        pairs: Sequence[Tuple[Sequence[str], Sequence[str]]],
        max_length: int,
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Vectorized :meth:`encode_pair`."""
        encoded = [self.encode_pair(a, b, max_length) for a, b in pairs]
        ids = np.stack([e[0] for e in encoded])
        mask = np.stack([e[1] for e in encoded])
        segments = np.stack([e[2] for e in encoded])
        return ids, mask, segments

    def decode(self, ids: Sequence[int], skip_special: bool = True) -> List[str]:
        """Ids back to tokens, optionally dropping specials."""
        tokens = []
        for index in ids:
            index = int(index)
            if skip_special and self.is_special(index):
                continue
            tokens.append(self.token_of(index))
        return tokens
