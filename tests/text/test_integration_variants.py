"""Unit tests for the integration-variant helpers (paper §II-E)."""

import pytest

from repro.text import VARIANTS, validate_variant, vectors_per_item


class TestValidateVariant:
    def test_accepts_all_known(self):
        for variant in VARIANTS:
            assert validate_variant(variant) == variant

    def test_case_insensitive(self):
        assert validate_variant("PKGM-ALL") == "pkgm-all"
        assert validate_variant("Base") == "base"

    def test_rejects_unknown(self):
        with pytest.raises(ValueError):
            validate_variant("pkgm")
        with pytest.raises(ValueError):
            validate_variant("")


class TestVectorsPerItem:
    @pytest.mark.parametrize(
        "variant,k,expected",
        [
            ("base", 10, 0),
            ("pkgm-t", 10, 10),
            ("pkgm-r", 10, 10),
            ("pkgm-all", 10, 20),
            ("pkgm-all", 1, 2),
        ],
    )
    def test_counts(self, variant, k, expected):
        assert vectors_per_item(variant, k) == expected

    def test_matches_paper_2k_formulation(self):
        """§II-E: k triple vectors + k relation vectors = 2k total."""
        k = 7
        assert (
            vectors_per_item("pkgm-t", k) + vectors_per_item("pkgm-r", k)
            == vectors_per_item("pkgm-all", k)
            == 2 * k
        )
