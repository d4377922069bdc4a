"""Table V — alignment dataset statistics for three categories.

Paper rows (| # Train | # Test-C | # Dev-C | # Test-R | # Dev-R):

    category-1 | 4731 | 1014 | 1013 | 513 | 497
    category-2 | 2424 |  520 |  519 | 268 | 278
    category-3 | 3968 |  852 |  850 | 417 | 440

Structure to reproduce: three per-category datasets split ~7:1.5:1.5
with classification (-C) and ranking (-R) evaluation sets; -C splits
are roughly twice the -R splits because every ranking positive also
appears in -C alongside one sampled negative.
"""

from repro.data import build_alignment_dataset

PAPER_ROWS = [
    "category-1 (paper) | 4731 | 1014 | 1013 | 513 | 497",
    "category-2 (paper) | 2424 | 520 | 519 | 268 | 278",
    "category-3 (paper) | 3968 | 852 | 850 | 417 | 440",
]


def test_table5_alignment_stats(benchmark, workbench, alignment_datasets, record_table):
    benchmark.pedantic(
        build_alignment_dataset,
        args=(workbench.catalog, workbench.titles),
        kwargs={"category_id": 0, "ranking_candidates": 99, "seed": 11},
        rounds=3,
        iterations=1,
    )

    rows = [
        dataset.as_table_row(f"category-{i + 1} (synthetic, {dataset.category_name})")
        for i, dataset in enumerate(alignment_datasets.values())
    ]
    record_table(
        "table5_alignment_stats",
        [
            "Table V: | # Train | # Test-C | # Dev-C | # Test-R | # Dev-R",
            *PAPER_ROWS,
            *rows,
        ],
    )

    for dataset in alignment_datasets.values():
        # Train dominates, and -C splits pair each -R positive with a negative.
        assert len(dataset.train) > len(dataset.test_c)
        assert len(dataset.test_c) == 2 * len(dataset.test_r)
        assert len(dataset.dev_c) == 2 * len(dataset.dev_r)
        for case in dataset.test_r:
            assert len(case.candidates) == 99  # the paper's 100-candidate ranking
