"""Table I — pre-training vs servicing semantics of the two modules.

Table I in the paper is definitional; the measurable claims behind it
(§II-D) are:

* ``S_T(h, r) = h + r`` approximates the true tail embedding, including
  for held-out triples (completion during service);
* ``S_R(h, r) = M_r h - r`` approaches 0 iff the item has — or should
  have — relation r, ordering the three existence cases.

This bench measures both on the bench-scale KG and times the serving
path (the production-relevant operation: serving is embedding math,
never a symbolic query).
"""

import numpy as np


def service_quality(workbench):
    """Compute tail-decoding hit rates and the three-case S_R norms."""
    catalog = workbench.catalog
    model = workbench.pkgm
    arr = catalog.store.to_array()
    sample = arr[np.random.default_rng(0).choice(len(arr), size=min(500, len(arr)), replace=False)]

    service = model.service_triple(sample[:, 0], sample[:, 1])
    top = model.nearest_entities(service, k=10)
    hits1 = float(np.mean([sample[i, 2] == top[i][0] for i in range(len(sample))]))
    hits10 = float(np.mean([sample[i, 2] in top[i] for i in range(len(sample))]))

    schema_rels = {
        c.category_id: {catalog.relations.id_of(a.relation) for a in c.attributes}
        for c in catalog.schema
    }
    has, should, should_not = [], [], []
    for item in catalog.items[:400]:
        have = catalog.store.relations_of(item.entity_id)
        applicable = schema_rels[item.category_id]
        for r in range(len(catalog.relations)):
            pair = (item.entity_id, r)
            if r in have:
                has.append(pair)
            elif r in applicable:
                should.append(pair)
            else:
                should_not.append(pair)

    def mean_norm(pairs):
        pairs = np.asarray(pairs)
        out = model.service_relation(pairs[:, 0], pairs[:, 1])
        return float(np.abs(out).sum(axis=1).mean())

    return {
        "tail_hit@1": hits1,
        "tail_hit@10": hits10,
        "norm_has": mean_norm(has),
        "norm_should_have": mean_norm(should),
        "norm_should_not": mean_norm(should_not),
    }


def test_table1_service_semantics(benchmark, workbench, record_table):
    quality = service_quality(workbench)

    # Time the production serving path: 2k vectors for a batch of items.
    entities = [item.entity_id for item in workbench.catalog.items[:256]]
    benchmark(workbench.server.serve_sequence_batch, entities)

    record_table(
        "table1_service_semantics",
        [
            "Table I semantics check (paper: definitional; see DESIGN.md)",
            f"S_T decodes true tail: Hit@1={quality['tail_hit@1']:.3f} "
            f"Hit@10={quality['tail_hit@10']:.3f}",
            "S_R L1 norm by existence case (paper: has ~ should-have << should-not):",
            f"  has relation        : {quality['norm_has']:.3f}",
            f"  should have (missing): {quality['norm_should_have']:.3f}",
            f"  should NOT have     : {quality['norm_should_not']:.3f}",
        ],
    )

    assert quality["tail_hit@10"] > 0.5
    assert quality["norm_has"] < quality["norm_should_not"]
    assert quality["norm_should_have"] < quality["norm_should_not"]
