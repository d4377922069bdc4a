"""End-to-end experiment pipeline: generate → pre-train → serve → fine-tune.

:func:`build_workbench` assembles every shared artifact once (catalog,
title generator, tokenizer, pre-trained PKGM + server, MLM-pre-trained
encoder weights); task runners then consume the workbench.  Benches and
examples all go through here so experiments stay consistent.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from .config import ExperimentConfig
from .core import (
    KeyRelationSelector,
    PKGM,
    PKGMServer,
    PKGMTrainer,
    TrainingHistory,
)
from .data import (
    Catalog,
    TitleGenerator,
    generate_catalog,
    title_vocabulary,
)
from .text import (
    MLMTrainer,
    MiniBert,
    MiniBertConfig,
    PairPretrainer,
    WordTokenizer,
)


@dataclass
class Workbench:
    """All shared artifacts of one experimental run."""

    config: ExperimentConfig
    catalog: Catalog
    titles: TitleGenerator
    tokenizer: WordTokenizer
    pkgm: PKGM
    pkgm_history: TrainingHistory
    selector: KeyRelationSelector
    server: PKGMServer
    encoder_config: MiniBertConfig
    mlm_state: Dict[str, np.ndarray]
    mlm_losses: List[float]
    pair_pretrain_losses: List[float]


def untrained_server(
    config: ExperimentConfig, seed: Optional[int] = None
) -> Tuple[Catalog, PKGMServer]:
    """The preset's catalog and a seeded, *untrained* server over it.

    Serving, index, and store mechanics — admission, partitioning,
    snapshots, byte-determinism — do not depend on trained weights, so
    the drills, gates, and CLI commands that exercise only mechanics
    build this in milliseconds instead of pre-training.  ``seed``
    seeds the model weights (default ``config.seed``); the same
    ``(config, seed)`` gives byte-identical tables.
    """
    catalog = generate_catalog(config.catalog)
    item_to_category = {item.entity_id: item.category_id for item in catalog.items}
    selector = KeyRelationSelector(
        catalog.store, item_to_category, k=config.key_relations
    )
    model = PKGM(
        len(catalog.entities),
        len(catalog.relations),
        config.pkgm,
        rng=np.random.default_rng(config.seed if seed is None else seed),
    )
    return catalog, PKGMServer(model, selector)


def build_workbench(
    config: ExperimentConfig,
    pretrain_mlm: bool = True,
    verbose: bool = False,
) -> Workbench:
    """Run the full substrate pipeline for ``config``.

    Steps (mirroring the paper's §III-A setup):

    1. generate the synthetic catalog and its product KG (PKG-sub
       substitute);
    2. pre-train PKGM on the KG (TransE triple module + M_r relation
       module, margin loss);
    3. build the key-relation table (top-k per category) and snapshot a
       :class:`PKGMServer`;
    4. pre-train the mini-BERT with masked LM on the title corpus (the
       Google-checkpoint substitute); skipped when ``pretrain_mlm`` is
       False for speed-sensitive tests.
    """
    log = print if verbose else (lambda *_: None)

    log(f"[1/4] generating catalog (seed={config.catalog.seed}) ...")
    catalog = generate_catalog(config.catalog)
    titles = TitleGenerator(catalog, config.titles, seed=config.seed + 1)
    log(
        f"      items={len(catalog.items)} triples={len(catalog.store)} "
        f"relations={len(catalog.relations)}"
    )

    log("[2/4] pre-training PKGM ...")
    pkgm = PKGM(
        len(catalog.entities),
        len(catalog.relations),
        config.pkgm,
        rng=np.random.default_rng(config.seed),
    )
    history = PKGMTrainer(pkgm, config.pkgm_trainer).train(catalog.store)
    log(
        f"      margin loss {history.epoch_losses[0]:.3f} -> "
        f"{history.final_loss:.3f}"
    )

    log("[3/4] building key-relation table and service snapshot ...")
    item_to_category = {
        item.entity_id: item.category_id for item in catalog.items
    }
    selector = KeyRelationSelector(
        catalog.store, item_to_category, k=config.key_relations
    )
    server = PKGMServer(pkgm, selector)

    tokenizer = WordTokenizer(title_vocabulary(catalog))
    encoder_config = MiniBertConfig(
        vocab_size=tokenizer.vocab_size,
        max_length=config.encoder_max_length,
        dim=config.encoder_dim,
        num_layers=config.encoder_layers,
        num_heads=config.encoder_heads,
        ffn_dim=config.encoder_ffn,
        # No dropout: at synthetic scale it prevents the encoder from
        # learning cross-segment token matching (a dropped token flips
        # the pair label's evidence), and the datasets are small enough
        # that regularization costs more than it saves.
        dropout=0.0,
        service_dim=config.pkgm.dim,
        max_service_vectors=4 * config.key_relations,
        tie_qk_init=True,
    )

    log("[4/4] masked-LM + pair pre-training of the text encoder ...")
    encoder = MiniBert(encoder_config, rng=np.random.default_rng(config.seed + 2))
    mlm_losses: List[float] = []
    pair_losses: List[float] = []
    if pretrain_mlm:
        corpus = [titles.title_of(item) for item in catalog.items]
        mlm_trainer = MLMTrainer(encoder, tokenizer, config.mlm)
        mlm_losses = mlm_trainer.train(corpus, max_length=config.encoder_max_length)
        log(
            f"      MLM loss {mlm_losses[0]:.3f} -> {mlm_losses[-1]:.3f}"
            if mlm_losses
            else "      (no MLM epochs)"
        )
        if config.pair_pretrain is not None:
            # The NSP substitute: same-item title pairs teach the encoder
            # cross-segment matching (see repro.text.pair_pretrain).
            pair_trainer = PairPretrainer(encoder, tokenizer, config.pair_pretrain)
            categories = [item.category_id for item in catalog.items]
            pair_losses = pair_trainer.train(
                lambda index: titles.title_of(catalog.items[index]),
                len(catalog.items),
                categories,
            )
            log(
                f"      pair pretext loss {pair_losses[0]:.3f} -> "
                f"{pair_losses[-1]:.3f}"
            )
    mlm_state = encoder.state_dict()

    return Workbench(
        config=config,
        catalog=catalog,
        titles=titles,
        tokenizer=tokenizer,
        pkgm=pkgm,
        pkgm_history=history,
        selector=selector,
        server=server,
        encoder_config=encoder_config,
        mlm_state=mlm_state,
        mlm_losses=mlm_losses,
        pair_pretrain_losses=pair_losses,
    )
