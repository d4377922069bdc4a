"""Downstream scenarios served from PKGM service vectors.

The paper's pitch is that service vectors let applications consume
billion-scale KG knowledge without touching the graph.  PRs 1–9 built
the substrate (training, serving, reliability, storage, streaming);
this package adds the two scenario workloads named in PAPERS.md on top
of it:

* :mod:`repro.scenarios.coldstart` — zero-shot recommendation
  (arXiv 2305.07633): a seeded interaction generator that produces
  cold-start items by construction, a multi-task pre-training
  objective coupling the TransE loss with an item–item co-occurrence
  alignment head, and an eval harness scoring cold items purely from
  service vectors against popularity / random / warm-only baselines.
* :mod:`repro.scenarios.explain` — explainable relation reasoning
  (arXiv 2112.08589): completion and existence answers packaged with
  the mined rules and concrete supporting triples that entail them,
  plus rule-transfer evaluation across category subgraphs.
* :mod:`repro.scenarios.service` — the serving-side engines behind the
  gateway's ``submit_explanation`` / ``submit_recommendation``
  endpoints and the pool's ``explain`` / ``recommend`` op kinds.
* :mod:`repro.scenarios.workload` — the seeded two-phase drill whose
  byte-diffed transcript gates in ``tools/check.sh`` and CI.

Determinism discipline matches :mod:`repro.reliability`: virtual
clocks and seeded generators only — lint rule R007 bans wall-clock
reads here too.
"""

from .coldstart import (
    ColdStartConfig,
    ColdStartReport,
    ColdStartSplit,
    CooccurrenceAligner,
    evaluate_coldstart,
    generate_coldstart_split,
    pretrain_multitask,
    run_coldstart,
)
from .explain import (
    Citation,
    Explainer,
    ExplanationPayload,
    TransferReport,
    category_subgraphs,
    evaluate_rule_transfer,
    load_sidecar,
    save_sidecar,
)
from .service import (
    RecommendationPayload,
    ScenarioService,
    ServiceRecommender,
    WorkerScenarios,
)
from .workload import ScenarioWorkloadReport, run_scenarios_workload

__all__ = [
    "Citation",
    "ColdStartConfig",
    "ColdStartReport",
    "ColdStartSplit",
    "CooccurrenceAligner",
    "Explainer",
    "ExplanationPayload",
    "RecommendationPayload",
    "ScenarioService",
    "ScenarioWorkloadReport",
    "ServiceRecommender",
    "TransferReport",
    "WorkerScenarios",
    "category_subgraphs",
    "evaluate_coldstart",
    "evaluate_rule_transfer",
    "generate_coldstart_split",
    "load_sidecar",
    "pretrain_multitask",
    "run_coldstart",
    "run_scenarios_workload",
    "save_sidecar",
]
