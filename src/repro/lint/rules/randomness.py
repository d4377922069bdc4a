"""``unseeded-randomness``: global-RNG calls outside the seeded plumbing.

Every stochastic component in this repro threads an explicit, seeded
``numpy.random.Generator`` (see :mod:`repro.nn.init` and the samplers in
:mod:`repro.kg.sampling`).  A stray ``random.random()`` or
``np.random.rand()`` breaks run-to-run reproducibility — and with it the
EXPERIMENTS.md tables — silently.  This rule flags, in every file:

* calls through the stdlib ``random`` module's global instance
  (``random.random()``, ``from random import shuffle; shuffle(...)``);
* calls through numpy's legacy global RNG (``np.random.rand()``,
  ``np.random.seed()``, ``from numpy.random import rand``), excluding
  the seedable constructors (``default_rng``, ``Generator``,
  ``SeedSequence``, the bit generators);
* ``np.random.default_rng()`` called without a seed.

``random.Random(seed)`` / ``random.SystemRandom()`` instances are fine:
they are explicit objects whose seed the caller controls.  The call
sites are the nondeterminism primitives the module summary already
records for the determinism-taint pass (P101), which reports them only
where they reach the deterministic boundary; this rule reports every
RNG one, wherever it is.
"""

from __future__ import annotations

from typing import Iterator

from ..registry import Rule, register
from ..violations import Violation


@register
class UnseededRandomnessRule(Rule):
    """Flags calls through the global stdlib/numpy RNG state."""

    name = "unseeded-randomness"
    code = "R001"
    description = (
        "call to the global random/np.random RNG instead of a seeded "
        "numpy Generator"
    )

    def check(self, ctx) -> Iterator[Violation]:
        for info in ctx.summary.functions.values():
            for site in info.nondet:
                if site.primitive.startswith("time."):
                    continue
                yield self.violation(
                    ctx.display_path,
                    site.line,
                    f"call to {site.primitive} uses a global or unseeded RNG; "
                    "pass a seeded np.random.default_rng(seed) Generator instead",
                )
