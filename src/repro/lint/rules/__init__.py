"""Built-in lint rules.

Importing this package registers every rule with
:mod:`repro.lint.registry` via the ``@register`` decorator side effect.
"""

from . import (  # noqa: F401
    defaults,
    exceptions,
    exports,
    imports,
    pickles,
    prints,
    randomness,
    tensors,
)
