"""Invariant vector measures of iterated function systems.

The package models finitely representable vector measures on [0, 1]
(Dirac atoms plus piecewise-constant densities with values in R^n or
C^n), the Markov-type operator built from contractive affine maps paired
with linear operators, and the norms under which that operator
contracts.  Fixed points are computed two independent ways — norm-
controlled iteration and exact evaluation on query sets — and
Monge-Kantorovich norms come with an exact one-dimensional formula plus
a certified two-sided bracket: witness pairings below, a closed-form
split bound above.
"""

from .exceptions import *
from .hilbert import *
from .integral import *
from .kernelops import *
from .markov import *
from .measure import *
from .mk_norm import *
from .semigroup import *
from .space import *
from . import (exceptions, hilbert, integral, kernelops, markov, measure,
               mk_norm, semigroup, space)

__version__ = "0.1.0"

# each module's own list: a public name is declared once, where it is defined
__all__ = [name for module in (exceptions, hilbert, integral, kernelops,
                               markov, measure, mk_norm, semigroup, space)
           for name in module.__all__] + ["__version__"]
