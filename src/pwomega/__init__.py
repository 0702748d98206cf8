"""Exact and high-precision verification toolkit for the overpartition series
P-bar-omega: q-series identities, indefinite theta representations, Zwegers-type
completions, and numerical modular-transformation checks for the completed
weight-1 object.

Layers:
  cyc8 / qseries / jseries   exact kernel (8th cyclotomic rationals, sparse
                             Laurent-Puiseux series, two-variable series)
  partitions                 enumeration oracles and generating functions
  classical                  eta, eta quotients, theta at torsion points,
                             finite triple product, Heine transformation
  kernels / appell           arbitrary-precision eta/theta/E/R/mu kernels
  indefinite / completion    cone sums and the completed weight-1 machinery
  modular                    congruence groups, multipliers, FD operators
  registry / cli             identity registry and command-line harness
"""

from .cyc8 import Cyc8
from .jseries import JSeries, jpochhammer
from .qseries import Monomial, QSeries, qpochhammer

__version__ = "0.1.0"

__all__ = [
    "Cyc8", "Monomial", "QSeries", "qpochhammer",
    "JSeries", "jpochhammer", "__version__",
]
