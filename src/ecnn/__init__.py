"""Evolving cascade networks for binary classification.

A cascade of sigmoid neurons is grown one neuron at a time: each
candidate is fitted by an iterative projection rule on one half of the
training data and kept only if it lowers a validation criterion measured
on the other half.  Growth therefore selects features and architecture at
the same time.  A restart harness repeats growth from many random
initializations and keeps the model with the lowest training error.

The command-line interface lives in :mod:`ecnn.cli` (installed as the
``ecnn`` script); the package holds the library surface, the names the
command line, the demos, the README and the benchmark use.  Each
module's ``__all__`` is its part of that surface, and the package
re-exports those lists in the order below; every other name is
importable from its module only.  Growing one cascade is
``ecnn.evolve.evolve``: the package attribute ``ecnn.evolve`` is the
module, so the function is not re-exported.
"""

from . import cascade, data_io, domain, errors, evolve, fitting, model_io
from .cascade import *
from .data_io import *
from .domain import *
from .errors import *
from .evolve import *
from .fitting import *
from .model_io import *

__version__ = "0.1.0"

__all__ = (
    ["__version__"]
    + domain.__all__
    + errors.__all__
    + fitting.__all__
    + cascade.__all__
    + evolve.__all__
    + data_io.__all__
    + model_io.__all__
)
