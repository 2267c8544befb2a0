"""Exact rational homological algebra for finite-dimensional algebras.

Everything here is computed over Q with arbitrary-precision rational
arithmetic; there is no floating point anywhere.  The main layers:

  exactlin    sparse exact linear algebra (rank, kernel, radicals)
  algebras    finite-dimensional algebras, quivers, bimodules, resolutions
  hochschild  Hochschild / cyclic / periodic cyclic homology
  motives     correspondences, intersection numbers, numerical equivalence,
              instance checkers for the even/odd projector and kernel
              comparison questions
  categories  finitely presented monoidal categories: Karoubi envelope,
              orbit category, coefficient extension, trace ideal, quotients,
              the dagger twist of the symmetry and the traces
  schur       symmetric-group idempotents and Schur functors
  supers      super dimensions (d+|d-)

The layers no describe/hh/hc/sbi/hp command runs, motives, categories,
schur and supers, are deferred: importing the package puts them in
sys.modules through importlib.util.LazyLoader, and their source is
compiled and run on first use.  Each command-line call is a cold process,
and with PYTHONDONTWRITEBYTECODE set every import compiles its source, so
a Hochschild command would otherwise compile four layers it never runs;
`python -X importtime -c "import ncmotives.cli"` prints no line for them.
`from ncmotives import motives`, `import ncmotives.motives as m` and the
first read of `ncmotives.motives` run the module there and then (through
the module __getattr__ below), so a caller's set-up still pays for what it
names.  LazyLoader's first use is not thread-safe; the package is
single-threaded.
"""

import importlib.util
import sys

from .errors import (
    NCMotivesError,
    ParseInputError,
    InvariantError,
    CapExceededError,
    UncertifiedError,
)

__version__ = "0.1.0"

DEFERRED = ("motives", "categories", "schur", "supers")

for _name in DEFERRED:
    _spec = importlib.util.find_spec(__name__ + "." + _name)
    _spec.loader = importlib.util.LazyLoader(_spec.loader)
    _module = sys.modules[_spec.name] = importlib.util.module_from_spec(_spec)
    _spec.loader.exec_module(_module)
del _name, _spec, _module


def __getattr__(name):
    """A deferred layer, run now.  The layers are not bound as attributes
    at import, so `from ncmotives import categories` comes here and pays
    the compile where it is written, not at the first use of a name."""
    if name not in DEFERRED:
        raise AttributeError("module %r has no attribute %r"
                             % (__name__, name))
    module = sys.modules[__name__ + "." + name]
    vars(module)        # a lazy module runs on its first attribute read
    globals()[name] = module
    return module
