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
"""

from .errors import (
    NCMotivesError,
    ParseInputError,
    InvariantError,
    CapExceededError,
    UncertifiedError,
)

__version__ = "0.1.0"
