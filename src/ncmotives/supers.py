"""Super vector spaces, Kuenneth projectors, and the symmetry twist.

Every map is the list of its columns (exactlin's one format), in the
even-first basis ordering: a super space (d+|d-) is Q^(d+ + d-) with the
first d+ coordinates even, and V (x) V has the basis i * (d+ + d-) + j.
The Koszul sign convention is (-1)^(|x||y|) on the swap of homogeneous
factors.
"""

from .errors import InvariantError
from .exactlin import (combine_cols, compose_cols, identity_cols,
                       matrix_rank)


class SuperSpace:
    """A pair of non-negative dimensions (even | odd)."""

    __slots__ = ("even", "odd")

    def __init__(self, even, odd):
        if even < 0 or odd < 0:
            raise InvariantError("super dimensions must be non-negative")
        self.even = even
        self.odd = odd

    @property
    def total(self):
        return self.even + self.odd

    def parity(self, i):
        return 0 if i < self.even else 1

    def tensor(self, other):
        return SuperSpace(self.even * other.even + self.odd * other.odd,
                          self.even * other.odd + self.odd * other.even)

    def __eq__(self, other):
        return (isinstance(other, SuperSpace) and self.even == other.even
                and self.odd == other.odd)

    def __iter__(self):
        return iter((self.even, self.odd))

    def __repr__(self):
        return "(%d|%d)" % (self.even, self.odd)


class GradedSpace:
    """Finitely supported Z-graded dimensions; the graded model of a bounded
    complex over Q."""

    def __init__(self, dims):
        self.dims = {int(n): int(d) for n, d in dims.items() if d}
        if any(d < 0 for d in self.dims.values()):
            raise InvariantError("graded dimensions must be non-negative")

    @property
    def total(self):
        return sum(self.dims.values())

    def collapse(self):
        """Super collapse: even total | odd total."""
        even = sum(d for n, d in self.dims.items() if n % 2 == 0)
        odd = sum(d for n, d in self.dims.items() if n % 2 == 1)
        return SuperSpace(even, odd)

    def __eq__(self, other):
        return isinstance(other, GradedSpace) and self.dims == other.dims

    def __repr__(self):
        return "GradedSpace(%s)" % (self.dims,)


class KunnethPair:
    """The pair of projections of a super space onto its even/odd parts,
    each the list of its columns.  Idempotents P and M with P + M = I are
    orthogonal, PM = P - P^2 = 0, so that is not checked apart."""

    def __init__(self, space, plus, minus):
        self.space = space
        self.plus = plus
        self.minus = minus
        t = space.total
        if combine_cols((plus, minus), {0: 1, 1: 1}, t) != identity_cols(t):
            raise InvariantError("projectors do not sum to the identity")
        if compose_cols(plus, plus) != plus or \
                compose_cols(minus, minus) != minus:
            raise InvariantError("projectors are not idempotent")
        if matrix_rank(plus) != space.even or matrix_rank(minus) != space.odd:
            raise InvariantError("projector ranks disagree with the declared "
                                 "dimensions")

    def __repr__(self):
        return "KunnethPair%s" % (self.space,)


def kunneth_projectors(v):
    """Canonical block projectors in the even-first ordering."""
    t = v.total
    plus = [{i: 1} if i < v.even else {} for i in range(t)]
    minus = [{} if i < v.even else {i: 1} for i in range(t)]
    return KunnethPair(v, plus, minus)


def rank_super(v):
    """The categorical rank in super vector spaces: d+ - d- (can be < 0)."""
    return v.even - v.odd


def rank_dagger(v):
    """The rank after the symmetry twist: d+ + d-."""
    return v.even + v.odd


def koszul_swap(v):
    """The columns of the signed swap on v (x) v, basis i * t + j:
    x (x) y -> (-1)^(|x||y|) y (x) x."""
    t = v.total
    return [{j * t + i: -1 if v.parity(i) and v.parity(j) else 1}
            for i in range(t) for j in range(t)]


def twist_symmetry(v, pair):
    """The columns of the symmetry constraint on v (x) v before and after
    the twist.

    The twist composes the Koszul swap with the operator 1 - 2 pi- (x) pi-,
    which has eigenvalue (-1)^(pq) on the parity-(p, q) block: exactly the
    odd (x) odd sign flips, the twisted constraint squares to the identity,
    and categorical ranks become d+ + d-.
    """
    if pair.space != v:
        raise InvariantError("projector pair does not match the space")
    t = v.total
    before = koszul_swap(v)
    # pi- (x) pi- on the basis i * t + j
    minus2 = [{r1 * t + r2: a * b for r1, a in pair.minus[c1].items()
               for r2, b in pair.minus[c2].items()}
              for c1 in range(t) for c2 in range(t)]
    ident = identity_cols(t * t)
    after = compose_cols(before,
                         combine_cols((ident, minus2), {0: 1, 1: -2}, t * t))
    if compose_cols(after, after) != ident:
        raise InvariantError("twisted symmetry does not square to identity")
    return before, after
