"""Super vector spaces, Kuenneth projectors, and the symmetry twist.

All matrices use the even-first basis ordering: a super space (d+|d-) is
Q^(d+ + d-) with the first d+ coordinates even.  The Koszul sign convention
is (-1)^(|x||y|) on the swap of homogeneous factors.
"""

from .errors import InvariantError
from .exactlin import QMatrix, kron


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
    """The pair of projections of a super space onto its even/odd parts."""

    def __init__(self, space, plus, minus):
        self.space = space
        self.plus = plus
        self.minus = minus
        t = space.total
        if plus + minus != QMatrix.identity(t):
            raise InvariantError("projectors do not sum to the identity")
        if plus * plus != plus or minus * minus != minus:
            raise InvariantError("projectors are not idempotent")
        if not (plus * minus).is_zero():
            raise InvariantError("projectors are not orthogonal")
        from .exactlin import matrix_rank
        if matrix_rank(plus) != space.even or matrix_rank(minus) != space.odd:
            raise InvariantError("projector ranks disagree with the declared "
                                 "dimensions")

    def __repr__(self):
        return "KunnethPair%s" % (self.space,)


def kunneth_projectors(v):
    """Canonical block projectors in the even-first ordering."""
    t = v.total
    plus = QMatrix(t, t, {(i, i): 1 for i in range(v.even)})
    minus = QMatrix(t, t, {(i, i): 1 for i in range(v.even, t)})
    return KunnethPair(v, plus, minus)


def _block_sort_permutation(v, w):
    """Permutation sorting the product basis of v (x) w into even-first order.

    Index (i, j) -> i*|w| + j; parity = parity(i) + parity(j) mod 2.
    Returns the list `order` with order[new] = old.
    """
    pairs = [(i, j) for i in range(v.total) for j in range(w.total)]
    evens = [i * w.total + j for (i, j) in pairs
             if (v.parity(i) + w.parity(j)) % 2 == 0]
    odds = [i * w.total + j for (i, j) in pairs
            if (v.parity(i) + w.parity(j)) % 2 == 1]
    return evens + odds


def kunneth_tensor(a, b):
    """Projectors of the tensor product:

        pi+ = pi+ (x) pi+  +  pi- (x) pi-,
        pi- = pi+ (x) pi-  +  pi- (x) pi+.
    """
    v, w = a.space, b.space
    vw = v.tensor(w)
    plus_raw = kron(a.plus, b.plus) + kron(a.minus, b.minus)
    minus_raw = kron(a.plus, b.minus) + kron(a.minus, b.plus)
    # conjugate into the even-first ordering of the product
    order = _block_sort_permutation(v, w)
    perm = QMatrix(len(order), len(order),
                   {(new, old): 1 for new, old in enumerate(order)})
    pinv = perm.transpose()
    plus = perm * plus_raw * pinv
    minus = perm * minus_raw * pinv
    return KunnethPair(vw, plus, minus)


def rank_super(v):
    """The categorical rank in super vector spaces: d+ - d- (can be < 0)."""
    return v.even - v.odd


def rank_dagger(v):
    """The rank after the symmetry twist: d+ + d-."""
    return v.even + v.odd


def koszul_swap(v):
    """The signed swap on v (x) v: x (x) y -> (-1)^(|x||y|) y (x) x."""
    t = v.total
    entries = {}
    for i in range(t):
        for j in range(t):
            sgn = -1 if (v.parity(i) and v.parity(j)) else 1
            entries[(j * t + i, i * t + j)] = sgn
    return QMatrix(t * t, t * t, entries)


def twist_symmetry(v, pair):
    """The symmetry constraint on v (x) v before and after the twist.

    The twist composes the Koszul swap with the operator 1 - 2 pi- (x) pi-,
    which has eigenvalue (-1)^(pq) on the parity-(p, q) block: exactly the
    odd (x) odd sign flips, the twisted constraint squares to the identity,
    and categorical ranks become d+ + d-.
    """
    if pair.space != v:
        raise InvariantError("projector pair does not match the space")
    t = v.total
    before = koszul_swap(v)
    twist_op = QMatrix.identity(t * t) - \
        kron(pair.minus, pair.minus).scale(2)
    after = before * twist_op
    if after * after != QMatrix.identity(t * t):
        raise InvariantError("twisted symmetry does not square to identity")
    return before, after
