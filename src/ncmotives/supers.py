"""Super vector spaces: a pair of dimensions (even | odd).

A super space (d+|d-) is Q^(d+ + d-) in the even-first basis ordering: the
first d+ coordinates are even.  The Koszul sign and the dagger twist that
removes it act on presented categories (`categories.dagger_twist`), not
here.
"""

from .errors import InvariantError


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

    def __repr__(self):
        return "(%d|%d)" % (self.even, self.odd)
