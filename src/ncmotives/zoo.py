"""The shipped example algebras used throughout the test and demo suites.

Quiver presentations are used wherever the algebra is basic; M2(Q) comes
from raw structure constants.  Every constructor returns a fresh object so
callers can't share mutable state by accident; cached copies are available
through `get` for read-only work.
"""

from .algebras import Quiver, path_algebra, structure_algebra


def rational_field():
    q = Quiver(["1"], [])
    return path_algebra(q, truncation=1, name="Q")


def product_of_fields(n, name=None):
    q = Quiver([str(i + 1) for i in range(n)], [])
    return path_algebra(q, truncation=1, name=name or "Q^%d" % n)


def dual_numbers():
    q = Quiver(["1"], [("x", "1", "1")])
    return path_algebra(q, relations=[[(1, ["x", "x"])]], truncation=2,
                        name="Q[e]/e^2")


def truncated_cubic():
    """Q[x]/x^3 via a loop with the paths of length > 2 truncated away."""
    q = Quiver(["1"], [("x", "1", "1")])
    return path_algebra(q, truncation=2, name="Q[x]/x^3")


def a2_algebra():
    q = Quiver(["1", "2"], [("a", "1", "2")])
    return path_algebra(q, truncation=2, name="A2")


def a3_algebra():
    q = Quiver(["1", "2", "3"], [("a", "1", "2"), ("b", "2", "3")])
    return path_algebra(q, truncation=2, name="A3")


def commutative_square():
    """Incidence algebra of the square: 1 -> 2,3 -> 4 with ac = bd."""
    q = Quiver(["1", "2", "3", "4"],
               [("a", "1", "2"), ("b", "1", "3"),
                ("c", "2", "4"), ("d", "3", "4")])
    rel = [[(1, ["a", "c"]), (-1, ["b", "d"])]]
    return path_algebra(q, relations=rel, truncation=2, name="square")


def matrix_algebra_2():
    """M2(Q) by structure constants (not basic, no quiver)."""
    basis = ["e11", "e12", "e21", "e22"]

    def mult(x, y):
        i, j = int(x[1]), int(x[2])
        k, l = int(y[1]), int(y[2])
        if j != k:
            return {}
        return {"e%d%d" % (i, l): 1}

    products = []
    for x in basis:
        for y in basis:
            products.append((x, y, mult(x, y)))
    return structure_algebra("M2(Q)", basis, {"e11": 1, "e22": 1}, products)


_BUILDERS = {
    "Q": rational_field,
    "QxQ": lambda: product_of_fields(2, "QxQ"),
    "QxQxQ": lambda: product_of_fields(3, "QxQxQ"),
    "M2(Q)": matrix_algebra_2,
    "dual": dual_numbers,
    "cubic": truncated_cubic,
    "A2": a2_algebra,
    "A3": a3_algebra,
    "square": commutative_square,
}

ZOO_NAMES = list(_BUILDERS)

_cache = {}


def get(name):
    if name not in _cache:
        _cache[name] = _BUILDERS[name]()
    return _cache[name]

