"""Seeded input documents, built without importing the package.

Every shape below is fixed mathematics; the seed only changes its
presentation, so the answers never depend on it:

* quiver shapes get fresh vertex and arrow labels, a shuffled vertex and
  arrow order, and each relation is scaled as a whole by a nonzero rational
  (the ideal it generates is unchanged);
* structure-constant shapes get a shuffled, relabelled basis, and each
  basis vector is scaled by a sign or, with ``rational=True``, by a nonzero
  rational with numerator and denominator at most 3: a monomial change of
  basis, computed without any matrix inverse.

The change of basis is kept monomial on purpose: dense random bases make
the cost of one request swing by two orders of magnitude between seeds,
and a benchmark whose cost depends on the seed cannot compare commits.
"""

from fractions import Fraction

# name -> (vertices, arrows (name, source, target), relations, truncation)
QUIVERS = {
    "A2": (["1", "2"], [("a", "1", "2")], [], 2),
    "A3": (["1", "2", "3"], [("a", "1", "2"), ("b", "2", "3")], [], 2),
    "square": (["1", "2", "3", "4"],
               [("a", "1", "2"), ("b", "1", "3"), ("c", "2", "4"),
                ("d", "3", "4")],
               [[(1, ["a", "c"]), (-1, ["b", "d"])]], 2),
    "cubic": (["1"], [("x", "1", "1")], [], 2),
    "dual": (["1"], [("x", "1", "1")], [[(1, ["x", "x"])]], 2),
    "QxQxQ": (["1", "2", "3"], [], [], 1),
}


def _matrix_units(n):
    basis = ["e%d%d" % (i, j) for i in range(n) for j in range(n)]
    prod = {}
    for i in range(n):
        for j in range(n):
            for k in range(n):
                prod[(i * n + j, j * n + k)] = {i * n + k: Fraction(1)}
    unit = {i * n + i: Fraction(1) for i in range(n)}
    return basis, unit, prod


def _fields(n):
    return (["f%d" % i for i in range(n)],
            {i: Fraction(1) for i in range(n)},
            {(i, i): {i: Fraction(1)} for i in range(n)})


def _path_constants(shape):
    """Structure constants of a relation-free quiver shape, basis = paths."""
    vertices, arrows, relations, trunc = QUIVERS[shape]
    assert not relations
    paths = [((), v, v) for v in vertices]
    frontier = list(paths)
    for _ in range(trunc):
        nxt = []
        for names, s, t in frontier:
            for a, s2, t2 in arrows:
                if s2 == t:
                    nxt.append((names + (a,), s, t2))
        paths += nxt
        frontier = nxt
    index = {p: i for i, p in enumerate(paths)}
    prod = {}
    for i, (n1, s1, t1) in enumerate(paths):
        for j, (n2, s2, t2) in enumerate(paths):
            if t1 != s2:
                continue
            key = (n1 + n2, s1, t2)
            if key in index:
                prod[(i, j)] = {index[key]: Fraction(1)}
    basis = ["p%d" % i for i in range(len(paths))]
    unit = {i: Fraction(1) for i in range(len(vertices))}
    return basis, unit, prod


CONSTANTS = {
    "M2(Q)": lambda: _matrix_units(2),
    "QxQxQ": lambda: _fields(3),
    "A2": lambda: _path_constants("A2"),
    "cubic": lambda: _path_constants("cubic"),
}


def _q(x):
    x = Fraction(x)
    return str(x.numerator) if x.denominator == 1 else "%d/%d" % (
        x.numerator, x.denominator)


def _nonzero_rational(rng, bound):
    num = rng.randint(1, bound) * rng.choice((1, -1))
    return Fraction(num, rng.randint(1, bound))


def quiver_document(shape, rng, name=None):
    """The document, and the new label of each vertex of the shape."""
    vertices, arrows, relations, trunc = QUIVERS[shape]
    vlabel = dict(zip(vertices, ("v%d" % k for k in
                                 rng.sample(range(100, 1000), len(vertices)))))
    alabel = dict(zip((a for a, _, _ in arrows),
                      ("x%d" % k for k in
                       rng.sample(range(100, 1000), len(arrows)))))
    new_vertices = [vlabel[v] for v in vertices]
    rng.shuffle(new_vertices)
    new_arrows = [[alabel[a], vlabel[s], vlabel[t]] for a, s, t in arrows]
    rng.shuffle(new_arrows)
    new_relations = []
    for rel in relations:
        scale = _nonzero_rational(rng, 9)
        terms = [[_q(scale * c), [alabel[a] for a in names]]
                 for c, names in rel]
        rng.shuffle(terms)
        new_relations.append(terms)
    return {"kind": "quiver", "name": name or shape, "vertices": new_vertices,
            "arrows": new_arrows, "relations": new_relations,
            "truncation": trunc}, vlabel


def constants_document(shape, rng, rational=False, name=None):
    """The shape in a shuffled monomial basis b'_k = s_k b_perm(k)."""
    basis, unit, prod = CONSTANTS[shape]()
    n = len(basis)
    perm = list(range(n))
    rng.shuffle(perm)
    scale = [_nonzero_rational(rng, 3) if rational
             else Fraction(rng.choice((1, -1))) for _ in range(n)]
    new_of_old = {perm[k]: k for k in range(n)}
    labels = ["b%d" % k for k in rng.sample(range(100, 1000), n)]

    def to_new(vec):
        # old b_i = (1/s_k) b'_k with perm[k] = i
        return {labels[new_of_old[i]]: _q(c / scale[new_of_old[i]])
                for i, c in vec.items() if c}

    products = []
    for k1 in range(n):
        for k2 in range(n):
            vec = prod.get((perm[k1], perm[k2]), {})
            s = scale[k1] * scale[k2]
            products.append([labels[k1], labels[k2],
                             to_new({i: s * c for i, c in vec.items()})])
    return {"kind": "structure_constants", "name": name or shape,
            "basis": labels, "unit": to_new(unit), "products": products}
