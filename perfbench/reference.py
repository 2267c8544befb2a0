"""Reference answers, taken from mathematics rather than from the package.

Each algebra shape has closed-form invariants:

* A2, A3, square (directed quivers) and QxQxQ, M2(Q) (semisimple): HH is
  concentrated in degree 0, where it has the dimension of A/[A, A] (the
  vertex count, or 1 for M2(Q), which is Morita equivalent to Q); HC is that
  number in every even degree; HP = (that number | 0).
* cubic Q[x]/x^3 and dual Q[x]/x^2, i.e. Q[x]/x^m: HH_0 = m, HH_n = m - 1
  for n >= 1, HC_2k = m, HC_odd = 0, and HP = HP(Q) = (1 | 0) by
  nilpotent invariance.  Their global dimension is infinite.

Intersection numbers of the projective correspondences Ae_i (x) e_jA come
from the Cartan matrix C[x][y] = dim e_x A e_y:
<[i,j], [k,l]> = C[j][k] * C[l][i].  Categories and Schur functors use the
graded-dimension count, the hook-content formula and the rectangle rule.
The in-tree oracles (``--oracle`` and ``super_schur_value``) are checked
against these values, never used in their place.
"""

from fractions import Fraction
from itertools import product as _product

# shape -> (dim, radical dim, global dimension or None for infinite,
#           HH_0 = HC_2k, HH_n for n >= 1, HP even dimension)
ALGEBRAS = {
    "A2": (3, 1, 1, 2, 0, 2),
    "A3": (6, 3, 1, 3, 0, 3),
    "square": (9, 5, 2, 4, 0, 4),
    "QxQxQ": (3, 0, 0, 3, 0, 3),
    "M2(Q)": (4, 0, 0, 1, 0, 1),
    "cubic": (3, 2, None, 3, 2, 1),
    "dual": (2, 1, None, 2, 1, 1),
}


def hh_dims(shape, n_max):
    """HH_n for n = 0 .. n_max - 1 (what a truncation at n_max certifies)."""
    _, _, _, h0, hn, _ = ALGEBRAS[shape]
    return [h0] + [hn] * (n_max - 1)


def hc_dims(shape, n_max):
    h0 = ALGEBRAS[shape][3]
    return [0 if n % 2 else h0 for n in range(n_max)]


def hp_dims(shape):
    return ALGEBRAS[shape][5], 0


def gldim(shape):
    return ALGEBRAS[shape][2]


def cartan(doc):
    """C[x][y] = dim e_x A e_y of a quiver document: paths x -> y up to the
    truncation, less one per relation between x and y (the relations of the
    shapes here are independent and parallel)."""
    vertices = doc["vertices"]
    c = {(x, y): 0 for x in vertices for y in vertices}
    frontier = [(v, v) for v in vertices]
    for _ in range(doc["truncation"] + 1):
        nxt = []
        for s, t in frontier:
            c[(s, t)] += 1
            nxt += [(s, t2) for _, s2, t2 in doc["arrows"] if s2 == t]
        frontier = nxt
    ends = {a: (s, t) for a, s, t in doc["arrows"]}
    for rel in doc["relations"]:
        names = rel[0][1]
        c[(ends[names[0]][0], ends[names[-1]][1])] -= 1
    return c


def pairing(doc):
    """Pairing matrix of the canonical span, in the span's order."""
    c = cartan(doc)
    pairs = list(_product(doc["vertices"], repeat=2))
    return [[c[(j, k)] * c[(l, i)] for (k, l) in pairs] for (i, j) in pairs]


# ---------------------------------------------------------------------------
# graded spaces, Karoubi envelope, orbit category


def _mult(degs):
    out = {}
    for d in degs:
        out[d] = out.get(d, 0) + 1
    return out


def graded_hom(objects):
    """dim Hom(x, y) = sum over degrees of the multiplicity products."""
    mult = {x: _mult(d) for x, d in objects.items()}
    return {(x, y): sum(m * mult[y].get(d, 0) for d, m in mult[x].items())
            for x in objects for y in objects}


def graded_tensor(objects, window):
    """x (x) y is presented when the sorted degree sums stay in the window
    and name an object."""
    by_degrees = {tuple(sorted(d)): x for x, d in objects.items()}
    out = {}
    for x, dx in objects.items():
        for y, dy in objects.items():
            degs = tuple(sorted(a + b for a in dx for b in dy))
            if max(abs(d) for d in degs) <= window and degs in by_degrees:
                out[(x, y)] = by_degrees[degs]
    return out


def karoubi_end_dims(objects):
    """End dimensions of the split objects.  The envelope splits every
    nonzero sum e_S of a maximal orthogonal family of primitive idempotents
    (one per line of the object), and End(x, e_S) is the product of the
    matrix algebras M_(|S_d|)(Q) over the degrees d."""
    out = []
    for degs in objects.values():
        for subset in _product((0, 1), repeat=len(degs)):
            if any(subset):
                per_degree = _mult(d for d, keep in zip(degs, subset) if keep)
                out.append(sum(r * r for r in per_degree.values()))
    return sorted(out)


def orbit_hom(objects, interest):
    """With every twist inside the bound, each pair of degrees contributes
    one line: dim Hom_orbit(x, y) = dim x * dim y."""
    return {(x, y): len(objects[x]) * len(objects[y])
            for x in interest for y in interest}


# ---------------------------------------------------------------------------
# Schur functors


def hooks(parts):
    conj = [sum(1 for p in parts if p > j) for j in range(parts[0])] \
        if parts else []
    return [[parts[i] - j + conj[j] - i - 1 for j in range(parts[i])]
            for i in range(len(parts))]


def tableaux(parts):
    n = sum(parts)
    h = 1
    for row in hooks(parts):
        for v in row:
            h *= v
    f = 1
    for k in range(2, n + 1):
        f *= k
    return f // h


def schur_dimension(parts, even, odd):
    """f^lambda * dim S_lambda(Q^(even|odd)).  The hook-content formula
    covers purely even and purely odd spaces (the odd case is the even one
    for the conjugate partition); mixed spaces vanish exactly when the
    partition contains the (even+1) x (odd+1) rectangle, and otherwise
    return None (the in-tree oracle is checked instead)."""
    if len(parts) > even and parts[even] >= odd + 1:
        return 0
    if odd and even:
        return None
    if odd:
        parts = [sum(1 for p in parts if p > j) for j in range(parts[0])]
        even = odd
    value = Fraction(1)
    for i, row in enumerate(hooks(parts)):
        for j, h in enumerate(row):
            value *= Fraction(even + j - i, h)
    return tableaux(parts) * int(value)


def annihilator(even, odd):
    """The minimal annihilating partition: the (even+1) x (odd+1) rectangle."""
    return [odd + 1] * (even + 1)
