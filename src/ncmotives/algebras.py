"""Finite-dimensional associative unital Q-algebras and their bimodules.

Algebras come either from explicit structure constants or from a quiver
with relations and a hard path-length truncation (so everything is
finite-dimensional by construction); either way, presentation reads the
vertices, if any, from the basis.  On top of that: opposites, tensor
products, bimodules, and one minimal projective resolution over the
enveloping algebra (minimal_resolution), by the vertices of presentations,
which also resolves right modules, as (Q, A)-bimodules, for global
dimension and right projectivity.  Last,
the normalized bar complex M (x)_{E^e} Bbar^{(x)_E n}, for a ground
subalgebra E spanned by orthogonal idempotents: E from the unit's idempotent
terms when they split the basis into corners (_basis_ground), E = Q.1, one
pseudo-vertex, otherwise.  It has one chain model: _Reduced is the basis of
Bbar = B / E with the ends of its elements, _Chains lists the composable
chains (over Q.1, all of them) and hochschild_columns is the differential
on them.  It serves both Hochschild homology and derived tensor products:
Tor^B(x, y) is HH(B; y (x) x).  One rule (_relative_ends) picks E for every
complex: E from the unit's idempotent terms when B has such a ground and
the coefficients' idempotent actions are 0/1 coordinate projections (for
Tor: x's right and y's left actions, as on every corner and
projective-pair bimodule); E = Q.1 otherwise.  On a quiver algebra the
unit's terms are the vertex idempotents; M_2(Q), products of fields and
tensor products of such algebras have them too.  Both grounds give the
same homology.
"""

import itertools
from collections import Counter
from fractions import Fraction

from .errors import InvariantError, CapExceededError, UncertifiedError
from . import exactlin
from .exactlin import QMatrix, LinSubspace, bilinear, kron, vec_addmul, _norm
from .homcore import ChainComplex, induced_map


class Algebra:
    """A finite-dimensional associative unital algebra over Q.

    basis: list of string labels.
    unit: sparse vector dict index -> coefficient.
    table: dict (i, j) -> sparse vector of the product b_i * b_j
           (missing pairs mean the product is zero).
    vertex_names: optional {basis index: name} for the unit's terms, which
           name the vertices of presentation(); a term without a name is
           named by its basis label.
    """

    def __init__(self, name, basis, unit, table, vertex_names=None,
                 check=True):
        self.name = name
        self.basis = list(basis)
        self.dim = len(self.basis)
        if self.dim < 1:
            raise InvariantError("algebra must have dimension >= 1")
        self.unit = {i: _norm(v) for i, v in unit.items() if v}
        self.table = {}
        for (i, j), vec in table.items():
            v = {k: _norm(c) for k, c in vec.items() if c}
            if v:
                self.table[(i, j)] = v
        self.vertex_names = dict(vertex_names or {})
        self._rad = None
        self._presentation = None   # (presentation(self),) once computed
        self._cyclic = {}       # (n_max, cap) -> hochschild.CyclicData
        self._gldim = {}        # bound -> global_dimension(self, bound)
        if check:
            self._check_axioms()

    # -- structure access ------------------------------------------------

    def mult_basis(self, i, j):
        return self.table.get((i, j), {})

    def mult_vec(self, x, y):
        return bilinear(self.table, x, y)

    def left_mult_matrix(self, x):
        """Matrix of y -> x*y (x a sparse vector)."""
        return QMatrix(self.dim, self.dim,
                       {(r, j): v for j in range(self.dim)
                        for r, v in bilinear(self.table, x, {j: 1}).items()})

    def right_mult_matrix(self, x):
        """Matrix of y -> y*x."""
        return QMatrix(self.dim, self.dim,
                       {(r, j): v for j in range(self.dim)
                        for r, v in bilinear(self.table, {j: 1}, x).items()})

    def element(self, label_coeffs):
        """Vector from {label: coefficient}."""
        idx = {lab: i for i, lab in enumerate(self.basis)}
        return {idx[lab]: Fraction(c) for lab, c in label_coeffs.items() if c}

    def radical(self):
        if self._rad is None:
            self._rad = exactlin.jacobson_radical(self)
        return self._rad

    # -- checks ------------------------------------------------------------

    def _check_axioms(self):
        if not self.unit:
            raise InvariantError("unit vector is zero")
        for j in range(self.dim):
            ej = {j: 1}
            if self.mult_vec(self.unit, ej) != ej or self.mult_vec(ej, self.unit) != ej:
                raise InvariantError("unit law fails at basis element %r" % self.basis[j])
        for i, j, k in itertools.product(range(self.dim), repeat=3):
            left = self.mult_vec(self.mult_basis(i, j), {k: 1})
            right = self.mult_vec({i: 1}, self.mult_basis(j, k))
            if left != right:
                raise InvariantError(
                    "associativity fails on (%s,%s,%s)" %
                    (self.basis[i], self.basis[j], self.basis[k]))

    def __repr__(self):
        return "Algebra(%s, dim %d)" % (self.name, self.dim)


# ---------------------------------------------------------------------------
# quivers and path algebras


class Quiver:
    def __init__(self, vertices, arrows):
        """arrows: list of (name, source, target)."""
        self.vertices = list(vertices)
        self.arrows = [(n, s, t) for (n, s, t) in arrows]
        vs = set(self.vertices)
        if not self.vertices:
            raise InvariantError("empty quiver")
        if len(vs) != len(self.vertices):
            raise InvariantError("duplicate vertex names")
        names = set()
        for n, s, t in self.arrows:
            if s not in vs or t not in vs:
                raise InvariantError("arrow %s has endpoints outside the quiver" % n)
            if n in names or n in vs:
                raise InvariantError("duplicate name %r" % n)
            names.add(n)


def _enumerate_paths(quiver, truncation):
    """All paths of length <= truncation, as tuples of arrow names.

    Returns a list of (names, source, target); the vertices come first, as
    the empty paths.
    """
    by_source = {}
    for n, s, t in quiver.arrows:
        by_source.setdefault(s, []).append((n, t))
    paths = []          # (tuple of arrow names, source, target)
    for v in quiver.vertices:
        paths.append(((), v, v))
    frontier = [((n,), s, t) for n, s, t in quiver.arrows]
    length = 1
    while frontier and length <= truncation:
        paths.extend(frontier)
        nxt = []
        if length < truncation:
            for names, s, t in frontier:
                for n2, t2 in by_source.get(t, ()):
                    nxt.append((names + (n2,), s, t2))
        frontier = nxt
        length += 1
    return paths


def path_algebra(quiver, relations=(), truncation=1, name=None):
    """Quotient of the path algebra by relations and by paths longer than
    the truncation.

    Paths compose left to right: for p: u->v and q: v->w the product p*q is
    "p then q".  Relations are lists of (coefficient, [arrow names]) terms;
    each relation must be a combination of parallel paths.
    """
    if truncation < 1:
        raise InvariantError("truncation must be >= 1")
    paths = _enumerate_paths(quiver, truncation)
    # a path is keyed by its arrow names and its source, which pins down
    # the empty path at a vertex
    index = {(names, s): i for i, (names, s, t) in enumerate(paths)}
    starting, ending = {}, {}      # vertex -> paths, in path order
    for names, s, t in paths:
        starting.setdefault(s, []).append(names)
        ending.setdefault(t, []).append((names, s))

    # relation ideal inside the truncated path space: span of u * r * v
    rel_vectors = []
    arrows_of = {n: (s, t) for n, s, t in quiver.arrows}
    unknown = {n for rel in relations for _, names in rel for n in names} \
        - set(arrows_of)
    if unknown:
        raise InvariantError("relations name unknown arrow(s): %s"
                             % ", ".join(sorted(unknown)))
    for rel in relations:
        terms = []
        ends = None
        for coeff, names in rel:
            names = tuple(names)
            if not names:
                raise InvariantError("relations must involve paths of length >= 1")
            s = arrows_of[names[0]][0]
            t = arrows_of[names[-1]][1]
            for a, b in zip(names, names[1:]):
                if arrows_of[a][1] != arrows_of[b][0]:
                    raise InvariantError("relation term %r is not a path" % (names,))
            if ends is None:
                ends = (s, t)
            elif ends != (s, t):
                raise InvariantError("relation mixes non-parallel paths")
            terms.append((Fraction(coeff), names))
        rel_vectors.append((ends, terms))

    ideal_gens = []
    for (s0, t0), terms in rel_vectors:
        for left, s in ending[s0]:
            for right in starting[t0]:
                vec = {}
                for coeff, names in terms:
                    full = left + names + right
                    if len(full) <= truncation:
                        k = index[(full, s)]
                        vec[k] = vec.get(k, 0) + coeff
                vec = {k: v for k, v in vec.items() if v}
                if vec:
                    ideal_gens.append(vec)

    ideal = LinSubspace(len(paths), ideal_gens)
    for v in quiver.vertices:
        if ideal.contains({index[((), v)]: 1}):
            raise InvariantError("inconsistent relations: a vertex idempotent "
                                 "lies in the ideal")

    # basis of the quotient: path classes not reducible by the ideal's RREF
    leading = {min(row) for row in ideal.rows}
    kept = [i for i in range(len(paths)) if i not in leading]
    new_index = {old: new for new, old in enumerate(kept)}

    def reduce_vec(vec):
        red = ideal.reduce(vec)
        return {new_index[i]: v for i, v in red.items()}

    labels = []
    vertex_idx = {}
    for new, old in enumerate(kept):
        names, s, _ = paths[old]
        if names:
            labels.append("*".join(names))
        else:
            labels.append("e_%s" % s)
            vertex_idx[s] = new

    table = {}
    for inew, iold in enumerate(kept):
        names_i, s_i, t_i = paths[iold]
        for jnew, jold in enumerate(kept):
            names_j, s_j, t_j = paths[jold]
            if t_i != s_j:
                continue
            full = names_i + names_j
            if len(full) > truncation:
                continue
            vec = reduce_vec({index[(full, s_i)]: 1})
            if vec:
                table[(inew, jnew)] = vec

    unit = {vertex_idx[v]: 1 for v in quiver.vertices}
    return Algebra(name or "path algebra", labels, unit, table,
                   vertex_names={k: v for v, k in vertex_idx.items()})


def structure_algebra(name, basis, unit_coeffs, products, check=True):
    """Algebra from explicit structure constants.

    products: iterable of (left label, right label, {label: coeff}).
    """
    idx = {lab: i for i, lab in enumerate(basis)}
    products = list(products)
    unknown = (set(unit_coeffs) | {lab for left, right, value in products
                                   for lab in (left, right, *value)}) - set(idx)
    if unknown:
        raise InvariantError("unknown basis label(s): %s"
                             % ", ".join(sorted(unknown)))
    table = {}
    for left, right, value in products:
        vec = {idx[lab]: Fraction(c) for lab, c in value.items()}
        table[(idx[left], idx[right])] = vec
    unit = {idx[lab]: Fraction(c) for lab, c in unit_coeffs.items()}
    return Algebra(name, basis, unit, table, check=check)


def opposite(a):
    """The opposite algebra (reversed multiplication)."""
    table = {(j, i): dict(vec) for (i, j), vec in a.table.items()}
    return Algebra(a.name + "^op", list(a.basis), dict(a.unit), table,
                   vertex_names=a.vertex_names, check=False)


def tensor_algebra(a, b, name=None):
    """A (x) B with basis pairs; no sign rules (everything in degree zero)."""
    labels = ["%s(x)%s" % (x, y) for x in a.basis for y in b.basis]
    db = b.dim

    def pair(i, j):
        return i * db + j

    table = {}
    for (i1, j1), v1 in a.table.items():
        for (i2, j2), v2 in b.table.items():
            vec = {}
            for k1, c1 in v1.items():
                for k2, c2 in v2.items():
                    vec[pair(k1, k2)] = c1 * c2
            table[(pair(i1, i2), pair(j1, j2))] = vec
    unit = {}
    for i, c in a.unit.items():
        for j, d in b.unit.items():
            unit[pair(i, j)] = c * d
    return Algebra(name or "%s(x)%s" % (a.name, b.name), labels, unit, table,
                   check=False)


# ---------------------------------------------------------------------------
# vertices read from the basis


class Presentation:
    """The vertices of a split basic algebra, read from its basis by
    presentation(): vertices lists their names in basis order, index[v] is
    the basis index of b_v, whose multiple e_v = unit[v] * b_v is the
    vertex idempotent, ends[k] = (u, w) puts b_k in e_u A e_w, and
    cartan[(u, w)] = dim e_u A e_w over the pairs with a basis element."""

    def __init__(self, vertices, index, ends):
        self.vertices = vertices
        self.index = index
        self.ends = ends
        self.cartan = dict(Counter(ends))


def presentation(a):
    """The vertices of a, or None; memoized on the algebra.

    The unit's terms e_v = unit[v] * b_v are the vertices when they split
    the basis into corners e_u A e_w (_basis_ground; a one-term unit is one
    vertex whose corner holds the whole basis) and every other basis
    element lies in rad A.  Then A / rad A is Q^k with the e_v as its
    primitive idempotents, so A is split basic with those vertices, as a
    path basis always is.  A vertex is named by a.vertex_names, else by
    its basis label.
    """
    if a._presentation is None:
        a._presentation = (_read_presentation(a),)
    return a._presentation[0]


def _read_presentation(a):
    if len(a.unit) == 1:
        (v,) = a.unit
        corners = [(v, v)] * a.dim
    else:
        corners = _basis_ground(a)
        if corners is None:
            return None
    rad = a.radical()
    if any(not rad.contains({k: 1}) for k in range(a.dim) if k not in a.unit):
        return None
    name = {v: a.vertex_names.get(v, a.basis[v]) for v in a.unit}
    return Presentation([name[v] for v in sorted(a.unit)],
                        {name[v]: v for v in a.unit},
                        [(name[u], name[w]) for u, w in corners])


# ---------------------------------------------------------------------------
# bimodules


class Bimodule:
    """An (A, B)-bimodule with exact action tables.

    left: list over A-basis of dim x dim matrices (left action),
    right: list over B-basis (right action).  Both actions are unital and
    commute; this is verified on basis elements at construction.
    """

    def __init__(self, left_algebra, right_algebra, dim, left, right,
                 name=None, check=True):
        self.A = left_algebra
        self.B = right_algebra
        self.dim = dim
        self.left = left
        self.right = right
        self.name = name or "bimodule"
        self._right_projective = None   # memo of is_right_projective
        self._class_vector = None       # (bound, memo of bimodule_class_vector)
        if check:
            self._check()

    def _check(self):
        ida = QMatrix.zero(self.dim, self.dim)
        for i, c in self.A.unit.items():
            ida = ida + self.left[i].scale(c)
        if ida != QMatrix.identity(self.dim):
            raise InvariantError("left action is not unital")
        idb = QMatrix.zero(self.dim, self.dim)
        for i, c in self.B.unit.items():
            idb = idb + self.right[i].scale(c)
        if idb != QMatrix.identity(self.dim):
            raise InvariantError("right action is not unital")
        for i in range(self.A.dim):
            for j in range(self.A.dim):
                lhs = QMatrix.zero(self.dim, self.dim)
                for k, c in self.A.mult_basis(i, j).items():
                    lhs = lhs + self.left[k].scale(c)
                if lhs != self.left[i] * self.left[j]:
                    raise InvariantError("left action is not an algebra action")
        for i in range(self.B.dim):
            for j in range(self.B.dim):
                lhs = QMatrix.zero(self.dim, self.dim)
                for k, c in self.B.mult_basis(i, j).items():
                    lhs = lhs + self.right[k].scale(c)
                # right action reverses composition: m*(xy) = (m*x)*y
                if lhs != self.right[j] * self.right[i]:
                    raise InvariantError("right action is not an algebra action")
        for i in range(self.A.dim):
            for j in range(self.B.dim):
                if self.left[i] * self.right[j] != self.right[j] * self.left[i]:
                    raise InvariantError("left and right actions do not commute")

    def left_act(self, x, vec):
        out = {}
        for i, c in x.items():
            vec_addmul(out, c, self.left[i] * vec)
        return out

    def right_act(self, vec, y):
        out = {}
        for j, c in y.items():
            vec_addmul(out, c, self.right[j] * vec)
        return out

    def content_key(self):
        """Deterministic hash key: dimensions plus sorted action tables."""
        parts = [self.dim]
        for mat in self.left + self.right:
            parts.append(tuple(sorted(mat.entries.items())))
        return tuple(map(str, parts))

    def __repr__(self):
        return "Bimodule(%s: %s-%s, dim %d)" % (self.name, self.A.name,
                                                self.B.name, self.dim)


def regular_bimodule(a):
    """A as an (A, A)-bimodule."""
    left = [a.left_mult_matrix({i: 1}) for i in range(a.dim)]
    right = [a.right_mult_matrix({i: 1}) for i in range(a.dim)]
    return Bimodule(a, a, a.dim, left, right, name="[%s]" % a.name, check=False)


def corner_bimodule(a, i_vertex, j_vertex):
    """A e_i (x) e_j A as an (A, A)-bimodule, for vertices i, j of a.

    These are the indecomposable projective bimodules.
    """
    out = projective_pair_bimodule(a, a, i_vertex, j_vertex)
    out.name = "Ae_%s(x)e_%sA" % (i_vertex, j_vertex)
    return out


def projective_pair_bimodule(a, b, i_vertex, j_vertex):
    """A e_i (x) e_j B as an (A, B)-bimodule for vertices i of a and j of b.

    Basis: the pairs (p, q), in the order of out.pairs, with p a basis
    element of A e_i and q one of e_j B; e_i (x) e_j generates.  Its class
    vector {(i, j): 1} is known without a resolution.
    """
    pa, pb = presentation(a), presentation(b)
    lefts = [k for k in range(a.dim) if pa.ends[k][1] == i_vertex]
    rights = [k for k in range(b.dim) if pb.ends[k][0] == j_vertex]
    basis = [(p, q) for p in lefts for q in rights]
    pos = {pq: n for n, pq in enumerate(basis)}
    dim = len(basis)
    # a product with an element of A e_i stays in A e_i, and one with an
    # element of e_j B in e_j B
    left = []
    for x in range(a.dim):
        entries = {}
        for c, (p, q) in enumerate(basis):
            for k, val in a.mult_basis(x, p).items():
                entries[(pos[(k, q)], c)] = val
        left.append(QMatrix(dim, dim, entries))
    right = []
    for y in range(b.dim):
        entries = {}
        for c, (p, q) in enumerate(basis):
            for k, val in b.mult_basis(q, y).items():
                entries[(pos[(p, k)], c)] = val
        right.append(QMatrix(dim, dim, entries))
    out = Bimodule(a, b, dim, left, right,
                   name="%se_%s(x)e_%s%s" % (a.name, i_vertex, j_vertex, b.name),
                   check=False)
    out.pairs = basis
    out._class_vector = (0, {(i_vertex, j_vertex): 1})
    return out


# ---------------------------------------------------------------------------
# minimal projective resolutions
#
# One engine serves bimodules and one-sided modules alike: a right B-module
# is a (Q, B)-bimodule, whose projectives Q e_1 (x) e_j B are the e_j B and
# on which rad(Q (x) B^op) acts as M.rad B.


def _ground_field():
    from . import zoo       # zoo builds its algebras with this module
    return zoo.get("Q")


def _top_generators(m):
    """Lifts of a basis of the top m / (radA.m + m.radB), vertex pair by
    vertex pair: (i, j, vector in e_i m e_j).

    One span grows from the radical part: a column of e_i m e_j is a new
    generator when it is outside rad + (the generators so far).  The corner
    projections preserve the sub-bimodule radA.m + m.radB and the corners
    are independent, so that is the same as being outside rad + (the
    generators of its own corner).
    """
    span = exactlin.Elimination(m.dim)
    for alg, mats in ((m.A, m.left), (m.B, m.right)):
        for r in alg.radical().basis():
            mat = QMatrix.zero(m.dim, m.dim)
            for i, c in r.items():
                mat = mat + mats[i].scale(c)
            for col in mat.columns():
                span.add_column(col)
    pa, pb = presentation(m.A), presentation(m.B)
    gens = []
    for i in pa.vertices:
        ei = pa.index[i]
        for j in pb.vertices:
            ej = pb.index[j]
            # e_i . m . e_j with e_v = unit[v] * b_v
            proj = (m.left[ei] * m.right[ej]).scale(m.A.unit[ei] * m.B.unit[ej])
            gens.extend((i, j, col) for col in proj.columns()
                        if span.add_column(col))
    return gens


def _direct_sum(blocks, size):
    """The size x size block-diagonal matrix of the (offset, block) pairs."""
    return QMatrix(size, size, {(off + r, off + c): v for off, mat in blocks
                                for (r, c), v in mat.entries.items()})


def _restrict(mats, sub):
    """The matrices, which preserve the subspace sub, in its basis."""
    basis = sub.basis()
    out = []
    for mat in mats:
        entries = {}
        for c, v in enumerate(basis):
            for r, val in sub.coordinates(mat * v).items():
                entries[(r, c)] = val
        out.append(QMatrix(len(basis), len(basis), entries))
    return out


def minimal_resolution(m, bound):
    """The vertex pairs (i, j) of the summands A e_i (x) e_j B of the terms
    P_0, P_1, ... of a minimal projective resolution of the (A, B)-bimodule
    m, one list per term; None if the resolution does not end at P_bound.

    Both algebras need presentations.  Each step maps one P_ij per
    top generator onto the current syzygy, e_i (x) e_j to the generator,
    and continues with the kernel of that cover.
    """
    a, b = m.A, m.B
    projectives = {}
    terms = []
    for _ in range(bound + 1):
        if m.dim == 0:
            return terms
        gens = _top_generators(m)
        total = 0
        offsets = []
        entries = {}
        for i, j, gen in gens:
            if (i, j) not in projectives:
                projectives[(i, j)] = projective_pair_bimodule(a, b, i, j)
            p = projectives[(i, j)]
            # the basis pair (p, q) maps to p . gen . q
            for c, (lp, rq) in enumerate(p.pairs):
                img = m.right_act(m.left_act({lp: 1}, gen), {rq: 1})
                for r, v in img.items():
                    entries[(r, total + c)] = v
            offsets.append((total, p))
            total += p.dim
        terms.append([(i, j) for i, j, _ in gens])
        kv = exactlin.kernel_vectors(QMatrix(m.dim, total, entries))
        if total - len(kv) != m.dim:
            raise InvariantError("projective cover is not surjective "
                                 "(internal bug)")
        if not kv:
            return terms
        # the kernel is a sub-bimodule of the direct sum of the P_ij
        left = [_direct_sum([(off, p.left[t]) for off, p in offsets], total)
                for t in range(a.dim)]
        right = [_direct_sum([(off, p.right[t]) for off, p in offsets], total)
                 for t in range(b.dim)]
        sub = LinSubspace(total, kv)
        m = Bimodule(a, b, sub.dim, _restrict(left, sub),
                     _restrict(right, sub), check=False)
    return None


def _gldim_certificate(a, bound=10):
    """The global dimension that certifies a vanishing bound: 0 for a
    semisimple algebra, global_dimension(a, bound) for one with a
    presentation, None otherwise or above the bound."""
    if a.radical().dim == 0:
        return 0
    if presentation(a) is not None:
        return global_dimension(a, bound)
    return None


def global_dimension(a, bound=10):
    """Global dimension of a, or None if it exceeds the bound.

    For semisimple algebras (radical zero) the answer is 0 regardless of
    presentation; otherwise a presentation is required and the simple
    right modules, as (Q, A)-bimodules, are resolved.
    """
    if bound not in a._gldim:
        a._gldim[bound] = _global_dimension(a, bound)
    return a._gldim[bound]


def _global_dimension(a, bound):
    if a.radical().dim == 0:
        return 0
    pres = presentation(a)
    if pres is None:
        raise InvariantError("global dimension needs a quiver presentation "
                             "(or a semisimple algebra)")
    worst = 0
    for v in pres.vertices:
        # on the simple at v, b_v acts by 1 / unit[v] and the rest by 0
        kv = pres.index[v]
        right = [QMatrix(1, 1, {(0, 0): Fraction(1, a.unit[kv])} if k == kv
                         else None) for k in range(a.dim)]
        simple = Bimodule(_ground_field(), a, 1, [QMatrix.identity(1)],
                          right, check=False)
        terms = minimal_resolution(simple, bound)
        if terms is None:
            return None
        worst = max(worst, len(terms) - 1)
    return worst


def is_right_projective(x):
    """Is the bimodule x projective as a right module over x.B?"""
    if x._right_projective is None:
        b = x.B
        if b.radical().dim == 0:
            x._right_projective = True
        elif presentation(b) is None:
            x._right_projective = False
        else:
            m = Bimodule(_ground_field(), b, x.dim,
                         [QMatrix.identity(x.dim)], x.right, check=False)
            x._right_projective = minimal_resolution(m, 0) is not None
    return x._right_projective


# ---------------------------------------------------------------------------
# the normalized bar complex: Hochschild chains and derived tensor products


def _basis_ground(b):
    """The corners of b's basis over the ground algebra E spanned by the
    unit's terms e_v = unit[v] * b_v, or None when those terms do not split
    the basis into corners.  corner[j] = (u, w) puts b_j in e_u B e_w; the
    labels u, w are the basis indices of the terms.

    If E = span(e_v) is spanned by orthogonal idempotents e_v = c_v * b_v
    with sum 1 = sum_k unit[k] * b_k, the e_v are exactly the unit's terms
    and c_v = unit[v], so there is nothing to search.  They are accepted
    when the unit has at least two terms and left and right multiplication
    by each e_v send every basis element b_j to b_j or to 0.  That test
    also proves the terms orthogonal idempotents (each multiplication is
    then a diagonal 0/1 matrix on the basis, and by the unit law those
    matrices sum to the identity, so their supports are disjoint), and it
    puts every b_j in exactly one e_u B e_w.  On a quiver algebra the terms
    are the vertex idempotents and corner[j] is (source, target) of the
    path b_j; with one term, E would be Q.1.
    """
    if len(b.unit) < 2:
        return None
    corner = [[None, None] for _ in range(b.dim)]
    for v, c in b.unit.items():
        fixed = Fraction(1, c)      # b_v * b_j = b_j / c_v in the corner
        for j in range(b.dim):
            for side, prod in enumerate((b.mult_basis(v, j),
                                         b.mult_basis(j, v))):
                if prod:
                    if prod != {j: fixed}:
                        return None
                    corner[j][side] = v
    return [tuple(e) for e in corner]


class _Reduced:
    """The basis of Bbar = B / E that the normalized bar chains use, for a
    ground subalgebra E spanned by orthogonal idempotents e_v with sum 1:
    E = Q.1, one pseudo-vertex None with e_None = 1, or, given the corners
    of _basis_ground(b), E from the unit's idempotent terms, each labelled
    by its basis index.  units[v] is e_v as a B vector.

    kept lists the basis indices that span Bbar, and ends[t] = (u, v) puts
    kept[t] in e_u B e_v.  With E = Q.1 the dropped index is the last one
    with a nonzero unit coefficient u, its class is -(1/u) times the rest
    of the unit, and every end is (None, None).  With the unit's terms
    every term is dropped (its class is 0), and the ends of the others are
    their corners.  classes[i] is the class of b_i in Bbar and
    redprod[(s, t)] the class of the product of the kept elements at
    positions s and t, both as sparse dicts over positions in kept.
    Values pass through exactlin._norm, so they are ints whenever they are
    integral (always, when u = 1).
    """

    def __init__(self, b, corners=None):
        if corners is None:
            self.units = {None: b.unit}
            drop = {max(b.unit)}
        else:
            self.units = {v: {v: c} for v, c in b.unit.items()}
            drop = set(b.unit)
        self.kept = [i for i in range(b.dim) if i not in drop]
        self.dbar = len(self.kept)
        kpos = {k: t for t, k in enumerate(self.kept)}
        self.classes = {k: {t: 1} for k, t in kpos.items()}
        if corners is None:
            (k,) = drop
            u = b.unit[k]
            self.classes[k] = {kpos[i]: _norm(Fraction(-c, u))
                               for i, c in b.unit.items() if i != k}
            self.ends = [(None, None)] * self.dbar
        else:
            self.classes.update((k, {}) for k in drop)
            self.ends = [corners[k] for k in self.kept]
        self.starts = {}
        for t, (u, _) in enumerate(self.ends):
            self.starts.setdefault(u, []).append(t)
        self.redprod = {(s, t): self.reduce(b.mult_basis(k, l))
                        for s, k in enumerate(self.kept)
                        for t, l in enumerate(self.kept)}

    def reduce(self, vec):
        """Bbar coordinates of the B vector vec."""
        out = {}
        for k, c in vec.items():
            vec_addmul(out, c, self.classes[k])
        return out

    def expand(self, slots):
        """Chain coordinates of slots[0] (x) slots[1] (x) ... (x) slots[n].

        Every slot is a B vector; the first stays in B coordinates and the
        others are reduced to Bbar, so b_i (x) bbar_t1 (x) ... (x) bbar_tn
        has the code i * dbar^n + (the base-dbar code of t1 ... tn).  A slot
        that vanishes (in Bbar for the later ones) gives {}.
        """
        codes = dict(slots[0])
        for vec in slots[1:]:
            red = self.reduce(vec)
            codes = {base * self.dbar + p: c * w
                     for base, c in codes.items() for p, w in red.items()}
        return codes

    # the chains of M (x)_{E^e} Bbar^{(x)_E n} are the composable ones,
    # m (x) r_1 (x) ... (x) r_n with m in e_u M e_w, r_1 starting at w, each
    # r_i ending where r_(i+1) starts and r_n ending at u.  ends[c] = (u, w)
    # puts coordinate c of M in e_u M e_w; over E = Q.1 every chain is one.

    def chain_dims(self, ends, n_max):
        """Numbers of composable chains in degrees 0..n_max."""
        walks = {w: {w: 1} for _, w in ends}    # words from w, by their end
        dims = []
        for n in range(n_max + 1):
            if n:
                walks = {w: self._walk_step(counts)
                         for w, counts in walks.items()}
            dims.append(sum(walks[w].get(u, 0) for u, w in ends))
        return dims

    def _walk_step(self, counts):
        out = {}
        for u, k in counts.items():
            for t in self.starts.get(u, ()):
                v = self.ends[t][1]
                out[v] = out.get(v, 0) + k
        return out


class _Chains:
    """The composable chains of M (x)_{E^e} Bbar^{(x)_E n} in degrees
    0..n_max, for the reduced basis red and the ends of M's coordinates
    (_vertex_ends, or the pseudo-vertex None for every coordinate over
    E = Q.1).  The chain m_c (x) bbar_t1 (x) ... (x) bbar_tn has the code
    c * dbar^n + (the base-dbar code of t1 ... tn).  lists[n] holds the
    codes of degree n in increasing order, and a chain's position in
    lists[n] is its index in b, B and every map into the chains.  When
    every code of degree n is a chain (always over Q.1), lists[n] is a
    range, positions are codes and index[n] is None; otherwise index[n]
    maps each code to its position.
    """

    def __init__(self, red, ends, n_max):
        self.dbar = red.dbar
        self.lists = []
        self.index = []
        words = {w: {w: [0]} for _, w in ends}  # word codes from w, by end
        for n in range(n_max + 1):
            if n:
                words = {w: self._step(red, by_end)
                         for w, by_end in words.items()}
            weight = red.dbar ** n
            count = sum(len(words[w].get(u, ())) for u, w in ends)
            if count == len(ends) * weight:
                self.lists.append(range(count))
                self.index.append(None)
                continue
            codes = [c * weight + t for c, (u, w) in enumerate(ends)
                     for t in words[w].get(u, ())]
            self.lists.append(codes)
            self.index.append({code: pos for pos, code in enumerate(codes)})

    @staticmethod
    def _step(red, by_end):
        """The words one letter longer, each list in increasing order."""
        out = {}
        for u, codes in by_end.items():
            for t in red.starts.get(u, ()):
                out.setdefault(red.ends[t][1], []).extend(
                    code * red.dbar + t for code in codes)
        for codes in out.values():
            codes.sort()
        return out

    def chain(self, n, pos):
        """(c, (t_1, ..., t_n)) of the degree-n chain at pos: c a coordinate
        of M, t_i positions in red.kept."""
        code = self.lists[n][pos]
        word = []
        for _ in range(n):
            code, t = divmod(code, self.dbar)
            word.append(t)
        return code, tuple(reversed(word))

    def renumber(self, n, cols):
        """The columns, sparse over codes of degree n, over positions; a
        code that is not a composable chain means a map left the chains."""
        index = self.index[n]
        if index is None:
            return cols
        try:
            return [{index[code]: v for code, v in col.items()}
                    for col in cols]
        except KeyError:
            raise InvariantError("a map leaves the composable chains: the "
                                 "ground decomposition is not respected")

    def project(self, n, codes):
        """The degree-n chain with the coordinates codes of red.expand: the
        projection pi from the chains over Q, a map of mixed complexes, under
        which codes that are not composable chains vanish."""
        index = self.index[n]
        if index is None:
            return codes
        return {index[c]: v for c, v in codes.items() if c in index}


def _vertex_ends(m):
    """ends[c] = (u, w) with coordinate c of the (A, A)-bimodule m spanning
    a line in e_u M e_w, for the unit's terms e_v = A.unit[v] * b_v, when
    m's basis is adapted to them: every left and right action of an e_v is
    a 0/1 coordinate projection.  None otherwise."""
    ends = [[None, None] for _ in range(m.dim)]
    for v, cv in m.A.unit.items():
        for side, mat in enumerate((m.left[v], m.right[v])):
            for (r, c), x in mat.entries.items():
                if r != c or cv * x != 1 or ends[c][side] is not None:
                    return None
                ends[c][side] = v
    if any(None in e for e in ends):
        return None
    return [tuple(e) for e in ends]


def _relative_ends(m):
    """_vertex_ends(m) when chains with coefficients in the B-bimodule m
    are taken relative to E from the unit's idempotent terms: B has that
    ground (_basis_ground) and m's basis is adapted to it.  None when they
    are taken relative to E = Q.1.  Hochschild complexes, mixed complexes
    and derived tensor products all choose E by this rule."""
    if _basis_ground(m.A) is not None:
        return _vertex_ends(m)
    return None


DEFAULT_CAP = 200000     # the memory guard: chains of one complex


def _guard(total, cap):
    if cap is not None and total > cap:
        raise CapExceededError(
            "total complex dimension %d exceeds the memory guard %d"
            % (total, cap), needed=total, cap=cap)


def _chain_basis(m, n_max, ends, cap):
    """The reduced basis, the chain dimensions in degrees 0..n_max and the
    composable chains, relative to E from the unit's idempotent terms when
    ends is set and to E = Q.1 when it is None.  The memory guard sees the
    total before any chain is listed (no guard when cap is None)."""
    red = _Reduced(m.A, None if ends is None else _basis_ground(m.A))
    if ends is None:
        ends = [(None, None)] * m.dim
    dims = red.chain_dims(ends, n_max)
    _guard(sum(dims), cap)
    return red, dims, _Chains(red, ends, n_max)


def hochschild_columns(m, red, n, chains):
    """Columns of b_n : M (x)_{E^e} Bbar^{(x)_E n} -> degree n - 1, for a
    B-bimodule m,

        b(m (x) b_1 (x) ... (x) b_n) = m.b_1 (x) b_2 (x) ... (x) b_n
            + sum_i (-1)^i m (x) ... (x) b_i b_(i+1) (x) ...
            + (-1)^n b_n.m (x) b_1 (x) ... (x) b_(n-1),

    on the composable chains of the _Chains chains: the columns are those
    of chains.lists[n], with rows indexed by positions in
    chains.lists[n - 1].  The composable chains span a direct summand
    subcomplex of M (x) Bbar^n over Q, since every face of a composable
    chain is composable and the faces of the others stay outside it.
    """
    dbar = red.dbar
    pows = [dbar ** j for j in range(n + 1)]
    sgn_last = -1 if n % 2 else 1
    # code in degree n - 1 of m_c (x) (the bar word whose digits are all 0)
    base = [c * pows[n - 1] for c in range(m.dim)]
    right_cols = [[{base[o]: v for o, v in col.items()}
                   for col in m.right[k].columns()] for k in red.kept]
    left_cols = [[{base[o]: sgn_last * v for o, v in col.items()}
                  for col in m.left[k].columns()] for k in red.kept]
    # face i multiplies digits i and i + 1 with the sign (-1)^(i + 1)
    negprod = {st: {k: -v for k, v in p.items()}
               for st, p in red.redprod.items()}
    signed = [negprod if i % 2 == 0 else red.redprod for i in range(n - 1)]
    faces_of = {}       # the middle faces of each word, shared by its chains
    cols = []
    for chain in chains.lists[n]:
        c, t = divmod(chain, pows[n])
        faces = faces_of.get(t)
        if faces is None:
            # (signed product, offset, weight of its digit)
            faces = faces_of[t] = []
            for i in range(n - 1):
                prod = signed[i][(t // pows[n - 1 - i] % dbar,
                                  t // pows[n - 2 - i] % dbar)]
                if prod:
                    faces.append((prod, t // pows[n - i] * pows[n - 1 - i]
                                  + t % pows[n - 2 - i], pows[n - 2 - i]))
        col = {}
        for code, v in right_cols[t // pows[n - 1]][c].items():
            col[code + t % pows[n - 1]] = v     # the word b_2 ... b_n
        for prod, off, shift in faces:
            off += base[c]
            for k, v in prod.items():
                code = off + k * shift
                val = col.get(code, 0) + v
                if val:
                    col[code] = val
                else:
                    col.pop(code, None)
        for code, v in left_cols[t % dbar][c].items():
            code += t // dbar                   # the word b_1 ... b_(n-1)
            val = col.get(code, 0) + v
            if val:
                col[code] = val
            else:
                col.pop(code, None)
        cols.append(col)
    return chains.renumber(n - 1, cols)


def _word_code(word, dbar):
    t = 0
    for d in word:
        t = t * dbar + d
    return t


def _on_digit(g, weight, size):
    """The chain map that applies g to one digit of the chain codes: the
    digit (code // weight) % size."""
    gcols = g.columns()

    def act(rep):
        img = {}
        for code, val in rep.items():
            d = code // weight % size
            for o, w in gcols[d].items():
                code2 = code + (o - d) * weight
                img[code2] = img.get(code2, 0) + val * w
        return img
    return act


def derived_tensor(x, y, bound=None, cap=DEFAULT_CAP):
    """Graded list [Tor_i^B(x, y)] for i = 0..bound as (A, C)-bimodules.

    x: (A, B)-bimodule, y: (B, C)-bimodule.  Tor^B_*(x, y) is the Hochschild
    homology HH_*(B; y (x) x) of B with coefficients in the B-bimodule
    y (x)_Q x, on which B acts on the left through y and on the right
    through x (Cartan-Eilenberg).  Its normalized chains are the two-sided
    bar complex x (x)_E Bbar^{(x)_E n} (x)_E y, whose homology carries the
    outer actions.  The ground E is chosen by _relative_ends(y (x) x):
    E from the unit's idempotent terms when B has that ground and x's
    right and y's left actions of those terms are 0/1 coordinate
    projections (every corner and projective-pair bimodule), so that only
    the composable chains x e_w (x) r_1 (x) ... (x) r_n (x) e_u y enter;
    E = Q.1 otherwise.  The bar resolutions relative to a separable E
    compute the same Tor (Hochschild 1956).
    The bound must either be certified by finite global dimension of B, or
    x must be projective as a right B-module (then Tor vanishes above 0).
    The memory guard cap bounds the chains in degrees 0..bound + 1.
    """
    if x.B is not y.A:
        raise InvariantError("bimodules are not composable")
    b = x.B
    if bound is None:
        bound = 0 if is_right_projective(x) else _gldim_certificate(b)
        if bound is None:
            raise UncertifiedError(
                "derived tensor refused: the middle algebra %s has no "
                "finite global-dimension certificate and the left factor "
                "is not right-projective" % b.name)
    ix, iy = QMatrix.identity(x.dim), QMatrix.identity(y.dim)
    m = Bimodule(b, b, x.dim * y.dim,
                 [kron(ix, y.left[k]) for k in range(b.dim)],
                 [kron(x.right[k], iy) for k in range(b.dim)], check=False)
    red, dims, chains = _chain_basis(m, bound + 1, _relative_ends(m), cap)
    diffs = [None] + [hochschild_columns(m, red, n, chains)
                      for n in range(1, bound + 2)]
    cx = ChainComplex(dims, diffs)

    out = []
    for i in range(bound + 1):
        reps, project = cx.homology_space(i)
        # x_a (x) word (x) y_c has the code (a * dim y + c) * dbar^i + word;
        # the outer actions commute with E, so their images stay on the
        # composable chains
        codes = chains.lists[i]
        reps = [{codes[p]: v for p, v in rep.items()} for rep in reps]
        space = (reps, _on_positions(project, chains, i))
        weight = red.dbar ** i
        # A acts on the x digit of the chain codes, C on the y digit
        tor = Bimodule(x.A, y.B, len(reps),
                       [induced_map(space, space,
                                    _on_digit(g, weight * y.dim, x.dim))
                        for g in x.left],
                       [induced_map(space, space, _on_digit(g, weight, y.dim))
                        for g in y.right],
                       name="Tor_%d(%s,%s)" % (i, x.name, y.name),
                       check=len(reps) > 0)
        out.append(tor)
    return out


def _on_positions(project, chains, n):
    """project, which reads chains by position in degree n, on a chain
    given by its codes."""
    return lambda codes: project(chains.renumber(n, [codes])[0])
