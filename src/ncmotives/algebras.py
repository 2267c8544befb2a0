"""Finite-dimensional associative unital Q-algebras and their bimodules.

Algebras come either from explicit structure constants or from a quiver
with relations and a hard path-length truncation (so everything is
finite-dimensional by construction).  On top of that: opposites, tensor
products, bimodules, and one minimal projective resolution over the
enveloping algebra (minimal_resolution), which also resolves right modules,
as (Q, A)-bimodules, for global dimension and right projectivity.  Last,
the normalized bar complex.  Its one builder
(_Reduced, the basis of Bbar = B / E for a ground subalgebra E = Q.1 or,
on quiver algebras, E = Q^{Q_0}, and hochschild_columns, the differential
of M (x)_{E^e} Bbar^{(x)_E n}) serves both Hochschild homology and derived
tensor products: Tor^B(x, y) is HH(B; y (x) x).  One rule
(_relative_ends) picks E for every complex: E = Q^{Q_0} when B is a quiver
algebra with more than one vertex and the coefficients' vertex actions are
0/1 coordinate projections (for Tor: x's right and y's left actions, as on
every corner and projective-pair bimodule), so that only composable chains
enter (_Chains); E = Q.1 otherwise.  Both grounds give the same homology.
"""

import itertools
from fractions import Fraction

from .errors import InvariantError, CapExceededError, UncertifiedError
from . import exactlin
from .exactlin import QMatrix, LinSubspace, vec_addmul, _norm
from .homcore import ChainComplex


def _as_frac(x):
    if isinstance(x, str):
        return Fraction(x)
    return Fraction(x)


class Algebra:
    """A finite-dimensional associative unital algebra over Q.

    basis: list of string labels.
    unit: sparse vector dict index -> coefficient.
    table: dict (i, j) -> sparse vector of the product b_i * b_j
           (missing pairs mean the product is zero).
    quiver: optional QuiverPresentation when the algebra came from a quiver.
    """

    def __init__(self, name, basis, unit, table, quiver=None, check=True):
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
        self.quiver = quiver
        self._rad = None
        self._cyclic = {}       # (n_max, cap) -> hochschild.CyclicData
        self._gldim = {}        # bound -> global_dimension(self, bound)
        if check:
            self._check_axioms()

    # -- structure access ------------------------------------------------

    def mult_basis(self, i, j):
        return self.table.get((i, j), {})

    def mult_vec(self, x, y):
        out = {}
        for i, a in x.items():
            for j, b in y.items():
                prod = self.table.get((i, j))
                if prod:
                    vec_addmul(out, a * b, prod)
        return out

    def left_mult_matrix(self, x):
        """Matrix of y -> x*y (x a sparse vector)."""
        entries = {}
        for j in range(self.dim):
            col = {}
            for i, a in x.items():
                prod = self.table.get((i, j))
                if prod:
                    vec_addmul(col, a, prod)
            for r, v in col.items():
                entries[(r, j)] = v
        return QMatrix(self.dim, self.dim, entries)

    def right_mult_matrix(self, x):
        """Matrix of y -> y*x."""
        entries = {}
        for j in range(self.dim):
            col = {}
            for i, a in x.items():
                prod = self.table.get((j, i))
                if prod:
                    vec_addmul(col, a, prod)
            for r, v in col.items():
                entries[(r, j)] = v
        return QMatrix(self.dim, self.dim, entries)

    def element(self, label_coeffs):
        """Vector from {label: coefficient}."""
        idx = {lab: i for i, lab in enumerate(self.basis)}
        return {idx[lab]: _as_frac(c) for lab, c in label_coeffs.items() if c}

    def radical(self):
        if self._rad is None:
            self._rad = exactlin.jacobson_radical(self)
        return self._rad

    def is_semisimple(self):
        return self.radical().dim == 0

    # -- checks ------------------------------------------------------------

    def _check_axioms(self):
        if not self.unit:
            raise InvariantError("unit vector is zero")
        for j in range(self.dim):
            ej = {j: 1}
            if self.mult_vec(self.unit, ej) != ej or self.mult_vec(ej, self.unit) != ej:
                raise InvariantError("unit law fails at basis element %r" % self.basis[j])
        d = self.dim
        # full associativity check is cubic; for large derived constructions
        # (tensor products of checked algebras) a structured sample suffices
        full = d <= 40
        triples = ((i, j, k) for i in range(d) for j in range(d) for k in range(d)) if full \
            else (((i * 7 + j) % d, j, (j * 5 + k) % d) for i in range(d) for j in range(d)
                  for k in (0, d // 2, d - 1))
        for i, j, k in triples:
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


class QuiverPresentation:
    """Bookkeeping a path_algebra attaches to its output."""

    def __init__(self, quiver, relations, truncation, vertex_idx, path_source,
                 path_target, path_length):
        self.quiver = quiver
        self.relations = relations
        self.truncation = truncation
        self.vertex_idx = dict(vertex_idx)   # vertex name -> basis index
        self.path_source = list(path_source)
        self.path_target = list(path_target)
        self.path_length = list(path_length)

    @property
    def vertices(self):
        return self.quiver.vertices


def _enumerate_paths(quiver, truncation):
    """All paths of length <= truncation, as tuples of arrow names.

    Returns (paths, source, target); vertices are the empty paths, encoded
    ('', v) pairs handled by the caller.
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
    index = {p[0] if p[0] else ("", p[1]): i for i, p in enumerate(paths)}
    source = {key: p[1] for key, p in zip(index, paths)}
    target = {key: p[2] for key, p in zip(index, paths)}

    def path_key(names, at_vertex=None):
        return tuple(names) if names else ("", at_vertex)

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
    all_keys = list(index)
    for (s0, t0), terms in rel_vectors:
        for left_key in all_keys:
            if target[left_key] != s0:
                continue
            left_names = () if isinstance(left_key, tuple) and left_key and left_key[0] == "" else left_key
            for right_key in all_keys:
                if source[right_key] != t0:
                    continue
                right_names = () if isinstance(right_key, tuple) and right_key and right_key[0] == "" else right_key
                vec = {}
                for coeff, names in terms:
                    full = tuple(left_names) + names + tuple(right_names)
                    if len(full) > truncation:
                        continue
                    key = path_key(full, None)
                    if key in index:
                        vec[index[key]] = vec.get(index[key], 0) + coeff
                vec = {k: v for k, v in vec.items() if v}
                if vec:
                    ideal_gens.append(vec)

    ideal = LinSubspace(len(paths), ideal_gens)
    for v in quiver.vertices:
        if ideal.contains({index[("", v)]: 1}):
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
    psrc, ptgt, plen = [], [], []
    for new, old in enumerate(kept):
        names, s, t = paths[old]
        if names:
            labels.append("*".join(names))
        else:
            labels.append("e_%s" % s)
            vertex_idx[s] = new
        psrc.append(s)
        ptgt.append(t)
        plen.append(len(names))

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
            key = path_key(full, s_i)
            vec = reduce_vec({index[key]: 1})
            if vec:
                table[(inew, jnew)] = vec

    unit = {vertex_idx[v]: 1 for v in quiver.vertices}
    pres = QuiverPresentation(quiver, relations, truncation, vertex_idx,
                              psrc, ptgt, plen)
    return Algebra(name or "path algebra", labels, unit, table, quiver=pres)


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
        vec = {idx[lab]: _as_frac(c) for lab, c in value.items()}
        table[(idx[left], idx[right])] = vec
    unit = {idx[lab]: _as_frac(c) for lab, c in unit_coeffs.items()}
    return Algebra(name, basis, unit, table, check=check)


def opposite(a):
    """The opposite algebra (reversed multiplication)."""
    table = {(j, i): dict(vec) for (i, j), vec in a.table.items()}
    return Algebra(a.name + "^op", list(a.basis), dict(a.unit), table, check=False)


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
    out = Algebra(name or "%s(x)%s" % (a.name, b.name), labels, unit, table,
                  check=False)
    out._factors = (a, b)
    return out


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
    """A e_i (x) e_j A as an (A, A)-bimodule, for a quiver algebra.

    These are the indecomposable projective bimodules.
    """
    out = projective_pair_bimodule(a, a, i_vertex, j_vertex)
    out.name = "Ae_%s(x)e_%sA" % (i_vertex, j_vertex)
    return out


def projective_pair_bimodule(a, b, i_vertex, j_vertex):
    """A e_i (x) e_j B as an (A, B)-bimodule for quiver algebras a, b.

    Basis: the pairs (p, q), in the order of out.pairs, with p a path of A
    ending at i and q a path of B starting at j; e_i (x) e_j generates.
    """
    pa, pb = a.quiver, b.quiver
    lefts = [k for k in range(a.dim) if pa.path_target[k] == i_vertex]
    rights = [k for k in range(b.dim) if pb.path_source[k] == j_vertex]
    basis = [(p, q) for p in lefts for q in rights]
    pos = {pq: n for n, pq in enumerate(basis)}
    dim = len(basis)
    left = []
    for x in range(a.dim):
        entries = {}
        for c, (p, q) in enumerate(basis):
            for k, val in a.mult_basis(x, p).items():
                if pa.path_target[k] == i_vertex:
                    entries[(pos[(k, q)], c)] = val
        left.append(QMatrix(dim, dim, entries))
    right = []
    for y in range(b.dim):
        entries = {}
        for c, (p, q) in enumerate(basis):
            for k, val in b.mult_basis(q, y).items():
                if pb.path_source[k] == j_vertex:
                    entries[(pos[(p, k)], c)] = val
        right.append(QMatrix(dim, dim, entries))
    out = Bimodule(a, b, dim, left, right,
                   name="%se_%s(x)e_%s%s" % (a.name, i_vertex, j_vertex, b.name),
                   check=False)
    out.pairs = basis
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
    vertex pair: (i, j, vector in e_i m e_j)."""
    rad_vecs = []
    for alg, mats in ((m.A, m.left), (m.B, m.right)):
        for r in alg.radical().basis():
            mat = QMatrix.zero(m.dim, m.dim)
            for i, c in r.items():
                mat = mat + mats[i].scale(c)
            rad_vecs.extend(col for col in mat.columns() if col)
    radspan = LinSubspace(m.dim, rad_vecs)
    gens = []
    for i in m.A.quiver.vertices:
        ei = m.A.quiver.vertex_idx[i]
        for j in m.B.quiver.vertices:
            proj = m.left[ei] * m.right[m.B.quiver.vertex_idx[j]]
            seen = LinSubspace(m.dim, radspan.basis())
            for col in proj.columns():
                if col and not seen.contains(col):
                    gens.append((i, j, col))
                    seen = LinSubspace(m.dim, seen.basis() + [col])
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

    Both algebras need quiver presentations.  Each step maps one P_ij per
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


def global_dimension(a, bound=10):
    """Global dimension of a, or None if it exceeds the bound.

    For semisimple algebras (radical zero) the answer is 0 regardless of
    presentation; otherwise a quiver presentation is required and the
    simple right modules, as (Q, A)-bimodules, are resolved.
    """
    if bound not in a._gldim:
        a._gldim[bound] = _global_dimension(a, bound)
    return a._gldim[bound]


def _global_dimension(a, bound):
    if a.radical().dim == 0:
        return 0
    if a.quiver is None:
        raise InvariantError("global dimension needs a quiver presentation "
                             "(or a semisimple algebra)")
    pres = a.quiver
    worst = 0
    for v in pres.vertices:
        right = [QMatrix(1, 1, {(0, 0): 1} if k == pres.vertex_idx[v]
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
        elif b.quiver is None:
            x._right_projective = False
        else:
            m = Bimodule(_ground_field(), b, x.dim,
                         [QMatrix.identity(x.dim)], x.right, check=False)
            x._right_projective = minimal_resolution(m, 0) is not None
    return x._right_projective


# ---------------------------------------------------------------------------
# the normalized bar complex: Hochschild chains and derived tensor products


class _Reduced:
    """The basis of Bbar = B / E that the normalized bar chains use, for a
    ground subalgebra E: E = Q.1, or, when vertices is set and B is a quiver
    algebra, E = Q^{Q_0}, spanned by the vertex idempotents.

    kept lists the basis indices that span Bbar.  With E = Q.1 the dropped
    index is the last one with a nonzero unit coefficient u, its class is
    -(1/u) times the rest of the unit, and ends is None.  With E = Q^{Q_0}
    every vertex idempotent is dropped (its class is 0), kept lists the
    radical paths, and ends[t] = (u, v) puts kept[t] in e_u B e_v: a path
    from u to v.  classes[i] is the class of b_i in Bbar and redprod[(s, t)]
    the class of the product of the kept elements at positions s and t,
    both as sparse dicts over positions in kept.  Values pass through
    exactlin._norm, so they are ints whenever they are integral (always,
    when u = 1).
    """

    def __init__(self, b, vertices=False):
        if vertices:
            pres = b.quiver
            drop = set(pres.vertex_idx.values())
        else:
            drop = {max(b.unit)}
        self.kept = [i for i in range(b.dim) if i not in drop]
        self.dbar = len(self.kept)
        kpos = {k: t for t, k in enumerate(self.kept)}
        self.classes = {k: {t: 1} for k, t in kpos.items()}
        if vertices:
            self.classes.update((k, {}) for k in drop)
            self.ends = [(pres.path_source[k], pres.path_target[k])
                         for k in self.kept]
            self.starts = {}
            for t, (u, _) in enumerate(self.ends):
                self.starts.setdefault(u, []).append(t)
        else:
            (k,) = drop
            u = b.unit[k]
            self.classes[k] = {kpos[i]: _norm(Fraction(-c, u))
                               for i, c in b.unit.items() if i != k}
            self.ends = None
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

    # E = Q^{Q_0}: the chains of M (x)_{E^e} Bbar^{(x)_E n} are the
    # composable ones, m (x) r_1 (x) ... (x) r_n with m in e_u M e_w, r_1
    # starting at w, each r_i ending where r_(i+1) starts and r_n ending
    # at u.  ends[c] = (u, w) puts coordinate c of M in e_u M e_w.

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
    """The composable chains of M (x)_{E^e} Bbar^{(x)_E n}, E = Q^{Q_0}, in
    degrees 0..n_max, for the reduced basis red and the ends of M's
    coordinates (_vertex_ends).  lists[n] holds them as (c, (t_1, ...,
    t_n)) in the order of their codes c * dbar^n + (base-dbar code of
    t_1 ... t_n), and index[n] maps each such code to its position in
    lists[n]: the one position index of degree n that b, B and every map
    into the chains share.
    """

    def __init__(self, red, ends, n_max):
        self.lists = []
        self.index = []
        words = {w: [((), w)] for _, w in ends}     # (word, its end)
        for n in range(n_max + 1):
            if n:
                words = {w: [(word + (t,), red.ends[t][1]) for word, u in ws
                             for t in red.starts.get(u, ())]
                         for w, ws in words.items()}
            chains = [(c, word) for c, (u, w) in enumerate(ends)
                      for word, v in words[w] if v == u]
            weight = red.dbar ** n
            self.lists.append(chains)
            self.index.append({c * weight + _word_code(word, red.dbar): pos
                               for pos, (c, word) in enumerate(chains)})

    def renumber(self, n, cols):
        """The columns, sparse over codes of degree n, over positions; a
        code that is not a composable chain means a map left the chains."""
        index = self.index[n]
        try:
            return [{index[code]: v for code, v in col.items()}
                    for col in cols]
        except KeyError:
            raise InvariantError("a map leaves the composable chains: the "
                                 "vertex decomposition is not respected")


def _vertex_ends(m):
    """ends[c] = (u, w) with coordinate c of the (A, A)-bimodule m, A a
    quiver algebra, spanning a line in e_u M e_w, when m's basis is
    vertex-adapted: every left and right action of a vertex idempotent is
    a 0/1 coordinate projection.  None otherwise."""
    ends = [[None, None] for _ in range(m.dim)]
    for v, k in m.A.quiver.vertex_idx.items():
        for side, mat in enumerate((m.left[k], m.right[k])):
            for (r, c), x in mat.entries.items():
                if r != c or x != 1 or ends[c][side] is not None:
                    return None
                ends[c][side] = v
    if any(None in e for e in ends):
        return None
    return [tuple(e) for e in ends]


def _relative_ends(m):
    """_vertex_ends(m) when chains with coefficients in the B-bimodule m
    are taken relative to E = Q^{Q_0}: B is a quiver algebra with more than
    one vertex (with one, Q^{Q_0} is Q.1) and m's basis is vertex-adapted.
    None when they are taken relative to E = Q.1.  Hochschild complexes,
    mixed complexes and derived tensor products all choose E by this rule."""
    quiver = m.A.quiver
    if quiver is not None and len(quiver.vertices) > 1:
        return _vertex_ends(m)
    return None


def _guard(total, cap):
    if cap is not None and total > cap:
        raise CapExceededError(
            "total complex dimension %d exceeds the memory guard %d"
            % (total, cap), needed=total, cap=cap)


def _chain_basis(m, n_max, ends, cap=None):
    """The reduced basis, the chain dimensions in degrees 0..n_max and,
    relative to E = Q^{Q_0} (ends set), the composable chains.  Given a
    cap, the memory guard sees the total before any chain is listed;
    derived_tensor passes none."""
    red = _Reduced(m.A, vertices=ends is not None)
    if ends is None:
        dims = [m.dim * red.dbar ** n for n in range(n_max + 1)]
    else:
        dims = red.chain_dims(ends, n_max)
    if cap is not None:
        _guard(sum(dims), cap)
    return red, dims, None if ends is None else _Chains(red, ends, n_max)


def hochschild_columns(m, red, n, split=1, chains=None):
    """Columns of b_n : M (x) Bbar^n -> M (x) Bbar^(n-1), for a B-bimodule m.

        b(m (x) b_1 (x) ... (x) b_n) = m.b_1 (x) b_2 (x) ... (x) b_n
            + sum_i (-1)^i m (x) ... (x) b_i b_(i+1) (x) ...
            + (-1)^n b_n.m (x) b_1 (x) ... (x) b_(n-1).

    The chain m_c (x) bbar_t1 (x) ... (x) bbar_tn has the code
    (l * dbar^n + t) * split + r, with (l, r) = divmod(c, split) and t the
    base-dbar code of t1 ... tn.  split = 1 puts the coefficient first;
    derived_tensor passes split = dim y, so that x (x) Bbar^n (x) y keeps
    its natural order.

    With E = Q^{Q_0} (red.ends set), chains is the _Chains of the
    composable chains, split is 1, and a chain's index is its position:
    the columns are those of chains.lists[n], with rows indexed by
    chains.lists[n - 1].  The composable chains span a direct summand
    subcomplex of M (x) Bbar^n over Q, since every face of a composable
    chain is composable and the faces of the others stay outside it.
    """
    dbar = red.dbar
    pows = [dbar ** j for j in range(n + 1)]
    sgn_last = -1 if n % 2 else 1
    # code in degree n - 1 of m_c (x) (the bar word whose digits are all 0)
    base = [(c // split) * pows[n - 1] * split + c % split
            for c in range(m.dim)]
    right_cols = [[{base[o]: v for o, v in col.items()}
                   for col in m.right[k].columns()] for k in red.kept]
    left_cols = [[{base[o]: sgn_last * v for o, v in col.items()}
                  for col in m.left[k].columns()] for k in red.kept]
    # face i multiplies digits i and i + 1 with the sign (-1)^(i + 1)
    negprod = {st: {k: -v for k, v in p.items()}
               for st, p in red.redprod.items()}
    signed = [negprod if i % 2 == 0 else red.redprod for i in range(n - 1)]
    shifts = [pows[n - 2 - i] * split for i in range(n - 1)]
    if chains is None:
        blocks = ((t, mid, range(l * split, (l + 1) * split))
                  for l in range(m.dim // split)
                  for t, mid in enumerate(
                      itertools.product(range(dbar), repeat=n)))
    else:
        blocks = ((_word_code(mid, dbar), mid, (c,))
                  for c, mid in chains.lists[n])
    cols = []
    for t, mid, block in blocks:
        tail = t % pows[n - 1] * split      # the word b_2 ... b_n
        head = t // dbar * split            # the word b_1 ... b_(n-1)
        # the middle faces: (signed product, offset, weight of its digit)
        faces = []
        for i in range(n - 1):
            prod = signed[i][(mid[i], mid[i + 1])]
            if prod:
                faces.append((prod, t // pows[n - i] * dbar * shifts[i]
                              + t % pows[n - 2 - i] * split, shifts[i]))
        for c in block:
            col = {}
            for code, v in right_cols[mid[0]][c].items():
                col[code + tail] = v
            for prod, off, shift in faces:
                off += base[c]
                for k, v in prod.items():
                    code = off + k * shift
                    val = col.get(code, 0) + v
                    if val:
                        col[code] = val
                    else:
                        col.pop(code, None)
            for code, v in left_cols[mid[-1]][c].items():
                code += head
                val = col.get(code, 0) + v
                if val:
                    col[code] = val
                else:
                    col.pop(code, None)
            cols.append(col)
    if chains is not None:
        cols = chains.renumber(n - 1, cols)
    return cols


def _word_code(word, dbar):
    t = 0
    for d in word:
        t = t * dbar + d
    return t


def _kron(f, g):
    """f (x) g on the basis i * g.rows + j (f's index first)."""
    return QMatrix(f.rows * g.rows, f.cols * g.cols,
                   {(r1 * g.rows + r2, c1 * g.cols + c2): v1 * v2
                    for (r1, c1), v1 in f.entries.items()
                    for (r2, c2), v2 in g.entries.items()})


def _on_homology(g, reps, project, weight, size):
    """Matrix on H_n of the chain map that applies g to one digit of the
    chain codes: the digit (code // weight) % size.  reps are over codes
    and project takes a chain over codes."""
    gcols = g.columns()
    entries = {}
    for j, rep in enumerate(reps):
        img = {}
        for code, val in rep.items():
            d = code // weight % size
            for o, w in gcols[d].items():
                code2 = code + (o - d) * weight
                img[code2] = img.get(code2, 0) + val * w
        for i, v in project(img).items():
            entries[(i, j)] = v
    return QMatrix(len(reps), len(reps), entries)


def derived_tensor(x, y, bound=None, check_modules=True):
    """Graded list [Tor_i^B(x, y)] for i = 0..bound as (A, C)-bimodules.

    x: (A, B)-bimodule, y: (B, C)-bimodule.  Tor^B_*(x, y) is the Hochschild
    homology HH_*(B; y (x) x) of B with coefficients in the B-bimodule
    y (x)_Q x, on which B acts on the left through y and on the right
    through x (Cartan-Eilenberg).  Its normalized chains are the two-sided
    bar complex x (x)_E Bbar^{(x)_E n} (x)_E y, whose homology carries the
    outer actions.  The ground E is chosen by _relative_ends(y (x) x):
    E = Q^{Q_0} when B is a quiver algebra with more than one vertex and
    x's right and y's left vertex actions are 0/1 coordinate projections
    (every corner and projective-pair bimodule), so that only the
    composable chains x e_w (x) r_1 (x) ... (x) r_n (x) e_u y enter;
    E = Q.1 otherwise.  The bar resolutions relative to a separable E
    compute the same Tor (Hochschild 1956).
    The bound must either be certified by finite global dimension of B, or
    x must be projective as a right B-module (then Tor vanishes above 0).
    """
    if x.B is not y.A:
        raise InvariantError("bimodules are not composable")
    b = x.B
    if bound is None:
        if b.radical().dim == 0 or is_right_projective(x):
            bound = 0
        else:
            g = global_dimension(b) if b.quiver is not None else None
            if g is None:
                raise UncertifiedError(
                    "derived tensor refused: the middle algebra %s has no "
                    "finite global-dimension certificate and the left factor "
                    "is not right-projective" % b.name)
            bound = g
    ix, iy = QMatrix.identity(x.dim), QMatrix.identity(y.dim)
    m = Bimodule(b, b, x.dim * y.dim,
                 [_kron(ix, y.left[k]) for k in range(b.dim)],
                 [_kron(x.right[k], iy) for k in range(b.dim)], check=False)
    red, dims, chains = _chain_basis(m, bound + 1, _relative_ends(m))
    # over Q.1 the chains keep the order of x (x) Bbar^n (x) y; a
    # zero-dimensional y has no chains at all
    split = max(y.dim, 1) if chains is None else 1
    diffs = [None] + [hochschild_columns(m, red, n, split, chains)
                      for n in range(1, bound + 2)]
    cx = ChainComplex(dims, diffs, check=sum(dims) <= 2000)

    out = []
    for i in range(bound + 1):
        reps, project = cx.homology_space(i)
        weight = red.dbar ** i
        if chains is None:
            # x_a (x) word (x) y_c has the code (a * dbar^i + word) * split + c
            wx, wy = weight * split, 1
        else:
            # the chain (a * dim y + c, word) at each position has the code
            # (a * dim y + c) * dbar^i + word; the outer actions commute
            # with E, so their images stay on the composable chains
            codes = [c * weight + _word_code(word, red.dbar)
                     for c, word in chains.lists[i]]
            reps = [{codes[p]: v for p, v in rep.items()} for rep in reps]
            project = _on_positions(project, chains, i)
            wx, wy = weight * y.dim, weight
        # A acts on the x digit of the chain codes, C on the y digit
        tor = Bimodule(x.A, y.B, len(reps),
                       [_on_homology(g, reps, project, wx, x.dim)
                        for g in x.left],
                       [_on_homology(g, reps, project, wy, y.dim)
                        for g in y.right],
                       name="Tor_%d(%s,%s)" % (i, x.name, y.name),
                       check=check_modules and len(reps) > 0)
        out.append(tor)
    return out


def _on_positions(project, chains, n):
    """project, which reads chains by position in degree n, on a chain
    given by its codes."""
    return lambda codes: project(chains.renumber(n, [codes])[0])
