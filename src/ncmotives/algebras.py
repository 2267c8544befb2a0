"""Finite-dimensional associative unital Q-algebras and their bimodules.

Algebras come either from explicit structure constants or from a quiver
with relations and a hard path-length truncation (so everything is
finite-dimensional by construction).  On top of that: opposites, tensor
products, one-sided modules with minimal projective resolutions, global
dimension bounds, and derived tensor products of bimodules computed from
the normalized two-sided bar complex.
"""

from fractions import Fraction

from .errors import InvariantError, UncertifiedError
from . import exactlin
from .exactlin import QMatrix, LinSubspace, vec_addmul, _norm


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
# one-sided modules and resolutions


class Module:
    """A finite-dimensional left module over an algebra.

    action: list of dim(algebra) matrices, action[i] = matrix of b_i acting.
    """

    def __init__(self, algebra, dim, action, check=True):
        self.algebra = algebra
        self.dim = dim
        self.action = action
        if check:
            self._check()

    def _check(self):
        a = self.algebra
        unit = QMatrix.zero(self.dim, self.dim)
        for i, c in a.unit.items():
            unit = unit + self.action[i].scale(c)
        if unit != QMatrix.identity(self.dim):
            raise InvariantError("module action is not unital")
        for i in range(a.dim):
            for j in range(a.dim):
                lhs = QMatrix.zero(self.dim, self.dim)
                for k, c in a.mult_basis(i, j).items():
                    lhs = lhs + self.action[k].scale(c)
                if lhs != self.action[i] * self.action[j]:
                    raise InvariantError("module action not associative at (%d,%d)" % (i, j))

    def act(self, x, vec):
        """x a sparse algebra vector, vec a sparse module vector."""
        out = {}
        for i, c in x.items():
            vec_addmul(out, c, self.action[i] * vec)
        return out


def submodule(m, vectors):
    """Submodule generated by the given vectors, with restricted action."""
    a = m.algebra
    span = list(vectors)
    sub = LinSubspace(m.dim, span)
    while True:
        new = []
        for v in sub.basis():
            for i in range(a.dim):
                w = m.action[i] * v
                if w and not sub.contains(w):
                    new.append(w)
        if not new:
            break
        sub = LinSubspace(m.dim, sub.basis() + new)
    basis = sub.basis()
    # action in the sub-basis coordinates
    action = []
    for i in range(a.dim):
        entries = {}
        for c, v in enumerate(basis):
            w = m.action[i] * v
            coords = sub.coordinates(w)
            for r, val in coords.items():
                entries[(r, c)] = val
        action.append(QMatrix(len(basis), len(basis), entries))
    return Module(m.algebra, len(basis), action, check=False), basis


def vertex_projective(a, v):
    """P_v = e_v A as a right A-module, i.e. a left module over A^op."""
    if a.quiver is None:
        raise InvariantError("vertex projectives need a quiver presentation")
    pres = a.quiver
    rows = [i for i in range(a.dim) if pres.path_source[i] == v]
    pos = {b: r for r, b in enumerate(rows)}
    aop = opposite(a)
    action = []
    for i in range(a.dim):
        entries = {}
        for c, bidx in enumerate(rows):
            # right multiplication by b_i in A
            prod = a.mult_basis(bidx, i)
            for k, val in prod.items():
                entries[(pos[k], c)] = val
        action.append(QMatrix(len(rows), len(rows), entries))
    return Module(aop, len(rows), action, check=False), rows


def simple_at_vertex(a, v):
    """The simple right A-module at vertex v (as a left A^op-module)."""
    aop = opposite(a)
    pres = a.quiver
    action = []
    for i in range(a.dim):
        val = 1 if (pres.path_length[i] == 0 and pres.path_source[i] == v) else 0
        action.append(QMatrix(1, 1, {(0, 0): val} if val else None))
    return Module(aop, 1, action, check=False)


def _module_radical_subspace(m):
    """M * rad(A) in the left-module encoding (rad of the acting algebra)."""
    a = m.algebra
    rad = exactlin.jacobson_radical(a)
    vecs = []
    for r in rad.basis():
        mat = QMatrix.zero(m.dim, m.dim)
        for i, c in r.items():
            mat = mat + m.action[i].scale(c)
        for col in mat.columns():
            if col:
                vecs.append(col)
    return LinSubspace(m.dim, vecs)


class Resolution:
    """Minimal projective resolution bookkeeping for right modules over a
    quiver algebra (encoded as left modules over A^op)."""

    def __init__(self, a, module):
        self.a = a
        self.module = module

    def steps(self, bound):
        """Yield syzygy dimensions; stops when the syzygy is zero.

        Returns the projective dimension if reached within bound, else None.
        """
        a = self.a
        pres = a.quiver
        m = self.module
        for step in range(bound + 1):
            if m.dim == 0:
                return step - 1 if step else 0
            radspan = _module_radical_subspace(m)
            # top generators per vertex: columns of the e_v action that are
            # independent modulo M rad and earlier picks
            gens = []          # (vertex, lifted vector in m)
            for v in pres.vertices:
                evmat = m.action[pres.vertex_idx[v]]
                seen = LinSubspace(m.dim, radspan.basis())
                for col in evmat.columns():
                    if col and not seen.contains(col):
                        gens.append((v, col))
                        seen = LinSubspace(m.dim, seen.basis() + [col])
            # cover map (+) P_v -> M, e_v a |-> gen * a
            blocks = []
            offsets = []
            total = 0
            cover_entries = {}
            for v, gen in gens:
                proj, rows = vertex_projective(a, v)
                offsets.append((total, proj, rows))
                for c, bidx in enumerate(rows):
                    img = m.act({bidx: 1}, gen)   # gen * b  (A^op action)
                    for r, val in img.items():
                        cover_entries[(r, total + c)] = val
                total += proj.dim
            cover = QMatrix(m.dim, total, cover_entries)
            if exactlin.matrix_rank(cover) != m.dim:
                raise InvariantError("projective cover is not surjective")
            kv = exactlin.kernel_vectors(cover)
            if not kv:
                return step
            # syzygy as a module over A^op: restrict the product action
            big_action = []
            for i in range(a.dim):
                entries = {}
                for (off, proj, rows) in offsets:
                    mat = proj.action[i]
                    for (r, c), val in mat.entries.items():
                        entries[(off + r, off + c)] = val
                big_action.append(QMatrix(total, total, entries))
            big = Module(m.algebra, total, big_action, check=False)
            msub, _ = submodule(big, kv)
            m = msub
        return None


def global_dimension(a, bound=10):
    """Global dimension of a, or None if it exceeds the bound.

    For semisimple algebras (radical zero) the answer is 0 regardless of
    presentation; otherwise a quiver presentation is required and the
    simples are resolved stepwise.
    """
    if a.radical().dim == 0:
        return 0
    if a.quiver is None:
        raise InvariantError("global dimension needs a quiver presentation "
                             "(or a semisimple algebra)")
    worst = 0
    for v in a.quiver.vertices:
        s = simple_at_vertex(a, v)
        pd = Resolution(a, s).steps(bound)
        if pd is None:
            return None
        worst = max(worst, pd)
    return worst


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

    Basis: pairs (p, q) with p a path ending at i and q a path starting
    at j.  These are the indecomposable projective bimodules.
    """
    pres = a.quiver
    lefts = [k for k in range(a.dim) if pres.path_target[k] == i_vertex]
    rights = [k for k in range(a.dim) if pres.path_source[k] == j_vertex]
    basis = [(p, q) for p in lefts for q in rights]
    pos = {pq: n for n, pq in enumerate(basis)}
    dim = len(basis)
    left = []
    for x in range(a.dim):
        entries = {}
        for c, (p, q) in enumerate(basis):
            prod = a.mult_basis(x, p)
            for k, val in prod.items():
                if pres.path_target[k] == i_vertex:
                    entries[(pos[(k, q)], c)] = val
        left.append(QMatrix(dim, dim, entries))
    right = []
    for y in range(a.dim):
        entries = {}
        for c, (p, q) in enumerate(basis):
            prod = a.mult_basis(q, y)
            for k, val in prod.items():
                if pres.path_source[k] == j_vertex:
                    entries[(pos[(p, k)], c)] = val
        right.append(QMatrix(dim, dim, entries))
    out = Bimodule(a, a, dim, left, right,
                   name="Ae_%s(x)e_%sA" % (i_vertex, j_vertex), check=False)
    out.vertices = (i_vertex, j_vertex)
    return out


def projective_pair_bimodule(a, b, i_vertex, j_vertex):
    """A e_i (x) e_j B as an (A, B)-bimodule for quiver algebras a, b."""
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
    out.vertices = (i_vertex, j_vertex)
    return out


# ---------------------------------------------------------------------------
# derived tensor product via the normalized two-sided bar complex


def _reduced_basis(b):
    """Complement of the unit inside the algebra b.

    Returns (kept, classes): kept lists the basis indices that span
    Bbar = B / Q.1, and classes[i] is the class of b_i in Bbar as a sparse
    dict over kept indices.  The dropped index is the last one with a
    nonzero unit coefficient u, and its class is -(1/u) times the rest of
    the unit.  Values pass through exactlin._norm, so they are ints whenever
    they are integral (always, when u = 1).
    """
    drop = max(b.unit)
    kept = [i for i in range(b.dim) if i != drop]
    u = b.unit[drop]
    classes = {i: {i: 1} for i in kept}
    classes[drop] = {i: _norm(Fraction(-c, u))
                     for i, c in b.unit.items() if i != drop}
    return kept, classes


def derived_tensor(x, y, bound=None, check_modules=True):
    """Graded list [Tor_i^B(x, y)] for i = 0..bound as (A, C)-bimodules.

    x: (A, B)-bimodule, y: (B, C)-bimodule.  Uses the normalized two-sided
    bar complex x (x) Bbar^n (x) y, whose homology carries the outer actions.
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
    kept, classes = _reduced_basis(b)
    dbar = len(kept)
    kpos = {k: t for t, k in enumerate(kept)}

    def chain_dim(n):
        return x.dim * (dbar ** n) * y.dim

    # encode basis of x (x) Bbar^n (x) y as  ((xi, (t1..tn), yi))
    def enumerate_basis(n):
        idxs = [0] * n
        while True:
            yield tuple(idxs)
            for p in range(n - 1, -1, -1):
                idxs[p] += 1
                if idxs[p] < dbar:
                    break
                idxs[p] = 0
            else:
                break
            if n == 0:
                break

    def encode(xi, mid, yi, n):
        code = xi
        for t in mid:
            code = code * dbar + t
        return code * y.dim + yi

    # reduced product of two reduced-basis elements of B:
    #   class( b_{kept[s]} * b_{kept[t]} )  as dict over kept positions
    redprod = {}
    for s in range(dbar):
        for t in range(dbar):
            vec = b.mult_basis(kept[s], kept[t])
            out = {}
            for k, c in vec.items():
                for i, w in classes[k].items():
                    out[kpos[i]] = out.get(kpos[i], 0) + c * w
            redprod[(s, t)] = {k: v for k, v in out.items() if v}

    def boundary(n):
        """d_n : C_n -> C_{n-1} as column dicts."""
        if n >= 1 and dbar == 0:
            return []
        cols = []
        for xi in range(x.dim):
            for mid in (enumerate_basis(n) if n else [()]):
                for yi in range(y.dim):
                    col = {}
                    if n >= 1:
                        # x*b1 term
                        img = x.right[kept[mid[0]]].column(xi)
                        for xo, c in img.items():
                            code = encode(xo, mid[1:], yi, n - 1)
                            col[code] = col.get(code, 0) + c
                        # middle multiplications
                        for i in range(n - 1):
                            sgn = -1 if (i + 1) % 2 else 1
                            for k, c in redprod[(mid[i], mid[i + 1])].items():
                                nm = mid[:i] + (k,) + mid[i + 2:]
                                code = encode(xi, nm, yi, n - 1)
                                val = col.get(code, 0) + sgn * c
                                if val:
                                    col[code] = val
                                else:
                                    col.pop(code, None)
                        # bn*y term
                        sgn = -1 if n % 2 else 1
                        img = y.left[kept[mid[-1]]].column(yi)
                        for yo, c in img.items():
                            code = encode(xi, mid[:-1], yo, n - 1)
                            val = col.get(code, 0) + sgn * c
                            if val:
                                col[code] = val
                            else:
                                col.pop(code, None)
                    cols.append({k: v for k, v in col.items() if v})
        return cols

    from .homcore import ChainComplex  # local import to avoid a cycle
    dims = [chain_dim(n) for n in range(bound + 2)]
    diffs = [None] + [boundary(n) for n in range(1, bound + 2)]
    cx = ChainComplex(dims, diffs, check=sum(dims) <= 2000)

    out = []
    for i in range(bound + 1):
        reps, project = cx.homology_space(i)
        hdim = len(reps)
        # induced (A, C)-actions on homology
        left = []
        for ai in range(x.A.dim):
            entries = {}
            for c, rep in enumerate(reps):
                img = {}
                for code, val in rep.items():
                    yi = code % y.dim
                    rest = code // y.dim
                    xi = rest // (dbar ** i)
                    midcode = rest % (dbar ** i)
                    acted = x.left[ai].column(xi)
                    for xo, w in acted.items():
                        code2 = (xo * (dbar ** i) + midcode) * y.dim + yi
                        img[code2] = img.get(code2, 0) + val * w
                for r, v in project(img).items():
                    entries[(r, c)] = v
            left.append(QMatrix(hdim, hdim, entries))
        right = []
        for ci in range(y.B.dim):
            entries = {}
            for c, rep in enumerate(reps):
                img = {}
                for code, val in rep.items():
                    yi = code % y.dim
                    rest = code // y.dim
                    acted = y.right[ci].column(yi)
                    for yo, w in acted.items():
                        code2 = rest * y.dim + yo
                        img[code2] = img.get(code2, 0) + val * w
                for r, v in project(img).items():
                    entries[(r, c)] = v
            right.append(QMatrix(hdim, hdim, entries))
        tor = Bimodule(x.A, y.B, hdim, left, right,
                       name="Tor_%d(%s,%s)" % (i, x.name, y.name),
                       check=check_modules and hdim > 0)
        out.append(tor)
    return out


def is_right_projective(x):
    """Is the bimodule x projective as a right module over x.B?"""
    b = x.B
    if b.radical().dim == 0:
        return True
    if b.quiver is None:
        return False
    # projective iff the cover of the underlying right module is injective;
    # equivalently the first syzygy vanishes
    aop = opposite(b)
    action = [x.right[i] for i in range(b.dim)]
    m = Module(aop, x.dim, action, check=False)
    pd = Resolution(b, m).steps(0)
    return pd == 0
