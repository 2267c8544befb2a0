"""Exact sparse linear algebra over the rationals.

This is the computational substrate for every other module.  Matrices are
sparse; elimination happens on integer-cleared columns (fraction-free style,
with periodic content stripping) so that coefficient growth stays under
control on the large boundary matrices produced by bar-type complexes.

Conventions:
  * vectors are dicts index -> value with no stored zeros,
  * values are Python ints when integral, fractions.Fraction otherwise;
    the hot helpers test `type(v) is int` before `isinstance(v, Fraction)`,
    because isinstance against Fraction goes through the numbers ABC
    machinery and costs several times more on all-int data,
  * a map, and so every matrix, is its list of sparse columns, column j
    the image of basis vector j; the number of rows is the caller's to
    know.  apply_cols, compose_cols and combine_cols act on, compose and
    combine maps in that form, and Elimination, the rank, kernel, solve
    and inverse helpers read it,
  * subspaces are kept in a canonical reduced row echelon form, so equality
    of subspaces is equality of representations; LinSubspace reads it off
    the pivots of one rank-only Elimination, each scaled to 1 at its lead
    and back-substituted, so Elimination is the one row reduction here; a
    kernel basis from kernel_vectors needs no such copy to be read in
    (kernel_coordinates),
  * Elimination.modulo(base) starts a tracked elimination from another
    one's pivots with empty expressions, so that solving modulo a span that
    is already eliminated (the boundaries, for homology bases) feeds only
    the new columns.
"""

from fractions import Fraction
from math import gcd

from .errors import InvariantError


def _norm(v):
    """Collapse Fractions with denominator 1 to int; drop exact zeros upstream."""
    if type(v) is int:
        return v
    if isinstance(v, Fraction) and v.denominator == 1:
        return int(v)
    return v


def vec_sub(x, y):
    out = dict(x)
    for i, v in y.items():
        w = out.get(i, 0) - v
        if w:
            out[i] = _norm(w)
        else:
            out.pop(i, None)
    return out


def vec_scale(c, x):
    if not c:
        return {}
    return {i: _norm(c * v) for i, v in x.items()}


def vec_addmul(acc, c, x):
    """acc += c*x in place (acc a dict)."""
    if not c:
        return
    for i, v in x.items():
        w = acc.get(i, 0) + c * v
        if w:
            acc[i] = _norm(w)
        else:
            acc.pop(i, None)


def bilinear(table, x, y):
    """sum_ij x_i y_j table[(i, j)] for sparse vectors x, y and a table of
    sparse vectors; absent pairs count as 0.  Algebra products,
    composition and the tensor of morphisms all read their tables through
    it."""
    out = {}
    for i, a in x.items():
        for j, b in y.items():
            prod = table.get((i, j))
            if prod:
                vec_addmul(out, a * b, prod)
    return out


def apply_cols(cols, vec):
    """The image of the sparse vector vec under the map with the columns
    cols."""
    out = {}
    for j, c in vec.items():
        if c:
            vec_addmul(out, c, cols[j])
    return out


def identity_cols(n):
    """The columns of the n x n identity."""
    return [{i: 1} for i in range(n)]


def compose_cols(f, g):
    """The columns of f o g, for maps f and g given by their columns."""
    return [apply_cols(f, col) for col in g]


def check_shape(cols, dim):
    """Refuse a map, given by its columns, that does not have dim of
    them."""
    if len(cols) != dim:
        raise InvariantError("shape mismatch: a map with %d columns in "
                             "a combination on dimension %d"
                             % (len(cols), dim))


def combine_cols(maps, x, dim):
    """The columns of sum_k x_k maps[k], for the maps maps (column lists)
    of a space of dimension dim."""
    out = [{} for _ in range(dim)]
    for k, c in x.items():
        check_shape(maps[k], dim)
        for col, add in zip(out, maps[k]):
            vec_addmul(col, c, add)
    return out


def _clear_denoms(col):
    """(lcm, lcm * col): the lcm of the denominators and the integer column."""
    lcm = 1
    for v in col.values():
        if type(v) is not int and isinstance(v, Fraction):
            d = v.denominator
            lcm = lcm * d // gcd(lcm, d)
    if lcm == 1:
        return 1, {i: v if type(v) is int else int(v)
                   for i, v in col.items() if v}
    return lcm, {i: int(v * lcm) for i, v in col.items() if v}


def _strip_content(col, extra=None):
    """Divide col (and the parallel dict extra) by the gcd of all values."""
    g = 0
    for v in col.values():
        g = gcd(g, v)
        if g == 1:
            break
    if extra is not None and g != 1:
        for v in extra.values():
            g = gcd(g, v)
            if g == 1:
                break
    if g > 1:
        for i in col:
            col[i] //= g
        if extra is not None:
            for i in extra:
                extra[i] //= g
    return col


_TARGET = object()   # expression key of the vector a solve() reduces


class Elimination:
    """Incremental column echelon form over Q with integer arithmetic.

    Columns are fed one at a time.  Each new independent column becomes a
    pivot keyed by its leading (smallest) row index.  With track=True every
    pivot also remembers its expression in the columns as they were given
    (Fraction entries included), which makes lazy kernel-vector extraction
    and solve() possible.  solve() never changes the span: only add_column
    adds pivots.
    """

    def __init__(self, track=False):
        self.track = track
        self.pivots = {}        # lead row -> integer column dict
        self.exprs = {}         # lead row -> expression dict (original col -> int)
        self.pivot_cols = []    # original indices of columns that became pivots
        self.ncols_seen = 0
        self._last_kernel_expr = None

    @classmethod
    def modulo(cls, base):
        """A tracked Elimination that starts from base's pivots with empty
        expressions: the columns fed to it are reduced modulo base's span,
        and solve() gives their coefficients modulo that span.  base is not
        changed; its pivot columns are shared read-only, and new pivots go
        into this elimination's own dict."""
        elim = cls(track=True)
        elim.pivots = dict(base.pivots)
        elim.exprs = {lead: {} for lead in base.pivots}
        return elim

    @property
    def rank(self):
        return len(self.pivots)

    def _reduce(self, col, expr):
        """Reduce an integer column against current pivots.  Mutates col/expr."""
        steps = 0
        while col:
            lead = min(col)
            piv = self.pivots.get(lead)
            if piv is None:
                return lead
            a = piv[lead]
            b = col[lead]
            g = gcd(a, b)
            ma, mb = a // g, b // g
            # col <- ma*col - mb*piv  (kills the lead entry)
            if ma != 1:
                for i in list(col):
                    col[i] *= ma
                if expr is not None:
                    for i in expr:
                        expr[i] *= ma
            for i, v in piv.items():
                w = col.get(i, 0) - mb * v
                if w:
                    col[i] = w
                else:
                    col.pop(i, None)
            if expr is not None:
                pexpr = self.exprs[lead]
                for i, v in pexpr.items():
                    w = expr.get(i, 0) - mb * v
                    if w:
                        expr[i] = w
                    else:
                        expr.pop(i, None)
            steps += 1
            if steps % 8 == 0:
                _strip_content(col, expr)
        return None

    def add_column(self, col, index=None):
        """Feed one column (dict row -> int/Fraction).  Returns True if it
        increased the rank."""
        if index is None:
            index = self.ncols_seen
        self.ncols_seen = max(self.ncols_seen, index + 1)
        lcm, icol = _clear_denoms(col)
        expr = {index: lcm} if self.track else None
        lead = self._reduce(icol, expr)
        if lead is None:
            self._last_kernel_expr = expr
            return False
        _strip_content(icol, expr)
        if icol[lead] < 0:
            icol = {i: -v for i, v in icol.items()}
            if expr is not None:
                expr = {i: -v for i, v in expr.items()}
        self.pivots[lead] = icol
        if self.track:
            self.exprs[lead] = expr
        self.pivot_cols.append(index)
        self._last_kernel_expr = None
        return True

    def solve(self, col):
        """Coefficients {column index: value} with col = sum c_j column_j,
        or None when col is outside the span (track mode).  Integral
        values come back as ints."""
        if not self.track:
            raise InvariantError("solve needs an Elimination with track=True")
        lcm, icol = _clear_denoms(col)
        expr = {_TARGET: lcm}
        if self._reduce(icol, expr) is not None:
            return None
        own = expr.pop(_TARGET)
        out = {}
        for j, c in expr.items():
            if c:
                q, r = divmod(-c, own)
                out[j] = Fraction(-c, own) if r else q
        return out

    def kernel_expression(self):
        """After add_column returned False (track mode): the dependency just
        found, as a dict original-column-index -> int."""
        if not self.track:
            raise InvariantError("kernel_expression needs an Elimination "
                                 "with track=True")
        expr = self._last_kernel_expr
        if expr is None:
            raise InvariantError("kernel_expression needs the last column "
                                 "added to be dependent")
        return _strip_content(dict(expr))


def matrix_rank(cols):
    """Exact rank over Q of the matrix with the columns cols."""
    elim = Elimination()
    for col in cols:
        elim.add_column(col)
    return elim.rank


def kernel_vectors(cols):
    """Basis of the null space of the matrix with the columns cols (list of
    sparse vector dicts).

    Vector k comes from the k-th column that is dependent on the ones
    before it, f_k: its largest index is f_k, with a positive integer
    coefficient, and its other entries sit on pivot columns, so no other
    vector touches f_k (kernel_coordinates reads coordinates from that).
    """
    elim = Elimination(track=True)
    out = []
    for j, col in enumerate(cols):
        if not elim.add_column(col, j):
            out.append(elim.kernel_expression())
    return out


def kernel_coordinates(kv, vecs):
    """Coordinates {k: value} of each vector of vecs in the basis kv that
    kernel_vectors returned.  Only vector k touches its largest index f_k,
    so x has coordinate x[f_k] / kv[k][f_k] on it; raises InvariantError
    when x minus that combination is not 0 (x outside the span)."""
    free = {max(v): k for k, v in enumerate(kv)}
    out = []
    for x in vecs:
        coords, rest = {}, dict(x)
        for f in x.keys() & free.keys():
            k = free[f]
            coords[k] = _norm(Fraction(x[f], kv[k][f]))
            vec_addmul(rest, -coords[k], kv[k])
        if rest:
            raise InvariantError("vector not in the kernel's span")
        out.append(coords)
    return out


def kernel(cols):
    """Null space of the matrix with the columns cols, as a canonical
    LinSubspace of Q^len(cols)."""
    return LinSubspace(len(cols), kernel_vectors(cols))


class LinSubspace:
    """A subspace of Q^n in canonical reduced row echelon form.

    Basis vectors are the rows of the canonical RREF, so two subspaces are
    equal iff their representations are equal.
    """

    def __init__(self, ambient, vectors=()):
        self.ambient = ambient
        elim = Elimination()
        for vec in vectors:
            elim.add_column(vec)
        # each pivot scaled to 1 at its lead, then back-substituted, last
        # pivot first: a reduced row holds no other lead, so each row is
        # reduced once at each lead among its entries
        by_lead = {lead: vec_scale(Fraction(1, col[lead]), col)
                   for lead, col in sorted(elim.pivots.items())}
        for lead, row in reversed(by_lead.items()):
            for i in sorted((i for i in row if i in by_lead and i != lead),
                            reverse=True):
                vec_addmul(row, -row[i], by_lead[i])
        self.leads = list(by_lead)
        self.rows = list(by_lead.values())

    @property
    def dim(self):
        return len(self.rows)

    def basis(self):
        return [dict(r) for r in self.rows]

    def contains(self, vec):
        return not self.reduce(vec)

    def reduce(self, vec):
        """Remainder of vec modulo the subspace (for quotient computations)."""
        v = dict(vec)
        for lead, row in zip(self.leads, self.rows):
            if lead in v:
                vec_addmul(v, -v[lead], row)
        return v

    def __eq__(self, other):
        return (isinstance(other, LinSubspace) and self.ambient == other.ambient
                and self.rows == other.rows)

    def __repr__(self):
        return "LinSubspace(dim %d of Q^%d)" % (self.dim, self.ambient)


def solve_columns(cols, targets):
    """Solve m x = t for each target column t, m the matrix with the
    columns cols; None where unsolvable."""
    elim = Elimination(track=True)
    for j, col in enumerate(cols):
        elim.add_column(col, j)
    return [elim.solve(t) for t in targets]


def _require_square(cols, what):
    """Refuse the n columns cols when an entry lies outside rows 0..n-1."""
    n = len(cols)
    if any(not 0 <= r < n for col in cols for r in col):
        raise InvariantError("%s of a non-square matrix" % what)


def inverse(cols):
    """The columns of the exact inverse of the square matrix with the
    columns cols, or None if it is singular."""
    _require_square(cols, "inverse")
    sols = solve_columns(cols, identity_cols(len(cols)))
    if any(s is None for s in sols):
        return None
    return sols


def is_nilpotent_by_traces(f):
    """True iff tr(f^n) = 0 for n = 1..d, f the d columns of a square
    matrix.

    Over a field of characteristic zero this is equivalent to nilpotency
    (Newton's identities force all eigenvalues to vanish).
    """
    _require_square(f, "trace-nilpotency test")
    p = f
    for _ in range(len(f)):
        if sum(col.get(i, 0) for i, col in enumerate(p)) != 0:
            return False
        p = compose_cols(p, f)
    return True


def jacobson_radical(a):
    """Radical of a finite-dimensional Q-algebra via Dickson's criterion.

    rad(A) = { x : tr(L_{x y}) = 0 for all basis y }, with L left
    multiplication.  Valid in characteristic zero.  `a` only needs to expose
    .dim and .mult_basis(i, j) -> sparse product vector.
    """
    d = a.dim
    # tr(L_{b_k}) for each basis element
    ltr = []
    for k in range(d):
        t = 0
        for i in range(d):
            t += a.mult_basis(k, i).get(i, 0)
        ltr.append(t)
    # column i (unknown x), row j (the condition of the basis element y)
    gram = [{} for _ in range(d)]
    for i in range(d):
        for j in range(d):
            s = 0
            for k, c in a.mult_basis(i, j).items():
                s += c * ltr[k]
            if s:
                gram[i][j] = s
    return LinSubspace(d, kernel_vectors(gram))


def subspace_product(a, u, v):
    """Span of all products x*y, x in u, y in v (subspaces of the algebra a)."""
    vecs = []
    for x in u.basis():
        for y in v.basis():
            p = a.mult_vec(x, y)
            if p:
                vecs.append(p)
    return LinSubspace(a.dim, vecs)


def nilpotency_degree(a, ideal):
    """Smallest k with ideal^k = 0, or None if the ideal is not nilpotent.

    The powers of a nilpotent ideal strictly decrease until they vanish,
    so in a d-dimensional algebra its index is at most d + 1; the search
    stops there."""
    power = ideal
    for k in range(1, a.dim + 2):
        if power.dim == 0:
            return k
        power = subspace_product(a, power, ideal)
    return None


def lift_idempotent(e_bar, a, nil_ideal):
    """Lift an idempotent of A/nil_ideal to an exact idempotent of A.

    e_bar is any representative vector; the Newton iteration e <- 3e^2 - 2e^3
    converges to an honest idempotent congruent to e_bar mod the ideal,
    because the ideal is nilpotent (verified here).
    """
    if nilpotency_degree(a, nil_ideal) is None:
        raise InvariantError("ideal is not nilpotent; cannot lift idempotents")
    e2 = a.mult_vec(e_bar, e_bar)
    if not nil_ideal.contains(vec_sub(e2, e_bar)):
        raise InvariantError("element is not idempotent modulo the ideal")
    e = dict(e_bar)
    for _ in range(64):
        e2 = a.mult_vec(e, e)
        if e2 == e:
            if not nil_ideal.contains(vec_sub(e, e_bar)):
                raise InvariantError("lift drifted off its residue class")
            return e
        e3 = a.mult_vec(e2, e)
        e = vec_sub(vec_scale(3, e2), vec_scale(2, e3))
    raise InvariantError("idempotent lifting did not terminate")
