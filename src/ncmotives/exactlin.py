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
  * Elimination, kernel_vectors, chain complexes and bimodule actions take
    a map as its list of sparse columns (column j the image of basis vector
    j); QMatrix, keyed by (row, col), serves the other matrix helpers,
  * subspaces are kept in a canonical reduced row echelon form, so equality
    of subspaces is equality of representations; a kernel basis from
    kernel_vectors needs no such copy to be read in (kernel_coordinates),
  * Elimination.modulo(base) starts a tracked elimination from another
    one's pivots with empty expressions, so that solving modulo a span that
    is already eliminated (the boundaries, for homology bases) feeds only
    the new columns.
"""

from bisect import insort
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


def _require_square(m, what):
    if m.rows != m.cols:
        raise InvariantError("%s of a non-square %s" % (what, m))


class QMatrix:
    """Sparse matrix over Q.  Immutable by convention once built."""

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, rows, cols, entries=None):
        self.rows = rows
        self.cols = cols
        self.entries = {}
        if entries:
            for (r, c), v in entries.items():
                if v:
                    if not (0 <= r < rows and 0 <= c < cols):
                        raise InvariantError(
                            "matrix entry (%d,%d) out of bounds %dx%d" % (r, c, rows, cols))
                    self.entries[(r, c)] = _norm(v)

    @classmethod
    def identity(cls, n):
        return cls(n, n, {(i, i): 1 for i in range(n)})

    @classmethod
    def zero(cls, rows, cols):
        return cls(rows, cols)

    @classmethod
    def from_rows(cls, rowlist):
        """Build from a list of dense or sparse rows."""
        rows = len(rowlist)
        entries = {}
        width = 0
        for r, row in enumerate(rowlist):
            if isinstance(row, dict):
                for c, v in row.items():
                    if v:
                        entries[(r, c)] = v
                        width = max(width, c + 1)
            else:
                width = max(width, len(row))
                for c, v in enumerate(row):
                    if v:
                        entries[(r, c)] = Fraction(v)
        return cls(rows, width, entries)

    def __eq__(self, other):
        return (isinstance(other, QMatrix) and self.rows == other.rows
                and self.cols == other.cols and self.entries == other.entries)

    def __hash__(self):
        return hash((self.rows, self.cols, tuple(sorted(self.entries.items()))))

    def __repr__(self):
        return "QMatrix(%dx%d, %d nonzero)" % (self.rows, self.cols, len(self.entries))

    def is_zero(self):
        return not self.entries

    def __add__(self, other):
        if self.rows != other.rows or self.cols != other.cols:
            raise InvariantError("shape mismatch %s + %s" % (self, other))
        e = dict(self.entries)
        for k, v in other.entries.items():
            w = e.get(k, 0) + v
            if w:
                e[k] = w
            else:
                del e[k]
        return QMatrix(self.rows, self.cols, e)

    def __sub__(self, other):
        return self + other.scale(-1)

    def scale(self, c):
        if not c:
            return QMatrix.zero(self.rows, self.cols)
        return QMatrix(self.rows, self.cols,
                       {k: c * v for k, v in self.entries.items()})

    def __mul__(self, other):
        """Matrix product, or action on a sparse vector dict."""
        if isinstance(other, dict):
            out = {}
            cols = self.columns()
            for j, v in other.items():
                vec_addmul(out, v, cols[j])
            return out
        if self.cols != other.rows:
            raise InvariantError("shape mismatch %s * %s" % (self, other))
        left_rows = {}
        for (r, c), v in self.entries.items():
            left_rows.setdefault(c, {})[r] = v
        entries = {}
        for (r, c), v in other.entries.items():
            row = left_rows.get(r)
            if row:
                for rr, w in row.items():
                    k = (rr, c)
                    s = entries.get(k, 0) + w * v
                    if s:
                        entries[k] = s
                    else:
                        del entries[k]
        return QMatrix(self.rows, other.cols, entries)

    def transpose(self):
        return QMatrix(self.cols, self.rows,
                       {(c, r): v for (r, c), v in self.entries.items()})

    def trace(self):
        _require_square(self, "trace")
        return _norm(sum((v for (r, c), v in self.entries.items() if r == c),
                         Fraction(0)))

    def column(self, j):
        return {r: v for (r, c), v in self.entries.items() if c == j}

    def columns(self):
        out = [dict() for _ in range(self.cols)]
        for (r, c), v in self.entries.items():
            out[c][r] = v
        return out

    def power(self, n):
        _require_square(self, "power")
        result = QMatrix.identity(self.rows)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result


def kron(f, g):
    """The Kronecker product f (x) g on the basis i * g.rows + j (f's
    index first)."""
    return QMatrix(f.rows * g.rows, f.cols * g.cols,
                   {(r1 * g.rows + r2, c1 * g.cols + c2): v1 * v2
                    for (r1, c1), v1 in f.entries.items()
                    for (r2, c2), v2 in g.entries.items()})


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
        return {j: _norm(Fraction(-c, own)) for j, c in expr.items() if c}

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


def matrix_rank(m):
    """Exact rank over Q."""
    elim = Elimination()
    for col in m.columns():
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


def kernel(m):
    """Null space of m as a canonical LinSubspace of Q^cols."""
    return LinSubspace(m.cols, kernel_vectors(m.columns()))


class LinSubspace:
    """A subspace of Q^n in canonical reduced row echelon form.

    Basis vectors are the rows of the canonical RREF, so two subspaces are
    equal iff their representations are equal.
    """

    def __init__(self, ambient, vectors=()):
        self.ambient = ambient
        # rows in the order found, each 0 at the leads of the rows before
        # it, so reducing by a row brings in only leads of later rows
        found, position = [], {}
        for vec in vectors:
            v = {i: Fraction(x) for i, x in vec.items() if x}
            todo = sorted(position[i] for i in v if i in position)
            while todo:
                lead, row = found[todo.pop(0)]
                if lead in v:
                    for i in row:
                        if i not in v and i in position:
                            insort(todo, position[i])
                    vec_addmul(v, -v[lead], row)
            if v:
                lead = min(v)
                position[lead] = len(found)
                found.append((lead, vec_scale(Fraction(1) / v[lead], v)))
        # back-substitute, last pivot first: a reduced row holds no other
        # lead, so each row is reduced once at each lead among its entries
        by_lead = dict(sorted(found, key=lambda lr: lr[0]))
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


def solve_columns(m, targets):
    """Solve m x = t for each target column; None where unsolvable."""
    elim = Elimination(track=True)
    for j, col in enumerate(m.columns()):
        elim.add_column(col, j)
    return [elim.solve(t) for t in targets]


def inverse(m):
    """Exact inverse of a square matrix, or None if singular."""
    _require_square(m, "inverse")
    sols = solve_columns(m, [{i: 1} for i in range(m.rows)])
    if any(s is None for s in sols):
        return None
    entries = {}
    for c, sol in enumerate(sols):
        for r, v in sol.items():
            entries[(r, c)] = v
    return QMatrix(m.rows, m.cols, entries)


def is_nilpotent_by_traces(f):
    """True iff tr(f^n) = 0 for n = 1..d, d the size of the square matrix f.

    Over a field of characteristic zero this is equivalent to nilpotency
    (Newton's identities force all eigenvalues to vanish).
    """
    if f.rows != f.cols:
        raise InvariantError("trace-nilpotency test needs a square matrix")
    p = f
    for _ in range(f.rows):
        if p.trace() != 0:
            return False
        p = p * f
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
