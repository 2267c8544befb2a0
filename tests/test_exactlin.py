import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from ncmotives.errors import InvariantError, CapExceededError
from ncmotives import zoo
from ncmotives.algebras import Algebra, regular_bimodule
from ncmotives.categories import PresentedCategory
from ncmotives.exactlin import (
    LinSubspace, Elimination, matrix_rank, kernel, kernel_vectors,
    kernel_coordinates, solve_columns, inverse, is_nilpotent_by_traces,
    jacobson_radical, lift_idempotent, nilpotency_degree, subspace_product,
    vec_sub, vec_addmul, bilinear, apply_cols, combine_cols, compose_cols,
    identity_cols,
)


# ---------------------------------------------------------------------------
# a minimal dense reference for the column helpers: a matrix is a list of
# rows of rationals


def _columns(x, cols):
    """The sparse columns of the dense matrix x with cols columns."""
    return [{r: row[c] for r, row in enumerate(x) if row[c]}
            for c in range(cols)]


def _dense(cols, rows):
    """The dense matrix with rows rows and the sparse columns cols."""
    return [[col.get(r, 0) for col in cols] for r in range(rows)]


def _oracle_product(x, y):
    """x y, for y with at least one row or x with none."""
    return [[sum((a * b for a, b in zip(row, col)), Fraction(0))
             for col in zip(*y)] for row in x]


def _oracle_identity(n):
    return [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]


def _oracle_power(x, k):
    p = _oracle_identity(len(x))
    for _ in range(k):
        p = _oracle_product(p, x)
    return p


def _oracle_trace(x):
    return sum((x[i][i] for i in range(len(x))), Fraction(0))


def _oracle_kron(x, y):
    """The Kronecker product on the basis i * len(y) + j (x's index
    first)."""
    return [[a * b for a in xrow for b in yrow] for xrow in x for yrow in y]


def _sparse_kron(x, y):
    """The sparse columns of _oracle_kron(x, y): each product of a nonzero
    x[r][c] and a nonzero y[s][d] placed at its Kronecker position, row
    r * len(y) + s of column c * len(y[0]) + d."""
    rows, cols = len(y), len(y[0]) if y else 0
    out = [{} for _ in range((len(x[0]) if x else 0) * cols)]
    y_entries = [(s, d, b) for s, row in enumerate(y)
                 for d, b in enumerate(row) if b]
    for r, row in enumerate(x):
        for c, a in enumerate(row):
            if a:
                for s, d, b in y_entries:
                    out[c * cols + d][r * rows + s] = a * b
    return out


def _oracle_row_reduce(x):
    """(reduced row echelon form of x, its pivot columns), by Gauss-Jordan
    elimination over Fractions."""
    rows = [[Fraction(v) for v in row] for row in x]
    pivots = []
    for c in range(len(rows[0]) if rows else 0):
        r = len(pivots)
        p = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if p is None:
            continue
        rows[r], rows[p] = rows[p], rows[r]
        rows[r] = [v / rows[r][c] for v in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c]:
                rows[i] = [a - rows[i][c] * b
                           for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
    return rows, pivots


def _oracle_rank(x):
    return len(_oracle_row_reduce(x)[1])


def test_rank_identity_and_zero():
    assert matrix_rank(identity_cols(2)) == 2
    assert matrix_rank([{}, {}]) == 0


def test_rank_proportional_rows():
    assert matrix_rank(_columns([[1, 2], [2, 4]], 2)) == 1


def test_kernel_identity_zero_row():
    assert kernel(identity_cols(3)).dim == 0
    assert kernel([{}, {}, {}]).dim == 3
    k = kernel(_columns([[1, 1]], 2))
    assert k.dim == 1
    v = k.basis()[0]
    # span{(1, -1)} up to scale
    assert v[0] * -1 == v[1]


def test_rank_nullity_random():
    rng = random.Random(7)
    for _ in range(60):
        rows = rng.randint(1, 7)
        cols = rng.randint(1, 7)
        entries = {}
        for r in range(rows):
            for c in range(cols):
                if rng.random() < 0.5:
                    entries[(r, c)] = Fraction(rng.randint(-6, 6), rng.randint(1, 4))
        m = [{r: v for (r, c), v in entries.items() if c == j}
             for j in range(cols)]
        assert matrix_rank(m) + kernel(m).dim == cols


def test_kernel_vectors_are_kernel():
    rng = random.Random(3)
    for entry in (lambda: rng.randint(-4, 4),
                  lambda: Fraction(rng.randint(-4, 4), rng.randint(1, 4))):
        for _ in range(30):
            rows, cols = rng.randint(1, 6), rng.randint(1, 6)
            entries = {(r, c): entry()
                       for r in range(rows) for c in range(cols)
                       if rng.random() < 0.6}
            m = [{r: v for (r, c), v in entries.items() if c == j and v}
                 for j in range(cols)]
            for v in kernel_vectors(m):
                assert not apply_cols(m, v)
    # columns with different denominators: c1 - 2 c0 spans the kernel
    assert kernel_vectors([{0: Fraction(1, 2)}, {0: 1}]) == [{0: -2, 1: 1}]


def test_subspace_canonical_equality():
    u = LinSubspace(3, [{0: 1, 1: 1}, {1: 1, 2: 1}])
    w = LinSubspace(3, [{0: 1, 2: Fraction(-1)}, {1: Fraction(2), 2: Fraction(2)}])
    assert u == w
    assert u.contains({0: 1, 1: 2, 2: 1})
    assert not u.contains({0: 1})


def test_nilpotent_by_traces_examples():
    shift = [{}, {0: 1}]
    assert is_nilpotent_by_traces(shift)
    assert not is_nilpotent_by_traces(identity_cols(2))
    # two columns with an entry in row 2: a 3 x 2 matrix
    with pytest.raises(InvariantError):
        is_nilpotent_by_traces([{2: 1}, {}])


def test_nilpotent_block_shift_4x4():
    # strict block shift with random rational blocks: f^4 = 0 by shape
    rng = random.Random(11)
    entries = {}
    for r in range(3):
        entries[(r, r + 1)] = Fraction(rng.randint(1, 5), rng.randint(1, 3))
    f = [[entries.get((r, c), 0) for c in range(4)] for r in range(4)]
    assert not any(any(row) for row in _oracle_power(f, 4))
    assert is_nilpotent_by_traces(_columns(f, 4))


def test_trace_nilpotency_agrees_with_powers():
    # acceptance-grade property at small scale; the acceptance suite runs 200
    rng = random.Random(2024)
    for _ in range(80):
        d = rng.randint(1, 6)
        f = [[Fraction(rng.randint(-3, 3), rng.randint(1, 3))
              if rng.random() < 0.4 else 0 for c in range(d)]
             for r in range(d)]
        assert is_nilpotent_by_traces(_columns(f, d)) == \
            (not any(any(row) for row in _oracle_power(f, d)))


def test_jacobson_radical_semisimple_and_dual():
    assert jacobson_radical(zoo.get("QxQ")).dim == 0
    dual = zoo.get("dual")
    j = jacobson_radical(dual)
    assert j.dim == 1
    # the radical is spanned by the nilpotent generator
    assert j.contains({1: 1})


def test_jacobson_radical_upper_triangular():
    a2 = zoo.get("A2")   # isomorphic to upper-triangular 2x2
    j = jacobson_radical(a2)
    assert j.dim == 1
    # rad^2 = 0, and the quotient is semisimple of dimension 2
    assert nilpotency_degree(a2, j) == 2
    sq = subspace_product(a2, j, j)
    assert sq.dim == 0


def test_radical_of_quotient_vanishes():
    """A/rad(A) is semisimple: rebuild the quotient algebra and check."""
    from ncmotives.algebras import structure_algebra
    for name in ("A2", "dual", "cubic", "square"):
        a = zoo.get(name)
        j = jacobson_radical(a)
        leading = {min(r) for r in j.rows}
        kept = [i for i in range(a.dim) if i not in leading]
        pos = {k: t for t, k in enumerate(kept)}
        labels = ["q%d" % k for k in kept]

        def reduce(vec):
            return j.reduce(vec)

        products = []
        for i in kept:
            for k in kept:
                prod = reduce(a.mult_basis(i, k))
                products.append((labels[pos[i]], labels[pos[k]],
                                 {labels[pos[t]]: v for t, v in prod.items()}))
        unit = {labels[pos[t]]: v for t, v in reduce(a.unit).items()}
        quotient = structure_algebra("%s/rad" % a.name, labels, unit,
                                     products)
        assert jacobson_radical(quotient).dim == 0


def test_radical_is_nilpotent_ideal_on_zoo():
    for name in ("dual", "cubic", "A2", "A3", "square"):
        a = zoo.get(name)
        j = jacobson_radical(a)
        assert nilpotency_degree(a, j) is not None
        # two-sided ideal: products with basis elements stay inside
        for r in j.basis():
            for i in range(a.dim):
                assert j.contains(a.mult_vec({i: 1}, r))
                assert j.contains(a.mult_vec(r, {i: 1}))


def test_lift_idempotent_dual_numbers():
    dual = zoo.get("dual")
    j = jacobson_radical(dual)
    assert lift_idempotent(dual.unit, dual, j) == dual.unit
    assert lift_idempotent({}, dual, j) == {}
    # a unit perturbed into the ideal still lifts to the unit
    e = lift_idempotent({0: 1, 1: Fraction(3, 7)}, dual, j)
    assert dual.mult_vec(e, e) == e


def test_lift_idempotent_upper_triangular():
    a2 = zoo.get("A2")
    j = jacobson_radical(a2)
    e1 = {0: 1}   # already idempotent
    assert lift_idempotent(e1, a2, j) == e1
    # e1 + nilpotent lifts to an exact idempotent congruent to e1
    e = lift_idempotent({0: 1, 2: 1}, a2, j)
    assert a2.mult_vec(e, e) == e
    assert j.contains(vec_sub(e, e1))


def test_lift_idempotent_rejects_bad_input():
    dual = zoo.get("dual")
    j = jacobson_radical(dual)
    with pytest.raises(InvariantError):
        lift_idempotent({0: Fraction(1, 2)}, dual, j)


# -- solving against a span: properties over small random rational matrices

entries_q = st.one_of(st.just(Fraction(0)), st.integers(-3, 3).map(Fraction),
                      st.fractions(-3, 3, max_denominator=4))


@st.composite
def matrices(draw, rows=None, cols=None):
    """(rows, the sparse columns of a random rows x cols matrix)."""
    rows = rows or draw(st.integers(1, 5))
    cols = cols or draw(st.integers(1, 5))
    vals = draw(st.lists(entries_q, min_size=rows * cols, max_size=rows * cols))
    return rows, [{r: vals[r * cols + c] for r in range(rows)
                   if vals[r * cols + c]} for c in range(cols)]


def vectors(n):
    return st.lists(entries_q, min_size=n, max_size=n).map(
        lambda vals: {i: v for i, v in enumerate(vals) if v})


@settings(deadline=None)
@given(st.data())
def test_solve_round_trip(data):
    rows, m = data.draw(matrices())
    t = data.draw(vectors(rows))
    sol = solve_columns(m, [t])[0]
    assert (sol is None) == (matrix_rank(m + [t]) > matrix_rank(m))
    if sol is not None:
        assert apply_cols(m, sol) == t
        assert all(type(v) is (int if Fraction(v).denominator == 1
                               else Fraction) and v for v in sol.values())


@settings(deadline=None)
@given(matrices())
def test_rank_plus_nullity(m):
    _, cols = m
    assert matrix_rank(cols) + len(kernel_vectors(cols)) == len(cols)


@settings(deadline=None, max_examples=200)
@given(st.data())
def test_subspace_is_the_dense_reduced_row_echelon_form(data):
    """LinSubspace's rows and leads are the nonzero rows and pivot columns
    of the dense Gauss-Jordan form of its vectors, zero and repeated
    vectors included; reduce leaves 0 at every lead and changes its input
    by an element of the span."""
    n = data.draw(st.integers(1, 6))
    drawn = data.draw(st.lists(vectors(n), max_size=5))
    pool = drawn + [{}]
    given_vecs = drawn + data.draw(st.lists(st.sampled_from(pool),
                                            max_size=3))
    sub = LinSubspace(n, given_vecs)
    dense = [[v.get(i, Fraction(0)) for i in range(n)] for v in given_vecs]
    rows, pivots = _oracle_row_reduce(dense)
    assert sub.leads == pivots
    assert sub.rows == [{i: v for i, v in enumerate(row) if v}
                        for row in rows[:len(pivots)]]
    assert sub.dim == _oracle_rank(dense)
    x = data.draw(vectors(n))
    rest = sub.reduce(x)
    assert not rest.keys() & set(sub.leads)
    moved = vec_sub(x, rest)
    assert _oracle_rank(dense + [[moved.get(i, 0) for i in range(n)]]) == \
        sub.dim
    assert sub.contains(moved)
    assert sub.contains(x) == (not rest)


@st.composite
def integer_matrices(draw):
    rows, cols = draw(st.integers(1, 5)), draw(st.integers(1, 7))
    vals = draw(st.lists(st.integers(-3, 3), min_size=rows * cols,
                         max_size=rows * cols))
    return [{r: vals[r * cols + c] for r in range(rows) if vals[r * cols + c]}
            for c in range(cols)]


@settings(deadline=None, max_examples=200)
@given(st.data())
def test_kernel_coordinates_read_the_free_indices(data):
    """Each kernel vector's largest index carries a positive coefficient
    and is touched by no other vector; kernel_coordinates returns the
    coefficients of a combination and refuses a vector outside the kernel."""
    m = data.draw(integer_matrices())
    kv = kernel_vectors(m)
    for k, v in enumerate(kv):
        assert v[max(v)] > 0
        assert all(max(v) not in w for w in kv[:k] + kv[k + 1:])
    coeffs = data.draw(st.lists(entries_q, min_size=len(kv),
                                max_size=len(kv)))
    combo = {}
    for c, v in zip(coeffs, kv):
        vec_addmul(combo, c, v)
    assert kernel_coordinates(kv, [combo]) == [
        {k: c for k, c in enumerate(coeffs) if c}]
    w = data.draw(vectors(len(m)))
    x = vec_sub(combo, w)
    if apply_cols(m, w):
        with pytest.raises(InvariantError, match="not in the kernel"):
            kernel_coordinates(kv, [x])
    else:
        back = {}
        for k, c in kernel_coordinates(kv, [x])[0].items():
            vec_addmul(back, c, kv[k])
        assert back == x


@settings(deadline=None)
@given(st.data())
def test_solve_leaves_the_span_unchanged(data):
    rows, m = data.draw(matrices())
    # row `rows` is zero, so every target with an entry there is outside
    elim = Elimination(track=True)
    for j, col in enumerate(m):
        elim.add_column(col, j)
    rank, pivots = elim.rank, {k: dict(v) for k, v in elim.pivots.items()}
    good = apply_cols(m, data.draw(vectors(len(m))))
    first = elim.solve(good)
    assert apply_cols(m, first) == good
    for bad in data.draw(st.lists(vectors(rows), min_size=1, max_size=3)):
        assert elim.solve(bad | {rows: 1}) is None
        assert elim.rank == rank and elim.pivots == pivots
        assert elim.solve(good) == first


@settings(deadline=None)
@given(st.integers(1, 4).flatmap(lambda n: matrices(n, n)))
def test_inverse_none_exactly_when_singular(m):
    n, cols = m
    inv = inverse(cols)
    assert (inv is None) == (matrix_rank(cols) < n)
    if inv is not None:
        assert compose_cols(cols, inv) == identity_cols(n)


@st.composite
def dense_matrices(draw, rows, cols):
    """A random rows x cols rational matrix as a list of rows, some of
    whose columns may be zero."""
    zero = draw(st.lists(st.booleans(), min_size=cols, max_size=cols))
    return [[Fraction(0) if zero[c] else draw(entries_q) for c in range(cols)]
            for _ in range(rows)]


@st.composite
def square_matrices(draw):
    """A random n x n rational matrix, n <= 6 (0 x 0 included), as a list
    of rows; a third of the draws are nilpotent: strictly upper
    triangular, then conjugated by a random permutation."""
    n = draw(st.integers(0, 6))
    x = draw(dense_matrices(n, n))
    if draw(st.integers(0, 2)) == 0:
        perm = draw(st.permutations(range(n)))
        x = [[x[perm[i]][perm[j]] if perm[i] < perm[j] else Fraction(0)
              for j in range(n)] for i in range(n)]
    return x


@settings(deadline=None, max_examples=200)
@given(st.data())
def test_column_helpers_match_the_dense_oracle(data):
    """compose_cols, matrix_rank, inverse and is_nilpotent_by_traces agree
    with the dense product, rank, power and trace on random rational
    matrices of size <= 6, 0 x 0, zero columns and singular ones
    included."""
    r, m, c = (data.draw(st.integers(0, 6)), data.draw(st.integers(1, 6)),
               data.draw(st.integers(0, 6)))
    x, y = data.draw(dense_matrices(r, m)), data.draw(dense_matrices(m, c))
    assert compose_cols(_columns(x, m), _columns(y, c)) == \
        _columns(_oracle_product(x, y), c)
    assert matrix_rank(_columns(x, m)) == _oracle_rank(x)
    f = data.draw(square_matrices())
    n = len(f)
    cols = _columns(f, n)
    assert compose_cols(cols, cols) == _columns(_oracle_product(f, f), n)
    inv = inverse(cols)
    assert (inv is None) == (_oracle_rank(f) < n)
    if inv is not None:
        assert _oracle_product(f, _dense(inv, n)) == _oracle_identity(n)
    nilpotent = not any(any(row) for row in _oracle_power(f, n))
    assert nilpotent == all(_oracle_trace(_oracle_power(f, k)) == 0
                            for k in range(1, n + 1))
    assert is_nilpotent_by_traces(cols) == nilpotent


@settings(deadline=None, max_examples=100)
@given(st.data())
def test_sparse_kron_matches_the_dense_oracle(data):
    """_sparse_kron is the columns of _oracle_kron on random rational
    matrices of up to 4 x 4, not square, with zero columns."""
    shape = [data.draw(st.integers(1, 4)) for _ in range(4)]
    x = data.draw(dense_matrices(shape[0], shape[1]))
    y = data.draw(dense_matrices(shape[2], shape[3]))
    assert _sparse_kron(x, y) == _columns(_oracle_kron(x, y),
                                          shape[1] * shape[3])


SHAPE_ERRORS = [
    ("combine 3x3 + 2x2", "combine_cols([identity_cols(3), "
                          "identity_cols(2)], {0: 1, 1: 1}, 3)"),
    ("nilpotency test 3x2", "is_nilpotent_by_traces([{0: 1}, {2: 1}])"),
    ("inverse 3x2", "inverse([{0: 1}, {2: 1}])"),
    ("solve untracked", "Elimination().solve({0: 1})"),
    ("kernel_expression untracked", "Elimination().kernel_expression()"),
    ("kernel_expression before any column",
     "Elimination(track=True).kernel_expression()"),
    ("kernel_expression independent",
     "(lambda e: (e.add_column({0: 1}, 0), e.kernel_expression()))"
     "(Elimination(track=True))"),
]


@pytest.mark.parametrize("expr", [e for _, e in SHAPE_ERRORS],
                         ids=[i for i, _ in SHAPE_ERRORS])
def test_shape_and_mode_errors_are_invariant_errors(expr):
    with pytest.raises(InvariantError):
        eval(expr)


def test_shape_and_mode_errors_survive_python_O():
    """Under python -O (which drops asserts) each mismatch still raises
    InvariantError instead of returning a matrix of the wrong shape."""
    src = Path(__file__).resolve().parent.parent / "src"
    script = "\n".join(
        ["from ncmotives.errors import InvariantError",
         "from ncmotives.exactlin import (Elimination, combine_cols, "
         "identity_cols, inverse, is_nilpotent_by_traces)"] +
        ["try:\n    print(repr(%s))\nexcept InvariantError:\n"
         "    print('InvariantError')" % e for _, e in SHAPE_ERRORS])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(src)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    run = subprocess.run([sys.executable, "-O", "-c", script],
                         capture_output=True, text=True, env=env)
    assert run.returncode == 0, run.stderr
    assert run.stdout.splitlines() == ["InvariantError"] * len(SHAPE_ERRORS)


# ---------------------------------------------------------------------------
# bilinear against the multiplication loops it replaced, kept verbatim


def _old_mult_vec(self, x, y):
    out = {}
    for i, a in x.items():
        for j, b in y.items():
            prod = self.table.get((i, j))
            if prod:
                vec_addmul(out, a * b, prod)
    return out


def _old_left_mult_matrix(self, x):
    """(row, col)-keyed entries of the matrix of y -> x*y (x a sparse
    vector)."""
    entries = {}
    for j in range(self.dim):
        col = {}
        for i, a in x.items():
            prod = self.table.get((i, j))
            if prod:
                vec_addmul(col, a, prod)
        for r, v in col.items():
            entries[(r, j)] = v
    return entries


def _old_right_mult_matrix(self, x):
    """(row, col)-keyed entries of the matrix of y -> y*x."""
    entries = {}
    for j in range(self.dim):
        col = {}
        for i, a in x.items():
            prod = self.table.get((j, i))
            if prod:
                vec_addmul(col, a, prod)
        for r, v in col.items():
            entries[(r, j)] = v
    return entries


def _old_compose(self, x, y, z, g, f):
    """g o f with f: x -> y, g: y -> z (sparse vectors)."""
    table = self.comp.get((x, y, z), {})
    out = {}
    for gi, gc in g.items():
        for fi, fc in f.items():
            vec = table.get((gi, fi))
            if vec:
                vec_addmul(out, gc * fc, vec)
    return out


def _old_tensor_morphisms(self, x1, y1, x2, y2, f, g):
    table = self.tensor_mor.get((x1, y1, x2, y2))
    if table is None:
        raise CapExceededError("tensor of Hom(%s,%s) and Hom(%s,%s) is "
                               "outside the presented fragment"
                               % (x1, y1, x2, y2))
    out = {}
    for fi, fc in f.items():
        for gi, gc in g.items():
            vec = table.get((fi, gi))
            if vec:
                vec_addmul(out, fc * gc, vec)
    return out


@st.composite
def sparse_tables(draw):
    """(dim, table, x, y): a table of sparse vectors on dim basis elements
    whose entries may be absent, empty or hold zero coefficients, and two
    sparse vectors that may hold zero coefficients too."""
    dim = draw(st.integers(1, 4))
    index = st.integers(0, dim - 1)
    coeff = st.sampled_from([0, 1, -1, 2, Fraction(1, 2), Fraction(-2, 3)])
    vec = st.dictionaries(index, coeff, max_size=3)
    table = draw(st.dictionaries(st.tuples(index, index), vec,
                                 max_size=dim * dim))
    return dim, table, draw(vec), draw(vec)


def _items(vec):
    return list(vec.items())


def _entries(cols):
    """The (row, col)-keyed entries of a map given by its columns, column
    by column."""
    return {(r, c): v for c, col in enumerate(cols) for r, v in col.items()}


@settings(deadline=None, max_examples=200)
@given(sparse_tables())
def test_bilinear_is_every_old_multiplication_loop(drawn):
    """Algebra products, the actions of an element on the regular bimodule
    (the old multiplication matrices), composition and the tensor of
    morphisms give the old loops' vectors, in the same order."""
    dim, table, x, y = drawn
    raw = SimpleNamespace(table=table, dim=dim)
    want = _items(_old_mult_vec(raw, x, y))
    assert _items(bilinear(table, x, y)) == want
    a = Algebra("t", ["b%d" % i for i in range(dim)], {0: 1}, table,
                check=False)
    assert _items(a.mult_vec(x, y)) == want
    reg = regular_bimodule(a)
    assert _items(_entries(combine_cols(reg.left, x, dim))) == \
        _items(_old_left_mult_matrix(raw, x))
    assert _items(_entries(combine_cols(reg.right, x, dim))) == \
        _items(_old_right_mult_matrix(raw, x))
    c = PresentedCategory(["X"], {("X", "X"): dim}, {("X", "X", "X"): table},
                          {"X": {0: 1}}, "X", tensor_obj={("X", "X"): "X"},
                          tensor_mor={("X", "X", "X", "X"): table},
                          check=False)
    assert _items(c.compose("X", "X", "X", x, y)) == \
        _items(_old_compose(c, "X", "X", "X", x, y))
    assert _items(c.tensor_morphisms("X", "X", "X", "X", x, y)) == \
        _items(_old_tensor_morphisms(c, "X", "X", "X", "X", x, y))
    with pytest.raises(CapExceededError, match="outside the presented"):
        c.tensor_morphisms("X", "Y", "X", "X", x, y)
