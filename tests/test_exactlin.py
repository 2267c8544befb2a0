import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from ncmotives.errors import InvariantError
from ncmotives import zoo
from ncmotives.exactlin import (
    QMatrix, LinSubspace, Elimination, matrix_rank, kernel, kernel_vectors,
    solve_columns, inverse, is_nilpotent_by_traces, jacobson_radical,
    lift_idempotent, nilpotency_degree, subspace_product, vec_sub,
)


def dense(m):
    return [[m.entries.get((r, c), 0) for c in range(m.cols)]
            for r in range(m.rows)]


def test_rank_identity_and_zero():
    assert matrix_rank(QMatrix.identity(2)) == 2
    assert matrix_rank(QMatrix.zero(2, 2)) == 0


def test_rank_proportional_rows():
    m = QMatrix.from_rows([[1, 2], [2, 4]])
    assert matrix_rank(m) == 1


def test_kernel_identity_zero_row():
    assert kernel(QMatrix.identity(3)).dim == 0
    assert kernel(QMatrix.zero(3, 3)).dim == 3
    k = kernel(QMatrix.from_rows([[1, 1]]))
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
        m = QMatrix(rows, cols, entries)
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
            m = QMatrix(rows, cols, entries)
            for v in kernel_vectors(m):
                assert not (m * v)
    # columns with different denominators: c1 - 2 c0 spans the kernel
    assert kernel_vectors(QMatrix.from_rows([[Fraction(1, 2), 1]])) == [{0: -2, 1: 1}]


def test_subspace_canonical_equality():
    u = LinSubspace(3, [{0: 1, 1: 1}, {1: 1, 2: 1}])
    w = LinSubspace(3, [{0: 1, 2: Fraction(-1)}, {1: Fraction(2), 2: Fraction(2)}])
    assert u == w
    assert u.contains({0: 1, 1: 2, 2: 1})
    assert not u.contains({0: 1})


def test_nilpotent_by_traces_examples():
    shift = QMatrix.from_rows([[0, 1], [0, 0]])
    assert is_nilpotent_by_traces(shift)
    assert not is_nilpotent_by_traces(QMatrix.identity(2))
    with pytest.raises(InvariantError):
        is_nilpotent_by_traces(QMatrix.zero(2, 3))


def test_nilpotent_block_shift_4x4():
    # strict block shift with random rational blocks: f^4 = 0 by shape
    rng = random.Random(11)
    entries = {}
    for r in range(3):
        entries[(r, r + 1)] = Fraction(rng.randint(1, 5), rng.randint(1, 3))
    f = QMatrix(4, 4, entries)
    assert f.power(4).is_zero()
    assert is_nilpotent_by_traces(f)


def test_trace_nilpotency_agrees_with_powers():
    # acceptance-grade property at small scale; the acceptance suite runs 200
    rng = random.Random(2024)
    for _ in range(80):
        d = rng.randint(1, 6)
        entries = {(r, c): Fraction(rng.randint(-3, 3), rng.randint(1, 3))
                   for r in range(d) for c in range(d) if rng.random() < 0.4}
        f = QMatrix(d, d, entries)
        assert is_nilpotent_by_traces(f) == f.power(d).is_zero()


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
    rows = rows or draw(st.integers(1, 5))
    cols = cols or draw(st.integers(1, 5))
    vals = draw(st.lists(entries_q, min_size=rows * cols, max_size=rows * cols))
    return QMatrix(rows, cols, {(r, c): vals[r * cols + c]
                                for r in range(rows) for c in range(cols)})


def vectors(n):
    return st.lists(entries_q, min_size=n, max_size=n).map(
        lambda vals: {i: v for i, v in enumerate(vals) if v})


@settings(deadline=None)
@given(st.data())
def test_solve_round_trip(data):
    m = data.draw(matrices())
    t = data.draw(vectors(m.rows))
    sol = solve_columns(m, [t])[0]
    augmented = QMatrix(m.rows, m.cols + 1,
                        m.entries | {(r, m.cols): v for r, v in t.items()})
    assert (sol is None) == (matrix_rank(augmented) > matrix_rank(m))
    if sol is not None:
        assert m * sol == t
        assert all(type(v) is int for v in sol.values()
                   if Fraction(v).denominator == 1)


@settings(deadline=None)
@given(matrices())
def test_rank_plus_nullity(m):
    assert matrix_rank(m) + len(kernel_vectors(m)) == m.cols


@settings(deadline=None)
@given(st.data())
def test_solve_leaves_the_span_unchanged(data):
    m = data.draw(matrices())
    # a zero last row puts every target with a nonzero last entry outside
    padded = QMatrix(m.rows + 1, m.cols, m.entries)
    elim = Elimination(padded.rows, track=True)
    for j, col in enumerate(padded.columns()):
        elim.add_column(col, j)
    rank, pivots = elim.rank, {k: dict(v) for k, v in elim.pivots.items()}
    good = padded * data.draw(vectors(m.cols))
    first = elim.solve(good)
    assert padded * first == good
    for bad in data.draw(st.lists(vectors(m.rows), min_size=1, max_size=3)):
        assert elim.solve(bad | {m.rows: 1}) is None
        assert elim.rank == rank and elim.pivots == pivots
        assert elim.solve(good) == first


@settings(deadline=None)
@given(st.integers(1, 4).flatmap(lambda n: matrices(n, n)))
def test_inverse_none_exactly_when_singular(m):
    inv = inverse(m)
    assert (inv is None) == (matrix_rank(m) < m.rows)
    if inv is not None:
        assert m * inv == QMatrix.identity(m.rows)
