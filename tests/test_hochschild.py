import contextlib
import gc
import io
import itertools
import json
import weakref
from unittest import mock
from fractions import Fraction
from math import lcm
from pathlib import Path

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from ncmotives import algebras, cli, hochschild, zoo
from ncmotives.algebras import (Quiver, path_algebra, structure_algebra,
                                Bimodule, corner_bimodule, derived_tensor,
                                global_dimension, regular_bimodule, _Reduced,
                                _vertex_ends, _basis_ground, tensor_algebra,
                                _chain_basis, _relative_ends,
                                hochschild_columns, presentation)
from ncmotives.cli import _nonnormalized_hh
from ncmotives.errors import InvariantError, CapExceededError, UncertifiedError
from ncmotives.exactlin import (Elimination, LinSubspace, apply_cols,
                                compose_cols, identity_cols, matrix_rank,
                                inverse, vec_addmul, vec_scale)
from ncmotives.homcore import ChainComplex
from ncmotives.inputs import load_algebra
from ncmotives.hochschild import (
    hochschild_complex, hochschild_homology, cyclic_homology,
    sbi_check, periodic_cyclic, hp_of_homomorphism, chern_character,
    chern_class_in_hc, hp_nil_invariant, check_homomorphism, cyclic_data,
    TruncatedMixedComplex, CyclicData, connes_columns, DEFAULT_CAP,
)

DEMO_ALGEBRAS = Path(__file__).resolve().parent.parent / "demos" / "algebras"


def _over_q1():
    """Every complex built inside is taken relative to E = Q.1: no algebra
    has a ground from its unit's terms.  The tests' oracle for the
    relative complexes."""
    return mock.patch.object(algebras, "_basis_ground", lambda b: None)


def test_hochschild_complex_dims_base_cases():
    q = zoo.get("Q")
    cx = hochschild_complex(q, n_max=4)
    assert cx.dims == [1, 0, 0, 0, 0]
    dual = zoo.get("dual")
    cx = hochschild_complex(dual, n_max=4)
    assert cx.dims == [2, 2, 2, 2, 2]
    a2 = zoo.get("A2")
    # over Q.1, A2 has every chain ...
    with _over_q1():
        cx = hochschild_complex(a2, n_max=4)
    assert cx.dims == [3, 6, 12, 24, 48]
    # ... relative to its vertex idempotents, also in a rescaled basis
    # without the quiver, no composable chain of degree >= 1 closes up on
    # an acyclic quiver
    for alg in (a2, _rescaled(a2, SCALES[:3])):
        cx = hochschild_complex(alg, n_max=4)
        assert cx.dims == [2, 0, 0, 0, 0]
    # M2(Q): 4 * 3^n chains over Q.1, 2 relative to e11 and e22
    m2 = zoo.get("M2(Q)")
    with _over_q1():
        assert hochschild_complex(m2, n_max=4).dims == [4, 12, 36, 108, 324]
    assert hochschild_complex(m2, n_max=4).dims == [2] * 5


def test_memory_guard_refuses():
    a3 = zoo.get("A3")
    with _over_q1(), pytest.raises(CapExceededError):   # 585936 > 200000
        hochschild_complex(a3, n_max=8, cap=200000)
    for alg in (a3, _rescaled(a3, [1] * a3.dim)):
        assert (hochschild_homology(alg, n_max=8, cap=200000).dims
                == [3] + [0] * 7)


def test_hochschild_complex_rejects_mismatched_bimodule():
    a2, a3 = zoo.get("A2"), zoo.get("A3")
    for other in (zoo.get("QxQ"), a3):
        with pytest.raises(InvariantError, match="not an \\(A, A\\)"):
            hochschild_complex(a2, regular_bimodule(other), n_max=3)


def test_hh_of_ground_field():
    hh = hochschild_homology(zoo.get("Q"), n_max=5)
    assert hh.dims == [1, 0, 0, 0, 0]


def test_hh_dual_numbers_against_nonnormalized_oracle():
    dual = zoo.get("dual")
    hh = hochschild_homology(dual, n_max=7)
    assert hh.dims == [2, 1, 1, 1, 1, 1, 1]
    assert _nonnormalized_hh(dual, 4, DEFAULT_CAP) == hh.dims[:4]


def test_hh_a2_against_nonnormalized_oracle():
    a2 = zoo.get("A2")
    hh = hochschild_homology(a2, n_max=5)
    assert hh.dims == [2, 0, 0, 0, 0]
    assert _nonnormalized_hh(a2, 3, DEFAULT_CAP) == hh.dims[:3]


def test_hh_morita_invariance():
    """HH/HC/HP tables of M2(Q) equal those of Q: Morita sanity."""
    m2 = zoo.get("M2(Q)")
    q = zoo.get("Q")
    assert hochschild_homology(m2, n_max=5).dims == \
        hochschild_homology(q, n_max=5).dims
    assert cyclic_homology(m2, n_max=5).dims == cyclic_homology(q, n_max=5).dims
    hp_m2 = periodic_cyclic(m2, n_max=5)
    hp_q = periodic_cyclic(q, n_max=5)
    assert hp_m2.super_dims == hp_q.super_dims == (1, 0)
    assert hp_m2.certificate == "CERTIFIED"


def test_mixed_complex_relations_verified_and_b0_rank():
    dual = zoo.get("dual")
    mx = TruncatedMixedComplex(dual, 5)
    # B: C_0 -> C_1 has rank 1 (sends the nilpotent to 1 (x) x)
    assert matrix_rank(mx.B[0]) == 1
    q = zoo.get("Q")
    mxq = TruncatedMixedComplex(q, 4)
    assert all(not col for cols in mxq.B for col in cols)   # B = 0 over Q


def corrupting(real, built):
    """real (a hochschild_columns) with one entry of d_2 changed: d_1 of
    the changed coordinate is nonzero, so d_1 d_2 of the first chain is
    too.  built collects the columns by degree."""
    def corrupted(m, red, n, chains):
        cols = real(m, red, n, chains)
        built[n] = cols
        if n == 2:
            k = next(k for k, col in enumerate(built[1]) if col)
            cols[0][k] = cols[0].get(k, 0) + 1
            if not cols[0][k]:
                del cols[0][k]
        return cols
    return corrupted


def test_mixed_complex_refuses_a_nonzero_b_squared():
    corrupted = corrupting(hochschild.hochschild_columns, {})
    with _over_q1(), mock.patch.object(hochschild, "hochschild_columns",
                                       corrupted):
        with pytest.raises(InvariantError, match="d o d != 0 between "
                                                 "degrees 2 and 0"):
            TruncatedMixedComplex(zoo.get("A2"), 3)


def _first_broken_relation(mx, b_squared=True):
    """The first of b^2 = 0, B^2 = 0, bB + Bb = 0 that fails on the
    columns of mx, in _verify_relations' order, each checked column by
    column: (relation, degree), or None."""
    b, B = mx.b, mx.B
    for n in range(2, mx.n_max + 1) if b_squared else ():
        if any(apply_cols(b[n - 1], col) for col in b[n]):
            return "b^2", n
    for n in range(mx.n_max - 1):
        if any(apply_cols(B[n + 1], col) for col in B[n]):
            return "B^2", n
    for n in range(mx.n_max):
        for j, col in enumerate(B[n]):
            acc = apply_cols(b[n + 1], col)
            for k, c in b[n][j].items() if n else ():
                vec_addmul(acc, c, B[n - 1][k])
            if acc:
                return "bB + Bb", n
    return None


def _signed_classes(cols):
    """(first, s) for each column: cols[j] = s * cols[first], first the
    first column equal to it up to sign."""
    firsts = {}
    out = []
    for j, col in enumerate(cols):
        items = sorted(col.items())
        sign = -1 if items and items[0][1] < 0 else 1
        f, fsign = firsts.setdefault(
            tuple((k, sign * v) for k, v in items), (j, sign))
        out.append((f, sign * fsign))
    return out


def _corruptions(mx, n):
    """(what, columns, index, corrupted column) for the later members j of
    B_n's classes outside the image of B_(n-1) (a change at j in the image
    breaks a relation at degree n - 1 first): B e_j negated (for each sign
    of j against the first member) or doubled where b B e_j != 0, B e_j
    with 1 added at a row r with b e_r != 0 and B e_r = 0, b e_j with 1
    added at a row r with B e_r != 0, and an entry of b e_j moved from a
    row k with B e_k != 0 to a row of k's class with the other sign.
    Those are the changes that can break bB + Bb = 0 at degree n and
    leave B^2 = 0 and the relations below degree n."""
    top = n + 1 == mx.n_max
    image = {k for col in mx.B[n - 1] for k in col} if n else set()
    below = _signed_classes(mx.B[n - 1]) if n else []
    for j, (f, s) in enumerate(_signed_classes(mx.B[n])):
        if f == j or j in image:
            continue
        col = mx.B[n][j]
        if apply_cols(mx.b[n + 1], col):
            yield ("B negated, sign %+d" % s, mx.B[n], j,
                   {k: -v for k, v in col.items()})
            yield "B doubled", mx.B[n], j, {k: 2 * v for k, v in col.items()}
        for r in range(mx.dims[n + 1]):
            if mx.b[n + 1][r] and (top or not mx.B[n + 1][r]):
                yield "B entry", mx.B[n], j, _added(col, r)
        for r in range(mx.dims[n - 1]) if n else ():
            if mx.B[n - 1][r]:
                yield "b entry", mx.b[n], j, _added(mx.b[n][j], r)
        for k, c in mx.b[n][j].items() if n else ():
            if mx.B[n - 1][k]:
                for r, (g, t) in enumerate(below):
                    if g == below[k][0] and t != below[k][1]:
                        bad = _added(mx.b[n][j], r, c)
                        yield "b entry moved", mx.b[n], j, \
                            _added(bad, k, -c)


def _added(col, r, c=1):
    """col with c added at row r."""
    out = dict(col)
    out[r] = out.get(r, 0) + c
    if not out[r]:
        del out[r]
    return out


def _mutation_complexes(name):
    """The mixed complex at n_max 6 of Q[x]/x^3 or the dual numbers over
    Q.1, of its tensor product with Q x Q relative to that algebra's two
    vertices, and of a copy in a rational basis over Q.1: for Q[x]/x^3 the
    basis 1 + x/2, x/2 + x^2/3, x^2/3, whose unit has three terms, so the
    class of the dropped element has two; for the dual numbers, whose
    Abar is a line, 1, 1/2 + 2e/3."""
    a = zoo.get(name)
    vectors = {"cubic": [{0: 1, 1: Fraction(1, 2)},
                         {1: Fraction(1, 2), 2: Fraction(1, 3)},
                         {2: Fraction(1, 3)}],
               "dual": [{0: 1}, {0: Fraction(1, 2), 1: Fraction(2, 3)}]}[name]
    relative = tensor_algebra(a, zoo.get("QxQ"))
    assert _basis_ground(relative) is not None
    rational = _in_basis(a, vectors, name + "-rational")
    mixed = [TruncatedMixedComplex(a, 6, _absolute=True),
             TruncatedMixedComplex(relative, 6),
             TruncatedMixedComplex(rational, 6)]
    assert mixed[1].red.ends[0] != (None, None)
    assert mixed[2].denominator > 1
    if name == "cubic":
        assert max(len(cls) for cls in mixed[2].red.classes.values()) == 2
    return mixed


@pytest.mark.parametrize("name", ["cubic", "dual"])
def test_verify_relations_catches_a_corrupted_class_member(name):
    """bB + Bb = 0 is proved on every column of B_n, also on the later
    members of a class of columns equal up to sign, whose relation follows
    from the first member's while the columns are valid.  At every degree
    n, the first corruption of each kind that _corruptions offers (a later
    member's B column negated, doubled or changed in one entry, or one
    entry of its b column changed or moved) breaks bB + Bb = 0 at n and no
    relation before it, as a literal check finds, and is refused with
    'bB + Bb != 0 at degree n'.  A corrupted b column is checked with
    b^2 = 0 left out, since it breaks that first."""
    for mx in _mutation_complexes(name):
        assert _first_broken_relation(mx) is None
        found = set()
        for n in range(mx.n_max):
            first = {}
            for what, cols, j, bad in _corruptions(mx, n):
                first.setdefault(what, (cols, j, bad))
            for what, (cols, j, bad) in first.items():
                good, cols[j] = cols[j], bad
                b_squared = not what.startswith("b ")
                assert _first_broken_relation(mx, b_squared) == \
                    ("bB + Bb", n), (what, n, j)
                with contextlib.ExitStack() as stack:
                    if not b_squared:
                        stack.enter_context(mock.patch.object(
                            ChainComplex, "check_dd_zero", lambda self: None))
                    with pytest.raises(InvariantError, match=r"bB \+ Bb != 0 "
                                       "at degree %d$" % n):
                        mx._verify_relations()
                cols[j] = good
                found.add(what)
        mx._verify_relations()
        assert "b entry" in found and "B entry" in found, found


def test_cyclic_homology_ground_field_pattern():
    hc = cyclic_homology(zoo.get("Q"), n_max=7)
    assert hc.dims == [1, 0, 1, 0, 1, 0, 1]


def test_cyclic_homology_separable_pattern():
    hc = cyclic_homology(zoo.get("QxQ"), n_max=7)
    assert hc.dims == [2, 0, 2, 0, 2, 0, 2]


def test_cyclic_homology_dual_numbers():
    hc = cyclic_homology(zoo.get("dual"), n_max=7)
    assert hc.dims == [2, 0, 2, 0, 2, 0, 2]


def test_sbi_exact_on_small_zoo():
    for name in ("Q", "QxQ", "dual", "A2", "cubic"):
        rep = sbi_check(zoo.get(name), n_max=6)
        assert rep.all_exact, "%s: %s" % (name, [e for e in rep.entries
                                                 if not e["exact"]])


def _in_basis(a, vectors, name):
    """a by structure constants in the basis of the given vectors (sparse
    over a's basis)."""
    q = inverse(vectors)
    labels = ["c%d" % i for i in range(a.dim)]

    def coords(vec):
        return {labels[r]: v for r, v in apply_cols(q, vec).items()}
    products = [(labels[i], labels[j], coords(a.mult_vec(x, y)))
                for i, x in enumerate(vectors) for j, y in enumerate(vectors)]
    return structure_algebra(name, labels, coords(a.unit), products)


def _rescaled(a, scales, perm=None):
    """a in the basis scales[i] * b_perm[i] (perm is the identity when
    omitted)."""
    return _in_basis(a, [{k: Fraction(c)} for k, c in
                         zip(perm or range(a.dim), scales)],
                     a.name + "-rescaled")


def test_rational_basis_keeps_sbi_and_hp():
    """A rescaled copy, relative to the idempotents among its unit's terms
    (A2) or to Q.1 (cubic, and A2 with that ground withheld), keeps SBI
    exactness and HP."""
    scales = [Fraction(1, 2), Fraction(-2, 3), Fraction(3)]
    for name in ("A2", "cubic"):
        a = zoo.get(name)
        want = (sbi_check(a, n_max=6).all_exact,
                periodic_cyclic(a, n_max=6).super_dims)
        r = _rescaled(a, scales)
        assert (sbi_check(r, n_max=6).all_exact,
                periodic_cyclic(r, n_max=6).super_dims) == want
        r = _rescaled(a, scales)
        with _over_q1():
            assert (sbi_check(r, n_max=6).all_exact,
                    periodic_cyclic(r, n_max=6).super_dims) == want


def _fraction_columns(mx, a):
    """b_1..b_n_max and B_0..B_(n_max - 1) on the chains of the mixed
    complex mx of a, as hochschild_columns and connes_columns give them
    (Fraction entries included, before any scaling)."""
    m = regular_bimodule(a)
    b = [hochschild_columns(m, mx.red, n, mx.chains)
         for n in range(1, mx.n_max + 1)]
    return b, [connes_columns(mx.red, n, mx.chains) for n in range(mx.n_max)]


def _denominator(cols_by_degree):
    return lcm(*(v.denominator for cols in cols_by_degree
                 for col in cols for v in col.values()))


@pytest.mark.parametrize(
    "name", ["A2", "A3", "square", "cubic", "dual", "M2(Q)", "QxQxQ"])
def test_integral_algebra_keeps_chains_on_ints(name):
    """An integral algebra keeps its reduced basis and its b and B on ints
    (denominator 1); a copy in a rational basis stores D.b and D.B on ints,
    D the lcm of the denominators of its Fraction columns."""
    a = zoo.get(name)
    values = [v for cls in _Reduced(a).classes.values() for v in cls.values()]
    mx = TruncatedMixedComplex(a, 3)
    for cols in mx.b[1:] + mx.B:
        values.extend(v for col in cols for v in col.values())
    assert values and all(type(v) is int for v in values)
    assert mx.denominator == 1
    r = _rescaled(a, (SCALES * 2)[:a.dim])
    mx = TruncatedMixedComplex(r, 3)
    b, B = _fraction_columns(mx, r)
    assert mx.denominator == _denominator(b + B)
    assert all(type(v) is int for cols in mx.b[1:] + mx.B
               for col in cols for v in col.values())


def test_cyclic_memo_frees_the_algebra_without_gc():
    a = zoo.a2_algebra()
    ref = weakref.ref(a)
    gc.disable()
    try:
        cyclic_homology(a, 3)
        del a
        assert ref() is None
    finally:
        gc.enable()


@st.composite
def quiver_algebras(draw, max_arrows=3):
    """Path algebras of <= 3 vertices and <= max_arrows arrows, truncated
    at 1 or 2, with a random relation among the length-2 paths between two
    vertices."""
    vertices = [str(v) for v in range(draw(st.integers(1, 3)))]
    ends = st.tuples(st.sampled_from(vertices), st.sampled_from(vertices))
    arrows = [("x%d" % i, s, t)
              for i, (s, t) in enumerate(draw(st.lists(ends,
                                                        max_size=max_arrows)))]
    truncation = draw(st.integers(1, 2))
    relations = []
    paths = [(p, q) for p in arrows for q in arrows if p[2] == q[1]]
    if truncation == 2 and paths:
        s, t = draw(st.sampled_from([(p[1], q[2]) for p, q in paths]))
        parallel = [[p[0], q[0]] for p, q in paths if (p[1], q[2]) == (s, t)]
        coeffs = draw(st.lists(st.integers(-2, 2), min_size=len(parallel),
                               max_size=len(parallel)))
        rel = [(c, names) for c, names in zip(coeffs, parallel) if c]
        if rel:
            relations.append(rel)
    return path_algebra(Quiver(vertices, arrows), relations, truncation)


SCALES = [Fraction(1, 2), Fraction(-2, 3), Fraction(3), Fraction(-1),
          Fraction(5, 7)]


@settings(deadline=None, max_examples=40)
@given(st.data())
def test_hh_matches_nonnormalized_oracle_on_random_quivers(data):
    a = data.draw(quiver_algebras())
    assume(a.dim <= 6)
    scales = data.draw(st.lists(st.sampled_from(SCALES), min_size=a.dim,
                                max_size=a.dim))
    oracle = _nonnormalized_hh(a, 3, DEFAULT_CAP)
    for alg in (a, _rescaled(a, scales)):
        assert hochschild_homology(alg, n_max=3).dims == oracle


def _entries(cols):
    """The columns with the order of their entries."""
    return [list(col.items()) for col in cols]


def _oracle_nonnormalized_columns(a, n_max):
    """(dims, diffs) of the non-normalized complex A (x) A^n in degrees
    0..n_max, built as before integer codes: one itertools.product tuple per
    column, tuple slices and a code() call per face."""
    d = a.dim
    dims = [d ** (n + 1) for n in range(n_max + 1)]

    def code(idx):
        c = 0
        for t in idx:
            c = c * d + t
        return c

    diffs = [None]
    for n in range(1, n_max + 1):
        cols = []
        for idx in itertools.product(range(d), repeat=n + 1):
            col = {}
            for i in range(n):
                sgn = -1 if i % 2 else 1
                for k, c in a.mult_basis(idx[i], idx[i + 1]).items():
                    tgt = code(idx[:i] + (k,) + idx[i + 2:])
                    val = col.get(tgt, 0) + sgn * c
                    if val:
                        col[tgt] = val
                    else:
                        col.pop(tgt, None)
            sgn = -1 if n % 2 else 1
            for k, c in a.mult_basis(idx[-1], idx[0]).items():
                tgt = code((k,) + idx[1:-1])
                val = col.get(tgt, 0) + sgn * c
                if val:
                    col[tgt] = val
                else:
                    col.pop(tgt, None)
            cols.append(col)
        diffs.append(cols)
    return dims, diffs


def _assert_oracle_complex_is_the_tuple_builders(a):
    """_nonnormalized_hh(a, 3, ...) hands ChainComplex the dims and the
    columns of _oracle_nonnormalized_columns, entry for entry and in
    order."""
    seen = []

    def spy(dims, diffs):
        seen.append((dims, diffs))
        return ChainComplex(dims, diffs)

    with mock.patch.object(cli, "ChainComplex", spy):
        _nonnormalized_hh(a, 3, DEFAULT_CAP)
    (got,) = seen
    dims, diffs = _oracle_nonnormalized_columns(a, 3)
    assert got[0] == dims
    assert got[1][0] is None
    for n in range(1, 4):
        assert _entries(got[1][n]) == _entries(diffs[n]), (a.name, n)


@pytest.mark.parametrize("path", sorted(DEMO_ALGEBRAS.glob("*.json")),
                         ids=lambda p: p.stem)
def test_oracle_complex_matches_the_tuple_builder_on_the_demos(path):
    _assert_oracle_complex_is_the_tuple_builders(load_algebra(str(path)))


@settings(deadline=None, max_examples=25)
@given(quiver_algebras())
def test_oracle_complex_matches_the_tuple_builder_on_random_quivers(a):
    assume(a.dim <= 7)
    _assert_oracle_complex_is_the_tuple_builders(a)


def test_oracle_refuses_before_it_builds_a_column():
    """Over the cap, _nonnormalized_hh refuses before it reads a single
    product of basis elements."""
    a3 = zoo.get("A3")
    with mock.patch.object(type(a3), "mult_basis",
                           side_effect=AssertionError("a column was built")):
        with pytest.raises(CapExceededError, match="oracle complex exceeds"):
            _nonnormalized_hh(a3, 4, 1000)


def _word_code(word, dbar):
    t = 0
    for d in word:
        t = t * dbar + d
    return t


def _oracle_connes_columns(red, n, chains):
    """connes_columns as it was built on tuples: each chain decoded into
    its word, and each rotation of (s,) + word encoded digit by digit."""
    dbar = red.dbar
    pow_next = dbar ** (n + 1)
    cols = []
    for pos in range(len(chains.lists[n])):
        c, word = chains.chain(n, pos)
        col = {}
        for i in range(n + 1):
            sgn = -1 if (i * n) % 2 else 1
            for s, cs in red.classes[c].items():
                seq = (s,) + word
                rot = seq[i:] + seq[:i]
                code_bar = _word_code(rot, dbar)
                for k, cu in red.units[red.ends[rot[0]][0]].items():
                    code = k * pow_next + code_bar
                    val = col.get(code, 0) + sgn * cs * cu
                    if val:
                        col[code] = val
                    else:
                        col.pop(code, None)
        cols.append(col)
    return chains.renumber(n + 1, cols)


def _assert_connes_is_the_tuple_builders(a, absolute, budget):
    """B_0 .. B_5 on the chains of TruncatedMixedComplex(a, n_max,
    _absolute=absolute) equal _oracle_connes_columns entry for entry and in
    order, for the largest n_max <= 6 whose complex has at most budget
    chains; returns the reduced basis."""
    m = regular_bimodule(a)
    ends = None if absolute else _relative_ends(m)
    for n_max in range(6, 0, -1):
        try:
            red, dims, chains = _chain_basis(m, n_max, ends, budget)
            break
        except CapExceededError:
            continue
    for n in range(n_max):
        assert (_entries(connes_columns(red, n, chains))
                == _entries(_oracle_connes_columns(red, n, chains))), (
            a.name, absolute, n)
    return red


@pytest.mark.parametrize("absolute", [False, True])
@pytest.mark.parametrize("name", zoo.ZOO_NAMES)
def test_connes_columns_match_the_tuple_builder(name, absolute):
    red = _assert_connes_is_the_tuple_builders(zoo.get(name), absolute,
                                               DEFAULT_CAP)
    if name == "Q" or (name == "QxQxQ" and not absolute):
        # no chain of degree >= 1: every class is empty
        assert red.dbar == 0
        assert not any(red.classes.values())


@settings(deadline=None, max_examples=25)
@given(st.data())
def test_connes_columns_match_the_tuple_builder_on_random_quivers(data):
    a = data.draw(quiver_algebras())
    scales = data.draw(st.lists(st.sampled_from(SCALES), min_size=a.dim,
                                max_size=a.dim))
    for alg in (a, _rescaled(a, scales)):
        for absolute in (False, True):
            _assert_connes_is_the_tuple_builders(alg, absolute, 5000)


def _over(m, r, scales):
    """The A-bimodule m over the rescaled copy r = _rescaled(A, scales)."""
    return Bimodule(r, r, m.dim,
                    [[vec_scale(s, col) for col in x]
                     for x, s in zip(m.left, scales)],
                    [[vec_scale(s, col) for col in x]
                     for x, s in zip(m.right, scales)])


@settings(deadline=None, max_examples=30)
@given(st.data())
def test_vertex_relative_hh_matches_absolute_on_random_quivers(data):
    """HH(A; M) relative to the vertex idempotents equals HH of the
    quiver-free rescaled copy, both relative to the idempotents it finds
    among its unit's terms and relative to Q.1, for the regular bimodule,
    every corner bimodule and every nonzero Tor_0 of two corner
    bimodules."""
    a = data.draw(quiver_algebras())
    assume(a.dim <= 6)
    scales = data.draw(st.lists(st.sampled_from(SCALES), min_size=a.dim,
                                max_size=a.dim))
    r = _rescaled(a, scales)
    vs = presentation(a).vertices
    corners = [corner_bimodule(a, i, j) for i in vs for j in vs]
    mods = [regular_bimodule(a)] + corners
    assert all(_vertex_ends(m) is not None for m in mods)
    mods += [t for x in corners for y in corners
             for t in derived_tensor(x, y, bound=0) if t.dim]
    for m in mods:
        flat = _over(m, r, scales)
        want = hochschild_homology(a, m, n_max=3).dims
        assert hochschild_homology(r, flat, n_max=3).dims == want
        with _over_q1():
            assert hochschild_homology(r, flat, n_max=3).dims == want


def _conjugated(m):
    """m in the basis given by an upper unitriangular change of basis."""
    p = [{i: 1 for i in range(j + 1)} for j in range(m.dim)]
    q = inverse(p)
    return Bimodule(m.A, m.B, m.dim,
                    [compose_cols(q, compose_cols(x, p)) for x in m.left],
                    [compose_cols(q, compose_cols(x, p)) for x in m.right],
                    name=m.name + "'")


def test_non_adapted_basis_falls_back_to_the_absolute_complex():
    """A bimodule whose vertex idempotents do not act by coordinate
    projections gets the complex relative to Q.1, with the same HH."""
    for name in ("A2", "square"):
        a = zoo.get(name)
        reg = regular_bimodule(a)
        scrambled = _conjugated(reg)
        assert _vertex_ends(scrambled) is None
        cx = hochschild_complex(a, scrambled, n_max=3)
        assert cx.dims == [a.dim * (a.dim - 1) ** n for n in range(4)]
        assert (hochschild_homology(a, scrambled, n_max=3).dims
                == hochschild_homology(a, reg, n_max=3).dims)


def _simples(a, vertices):
    """The direct sum of the one-dimensional A-bimodules at the vertices:
    e_v acts as 1 on both sides of its line, every arrow as 0."""
    pos = {presentation(a).index[v]: c for c, v in enumerate(vertices)}
    d = len(vertices)
    acts = [[{c: 1} if pos.get(k) == c else {} for c in range(d)]
            for k in range(a.dim)]
    return Bimodule(a, a, d, acts, acts,
                    name="S_" + "+".join(str(v) for v in vertices))


def _tor_grounds():
    """A spy on the chain basis that derived_tensor builds; the ends
    argument of each call is None exactly when Tor is taken over Q.1."""
    return mock.patch.object(algebras, "_chain_basis",
                             wraps=algebras._chain_basis)


def _tor_table(alg, tors, vertex_idx, g, cap=DEFAULT_CAP):
    """Per degree: dim Tor_l, dim e_u Tor_l e_v for the vertex idempotents
    (basis indices vertex_idx, up to scale), and chi(HH(A; Tor_l)) when
    A has finite global dimension g (HH_0 and HH_1 otherwise), or the
    refusal of the memory guard cap."""
    table = []
    for t in tors:
        graded = [matrix_rank(compose_cols(t.left[k], t.right[l]))
                  for k in vertex_idx for l in vertex_idx]
        try:
            hh = hochschild_homology(alg, t, n_max=2 if g is None else g + 1,
                                     cap=cap).dims
        except CapExceededError as refused:
            # a Tor output whose basis hides the ground takes HH over Q.1,
            # whose chains may exceed the memory guard: the refusal is the
            # outcome
            table.append((t.dim, graded, ("refused", refused.needed)))
            continue
        chi = hh if g is None else sum((-1) ** n * d for n, d in enumerate(hh))
        table.append((t.dim, graded, chi))
    return table


def _assert_tor_matches_rescaled(a, scales):
    """Tor^A(x, y) relative to the vertex idempotents has the dimensions,
    vertex-graded dimensions and chi(HH(A; Tor_l)) of Tor over the
    quiver-free rescaled copy with every complex over E = Q.1, for every pair of corner bimodules (Tor_0) and of
    one-dimensional simple bimodules (Tor_0..Tor_2)."""
    vs = presentation(a).vertices
    r = _rescaled(a, scales)
    g = global_dimension(a, bound=4)
    vertex_idx = [presentation(a).index[v] for v in vs]
    corners = [corner_bimodule(a, i, j) for i in vs for j in vs]
    simples = [_simples(a, [v]) for v in vs]
    cases = ([(x, y, 0) for x in corners for y in corners]
             + [(x, y, 2) for x in simples for y in simples])
    for x, y, bound in cases:
        with _tor_grounds() as spy:
            tors = derived_tensor(x, y, bound=bound)
        assert spy.call_args.args[2] is not None
        want = _tor_table(a, tors, vertex_idx, g)
        with _over_q1():
            flat = derived_tensor(_over(x, r, scales), _over(y, r, scales),
                                  bound=bound)
            assert _tor_table(r, flat, vertex_idx, g) == want, (x.name,
                                                                 y.name)


@settings(deadline=None, max_examples=30)
@given(st.data())
def test_vertex_relative_tor_matches_absolute_on_random_quivers(data):
    a = data.draw(quiver_algebras())
    assume(len(presentation(a).vertices) >= 2 and a.dim <= 6)
    scales = data.draw(st.lists(st.sampled_from(SCALES), min_size=a.dim,
                                max_size=a.dim))
    _assert_tor_matches_rescaled(a, scales)


def test_vertex_relative_tor_on_a_loop_and_a_two_cycle():
    """The same comparison where Tor never vanishes (a loop) and where the
    composable chains go round a 2-cycle."""
    loop = path_algebra(Quiver(["1", "2"], [("x", "1", "1"), ("y", "1", "2")]),
                        (), 2, name="loop")
    for a in (loop, _two_cycle()):
        _assert_tor_matches_rescaled(a, (SCALES * 2)[:a.dim])


def test_non_adapted_factor_takes_the_dense_tor():
    """A factor whose vertex actions are not coordinate projections sends
    Tor to the complex over Q.1, with the dimensions of the adapted copy."""
    for name in ("A2", "A3", "square"):
        a = zoo.get(name)
        vs = presentation(a).vertices
        g = global_dimension(a)
        tops = _simples(a, vs)
        # A e_sink (x) e_source A: paths of both ends on either side
        corner = corner_bimodule(a, vs[-1], vs[0])
        cases = [(corner, corner, None), (tops, tops, g)]
        for x, y, bound in cases:
            with _tor_grounds() as spy:
                adapted = derived_tensor(x, y, bound=bound)
            assert spy.call_args.args[2] is not None
            for u, v in ((_conjugated(x), y), (x, _conjugated(y))):
                with _tor_grounds() as spy:
                    dense = derived_tensor(u, v, bound=bound)
                assert spy.call_args.args[2] is None
                assert [t.dim for t in dense] == [t.dim for t in adapted]
        assert any(t.dim for t in derived_tensor(tops, tops, bound=g)[1:])


@settings(deadline=None, max_examples=20)
@given(quiver_algebras())
def test_sbi_exact_on_random_quivers(a):
    assume(a.dim <= 6)
    assert sbi_check(a, n_max=4).all_exact


def test_hp_zoo_values():
    assert periodic_cyclic(zoo.get("Q"), n_max=4).super_dims == (1, 0)
    assert periodic_cyclic(zoo.get("QxQ"), n_max=4).super_dims == (2, 0)
    hp = periodic_cyclic(zoo.get("A2"), n_max=5)
    # the motive of the A2 algebra splits into two exceptional pieces, so
    # HP sees a two-dimensional even part (HH_0 = A/[A,A] is 2-dimensional)
    assert hp.super_dims == (2, 0)
    assert hp.certificate == "CERTIFIED"


def test_hp_dual_numbers_window_stable():
    hp = periodic_cyclic(zoo.get("dual"), n_max=6)
    assert hp.certificate == "WINDOW-STABLE"
    # nilpotent extensions do not change the stable dimensions
    assert hp.super_dims == (1, 0)


def test_hp_not_stabilized_when_window_too_small():
    """At n_max = 4 the towers of the dual numbers have a single point per
    parity: the result must be an explicit refusal, not a number."""
    hp = periodic_cyclic(zoo.get("dual"), n_max=4)
    assert hp.certificate == "NOT-STABILIZED"
    assert hp.even is None and hp.odd is None


def test_hp_cubic_window_stable():
    hp = periodic_cyclic(zoo.get("cubic"), n_max=6)
    assert hp.certificate == "WINDOW-STABLE"
    assert hp.super_dims == (1, 0)


def test_euler_characteristic_stable_under_truncation():
    """Sum (-1)^n dim HH_n is independent of n_max once gldim certifies
    vanishing; recompute at two truncations."""
    for name in ("QxQ", "A2"):
        a = zoo.get(name)
        t1 = hochschild_homology(a, n_max=4).dims
        t2 = hochschild_homology(a, n_max=6).dims
        chi1 = sum((-1) ** n * d for n, d in enumerate(t1))
        chi2 = sum((-1) ** n * d for n, d in enumerate(t2))
        assert chi1 == chi2


def test_kunneth_dimension_multiplicativity():
    """Stable dimensions multiply under the algebra tensor product.

    A2 (x) QxQ is the two-component A2 quiver algebra: verify the table
    identification, then compare stable dims against the super tensor rule.
    """
    from ncmotives.algebras import tensor_algebra, Quiver, path_algebra
    a2 = zoo.get("A2")
    qq = zoo.get("QxQ")
    t = tensor_algebra(a2, qq)
    q2 = Quiver(["1a", "2a", "1b", "2b"],
                [("aa", "1a", "2a"), ("ab", "1b", "2b")])
    model = path_algebra(q2, truncation=2, name="A2 x A2")
    # basis bijection: (x, e_i) -> component-i copy of x
    mapping = {}
    for i, lab in enumerate(a2.basis):
        for j, comp in enumerate(["a", "b"]):
            src = i * qq.dim + j
            if lab.startswith("e_"):
                tgt = "e_%s%s" % (lab[2:], comp)
            else:
                tgt = "a%s" % comp
            mapping[src] = model.basis.index(tgt)
    for (i, j), vec in t.table.items():
        mapped = {mapping[k]: v for k, v in vec.items()}
        assert model.mult_basis(mapping[i], mapping[j]) == mapped
    hp_t = periodic_cyclic(model, n_max=5)
    hp_a = periodic_cyclic(a2, n_max=5)
    hp_b = periodic_cyclic(qq, n_max=5)
    (ap, am), (bp, bm) = hp_a.super_dims, hp_b.super_dims
    assert hp_t.super_dims == (ap * bp + am * bm, ap * bm + am * bp)
    assert hp_t.certificate == "CERTIFIED"


def test_hp_of_homomorphism_identity():
    a = zoo.get("QxQ")
    even, odd = hp_of_homomorphism(identity_cols(a.dim), a, a, n_max=5)
    assert even == identity_cols(2)
    assert odd == []


@pytest.mark.parametrize("f, message", [
    ([{0: 1}], "wrong shape"),
    ([{0: 1}, {}, {}], "wrong shape"),
    ([{0: 1}, {1: 1}], "wrong shape"),
    ([{0: 1}, {-1: 1}], "wrong shape"),
    ([{0: 1}, {0: 1}], "not unital"),
    ([{0: 2}, {0: -1}], "not multiplicative"),
], ids=["one column", "three columns", "row past dim Q", "negative row",
        "not unital", "not multiplicative"])
def test_check_homomorphism_refuses(f, message):
    """A map QxQ -> Q is its two columns, each a vector of Q: a column
    count other than 2, or an entry outside row 0 (which a bare length
    check would miss), is the wrong shape."""
    with pytest.raises(InvariantError, match=message):
        check_homomorphism(f, zoo.get("QxQ"), zoo.get("Q"))
    with pytest.raises(InvariantError, match=message):
        hp_of_homomorphism(f, zoo.get("QxQ"), zoo.get("Q"), n_max=5)


def test_hp_of_homomorphism_unit_inclusion_and_projection():
    q = zoo.get("Q")
    qq = zoo.get("QxQ")
    incl = [{0: 1, 1: 1}]                              # 1 |-> e1 + e2
    proj = [{0: 1}, {}]                                # e1 |-> 1, e2 |-> 0
    ev_i, od_i = hp_of_homomorphism(incl, q, qq, n_max=5)
    assert len(ev_i) == 1 and set(ev_i[0]) <= {0, 1}
    assert matrix_rank(ev_i) == 1
    ev_p, od_p = hp_of_homomorphism(proj, qq, q, n_max=5)
    # proj o incl = id on Q
    assert compose_cols(ev_p, ev_i) == identity_cols(1)
    # incl o proj: rank-1 idempotent on HP+(QxQ)
    comp = compose_cols(ev_i, ev_p)
    assert compose_cols(comp, comp) == comp
    assert matrix_rank(comp) == 1


def test_hp_of_homomorphism_respects_composition():
    """Chain-level functoriality: matrix of a composite = product."""
    q = zoo.get("Q")
    qq = zoo.get("QxQ")
    incl = [{0: 1, 1: 1}]
    proj = [{}, {0: 1}]                                # the other projection
    ev_i, _ = hp_of_homomorphism(incl, q, qq, n_max=5)
    ev_p, _ = hp_of_homomorphism(proj, qq, q, n_max=5)
    both = compose_cols(proj, incl)    # = identity of Q
    ev_c, _ = hp_of_homomorphism(both, q, q, n_max=5)
    assert ev_c == compose_cols(ev_p, ev_i)


def test_induced_chain_map_commutes_with_differential():
    """The map on totalizations induced by an algebra homomorphism is a
    chain map: checked entrywise on basis vectors at low degrees."""
    from ncmotives.hochschild import _chain_map_on_tot, cyclic_data
    q = zoo.get("Q")
    qq = zoo.get("QxQ")
    incl = [{0: 1, 1: 1}]
    data_q = cyclic_data(q, 5)
    data_qq = cyclic_data(qq, 5)
    for n in range(1, 5):
        for j in range(data_q.tot.dims[n]):
            vec = {j: 1}
            # f(d x) = d f(x)
            lhs = _chain_map_on_tot(incl, q, qq, data_q, data_qq, n - 1,
                                    apply_cols(data_q.tot.diffs[n], vec))
            fx = _chain_map_on_tot(incl, q, qq, data_q, data_qq, n, vec)
            rhs = apply_cols(data_qq.tot.diffs[n], fx)
            assert lhs == rhs
    proj = [{0: 1}, {}]
    for n in range(1, 5):
        for j in range(data_qq.tot.dims[n]):
            vec = {j: 1}
            lhs = _chain_map_on_tot(proj, qq, q, data_qq, data_q, n - 1,
                                    apply_cols(data_qq.tot.diffs[n], vec))
            fx = _chain_map_on_tot(proj, qq, q, data_qq, data_q, n, vec)
            rhs = apply_cols(data_q.tot.diffs[n], fx)
            assert lhs == rhs


def test_hp_of_homomorphism_refuses_uncertified():
    dual = zoo.get("dual")
    with pytest.raises(UncertifiedError):
        hp_of_homomorphism(identity_cols(dual.dim), dual, dual, n_max=5)


def test_chern_character_unit_of_q():
    q = zoo.get("Q")
    e = [[q.unit]]
    comps = chern_character(e, q, n_max=6)
    assert comps[0] == {0: 1}
    # higher components vanish over the ground field (Abar = 0)
    assert all(not comps[n] for n in comps if n > 0)


def test_chern_character_projection_in_qxq():
    e = [[{0: 1}]]    # e_1 as a 1x1 idempotent matrix
    # over Q.1 ...
    flat = zoo.product_of_fields(2)
    with _over_q1():
        comps = chern_character(e, flat, n_max=6)
        assert comps[0] == {0: 1}       # degree-0 component = tr(e) = e_1
        assert comps[2]                  # correction terms present
        cls, n_even = chern_class_in_hc(e, flat, n_max=6)
        assert cls                       # nonzero class in stable even HC
    # ... and relative to E = Q x Q, where e_1 vanishes in A/E, found from
    # the quiver's vertices or the unit's terms alike
    for qq in (zoo.get("QxQ"), _rescaled(zoo.get("QxQ"), [1, 1])):
        comps = chern_character(e, qq, n_max=6)
        assert comps[0] == {0: 1}
        assert comps[2] == {}
        cls, n_even = chern_class_in_hc(e, qq, n_max=6)
        assert cls


def test_chern_character_matrix_idempotent():
    """Idempotents in M_2(A), not just in A itself."""
    q = zoo.get("Q")
    e = [[{0: 1}, {}], [{}, {}]]         # diag(1, 0) over Q
    comps = chern_character(e, q, n_max=6)
    assert comps[0] == {0: 1}
    qq = zoo.get("QxQ")
    e = [[{0: 1}, {}], [{}, {1: 1}]]     # diag(e_1, e_2) over QxQ
    comps = chern_character(e, qq, n_max=6)
    assert comps[0] == {0: 1, 1: 1}      # tr = e_1 + e_2 = 1
    # trace 1 is the unit: all higher components of ch(1) vanish
    assert all(not comps[n] for n in comps if n > 0)
    # a genuinely off-diagonal conjugated idempotent stays a cycle
    half = Fraction(1, 2)
    e = [[{0: half, 1: half}, {0: half, 1: -half}],
         [{0: half, 1: -half}, {0: half, 1: half}]]
    comps = chern_character(e, qq, n_max=6)
    assert comps[0] == {0: 1, 1: 1}


def test_chern_character_rejects_non_idempotent():
    qq = zoo.get("QxQ")
    with pytest.raises(InvariantError):
        chern_character([[{0: 1, 1: 1}], [{}]], qq, n_max=4)
    from fractions import Fraction
    with pytest.raises(InvariantError):
        chern_character([[{0: Fraction(1, 2)}]], qq, n_max=4)


def test_chern_classes_of_vertex_idempotents_independent():
    """ch classes of [P_1], [P_2] span the stable even part for A2."""
    a2 = zoo.get("A2")
    cls1, ne = chern_class_in_hc([[{0: 1}]], a2, n_max=6)
    cls2, _ = chern_class_in_hc([[{1: 1}]], a2, n_max=6)
    assert matrix_rank([cls1, cls2]) == 2


def _two_cycle():
    """The quiver 1 <-> 2 (x: 1 -> 2, y: 2 -> 1) with xy = 0, truncated at
    2: basis e_1, e_2, x, y, yx, global dimension 2, and composable chains
    in every degree."""
    quiver = Quiver(["1", "2"], [("x", "1", "2"), ("y", "2", "1")])
    return path_algebra(quiver, [[(1, ["x", "y"])]], 2, name="2-cycle")


def test_relative_chain_map_commutes_with_tot_differentials():
    """The automorphism x -> 2x, y -> y/2 of the 2-cycle algebra induces a
    chain map of the relative totalizations, and the identity on HP."""
    a = _two_cycle()
    scale = {"x": 2, "y": Fraction(1, 2)}
    f = [{i: scale.get(lab, 1)} for i, lab in enumerate(a.basis)]
    check_homomorphism(f, a, a)
    data = cyclic_data(a, 5)
    assert set(data.mixed.red.units) == {presentation(a).index[v]
                                         for v in ("1", "2")}
    assert data.mixed.dims == [3, 4, 7, 11, 18, 29]
    from ncmotives.hochschild import _chain_map_on_tot
    for n in range(1, 6):
        for j in range(data.tot.dims[n]):
            vec = {j: 1}
            lhs = _chain_map_on_tot(f, a, a, data, data, n - 1,
                                    apply_cols(data.tot.diffs[n], vec))
            fx = _chain_map_on_tot(f, a, a, data, data, n, vec)
            assert lhs == apply_cols(data.tot.diffs[n], fx), (n, j)
    even, odd = hp_of_homomorphism(f, a, a, n_max=6)
    assert even == identity_cols(2)
    assert odd == []


def test_hp_of_homomorphism_outside_the_target_ground_algebra(monkeypatch):
    """f: e_i -> e_ii carries QxQ's ground into M2(Q)'s (e11, e22), so both
    sides stay relative; [e11] = [e22] in HH_0 gives a rank-1 matrix with
    equal columns.  f' = Ad(1 - e12) o f, e_1 -> e11 + e12 and
    e_2 -> e22 - e12, does not, so it is read on QxQ's complex over Q.1.
    Inner automorphisms act trivially on HP, so f' has the matrix of f;
    so has f when it is made to take the same route.  Matrices compose
    across the fallback: Q -> QxQ -> M2(Q) through f' is the unit map."""
    import ncmotives.hochschild as hochschild
    q, qq, m2 = zoo.get("Q"), zoo.product_of_fields(2), zoo.matrix_algebra_2()
    f = [{0: 1}, {3: 1}]
    f_inner = [{0: 1, 1: 1}, {3: 1, 1: -1}]
    check_homomorphism(f_inner, qq, m2)
    even, odd = hp_of_homomorphism(f, qq, m2, n_max=5)
    assert list(qq._cyclic) == [(5, DEFAULT_CAP)]       # relative only
    assert matrix_rank(even) == 1
    assert even[0] == even[1]
    assert odd == []
    assert hp_of_homomorphism(f_inner, qq, m2, n_max=5) == (even, odd)
    assert (5, DEFAULT_CAP, "Q.1") in qq._cyclic        # the Q.1 path
    incl = [{0: 1, 1: 1}]
    ev_incl, _ = hp_of_homomorphism(incl, q, qq, n_max=5)
    ev_unit, _ = hp_of_homomorphism(compose_cols(f_inner, incl), q, m2,
                                    n_max=5)
    assert compose_cols(even, ev_incl) == ev_unit
    monkeypatch.setattr(hochschild, "_grounds_compatible",
                        lambda f, mixed_a, mixed_b: False)
    assert hp_of_homomorphism(f, qq, m2, n_max=5) == (even, odd)


@pytest.mark.parametrize("build, n_max", [(_two_cycle, 6),
                                          (zoo.a3_algebra, 5),
                                          (zoo.commutative_square, 4)])
def test_relative_mixed_complex_matches_absolute(build, n_max):
    """HC and SBI exactness of a quiver algebra, relative to its vertex
    idempotents, against a copy relative to Q.1 and the quiver-free copy,
    relative to the idempotents among its unit's terms; HP at a certified
    truncation against the nil-invariant value of the copy."""
    a = build()
    flat, copy = build(), _rescaled(a, (SCALES * 2)[:a.dim])
    vertices = {presentation(a).index[v] for v in presentation(a).vertices}
    assert set(cyclic_data(a, n_max).mixed.red.units) == vertices
    assert set(cyclic_data(copy, n_max).mixed.red.units) == vertices
    want = cyclic_homology(a, n_max).dims
    assert cyclic_homology(copy, n_max).dims == want
    with _over_q1():
        assert set(cyclic_data(flat, n_max).mixed.red.units) == {None}
        assert cyclic_homology(flat, n_max).dims == want
        assert sbi_check(flat, n_max).all_exact
    assert sbi_check(a, n_max).all_exact and sbi_check(copy, n_max).all_exact
    hp = periodic_cyclic(a, 6)
    assert hp.certificate == "CERTIFIED"
    assert hp.super_dims == hp_nil_invariant(copy)


@settings(deadline=None, max_examples=15)
@given(st.data())
def test_relative_mixed_complex_matches_absolute_on_random_quivers(data):
    """On quivers with at least two vertices (loops and 2-cycles included)
    the relative mixed complex gives the HC dimensions, SBI exactness and
    HP values of the quiver-free rescaled copy over Q.1; where both take
    the window path, the S towers agree rank for rank."""
    a = data.draw(quiver_algebras())
    assume(len(presentation(a).vertices) >= 2 and a.dim <= 4)
    # signs keep the copy integral, and so its degree-6 complex quick
    scales = data.draw(st.lists(st.sampled_from([1, -1]), min_size=a.dim,
                                max_size=a.dim))
    r = _rescaled(a, scales)
    assert set(cyclic_data(a, 6).mixed.red.units) == set(a.unit)
    hc_a, sbi_a = cyclic_homology(a, 6).dims, sbi_check(a, 6).all_exact
    hp_a = periodic_cyclic(a, 6)
    with _over_q1():
        assert set(cyclic_data(r, 6).mixed.red.units) == {None}
        assert cyclic_homology(r, 6).dims == hc_a
        assert sbi_a and sbi_check(r, 6).all_exact
        hp_r = periodic_cyclic(r, 6)
    if hp_a.even is not None and hp_r.even is not None:
        assert hp_a.super_dims == hp_r.super_dims
    if "towers" in hp_a.details:
        assert hp_a.details["towers"] == hp_r.details["towers"]


def test_hp_square_certified_at_six_under_the_default_cap():
    hp = periodic_cyclic(zoo.get("square"), n_max=6)
    assert hp.certificate == "CERTIFIED"
    assert hp.super_dims == (4, 0)
    assert hp.details == {"gldim": 2, "s_iso_verified": True}


def test_hp_square_certified_at_five():
    """gldim 2 = n_max - 3: the deepest resolution periodic_cyclic asks
    for still certifies."""
    hp = periodic_cyclic(zoo.get("square"), n_max=5)
    assert hp.certificate == "CERTIFIED"
    assert hp.super_dims == (4, 0)
    assert hp.details["gldim"] == 2


@pytest.mark.parametrize("name, n_max", [("square", 6), ("dual", 6),
                                         ("A3", 7)])
def test_hp_resolves_to_n_max_minus_three(name, n_max, monkeypatch):
    """CERTIFIED needs n_max >= g + 3, so no deeper resolution is asked."""
    bounds = []
    real = algebras.global_dimension

    def recording(a, bound=10):
        bounds.append(bound)
        return real(a, bound)
    monkeypatch.setattr(algebras, "global_dimension", recording)
    periodic_cyclic(zoo.get(name), n_max)
    assert max(bounds) == n_max - 3


def loop_algebra(loops):
    """One vertex with the given loops, radical square zero: infinite
    global dimension, and the syzygies of its simple grow geometrically."""
    return path_algebra(Quiver(["1"], [(x, "1", "1") for x in loops]), (),
                        1, name="%d loops" % len(loops))


@pytest.mark.parametrize("loops, n_max", [("xyz", 6), ("xy", 10)])
def test_hp_of_the_loop_algebras_is_window_stable(loops, n_max):
    hp = periodic_cyclic(loop_algebra(loops), n_max)
    assert (hp.super_dims, hp.certificate) == ((1, 0), "WINDOW-STABLE")
    assert hp.details["gldim"] is None


def test_hp_nil_invariant_on_the_zoo():
    expected = {"Q": 1, "QxQ": 2, "QxQxQ": 3, "M2(Q)": 1, "dual": 1,
                "cubic": 1, "A2": 2, "A3": 3, "square": 4}
    for name, even in expected.items():
        assert hp_nil_invariant(zoo.get(name)) == (even, 0), name


def test_periodic_cyclic_refuses_a_value_against_the_nil_invariant(
        monkeypatch):
    import ncmotives.hochschild as hochschild
    monkeypatch.setattr(hochschild, "hp_nil_invariant", lambda a: (7, 0))
    for name, n_max in (("A2", 5), ("dual", 6)):    # CERTIFIED, WINDOW-STABLE
        with pytest.raises(InvariantError, match="nil-invariant"):
            periodic_cyclic(zoo.get(name), n_max=n_max)
    # a refusal carries no value to check
    assert periodic_cyclic(zoo.get("dual"), n_max=4).even is None


@settings(deadline=None, max_examples=15)
@given(st.data())
def test_hp_agrees_with_the_nil_invariant_on_random_quivers(data):
    """Every CERTIFIED or WINDOW-STABLE value equals
    (dim A / (rad A + [A, A]) | 0), as given and in a rescaled basis."""
    a = data.draw(quiver_algebras())
    assume(a.dim <= 3)
    scales = data.draw(st.lists(st.sampled_from(SCALES), min_size=a.dim,
                                max_size=a.dim))
    r = _rescaled(a, scales)
    assert hp_nil_invariant(r) == hp_nil_invariant(a)
    for alg in (a, r):
        hp = periodic_cyclic(alg, 6)
        assert hp.certificate == "NOT-STABILIZED" \
            or hp.super_dims == hp_nil_invariant(alg)


@pytest.mark.parametrize("name, absolute", [
    ("A3", False), ("square", False), ("QxQxQ", False), ("2-cycle", False),
    ("A3", True), ("M2(Q)", False), ("M2(Q)", True), ("dual", False)])
def test_chain_decoding_inverts_expand_and_project(name, absolute):
    """On both grounds, expanding the slots that chains.chain reads off a
    position and projecting back onto the chains gives that position;
    over Q.1 every degree lists all its codes, as a range."""
    a = _two_cycle() if name == "2-cycle" else zoo.get(name)
    mixed = TruncatedMixedComplex(a, 4, _absolute=absolute)
    red, chains = mixed.red, mixed.chains
    over_q = set(red.units) == {None}
    # the dual numbers have the single idempotent 1
    assert over_q == (absolute or name == "dual")
    for n in range(5):
        assert len(chains.lists[n]) == mixed.dims[n]
        assert (chains.index[n] is None) == isinstance(chains.lists[n], range)
        if over_q:
            assert chains.lists[n] == range(a.dim * red.dbar ** n)
        for pos in range(mixed.dims[n]):
            c, word = chains.chain(n, pos)
            assert len(word) == n
            slots = [{c: 1}] + [{red.kept[t]: 1} for t in word]
            assert chains.project(n, red.expand(slots)) == {pos: 1}, (n, pos)


def _zero_bimodule(a, b):
    return Bimodule(a, b, 0, [[] for _ in range(a.dim)],
                    [[] for _ in range(b.dim)], name="0")


@pytest.mark.parametrize("name", ["M2(Q)", "dual", "A2"])
def test_derived_tensor_with_a_zero_factor_vanishes(name):
    """Tor^B(0, y) and Tor^B(x, 0) are 0 in every degree, over Q.1 (dual)
    and relative to the unit's idempotent terms (M2(Q), A2)."""
    b, q = zoo.get(name), zoo.get("Q")
    reg = regular_bimodule(b)
    for x, y in ((_zero_bimodule(q, b), reg), (reg, _zero_bimodule(b, q))):
        tors = derived_tensor(x, y, bound=2)
        assert [t.dim for t in tors] == [0, 0, 0]
        assert all(t.A is x.A and t.B is y.B for t in tors)


# ---------------------------------------------------------------------------
# the maps on homology, from homcore.induced_map and the Tor actions of
# derived_tensor, against the loops they replaced


def _oracle_map_I(self, n):
    """CyclicData.map_I before induced_map, its loop kept, as columns."""
    reps, _ = self.hh_space(n)
    _, project = self.hc_space(n)
    cols = [{} for _ in reps]
    for j, z in enumerate(reps):
        for r, v in project(dict(z)).items():
            cols[j][r] = v
    return cols


def _oracle_map_S(self, n):
    """CyclicData.map_S before induced_map, its loop kept, as columns."""
    reps, _ = self.hc_space(n)
    _, project = self.hc_space(n - 2)
    top_dim = self.mixed.dims[n]
    cols = [{} for _ in reps]
    for j, z in enumerate(reps):
        dropped = {i - top_dim: v for i, v in z.items() if i >= top_dim}
        for r, v in project(dropped).items():
            cols[j][r] = v
    return cols


def _oracle_map_Bconn(self, n):
    """CyclicData.map_Bconn before induced_map, its loop kept, as
    columns."""
    reps, _ = self.hc_space(n)
    _, project = self.hh_space(n + 1)
    top_dim = self.mixed.dims[n]
    cols = [{} for _ in reps]
    for j, z in enumerate(reps):
        top = {i: v for i, v in z.items() if i < top_dim}
        img = apply_cols(self.mixed.B[n], top)
        for r, v in project(img).items():
            cols[j][r] = v
    return cols


def _oracle_on_homology(g, reps, project, weight, size):
    """algebras._on_homology before induced_map, its loop kept, as
    columns."""
    cols = [{} for _ in reps]
    for j, rep in enumerate(reps):
        img = {}
        for code, val in rep.items():
            d = code // weight % size
            for o, w in g[d].items():
                code2 = code + (o - d) * weight
                img[code2] = img.get(code2, 0) + val * w
        for i, v in project(img).items():
            cols[j][i] = v
    return cols


@pytest.mark.parametrize("name", zoo.ZOO_NAMES)
def test_sbi_maps_match_the_replaced_loops(name):
    """map_I, map_S and map_Bconn at every degree that sbi_check reads, on
    the bar complex, which the oracles read (_bar keeps it for A2, A3 and
    cubic, whose cyclic data is a Morse complex)."""
    n_max = 5
    data = CyclicData(zoo.get(name), n_max, _bar=True)
    for n in range(n_max):
        assert data.map_I(n) == _oracle_map_I(data, n)
        if n >= 2:
            assert data.map_S(n) == _oracle_map_S(data, n)
        if n + 1 <= n_max - 1:
            assert data.map_Bconn(n) == _oracle_map_Bconn(data, n)


@pytest.mark.parametrize("name", zoo.ZOO_NAMES)
def test_tor_actions_match_the_replaced_loop(name, monkeypatch):
    """The outer actions on Tor^A(A, A), and on Tor_0..Tor_2 of every pair
    of one-dimensional simple bimodules of a quiver algebra, equal what the
    replaced loop computes from the same representatives and projection."""
    a = zoo.get(name)
    digits = []
    on_digit = algebras._on_digit

    def spy_on_digit(g, weight, size, reps, project):
        out = on_digit(g, weight, size, reps, project)
        digits.append((g, weight, size, reps, project, out))
        return out

    monkeypatch.setattr(algebras, "_on_digit", spy_on_digit)
    reg = regular_bimodule(a)
    cases = [(reg, reg, 1)]
    if presentation(a) is not None:
        simples = [_simples(a, [v]) for v in presentation(a).vertices]
        cases += [(x, y, 2) for x in simples for y in simples]
    actions = []
    for x, y, bound in cases:
        for tor in derived_tensor(x, y, bound=bound):
            actions += tor.left + tor.right
    assert len(digits) == len(actions) > 0
    for (g, weight, size, reps, project, out), got in zip(digits, actions):
        assert out is got
        assert got == _oracle_on_homology(g, reps, project, weight, size)


# ---------------------------------------------------------------------------
# the ground algebra E from the unit's idempotent terms, against Q.1


def _matrix_algebra(n):
    """M_n(Q) by structure constants: e_ij e_kl = [j = k] e_il."""
    basis = ["e%d%d" % (i, j) for i in range(1, n + 1)
             for j in range(1, n + 1)]
    products = [(x, y, {"e%s%s" % (x[1], y[2]): 1} if x[2] == y[1] else {})
                for x in basis for y in basis]
    return structure_algebra("M%d(Q)" % n, basis,
                             {"e%d%d" % (i, i): 1 for i in range(1, n + 1)},
                             products)


MONOMIAL_SCALES = [1, -1, 2, -3, Fraction(1, 2), Fraction(-2, 3),
                   Fraction(1, 3), Fraction(-3, 2)]


@st.composite
def monomial_copies(draw):
    """(builder, scales, perm): builder() makes M2(Q), M3(Q), a product of
    fields or a tensor product of two small quiver algebras, of dimension
    <= 12, and _rescaled(builder(), scales, perm) is it in a permuted basis
    scaled by signs and rationals of size <= 3."""
    kind = draw(st.sampled_from(["M2", "M3", "fields", "tensor"]))
    if kind == "tensor":
        x, y = draw(quiver_algebras()), draw(quiver_algebras())
        assume(x.dim * y.dim <= 12)
        build = lambda: tensor_algebra(x, y)
    elif kind == "fields":
        k = draw(st.integers(2, 4))
        build = lambda: zoo.product_of_fields(k)
    else:
        build = lambda n=int(kind[1]): _matrix_algebra(n)
    dim = build().dim
    perm = draw(st.permutations(range(dim)))
    scales = draw(st.lists(st.sampled_from(MONOMIAL_SCALES), min_size=dim,
                           max_size=dim))
    return build, scales, perm


def _unit_corner(a, u, w):
    """A e_u (x) e_w A for the unit's terms e_u = unit[u] b_u and
    e_w = unit[w] b_w, read off the products: the basis pairs (p, q) with
    b_p e_u = b_p and e_w b_q = b_q."""
    eu, ew = {u: a.unit[u]}, {w: a.unit[w]}
    lefts = [k for k in range(a.dim) if a.mult_vec({k: 1}, eu) == {k: 1}]
    rights = [k for k in range(a.dim) if a.mult_vec(ew, {k: 1}) == {k: 1}]
    pairs = [(p, q) for p in lefts for q in rights]
    pos = {pq: n for n, pq in enumerate(pairs)}
    d = len(pairs)
    left = [[{pos[(k, q)]: v for k, v in a.mult_basis(x, p).items()}
             for p, q in pairs] for x in range(a.dim)]
    right = [[{pos[(p, k)]: v for k, v in a.mult_basis(q, y).items()}
              for p, q in pairs] for y in range(a.dim)]
    return Bimodule(a, a, d, left, right, name="Ae%d(x)e%dA" % (u, w))


def _oracle_degree(a):
    """The largest n_max <= 4, and >= 2, whose complex over Q.1 has at most
    4000 chains."""
    n = 2
    while n < 4 and sum(a.dim * (a.dim - 1) ** k
                        for k in range(n + 2)) <= 4000:
        n += 1
    return n


def _tor_outcome(alg, x, y, terms, cap, hh_cap):
    """The _tor_table of Tor_0, Tor_1 of x and y under the memory guard
    hh_cap, or ("refused", needed) when the memory guard cap refuses the
    derived tensor's complex."""
    try:
        tors = derived_tensor(x, y, bound=1, cap=cap)
    except CapExceededError as refused:
        return ("refused", refused.needed)
    return _tor_table(alg, tors, terms, None, hh_cap)


def _assert_ground_matches_q1(build, scales, perm, pairs, hh_cap=DEFAULT_CAP):
    """In a permuted, rescaled basis the rule still finds the ground from
    the unit's terms (whenever the unit has two or more), its terms are
    orthogonal idempotents with every basis element in one corner, and HH,
    HC and Tor of the corner bimodules A e_u (x) e_w A for the given pairs
    of pairs ((u, w), (u', w')) of unit terms (dimensions, graded by the
    terms, and HH_0, HH_1 with those coefficients, or the refusal of the
    memory guard hh_cap) equal the complexes over Q.1.  The relative
    complex of a derived tensor has a subset of the chains over Q.1, so
    the oracle builds its complex without a guard where the relative one
    was admitted, and where the relative one was refused, the oracle's
    must be refused too, needing at least as many chains.  Returns the Tor
    outcomes."""
    r = _rescaled(build(), scales, perm)
    corners = _basis_ground(r)
    assert (corners is None) == (len(r.unit) < 2)
    terms = sorted(r.unit)
    if corners is not None:
        e = {v: {v: c} for v, c in r.unit.items()}
        for u in terms:
            for w in terms:
                assert r.mult_vec(e[u], e[w]) == (e[u] if u == w else {})
        for j, (u, w) in enumerate(corners):
            for v in terms:
                assert r.mult_vec(e[v], {j: 1}) == ({j: 1} if v == u else {})
                assert r.mult_vec({j: 1}, e[v]) == ({j: 1} if v == w else {})
    n_max = _oracle_degree(r)
    cases = [(_unit_corner(r, *x), _unit_corner(r, *y)) for x, y in pairs]
    hh = hochschild_homology(r, n_max=n_max).dims
    hc = cyclic_homology(r, n_max).dims
    tors = [_tor_outcome(r, x, y, terms, DEFAULT_CAP, hh_cap)
            for x, y in cases]
    flat = _rescaled(build(), scales, perm)
    with _over_q1():
        assert hochschild_homology(r, n_max=n_max).dims == hh
        assert cyclic_homology(flat, n_max).dims == hc
        oracle = [_tor_outcome(r, x, y, terms,
                               DEFAULT_CAP if got[0] == "refused" else None,
                               hh_cap)
                  for (x, y), got in zip(cases, tors)]
    for got, want in zip(tors, oracle):
        if got[0] == "refused":
            assert want[0] == "refused" and want[1] >= got[1], (got, want)
        else:
            assert got == want, (got, want)
    return tors


@settings(deadline=None, max_examples=25)
@given(monomial_copies(), st.data())
def test_ground_from_the_unit_matches_the_q1_oracle(drawn, data):
    build, scales, perm = drawn
    pick = st.sampled_from(sorted(_rescaled(build(), scales, perm).unit))
    pairs = [(data.draw(st.tuples(pick, pick)), data.draw(st.tuples(pick, pick)))
             for _ in range(2)]
    _assert_ground_matches_q1(build, scales, perm, pairs)


def _one_vertex(k):
    """Q<x_0, ..., x_(k-1)> truncated above path length 1, of dimension k + 1
    with the single unit term b_0."""
    return path_algebra(
        Quiver(["0"], [("x%d" % i, "0", "0") for i in range(k)]), (), 1)


def test_a_refused_tor_coefficient_is_an_outcome_on_both_sides():
    """Q<x_0, x_1> truncated above length 1 has the single unit term b_0
    (at position 1 of this permuted basis), so its corner bimodule is
    A (x) A and Tor_0 of two of them is A (x) A (x) A, of dimension 27.
    HH with that coefficient over Q.1 needs 27 * (1 + 2 + 4) = 189 chains,
    so a memory guard of 188 on the HH of the Tor outputs (the derived
    tensor keeps the default guard) refuses it on both sides, which the
    comparison records instead of raising."""
    tors = _assert_ground_matches_q1(lambda: _one_vertex(2), [-1, 2, 1],
                                     [2, 0, 1], [((1, 1), (1, 1))],
                                     hh_cap=188)
    assert tors == [[(27, [27], ("refused", 189)), (0, [0], [0, 0])]]


def test_a_refused_derived_tensor_is_an_outcome_on_both_sides():
    """A 12-dimensional tensor product of one-vertex algebras has the single
    unit term b_0 (at position 2 of this permuted basis), so its corner
    bimodule is A (x) A, and the complex of Tor_0, Tor_1 of two of them
    needs 144 * 144 * (1 + 11 + 121) = 2757888 chains over Q.1.  The
    derived tensor is refused on both sides before any chain is listed,
    which the comparison records instead of raising."""
    build = lambda: tensor_algebra(_one_vertex(2), _one_vertex(3))
    perm = [3, 6, 0, 4, 8, 11, 2, 9, 5, 1, 7, 10]
    tors = _assert_ground_matches_q1(build, (MONOMIAL_SCALES * 2)[:12], perm,
                                     [((2, 2), (2, 2))])
    assert tors == [("refused", 2757888)]


def test_bases_that_hide_the_ground_fall_back_to_q1():
    """A unitriangular change of basis, a basis element e12 + e21 that
    straddles two corners, one that straddles them on one side only
    (e21 + e22) and unit terms that are idempotent basis elements but not
    orthogonal ones ((1,1,0) + (0,1,1) - (0,1,0) in Q^3) leave no ground
    from the unit's terms: every complex is taken over Q.1, with the same
    homology."""
    m2, q3 = zoo.get("M2(Q)"), zoo.get("QxQxQ")
    e11, e12, e21, e22 = ({k: 1} for k in range(4))
    cases = [(a, _in_basis(a, [{i: 1 for i in range(j + 1)}
                               for j in range(a.dim)], a.name + "'"))
             for a in (m2, zoo.get("A2"), q3, zoo.get("square"))]
    cases += [(m2, _in_basis(m2, [e11, e22, {1: 1, 2: 1}, {1: 1, 2: -1}],
                             "M2(Q) straddled")),
              (m2, _in_basis(m2, [e11, e12, {2: 1, 3: 1}, e22],
                             "M2(Q) straddled on one side")),
              (q3, _in_basis(q3, [{0: 1, 1: 1}, {1: 1, 2: 1}, {1: 1}],
                             "Q^3 overlapping"))]
    assert len(cases[-1][1].unit) == 3
    for a, hidden in cases:
        assert _basis_ground(hidden) is None, hidden.name
        mixed = TruncatedMixedComplex(hidden, 3)
        assert set(mixed.red.units) == {None}
        assert mixed.dims == [a.dim * (a.dim - 1) ** n for n in range(4)]
        assert (hochschild_homology(hidden, n_max=3).dims
                == hochschild_homology(a, n_max=3).dims)
        assert cyclic_homology(hidden, 3).dims == cyclic_homology(a, 3).dims


def test_tensor_products_of_grounded_algebras_reach_hp():
    """A2 (x) A2 and M2(Q) (x) A2 take the complex relative to their
    e_i (x) e_j, so HP at n_max 6 has the nil-invariant value; over Q.1 the
    memory guard refused both.  A2 (x) A2 has a presentation (its e_i (x) e_j
    and a radical rest), so its global dimension 2 certifies the value;
    M2(Q) (x) A2 has none (e12 (x) e_1 is not radical) and stays
    WINDOW-STABLE."""
    a2, m2 = zoo.get("A2"), zoo.get("M2(Q)")
    for left, want, needed in ((a2, ("CERTIFIED", (4, 0)), 2696337),
                               (m2, ("WINDOW-STABLE", (2, 0)), 23384604)):
        hp = periodic_cyclic(tensor_algebra(left, a2), 6)
        assert (hp.certificate, hp.super_dims) == want
        with _over_q1(), pytest.raises(CapExceededError) as refused:
            periodic_cyclic(tensor_algebra(left, a2), 6)
        assert refused.value.needed == needed


# ---------------------------------------------------------------------------
# the common denominator of the mixed complex, and homology spaces seeded
# with the boundary echelon form


@st.composite
def rational_copies(draw):
    """(r, n_max): a quiver algebra with at most two arrows, the dual
    numbers, Q[x]/x^3, M2(Q), M3(Q) or a product of fields (dimension
    <= 9), in a permuted basis scaled by signs and rationals, and a
    truncation 2 <= n_max <= 5 whose complex over Q.1 has at most 3000
    chains."""
    kind = draw(st.sampled_from(["quiver", "dual", "cubic", "M2", "M3",
                                 "fields"]))
    if kind == "quiver":
        a = draw(quiver_algebras(max_arrows=2))
    elif kind in ("dual", "cubic"):
        a = zoo.get(kind)
    elif kind == "fields":
        a = zoo.product_of_fields(draw(st.integers(2, 4)))
    else:
        a = _matrix_algebra(int(kind[1]))
    perm = draw(st.permutations(range(a.dim)))
    scales = draw(st.lists(st.sampled_from(MONOMIAL_SCALES), min_size=a.dim,
                           max_size=a.dim))
    n_max = draw(st.integers(2, 5))
    while n_max > 2 and sum(a.dim * (a.dim - 1) ** k
                            for k in range(n_max + 1)) > 3000:
        n_max -= 1
    return _rescaled(a, scales, perm), n_max


def _fraction_cyclic_data(a, n_max):
    """CyclicData of a whose mixed complex holds b and B as
    hochschild_columns and connes_columns give them: the reference for the
    scaled complex."""
    mx = TruncatedMixedComplex.__new__(TruncatedMixedComplex)
    mx.n_max = n_max
    m = regular_bimodule(a)
    mx.red, mx.dims, mx.chains = _chain_basis(m, n_max, _relative_ends(m),
                                              DEFAULT_CAP)
    b, mx.B = _fraction_columns(mx, a)
    mx.b = [None] + b
    data = CyclicData.__new__(CyclicData)
    data.n_max, data.mixed = n_max, mx
    data.hh, data.tot = mx.hochschild_chain_complex(), mx.tot_complex()
    return data


@settings(deadline=None, max_examples=30)
@given(rational_copies())
@example((_in_basis(zoo.get("cubic"), [{0: 1}, {1: 1, 2: Fraction(1, 2)},
                                        {2: 2}], "cubic-rational"), 4))
def test_scaled_mixed_complex_matches_the_fraction_columns(drawn):
    """D.b and D.B are D times the Fraction columns entry by entry, on ints,
    and map_I, map_S and map_Bconn equal the maps read on the Fraction
    columns.  The pinned example is Q[x]/x^3 in the basis 1, x + x^2/2,
    2x^2 (D = 2, and map_Bconn is nonzero)."""
    r, n_max = drawn
    data = CyclicData(r, n_max)
    ref = _fraction_cyclic_data(r, n_max)
    mx, D = data.mixed, data.mixed.denominator
    b, B = ref.mixed.b[1:], ref.mixed.B
    assert D == _denominator(b + B)
    for scaled, cols in zip(mx.b[1:] + mx.B, b + B):
        assert scaled == [{i: D * v for i, v in col.items()} for col in cols]
        assert all(type(v) is int for col in scaled for v in col.values())
    for n in range(n_max):
        assert data.map_I(n) == _oracle_map_I(ref, n)
        if n >= 2:
            assert data.map_S(n) == _oracle_map_S(ref, n)
        if n + 1 <= n_max - 1:
            assert data.map_Bconn(n) == _oracle_map_Bconn(ref, n)


def _oracle_homology_space(self, n, candidates=()):
    """ChainComplex.homology_space before it started from the boundary
    echelon form, verbatim (uncached)."""
    h = self.homology_dim(n)
    span = Elimination(track=True)
    nb = 0
    if n + 1 <= self.top:
        for col in self.diffs[n + 1]:
            span.add_column(col, nb)
            nb += 1
    reps = []

    def try_rep(z):
        if span.add_column(z, nb + len(reps)):
            reps.append(dict(z))

    for z in candidates:
        if len(reps) == h:
            break
        if self.is_cycle(n, z):
            try_rep(z)
    if len(reps) < h:
        for z in self.cycles_lazy(n):
            if len(reps) == h:
                break
            try_rep(z)
    if len(reps) != h:
        raise InvariantError("could not extract a homology basis at "
                             "degree %d" % n)

    def project(vec):
        coeffs = span.solve(vec)
        if coeffs is None:
            raise InvariantError("vector is not a cycle-mod-boundary "
                                 "combination at degree %d" % n)
        return {t - nb: c for t, c in coeffs.items() if t >= nb}

    return reps, project


def _oracle_boundary_elim(self, n):
    """ChainComplex.boundary_elim before the row pass, verbatim
    (uncached)."""
    if n < 1 or n > self.top:
        elim = Elimination()
    else:
        elim = Elimination()
        for col in self.diffs[n]:
            elim.add_column(col)
    return elim


def _fed_columns(build):
    """(result of build(), the Eliminations fed while it ran, each with the
    number of columns it was fed, in the order they were first fed)."""
    fed = {}
    add_column = Elimination.add_column

    def counted(elim, col, index=None):
        entry = fed.setdefault(id(elim), [elim, 0])
        entry[1] += 1
        return add_column(elim, col, index)

    with mock.patch.object(Elimination, "add_column", counted):
        result = build()
    return result, [tuple(entry) for entry in fed.values()]


COEFFS = st.sampled_from([1, -1, 2, Fraction(1, 2), Fraction(-2, 3)])


def _assert_seeded_spaces_match(cx, candidates, data):
    """At every degree of a fresh copy of cx, the rank of d_n is the rank
    of all of its columns, and the boundary elimination, fed only its
    rank's worth of columns, spans (its reversed coordinates mapped back)
    what the replaced route spans; at every certified degree,
    homology_space has the replaced route's representatives and projection
    (on cycle + boundary combinations drawn from data), and leaves the
    cached boundary elimination as it was."""
    fresh = ChainComplex(cx.dims, cx.diffs, check=False)
    old = ChainComplex(cx.dims, cx.diffs, check=False)
    for n in range(cx.top):
        bound, fed = _fed_columns(lambda: fresh.boundary_elim(n + 1))
        rows = cx.dims[n]
        assert fresh.rank(n + 1) == bound.rank == matrix_rank(cx.diffs[n + 1])
        assert (LinSubspace(rows, [{rows - 1 - i: v for i, v in p.items()}
                                   for p in bound.pivots.values()])
                == LinSubspace(rows, _oracle_boundary_elim(old, n + 1)
                               .pivots.values()))
        assert sum(k for elim, k in fed if elim is bound) == bound.rank
        before = ({k: dict(v) for k, v in bound.pivots.items()}, bound.rank,
                  list(bound.pivot_cols))
        reps, project = fresh.homology_space(n, candidates(n))
        assert fresh.boundary_elim(n + 1) is bound
        assert ({k: dict(v) for k, v in bound.pivots.items()}, bound.rank,
                list(bound.pivot_cols)) == before
        old_reps, old_project = _oracle_homology_space(old, n, candidates(n))
        assert reps == old_reps
        boundaries = cx.diffs[n + 1]
        for _ in range(2):
            vec = {}
            for z in reps:
                vec_addmul(vec, data.draw(COEFFS), z)
            if boundaries:
                for _ in range(3):
                    j = data.draw(st.integers(0, len(boundaries) - 1))
                    vec_addmul(vec, data.draw(COEFFS), boundaries[j])
            assert project(vec) == old_project(vec)


def _derived_complexes(x, y, bound):
    """The chain complexes that derived_tensor(x, y, bound) builds."""
    built = []

    def record(*args, **kwargs):
        built.append(ChainComplex(*args, **kwargs))
        return built[-1]

    with mock.patch.object(algebras, "ChainComplex", record):
        derived_tensor(x, y, bound=bound)
    return built


@settings(deadline=None, max_examples=25)
@given(rational_copies(), quiver_algebras(max_arrows=2), st.data())
def test_seeded_homology_space_matches_the_replaced_route(drawn, q, data):
    """On HH and Tot of a rational copy (Tot with its C_0 candidates) and on
    the complex of Tor^Q(S, S), S the sum of a quiver algebra's simple
    bimodules, the ranks from the row side, the boundary spans fed only
    their lead columns, and the homology spaces built on the cached
    boundary echelon form equal those of the replaced routes."""
    r, n_max = drawn
    cyc = CyclicData(r, min(n_max, 4))
    _assert_seeded_spaces_match(cyc.hh, lambda n: (), data)
    _assert_seeded_spaces_match(cyc.tot, cyc._unit_candidates, data)
    s = _simples(q, presentation(q).vertices)
    for cx in _derived_complexes(s, s, 2):
        _assert_seeded_spaces_match(cx, lambda n: (), data)


# ---------------------------------------------------------------------------
# boundary ranks from the row side, with the leads one degree down cleared

CUBIC = DEMO_ALGEBRAS / "cubic.json"


@settings(deadline=None, max_examples=3)
@given(st.data())
def test_cubic_tot_homology_space_matches_the_replaced_route(data):
    """The same comparison on the bar complex's Tot of Q[x]/x^3 at n_max 8
    (_bar; its cyclic data is a Morse complex) with its C_0 candidates,
    where most kernel vectors are boundaries."""
    cyc = CyclicData(load_algebra(str(CUBIC)), 8, _bar=True)
    _assert_seeded_spaces_match(cyc.tot, cyc._unit_candidates, data)


def test_row_pass_skips_the_leads_one_degree_down():
    """On the bar complex's Tot of Q[x]/x^3 at n_max 8 (_bar) the row pass
    of d_n skips its rows at the rank(n - 1) leads of the row echelon form
    one degree down and is fed the other nonzero rows, and the boundary
    elimination is fed exactly rank(n) columns (the replaced route fed all
    dims[n] of them)."""
    tot = CyclicData(load_algebra(str(CUBIC)), 8, _bar=True).tot
    cx = ChainComplex(tot.dims, tot.diffs, check=False)
    assert cx.dims == [3, 6, 15, 30, 63, 126, 255, 510, 1023]
    skipped, rows_fed, cols_fed = [], [], []
    for n in range(1, cx.top + 1):
        cleared = set(cx.boundary_elim(n - 1).pivot_cols)
        bound, fed = _fed_columns(lambda: cx.boundary_elim(n))
        rows = sum(k for elim, k in fed if elim is not bound)
        nonzero = {i for col in cx.diffs[n] for i in col}
        assert rows == len(nonzero - cleared)
        skipped.append(len(cleared))
        rows_fed.append(rows)
        cols_fed.append(sum(k for elim, k in fed if elim is bound))
    ranks = [cx.rank(n) for n in range(1, cx.top + 1)]
    assert ranks == [0, 6, 6, 24, 36, 90, 162, 348]
    assert skipped == [0] + ranks[:-1]
    assert rows_fed == [0, 6, 8, 24, 38, 90, 164, 348]
    assert cols_fed == ranks


def test_a_dependent_lead_column_is_refused_and_caches_nothing():
    """A row pass whose lead set gains a column that depends on the leads
    makes boundary_elim raise InvariantError and leaves the cached
    eliminations as they were."""
    tot = CyclicData(load_algebra(str(CUBIC)), 8, _bar=True).tot
    cx = ChainComplex(tot.dims, tot.diffs, check=False)
    cx.boundary_elim(7)
    before = dict(cx._elims)
    row_leads = ChainComplex._row_leads

    def with_a_dependent_column(self, n, cleared):
        leads = row_leads(self, n, cleared)
        return leads + [max(set(range(self.dims[n])) - set(leads))]

    with mock.patch.object(ChainComplex, "_row_leads",
                           with_a_dependent_column):
        with pytest.raises(InvariantError, match="row echelon lead"):
            cx.boundary_elim(8)
    assert cx._elims == before
    assert cx.rank(8) == 348


def _calls(build, *names):
    """(result of build(), {name: the degrees the ChainComplex method name
    was called with while build ran})."""
    calls = {name: [] for name in names}

    def recorder(name, method):
        def recorded(self, n, *args, **kwargs):
            calls[name].append(n)
            return method(self, n, *args, **kwargs)
        return recorded

    with contextlib.ExitStack() as stack:
        for name in names:
            stack.enter_context(mock.patch.object(
                ChainComplex, name,
                recorder(name, getattr(ChainComplex, name))))
        result = build()
    return result, calls


def test_ranks_feed_no_column_pass():
    """HH and HC of Q[x]/x^3 at n_max 8 read every rank from the row pass:
    no boundary span is built and no differential's columns are
    eliminated."""
    a = load_algebra(str(CUBIC))
    for build in (lambda: hochschild_homology(a, n_max=8),
                  lambda: cyclic_homology(a, n_max=8)):
        (_, fed), calls = _calls(
            lambda: _fed_columns(build), "boundary_elim", "cycles_lazy",
            "homology_space")
        assert fed
        assert calls == {"boundary_elim": [], "cycles_lazy": [],
                         "homology_space": []}
    assert hochschild_homology(a, n_max=8).dims == [3] + [2] * 7
    assert cyclic_homology(a, n_max=8).dims == [3, 0] * 4


def test_homology_space_feeds_only_new_classes():
    """On HH and Tot of Q[x]/x^3 at n_max 8, on the bar complex (_bar), the
    span homology_space starts from the boundaries receives the candidate
    cycles it tries and then h kernel vectors of cycles_lazy, each of which
    becomes a pivot at once: a kernel vector whose largest index is a lead
    of the span is never fed, although cycles_lazy yields many."""
    cyc = CyclicData(load_algebra(str(CUBIC)), 8, _bar=True)
    modulo, add_column = Elimination.modulo.__func__, Elimination.add_column
    skipped = 0
    for cx, candidates in ((cyc.hh, lambda n: ()),
                           (cyc.tot, cyc._unit_candidates)):
        for n in range(cx.top):
            cx.boundary_elim(n + 1)
            h = cx.homology_dim(n)
            spans, fed = [], []

            def started(cls, base):
                spans.append(modulo(cls, base))
                return spans[-1]

            def counted(elim, col, index=None):
                new = add_column(elim, col, index)
                if spans and elim is spans[0]:
                    fed.append((col, new))
                return new

            with mock.patch.object(Elimination, "modulo",
                                   classmethod(started)), \
                    mock.patch.object(Elimination, "add_column", counted):
                (reps, _), calls = _calls(
                    lambda: cx.homology_space(n, candidates(n)),
                    "cycles_lazy")
            tried = []
            for z in candidates(n):
                if len([c for c in tried if c in reps]) == h:
                    break
                if cx.is_cycle(n, z):
                    tried.append(z)
            from_candidates = [z for z in reps if z in tried]
            rows = cx.dims[n]
            assert ([col for col, _ in fed]
                    == [{rows - 1 - i: v for i, v in z.items()}
                        for z in tried + reps[len(from_candidates):]])
            assert all(new for _, new in fed[len(tried):])
            assert len(fed) == len(tried) + h - len(from_candidates)
            if calls["cycles_lazy"]:
                yielded = [max(z) for z in cx.cycles_lazy(n)]
                last = yielded.index(max(reps[-1]))
                skipped += last + 1 - (h - len(from_candidates))
    assert skipped > 0


# ---------------------------------------------------------------------------
# truncated quiver algebras kQ / J^(t+1), t >= 2: the Morse complex of the
# (b, B) totalization against the bar complex


@st.composite
def truncated_quivers(draw):
    """(quiver, t): 1-3 vertices and 1-3 arrows, loops and 2-cycles
    included, truncated at t in {2, 3}, with no relation."""
    vertices = [str(v) for v in range(draw(st.integers(1, 3)))]
    ends = st.tuples(st.sampled_from(vertices), st.sampled_from(vertices))
    arrows = [("x%d" % i, s, t) for i, (s, t) in
              enumerate(draw(st.lists(ends, min_size=1, max_size=3)))]
    return Quiver(vertices, arrows), draw(st.integers(2, 3))


def _on_the_bar_route(a, n_max, cap):
    """a with its cyclic_data memo seeded at (n_max, cap) with the bar
    complex (_bar), so that cyclic_homology, sbi_check and periodic_cyclic
    read the bar route."""
    a._cyclic[(n_max, cap)] = CyclicData(a, n_max, cap, _bar=True)
    return a


def _hp_fields(hp):
    details = {k: v for k, v in hp.details.items() if k != "s_iso_verified"}
    return hp.even, hp.odd, hp.r0, hp.certificate, details


@settings(deadline=None, max_examples=60)
@given(truncated_quivers(), st.integers(4, 6))
@example((Quiver(["1"], [("x", "1", "1")]), 2), 6)
@example((Quiver(["1", "2"], [("x", "1", "2"), ("y", "2", "1"),
                              ("z", "1", "1")]), 3), 6)
def test_morse_route_matches_the_bar_route(drawn, n_max):
    """HH and HC dimensions, every SBIReport entry and the HPResult
    (dimensions, r0, certificate and the rest of details) of a truncated
    quiver algebra are those of the bar route, guard permitting; a
    stabilized HP is the nil-invariant value.  The route is taken exactly
    when the quiver has an oriented cycle: with at most 3 vertices and
    t >= 2 that is when the bar complex has a chain of degree 1."""
    quiver, t = drawn
    cap = 6000
    a = path_algebra(quiver, truncation=t)
    while True:
        try:
            data = cyclic_data(a, n_max, cap)
            break
        except CapExceededError:
            assume(n_max > 2)
            n_max -= 1
    bar = CyclicData(a, n_max, cap, _bar=True)
    assert (data.reduction is None) == (bar.hh.dims[1] == 0)
    assert hochschild_homology(a, n_max=n_max, cap=cap).dims \
        == bar.hh_dims() == data.hh_dims()
    assert cyclic_homology(a, n_max, cap).dims == bar.hc_dims()
    b = _on_the_bar_route(path_algebra(quiver, truncation=t), n_max, cap)
    morse_sbi, bar_sbi = sbi_check(a, n_max, cap), sbi_check(b, n_max, cap)
    assert (morse_sbi.hh, morse_sbi.hc, morse_sbi.entries,
            morse_sbi.all_exact) == (bar_sbi.hh, bar_sbi.hc, bar_sbi.entries,
                                     bar_sbi.all_exact)
    assert morse_sbi.all_exact
    if n_max >= 4:
        hp = periodic_cyclic(a, n_max, cap)
        assert _hp_fields(hp) == _hp_fields(periodic_cyclic(b, n_max, cap))
        if hp.certificate != "NOT-STABILIZED":
            assert hp.super_dims == hp_nil_invariant(a)


@pytest.mark.parametrize("m", [3, 5])
def test_hh_of_a_truncated_polynomial_ring(m):
    """HH_n(Q[x]/x^m) = m - 1 for 1 <= n <= 12 (and HH_0 = m), read from
    the Morse complex with no guard: the bar complex of Q[x]/x^5 at n_max
    13 has 447392425 chains."""
    a = path_algebra(Quiver(["1"], [("x", "1", "1")]), truncation=m - 1)
    assert hochschild_homology(a, n_max=13, cap=None).dims == \
        [m] + [m - 1] * 12
    hp = periodic_cyclic(a, 8, cap=None)
    assert hp.super_dims == hp_nil_invariant(a) == (1, 0)


def test_cubic_at_degree_15_walks_without_recursion():
    """Q[x]/x^3 at n_max 15 fits the default guard (196605 chains), and
    the walk keeps its own stack: HH and HC come out with the recursion
    limit a few dozen frames above the caller's."""
    import inspect
    import sys
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack()) + 60)
    try:
        hh = hochschild_homology(zoo.truncated_cubic(), n_max=15)
        hc = cyclic_homology(zoo.truncated_cubic(), n_max=15)
    finally:
        sys.setrecursionlimit(limit)
    assert hh.dims == [3] + [2] * 14
    assert hc.dims == [3, 0] * 7 + [3]


def test_acyclic_quivers_keep_the_bar_complex_and_never_load_morse():
    """A2 and A3 have no relative chain above degree 0, so their bar
    complex is already minimal: HH, HC, SBI and HP read it and the morse
    module is never loaded; Q[x]/x^3 loads it."""
    def loads_morse(build):
        return _fresh_python(
            "from ncmotives import hochschild, zoo\n"
            "a = zoo.%s()\n"
            "hochschild.hochschild_homology(a, n_max=6)\n"
            "hochschild.sbi_check(a, 6)\n"
            "hochschild.periodic_cyclic(a, 6)\n"
            "import sys\n"
            "print('ncmotives.morse' in sys.modules)\n" % build) == "True"
    assert not loads_morse("a2_algebra") and not loads_morse("a3_algebra")
    assert loads_morse("truncated_cubic")
    assert cyclic_data(zoo.a3_algebra(), 8).reduction is None


def _fresh_python(code):
    """The last line that code prints in a fresh interpreter."""
    import os
    import subprocess
    import sys
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    r = subprocess.run([sys.executable, "-c", code], capture_output=True,
                       text=True, env=env)
    assert r.returncode == 0, r.stderr
    return r.stdout.splitlines()[-1]


def test_morse_route_reads_the_bar_complex_only_when_asked():
    """sbi_check and periodic_cyclic of Q[x]/x^3 build no bar complex; the
    Chern class of the unit does, and its cycle, read through Phi, has a
    nonzero class, as on the bar route."""
    cubic = zoo.truncated_cubic()
    built = []
    init = TruncatedMixedComplex.__init__

    def spy(self, *args, **kwargs):
        built.append(args[0].name)
        init(self, *args, **kwargs)

    with mock.patch.object(TruncatedMixedComplex, "__init__", spy):
        sbi_check(cubic, 6)
        periodic_cyclic(cubic, 6)
        assert built == []
        cls, n_even = chern_class_in_hc([[cubic.unit]], cubic, n_max=6)
    assert built == [cubic.name] and n_even == 4
    assert cls and matrix_rank([cls]) == 1
    bar = _on_the_bar_route(zoo.truncated_cubic(), 6, DEFAULT_CAP)
    assert bool(chern_class_in_hc([[bar.unit]], bar, n_max=6)[0])


def test_hp_of_homomorphism_brings_the_bar_complex_back_through_phi(
        monkeypatch):
    """An algebra on the Morse route has an oriented cycle, so infinite
    global dimension, and hp_of_homomorphism refuses it; with a CERTIFIED
    HP stubbed in for Q[x]/x^3, the identity is read on its bar complex and
    brought back through Phi to the identity on the Morse HC classes."""
    cubic = zoo.truncated_cubic()
    with pytest.raises(UncertifiedError):
        hp_of_homomorphism(identity_cols(cubic.dim), cubic, cubic, n_max=6)

    def certified(a, n_max=6, cap=DEFAULT_CAP):
        return hochschild.HPResult(1, 0, 1, "CERTIFIED", n_max)

    monkeypatch.setattr(hochschild, "periodic_cyclic", certified)
    even, odd = hp_of_homomorphism(identity_cols(cubic.dim), cubic, cubic,
                                   n_max=6)
    assert cyclic_data(cubic, 6).reduction is not None
    assert (even, odd) == (identity_cols(3), [])


def test_cubic_payloads_match_its_structure_constants(tmp_path):
    """hh, hc, sbi and hp of demos/algebras/cubic.json (the Morse route)
    and of the same algebra written as structure constants (the bar route)
    print the same structured payloads apart from the name."""
    a = load_algebra(str(DEMO_ALGEBRAS / "cubic.json"))
    doc = {"kind": "structure_constants", "name": "cubic by constants",
           "basis": a.basis,
           "unit": {a.basis[i]: str(c) for i, c in a.unit.items()},
           "products": [[a.basis[i], a.basis[j],
                         {a.basis[k]: str(c)
                          for k, c in a.mult_basis(i, j).items()}]
                        for i in range(a.dim) for j in range(a.dim)]}
    constants = tmp_path / "cubic_constants.json"
    constants.write_text(json.dumps(doc))
    assert load_algebra(str(constants)).truncated_quiver is None
    for command in ("hh", "hc", "sbi", "hp"):
        for degree in ("4", "8"):
            payloads = []
            for path in (DEMO_ALGEBRAS / "cubic.json", constants):
                out = io.StringIO()
                with contextlib.redirect_stdout(out):
                    assert cli.main([command, "--input", str(path),
                                     "--max-degree", degree,
                                     "--format", "structured"]) == 0
                payload = json.loads(out.getvalue())
                payload.pop("algebra")
                payloads.append(payload)
            assert payloads[0] == payloads[1], (command, degree)


def _cubic_codes():
    """Chain codes of Q[x]/x^3 over Q.1: basis e_1, x, x*x (indices 0, 1,
    2), Abar spanned by x, x*x (letters 0, 1), so a_0 (x) w has the code
    a_0 * 2^n + (the base-2 digits of w)."""
    def code(a0, *word):
        return _word_code(word, 2) + a0 * 2 ** len(word)
    return code


def test_a_flipped_B_column_is_refused_at_its_degree(monkeypatch):
    """The sign of the first B column the reduction reads, flipped, breaks
    bB + Bb = 0 on that chain, and the walk refuses it before using it,
    naming the chain's degree."""
    from ncmotives import morse
    reader, reads = morse.connes_column_reader, []

    def spy(red, n):
        column = reader(red, n)
        return lambda code: reads.append((n, code)) or column(code)

    monkeypatch.setattr(morse, "connes_column_reader", spy)
    cyclic_homology(zoo.truncated_cubic(), 6)
    degree, flipped = reads[0]

    def with_a_flip(red, n):
        column = reader(red, n)
        if n != degree:
            return column
        return lambda code: ({c: -v for c, v in column(code).items()}
                             if code == flipped else column(code))

    monkeypatch.setattr(morse, "connes_column_reader", with_a_flip)
    with pytest.raises(InvariantError,
                       match=r"^bB \+ Bb != 0 at degree %d$" % degree):
        cyclic_homology(zoo.truncated_cubic(), 6)


def test_a_matched_coefficient_of_2_is_refused(monkeypatch):
    """b(1 (x) x (x) x) = 2 x (x) x - 1 (x) x^2: matching x (x) x with
    1 (x) x (x) x, whose coefficient on it is 2, is refused."""
    from ncmotives import morse
    code = _cubic_codes()
    match = morse.MorseReduction._match

    def with_a_2(self, n, c):
        if (n, c) == (1, code(1, 0)):
            return code(0, 0, 0)
        return match(self, n, c)

    monkeypatch.setattr(morse.MorseReduction, "_match", with_a_2)
    with pytest.raises(InvariantError, match=r"^a matched coefficient is "
                       r"2, not \+-1, on a chain of degree 1$"):
        cyclic_homology(zoo.truncated_cubic(), 4)


def test_a_matching_with_a_2_cycle_is_refused(monkeypatch):
    """Matching a second face e of a partner d+ with d+ too, where
    <Dd+, e> = +-1, makes Phi(d) need Phi(e) and Phi(e) need Phi(d): the
    walk refuses the cycle with InvariantError, not RecursionError."""
    from ncmotives import morse
    red = cyclic_data(zoo.truncated_cubic(), 6).reduction
    found = [(n, d, e, up) for n, d in sorted(red._phi)
             for up in [red._match(n, d)] if up is not None and up >= 0
             for e, v in red._read(False, n + 1, up).items()
             if e != d and v in (1, -1)]
    n, _, e, up = found[0]
    match = morse.MorseReduction._match

    def with_a_cycle(self, m, c):
        return up if (m, c) == (n, e) else match(self, m, c)

    monkeypatch.setattr(morse.MorseReduction, "_match", with_a_cycle)
    with pytest.raises(InvariantError, match=r"^the matching has a cycle: "
                       r"a walk re-enters a chain of degree %d " % n):
        cyclic_homology(zoo.truncated_cubic(), 6)
