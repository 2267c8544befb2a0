import gc
import itertools
import weakref
from unittest import mock
from fractions import Fraction
from math import lcm
from pathlib import Path

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from ncmotives import algebras, hochschild, zoo
from ncmotives.algebras import (Quiver, path_algebra, structure_algebra,
                                Bimodule, corner_bimodule, derived_tensor,
                                global_dimension, regular_bimodule, _Reduced,
                                _vertex_ends, _basis_ground, tensor_algebra,
                                _chain_basis, _relative_ends,
                                hochschild_columns, presentation)
from ncmotives.cli import _nonnormalized_hh
from ncmotives.errors import InvariantError, CapExceededError, UncertifiedError
from ncmotives.exactlin import (QMatrix, Elimination, LinSubspace,
                                matrix_rank, inverse, vec_addmul)
from ncmotives.homcore import ChainComplex, apply_cols
from ncmotives.inputs import load_algebra
from ncmotives.hochschild import (
    hochschild_complex, hochschild_homology, mixed_complex, cyclic_homology,
    sbi_check, periodic_cyclic, hp_of_homomorphism, chern_character,
    chern_class_in_hc, hp_nil_invariant, check_homomorphism, cyclic_data,
    TruncatedMixedComplex, CyclicData, connes_columns, DEFAULT_CAP,
)


def nonnormalized_hh_dims(a, n_max):
    """Oracle: homology of the *non*-normalized complex M (x) A^n, M = A.

    Independent of the production path, which quotients by degenerates.
    """
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
                prod = a.mult_basis(idx[i], idx[i + 1])
                rest = idx[:i] + idx[i + 2:]
                for k, c in prod.items():
                    tgt = code(idx[:i] + (k,) + idx[i + 2:])
                    val = col.get(tgt, 0) + sgn * c
                    if val:
                        col[tgt] = val
                    else:
                        col.pop(tgt, None)
            sgn = -1 if n % 2 else 1
            prod = a.mult_basis(idx[-1], idx[0])
            for k, c in prod.items():
                tgt = code((k,) + idx[1:-1])
                val = col.get(tgt, 0) + sgn * c
                if val:
                    col[tgt] = val
                else:
                    col.pop(tgt, None)
            cols.append(col)
        diffs.append(cols)
    cx = ChainComplex(dims, diffs)
    return [cx.homology_dim(n) for n in range(n_max)]


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
    assert nonnormalized_hh_dims(dual, 4) == hh.dims[:4]


def test_hh_a2_against_nonnormalized_oracle():
    a2 = zoo.get("A2")
    hh = hochschild_homology(a2, n_max=5)
    assert hh.dims == [2, 0, 0, 0, 0]
    assert nonnormalized_hh_dims(a2, 3) == hh.dims[:3]


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
    mx = mixed_complex(dual, n_max=5)
    # B: C_0 -> C_1 has rank 1 (sends the nilpotent to 1 (x) x)
    b0 = QMatrix(mx.dims[1], mx.dims[0],
                 {(r, j): v for j, col in enumerate(mx.B[0])
                  for r, v in col.items()})
    assert matrix_rank(b0) == 1
    q = zoo.get("Q")
    mxq = mixed_complex(q, n_max=4)
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
    p = QMatrix(a.dim, a.dim, {(r, c): v for c, vec in enumerate(vectors)
                               for r, v in vec.items()})
    q = inverse(p)
    labels = ["c%d" % i for i in range(a.dim)]

    def coords(vec):
        return {labels[r]: v for r, v in (q * vec).items()}
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


def _over(m, r, scales):
    """The A-bimodule m over the rescaled copy r = _rescaled(A, scales)."""
    return Bimodule(r, r, m.dim, [x.scale(s) for x, s in zip(m.left, scales)],
                    [x.scale(s) for x, s in zip(m.right, scales)])


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
    p = QMatrix(m.dim, m.dim, {(i, j): 1 for i in range(m.dim)
                               for j in range(i, m.dim)})
    q = inverse(p)
    return Bimodule(m.A, m.B, m.dim, [q * x * p for x in m.left],
                    [q * x * p for x in m.right], name=m.name + "'")


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
    acts = [QMatrix(d, d, {(pos[k], pos[k]): 1} if k in pos else None)
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
        graded = [matrix_rank(t.left[k] * t.right[l])
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
    from ncmotives.supers import SuperSpace, kunneth_projectors, kunneth_tensor
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
    prod = kunneth_tensor(kunneth_projectors(SuperSpace(*hp_a.super_dims)),
                          kunneth_projectors(SuperSpace(*hp_b.super_dims)))
    assert hp_t.super_dims == tuple(prod.space)
    assert hp_t.certificate == "CERTIFIED"


def identity_hom(a):
    return QMatrix.identity(a.dim)


def test_hp_of_homomorphism_identity():
    a = zoo.get("QxQ")
    even, odd = hp_of_homomorphism(identity_hom(a), a, a, n_max=5)
    assert even == QMatrix.identity(2)
    assert odd.rows == 0 and odd.cols == 0


def test_hp_of_homomorphism_unit_inclusion_and_projection():
    q = zoo.get("Q")
    qq = zoo.get("QxQ")
    incl = QMatrix(2, 1, {(0, 0): 1, (1, 0): 1})       # 1 |-> e1 + e2
    proj = QMatrix(1, 2, {(0, 0): 1})                  # e1 |-> 1, e2 |-> 0
    ev_i, od_i = hp_of_homomorphism(incl, q, qq, n_max=5)
    assert ev_i.cols == 1 and ev_i.rows == 2 and matrix_rank(ev_i) == 1
    ev_p, od_p = hp_of_homomorphism(proj, qq, q, n_max=5)
    # proj o incl = id on Q
    assert ev_p * ev_i == QMatrix.identity(1)
    # incl o proj: rank-1 idempotent on HP+(QxQ)
    comp = ev_i * ev_p
    assert comp * comp == comp
    assert matrix_rank(comp) == 1


def test_hp_of_homomorphism_respects_composition():
    """Chain-level functoriality: matrix of a composite = product."""
    q = zoo.get("Q")
    qq = zoo.get("QxQ")
    incl = QMatrix(2, 1, {(0, 0): 1, (1, 0): 1})
    proj = QMatrix(1, 2, {(0, 1): 1})                  # the other projection
    ev_i, _ = hp_of_homomorphism(incl, q, qq, n_max=5)
    ev_p, _ = hp_of_homomorphism(proj, qq, q, n_max=5)
    both = proj * incl    # = identity of Q
    ev_c, _ = hp_of_homomorphism(both, q, q, n_max=5)
    assert ev_c == ev_p * ev_i


def test_induced_chain_map_commutes_with_differential():
    """The map on totalizations induced by an algebra homomorphism is a
    chain map: checked entrywise on basis vectors at low degrees."""
    from ncmotives.hochschild import _chain_map_on_tot, cyclic_data
    from ncmotives.homcore import apply_cols
    q = zoo.get("Q")
    qq = zoo.get("QxQ")
    incl = QMatrix(2, 1, {(0, 0): 1, (1, 0): 1})
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
    proj = QMatrix(1, 2, {(0, 0): 1})
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
        hp_of_homomorphism(identity_hom(dual), dual, dual, n_max=5)


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
    m = QMatrix(2, 2, {(r, 0): v for r, v in cls1.items()}
                | {(r, 1): v for r, v in cls2.items()})
    assert matrix_rank(m) == 2


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
    f = QMatrix(a.dim, a.dim, {(i, i): scale.get(lab, 1)
                               for i, lab in enumerate(a.basis)})
    check_homomorphism(f, a, a)
    data = cyclic_data(a, 5)
    assert set(data.mixed.red.units) == {presentation(a).index[v]
                                         for v in ("1", "2")}
    assert data.mixed.dims == [3, 4, 7, 11, 18, 29]
    from ncmotives.hochschild import _chain_map_on_tot
    from ncmotives.homcore import apply_cols
    for n in range(1, 6):
        for j in range(data.tot.dims[n]):
            vec = {j: 1}
            lhs = _chain_map_on_tot(f, a, a, data, data, n - 1,
                                    apply_cols(data.tot.diffs[n], vec))
            fx = _chain_map_on_tot(f, a, a, data, data, n, vec)
            assert lhs == apply_cols(data.tot.diffs[n], fx), (n, j)
    even, odd = hp_of_homomorphism(f, a, a, n_max=6)
    assert even == QMatrix.identity(2)
    assert (odd.rows, odd.cols) == (0, 0)


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
    f = QMatrix(4, 2, {(0, 0): 1, (3, 1): 1})
    f_inner = QMatrix(4, 2, {(0, 0): 1, (1, 0): 1, (3, 1): 1, (1, 1): -1})
    check_homomorphism(f_inner, qq, m2)
    even, odd = hp_of_homomorphism(f, qq, m2, n_max=5)
    assert list(qq._cyclic) == [(5, DEFAULT_CAP)]       # relative only
    assert matrix_rank(even) == 1
    assert even.columns()[0] == even.columns()[1]
    assert (odd.rows, odd.cols) == (0, 0)
    assert hp_of_homomorphism(f_inner, qq, m2, n_max=5) == (even, odd)
    assert (5, DEFAULT_CAP, "Q.1") in qq._cyclic        # the Q.1 path
    incl = QMatrix(2, 1, {(0, 0): 1, (1, 0): 1})
    ev_incl, _ = hp_of_homomorphism(incl, q, qq, n_max=5)
    ev_unit, _ = hp_of_homomorphism(f_inner * incl, q, m2, n_max=5)
    assert even * ev_incl == ev_unit
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
    return Bimodule(a, b, 0, [QMatrix(0, 0) for _ in range(a.dim)],
                    [QMatrix(0, 0) for _ in range(b.dim)], name="0")


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
# the matrices on homology, all from homcore.induced_map, against the loops
# they replaced


def _oracle_map_I(self, n):
    """CyclicData.map_I before induced_map, verbatim."""
    reps, _ = self.hh_space(n)
    _, project = self.hc_space(n)
    cols = {}
    for j, z in enumerate(reps):
        for r, v in project(dict(z)).items():
            cols[(r, j)] = v
    hdim = len(self.hc_space(n)[0])
    return QMatrix(hdim, len(reps), cols)


def _oracle_map_S(self, n):
    """CyclicData.map_S before induced_map, verbatim."""
    reps, _ = self.hc_space(n)
    _, project = self.hc_space(n - 2)
    top_dim = self.mixed.dims[n]
    cols = {}
    for j, z in enumerate(reps):
        dropped = {i - top_dim: v for i, v in z.items() if i >= top_dim}
        for r, v in project(dropped).items():
            cols[(r, j)] = v
    hdim = len(self.hc_space(n - 2)[0])
    return QMatrix(hdim, len(reps), cols)


def _oracle_map_Bconn(self, n):
    """CyclicData.map_Bconn before induced_map, verbatim."""
    reps, _ = self.hc_space(n)
    _, project = self.hh_space(n + 1)
    top_dim = self.mixed.dims[n]
    cols = {}
    for j, z in enumerate(reps):
        top = {i: v for i, v in z.items() if i < top_dim}
        img = apply_cols(self.mixed.B[n], top)
        for r, v in project(img).items():
            cols[(r, j)] = v
    hdim = len(self.hh_space(n + 1)[0])
    return QMatrix(hdim, len(reps), cols)


def _oracle_on_homology(g, reps, project, weight, size):
    """algebras._on_homology before induced_map, verbatim."""
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


@pytest.mark.parametrize("name", zoo.ZOO_NAMES)
def test_sbi_maps_match_the_replaced_loops(name):
    """map_I, map_S and map_Bconn at every degree that sbi_check reads."""
    n_max = 5
    data = cyclic_data(zoo.get(name), n_max)
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
    digits, maps = [], []
    on_digit, induced = algebras._on_digit, algebras.induced_map

    def spy_on_digit(g, weight, size):
        digits.append((g, weight, size))
        return on_digit(g, weight, size)

    def spy_induced_map(source, target, chain_map):
        out = induced(source, target, chain_map)
        maps.append((source, target, out))
        return out

    monkeypatch.setattr(algebras, "_on_digit", spy_on_digit)
    monkeypatch.setattr(algebras, "induced_map", spy_induced_map)
    reg = regular_bimodule(a)
    cases = [(reg, reg, 1)]
    if presentation(a) is not None:
        simples = [_simples(a, [v]) for v in presentation(a).vertices]
        cases += [(x, y, 2) for x in simples for y in simples]
    for x, y, bound in cases:
        derived_tensor(x, y, bound=bound)
    assert len(digits) == len(maps) > 0
    for (g, weight, size), (source, target, got) in zip(digits, maps):
        assert source is target
        reps, project = source
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
    left = [QMatrix(d, d, {(pos[(k, q)], c): v
                           for c, (p, q) in enumerate(pairs)
                           for k, v in a.mult_basis(x, p).items()})
            for x in range(a.dim)]
    right = [QMatrix(d, d, {(pos[(p, k)], c): v
                            for c, (p, q) in enumerate(pairs)
                            for k, v in a.mult_basis(q, y).items()})
             for y in range(a.dim)]
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
    span = Elimination(self.dims[n], track=True)
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
        elim = Elimination(self.dims[max(n - 1, 0)] if n >= 1 else 0)
    else:
        elim = Elimination(self.dims[n - 1])
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
    rank's worth of columns, spans what the replaced route spans; at every
    certified degree, homology_space has the replaced route's
    representatives and projection (on cycle + boundary combinations drawn
    from data), and leaves the cached boundary elimination as it was."""
    fresh = ChainComplex(cx.dims, cx.diffs, check=False)
    old = ChainComplex(cx.dims, cx.diffs, check=False)
    for n in range(cx.top):
        bound, fed = _fed_columns(lambda: fresh.boundary_elim(n + 1))
        rows, cols = cx.dims[n], cx.dims[n + 1]
        d = QMatrix(rows, cols, {(i, j): v
                                 for j, col in enumerate(cx.diffs[n + 1])
                                 for i, v in col.items()})
        assert fresh.rank(n + 1) == bound.rank == matrix_rank(d)
        assert (LinSubspace(rows, bound.pivots.values())
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

CUBIC = Path(__file__).resolve().parent.parent / "demos" / "algebras" \
    / "cubic.json"


def test_row_pass_skips_the_leads_one_degree_down():
    """On the Tot complex of Q[x]/x^3 at n_max 8 the row pass of d_n skips
    its rows at the rank(n - 1) leads of the row echelon form one degree
    down and is fed the other nonzero rows, and the boundary elimination
    is fed exactly rank(n) columns (the replaced route fed all dims[n] of
    them)."""
    tot = CyclicData(load_algebra(str(CUBIC)), 8).tot
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
    tot = CyclicData(load_algebra(str(CUBIC)), 8).tot
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
