import gc
import itertools
import weakref
from unittest import mock
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from ncmotives import algebras, zoo
from ncmotives.algebras import (Quiver, path_algebra, structure_algebra,
                                Bimodule, corner_bimodule, derived_tensor,
                                global_dimension, regular_bimodule, _Reduced,
                                _vertex_ends)
from ncmotives.cli import _nonnormalized_hh
from ncmotives.errors import InvariantError, CapExceededError, UncertifiedError
from ncmotives.exactlin import QMatrix, matrix_rank, inverse
from ncmotives.homcore import ChainComplex
from ncmotives.hochschild import (
    hochschild_complex, hochschild_homology, mixed_complex, cyclic_homology,
    sbi_check, periodic_cyclic, hp_of_homomorphism, chern_character,
    chern_class_in_hc, hp_nil_invariant, check_homomorphism, cyclic_data,
    TruncatedMixedComplex, DEFAULT_CAP,
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


def test_hochschild_complex_dims_base_cases():
    q = zoo.get("Q")
    cx = hochschild_complex(q, n_max=4)
    assert cx.dims == [1, 0, 0, 0, 0]
    dual = zoo.get("dual")
    cx = hochschild_complex(dual, n_max=4)
    assert cx.dims == [2, 2, 2, 2, 2]
    a2 = zoo.get("A2")
    # without its quiver, A2 gets the complex relative to Q.1 ...
    cx = hochschild_complex(_rescaled(a2, [1, 1, 1]), n_max=4)
    assert cx.dims == [3, 6, 12, 24, 48]
    # ... with it, the one relative to Q^{Q_0}: no composable chain of
    # degree >= 1 closes up on an acyclic quiver
    cx = hochschild_complex(a2, n_max=4)
    assert cx.dims == [2, 0, 0, 0, 0]


def test_memory_guard_refuses():
    a3 = zoo.get("A3")
    with pytest.raises(CapExceededError):      # 585936 > 200000
        hochschild_complex(_rescaled(a3, [1] * a3.dim), n_max=8, cap=200000)
    assert hochschild_homology(a3, n_max=8, cap=200000).dims == [3] + [0] * 7


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


def _rescaled(a, scales):
    """a by structure constants in the basis scales[i] * b_i."""
    labels = ["s" + b for b in a.basis]
    products = [(labels[i], labels[j],
                 {labels[k]: scales[i] * scales[j] * c / scales[k]
                  for k, c in vec.items()})
                for (i, j), vec in a.table.items()]
    unit = {labels[k]: Fraction(c) / scales[k] for k, c in a.unit.items()}
    return structure_algebra(a.name + "-rescaled", labels, unit, products)


def test_rational_basis_keeps_sbi_and_hp():
    scales = [Fraction(1, 2), Fraction(-2, 3), Fraction(3)]
    for name in ("A2", "cubic"):
        a = zoo.get(name)
        r = _rescaled(a, scales)
        assert sbi_check(r, n_max=6).all_exact == sbi_check(a, n_max=6).all_exact
        assert (periodic_cyclic(r, n_max=6).super_dims
                == periodic_cyclic(a, n_max=6).super_dims)


@pytest.mark.parametrize(
    "name", ["A2", "A3", "square", "cubic", "dual", "M2(Q)", "QxQxQ"])
def test_integral_algebra_keeps_chains_on_ints(name):
    a = zoo.get(name)
    values = [v for cls in _Reduced(a).classes.values() for v in cls.values()]
    mx = TruncatedMixedComplex(a, 3)
    for cols in mx.b[1:] + mx.B:
        values.extend(v for col in cols for v in col.values())
    assert values and all(type(v) is int for v in values)


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
def quiver_algebras(draw):
    """Path algebras of <= 3 vertices and <= 3 arrows, truncated at 1 or 2,
    with a random relation among the length-2 paths between two vertices."""
    vertices = [str(v) for v in range(draw(st.integers(1, 3)))]
    ends = st.tuples(st.sampled_from(vertices), st.sampled_from(vertices))
    arrows = [("x%d" % i, s, t)
              for i, (s, t) in enumerate(draw(st.lists(ends, max_size=3)))]
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
    """HH(A; M) relative to E = Q^{Q_0} equals HH of the quiver-free
    rescaled copy, relative to Q.1, for the regular bimodule, every corner
    bimodule and every nonzero Tor_0 of two corner bimodules."""
    a = data.draw(quiver_algebras())
    assume(a.dim <= 6)
    scales = data.draw(st.lists(st.sampled_from(SCALES), min_size=a.dim,
                                max_size=a.dim))
    r = _rescaled(a, scales)
    vs = a.quiver.vertices
    corners = [corner_bimodule(a, i, j) for i in vs for j in vs]
    mods = [regular_bimodule(a)] + corners
    assert all(_vertex_ends(m) is not None for m in mods)
    mods += [t for x in corners for y in corners
             for t in derived_tensor(x, y, bound=0) if t.dim]
    for m in mods:
        assert (hochschild_homology(a, m, n_max=3).dims
                == hochschild_homology(r, _over(m, r, scales), n_max=3).dims)


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
    pos = {a.quiver.vertex_idx[v]: c for c, v in enumerate(vertices)}
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


def _tor_table(alg, tors, vertex_idx, g):
    """Per degree: dim Tor_l, dim e_u Tor_l e_v for the vertex idempotents
    (basis indices vertex_idx, up to scale), and chi(HH(A; Tor_l)) when
    A has finite global dimension g (HH_0 and HH_1 otherwise)."""
    table = []
    for t in tors:
        graded = [matrix_rank(t.left[k] * t.right[l])
                  for k in vertex_idx for l in vertex_idx]
        hh = hochschild_homology(alg, t, n_max=2 if g is None else g + 1).dims
        chi = hh if g is None else sum((-1) ** n * d for n, d in enumerate(hh))
        table.append((t.dim, graded, chi))
    return table


def _assert_tor_matches_rescaled(a, scales):
    """Tor^A(x, y) over E = Q^{Q_0} has the dimensions, vertex-graded
    dimensions and chi(HH(A; Tor_l)) of Tor over the quiver-free rescaled
    copy (E = Q.1), for every pair of corner bimodules (Tor_0) and of
    one-dimensional simple bimodules (Tor_0..Tor_2)."""
    vs = a.quiver.vertices
    r = _rescaled(a, scales)
    g = global_dimension(a, bound=4)
    vertex_idx = [a.quiver.vertex_idx[v] for v in vs]
    corners = [corner_bimodule(a, i, j) for i in vs for j in vs]
    simples = [_simples(a, [v]) for v in vs]
    cases = ([(x, y, 0) for x in corners for y in corners]
             + [(x, y, 2) for x in simples for y in simples])
    for x, y, bound in cases:
        with _tor_grounds() as spy:
            tors = derived_tensor(x, y, bound=bound)
        assert spy.call_args.args[2] is not None
        flat = derived_tensor(_over(x, r, scales), _over(y, r, scales),
                              bound=bound)
        assert (_tor_table(a, tors, vertex_idx, g)
                == _tor_table(r, flat, vertex_idx, g)), (x.name, y.name)


@settings(deadline=None, max_examples=30)
@given(st.data())
def test_vertex_relative_tor_matches_absolute_on_random_quivers(data):
    a = data.draw(quiver_algebras())
    assume(len(a.quiver.vertices) >= 2 and a.dim <= 6)
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
        vs = a.quiver.vertices
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
    # without its quiver, QxQ has chains relative to Q.1 ...
    flat = _rescaled(zoo.get("QxQ"), [1, 1])
    comps = chern_character(e, flat, n_max=6)
    assert comps[0] == {0: 1}           # degree-0 component = tr(e) = e_1
    assert comps[2]                      # correction terms present
    cls, n_even = chern_class_in_hc(e, flat, n_max=6)
    assert cls                           # nonzero class in stable even HC
    # ... with it, relative to E = Q^{Q_0}, where e_1 vanishes in A/E
    qq = zoo.get("QxQ")
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
    assert data.mixed.chains is not None
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


def test_hp_of_homomorphism_outside_the_target_ground_algebra():
    """e_i -> e_ii does not carry the vertex idempotents of QxQ into
    Q.1 in M2(Q): QxQ's side is read over Q.1, with the same matrix as
    before the relative mixed complex."""
    qq, m2 = zoo.get("QxQ"), zoo.get("M2(Q)")
    f = QMatrix(4, 2, {(0, 0): 1, (3, 1): 1})
    even, odd = hp_of_homomorphism(f, qq, m2, n_max=5)
    assert even == QMatrix(1, 2, {(0, 0): 1, (0, 1): Fraction(1, 2)})
    assert (odd.rows, odd.cols) == (0, 0)


@pytest.mark.parametrize("build, n_max", [(_two_cycle, 6),
                                          (zoo.a3_algebra, 5),
                                          (zoo.commutative_square, 4)])
def test_relative_mixed_complex_matches_absolute(build, n_max):
    """HC and SBI exactness of a quiver algebra, relative to E = Q^{Q_0},
    against its quiver-free copy relative to Q.1; HP at a certified
    truncation against the nil-invariant value of that copy."""
    a = build()
    flat = _rescaled(a, [1] * a.dim)
    assert cyclic_data(a, n_max).mixed.chains is not None
    assert cyclic_data(flat, n_max).mixed.chains is None
    assert (cyclic_homology(a, n_max).dims
            == cyclic_homology(flat, n_max).dims)
    assert sbi_check(a, n_max).all_exact and sbi_check(flat, n_max).all_exact
    hp = periodic_cyclic(a, 6)
    assert hp.certificate == "CERTIFIED"
    assert hp.super_dims == hp_nil_invariant(flat)


@settings(deadline=None, max_examples=15)
@given(st.data())
def test_relative_mixed_complex_matches_absolute_on_random_quivers(data):
    """On quivers with at least two vertices (loops and 2-cycles included)
    the relative mixed complex gives the HC dimensions, SBI exactness and
    HP values of the quiver-free rescaled copy; where both take the window
    path, the S towers agree rank for rank."""
    a = data.draw(quiver_algebras())
    assume(len(a.quiver.vertices) >= 2 and a.dim <= 4)
    # signs keep the copy integral, and so its degree-6 complex quick
    scales = data.draw(st.lists(st.sampled_from([1, -1]), min_size=a.dim,
                                max_size=a.dim))
    r = _rescaled(a, scales)
    assert cyclic_data(a, 6).mixed.chains is not None
    assert cyclic_homology(a, 6).dims == cyclic_homology(r, 6).dims
    assert sbi_check(a, 6).all_exact and sbi_check(r, 6).all_exact
    hp_a, hp_r = periodic_cyclic(a, 6), periodic_cyclic(r, 6)
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
