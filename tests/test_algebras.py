import random

import pytest
from hypothesis import assume, given, settings, strategies as st

from ncmotives.errors import InvariantError, UncertifiedError
from ncmotives import zoo
from ncmotives.algebras import (
    Quiver, path_algebra, opposite, tensor_algebra,
    global_dimension, derived_tensor, regular_bimodule, corner_bimodule,
    is_right_projective, Bimodule,
)
from ncmotives.exactlin import QMatrix
from test_hochschild import quiver_algebras


def test_path_algebra_a2_shape():
    a = zoo.get("A2")
    assert a.dim == 3
    assert set(a.basis) == {"e_1", "e_2", "a"}
    # vertex idempotents sum to the unit
    e1 = a.element({"e_1": 1})
    e2 = a.element({"e_2": 1})
    assert a.mult_vec(e1, e1) == e1
    assert a.mult_vec(e1, e2) == {}
    s = dict(e1)
    for k, v in e2.items():
        s[k] = s.get(k, 0) + v
    assert s == a.unit


def test_path_algebra_dual_numbers_relation():
    a = zoo.get("dual")
    assert a.dim == 2
    x = a.element({"x": 1})
    assert a.mult_vec(x, x) == {}


def test_path_algebra_one_vertex_is_q():
    a = zoo.get("Q")
    assert a.dim == 1
    assert a.unit == {0: 1}


def test_path_algebra_rejects_inconsistent_relations():
    q = Quiver(["1"], [("x", "1", "1")])
    # relation x = 0 is fine; relation forcing e_1 into the ideal is not
    # constructible via parallel-path relations, but x - x is degenerate: use
    # a relation pair that collapses the vertex: x*x and then x with unit...
    # the canonical inconsistency: relation says the arrow equals zero AND a
    # path relation divides the vertex -- not expressible; instead verify the
    # guard on a direct fabrication:
    with pytest.raises(InvariantError):
        path_algebra(q, relations=[[(1, [])]], truncation=2)


def test_path_algebra_rejects_unknown_arrows():
    q = Quiver(["1", "2"], [("a", "1", "2")])
    with pytest.raises(InvariantError, match="unknown arrow.*: y, z"):
        path_algebra(q, relations=[[(1, ["a", "z"]), (1, ["y"])]],
                     truncation=2)


def test_commutative_square_relation_identified():
    a = zoo.get("square")
    assert a.dim == 9
    ac = a.mult_vec(a.element({"a": 1}), a.element({"c": 1}))
    bd = a.mult_vec(a.element({"b": 1}), a.element({"d": 1}))
    assert ac == bd and ac


def test_opposite_involution():
    for name in ("A2", "square", "M2(Q)"):
        a = zoo.get(name)
        aa = opposite(opposite(a))
        assert aa.table == a.table
        assert aa.unit == a.unit


def test_opposite_of_commutative_is_same():
    d = zoo.get("dual")
    assert opposite(d).table == d.table


def test_tensor_algebra_dims():
    q = zoo.get("Q")
    assert tensor_algebra(q, q).dim == 1
    a2 = zoo.get("A2")
    qq = zoo.get("QxQ")
    t = tensor_algebra(a2, qq)
    assert t.dim == 6
    # spot-check associativity on the product algebra
    rng = random.Random(5)
    for _ in range(40):
        i, j, k = (rng.randrange(6) for _ in range(3))
        left = t.mult_vec(t.mult_basis(i, j), {k: 1})
        right = t.mult_vec({i: 1}, t.mult_basis(j, k))
        assert left == right


def test_global_dimension_zoo():
    expected = {"Q": 0, "QxQ": 0, "QxQxQ": 0, "M2(Q)": 0,
                "A2": 1, "A3": 1, "square": 2}
    for name, g in expected.items():
        assert global_dimension(zoo.get(name), bound=6) == g
    assert global_dimension(zoo.get("dual"), bound=8) is None
    assert global_dimension(zoo.get("cubic"), bound=8) is None


def test_gldim_zero_iff_semisimple():
    for name in zoo.ZOO_NAMES:
        a = zoo.get(name)
        if a.quiver is None and a.radical().dim > 0:
            continue
        g = global_dimension(a, bound=6)
        assert (g == 0) == (a.radical().dim == 0)


def test_derived_tensor_unit_law():
    a2 = zoo.get("A2")
    unit = regular_bimodule(a2)
    for (i, j) in (("1", "1"), ("1", "2"), ("2", "2")):
        y = corner_bimodule(a2, i, j)
        tors = derived_tensor(unit, y)
        assert tors[0].dim == y.dim
        assert all(t.dim == 0 for t in tors[1:])
        tors = derived_tensor(y, unit)
        assert tors[0].dim == y.dim
        assert all(t.dim == 0 for t in tors[1:])


def test_derived_tensor_projectives_over_semisimple():
    qq = zoo.get("QxQ")
    x = corner_bimodule(qq, "1", "1")
    y = corner_bimodule(qq, "1", "2")
    assert derived_tensor(x, y)[0].dim == x.dim * 0 + 1  # e1(QxQ)e1 is 1-dim
    tors = derived_tensor(x, x)
    assert [t.dim for t in tors] == [1]


def cartan_matrix(a):
    """dim e_i A e_j for a quiver algebra (the K0 composition oracle)."""
    pres = a.quiver
    vs = pres.vertices
    c = {}
    for i in vs:
        for j in vs:
            c[(i, j)] = sum(1 for k in range(a.dim)
                            if pres.path_source[k] == i and pres.path_target[k] == j)
    return c


def assert_cartan_oracle(a, i, j, k, l, bound=None):
    # composition of projective bimodule classes over B follows the Cartan
    # matrix of B: (Ae_i o e_jB) x_B (Be_k o e_lC) = c^B_{jk} copies
    c = cartan_matrix(a)
    x = corner_bimodule(a, i, j)
    y = corner_bimodule(a, k, l)
    tors = derived_tensor(x, y, bound)
    # dim Tor_0 = dim(Ae_i) * dim(e_j A e_k) * dim(e_l A)
    d_aei = sum(1 for t in range(a.dim) if a.quiver.path_target[t] == i)
    d_ela = sum(1 for t in range(a.dim) if a.quiver.path_source[t] == l)
    assert tors[0].dim == d_aei * c[(j, k)] * d_ela
    assert all(t.dim == 0 for t in tors[1:])


def test_derived_tensor_matches_cartan_oracle():
    for name in ("A2", "A3", "square"):
        a = zoo.get(name)
        vs = a.quiver.vertices
        for i in vs[:2]:
            for j in vs:
                for k in vs:
                    for l in vs[-2:]:
                        assert_cartan_oracle(a, i, j, k, l)


@settings(deadline=None, max_examples=20)
@given(st.data())
def test_derived_tensor_matches_cartan_oracle_on_random_quivers(data):
    # bound=2 builds d_1..d_3 of the two-sided layout; x is right-projective,
    # so Tor_1 = Tor_2 = 0 whatever the global dimension
    a = data.draw(quiver_algebras())
    assume(a.dim <= 5)
    i, j, k, l = data.draw(st.lists(st.sampled_from(a.quiver.vertices),
                                    min_size=4, max_size=4))
    assert_cartan_oracle(a, i, j, k, l, bound=2)


def _right_simple(a, vertex):
    """The right simple at a vertex, packaged as a (Q, a)-bimodule."""
    q = zoo.get("Q")
    right = []
    for i in range(a.dim):
        val = 1 if a.basis[i] == "e_%s" % vertex else 0
        right.append(QMatrix(1, 1, {(0, 0): val} if val else None))
    return Bimodule(q, a, 1, [QMatrix.identity(1)], right, name="S%sr" % vertex)


def _left_simple(a, vertex):
    q = zoo.get("Q")
    left = []
    for i in range(a.dim):
        val = 1 if a.basis[i] == "e_%s" % vertex else 0
        left.append(QMatrix(1, 1, {(0, 0): val} if val else None))
    return Bimodule(a, q, 1, left, [QMatrix.identity(1)], name="S%sl" % vertex)


def test_derived_tensor_simples_a2_bar_oracle():
    """Tor over the A2 algebra of the two simples against known values.

    Resolving the right simple at vertex 1 by 0 -> P_2 -> P_1 -> S_1 -> 0
    gives Tor_0 = 0 and Tor_1 = Q against the left simple at vertex 2; the
    bar complex must reproduce those dimensions.
    """
    a = zoo.get("A2")

    def tor_dims(x, y, upto=2):
        dims = [t.dim for t in derived_tensor(x, y)]
        return (dims + [0] * upto)[:upto]

    assert tor_dims(_right_simple(a, 1), _left_simple(a, 2)) == [0, 1]
    assert tor_dims(_right_simple(a, 2), _left_simple(a, 2)) == [1, 0]
    assert tor_dims(_right_simple(a, 1), _left_simple(a, 1)) == [1, 0]
    assert tor_dims(_right_simple(a, 2), _left_simple(a, 1)) == [0, 0]


def test_derived_tensor_refuses_without_certificate():
    dual = zoo.get("dual")
    # the simple over the dual numbers is not right-projective and gldim is
    # infinite: composing it must refuse
    q = zoo.get("Q")
    right = []
    for i in range(dual.dim):
        val = 1 if i == 0 else 0
        right.append(QMatrix(1, 1, {(0, 0): val} if val else None))
    s = Bimodule(q, dual, 1, [QMatrix.identity(1)], right, name="S")
    left = [QMatrix.identity(1) if i == 0 else QMatrix.zero(1, 1)
            for i in range(dual.dim)]
    t = Bimodule(dual, q, 1, left, [QMatrix.identity(1)], name="T")
    with pytest.raises(UncertifiedError):
        derived_tensor(s, t)


def test_right_projectivity_path():
    dual = zoo.get("dual")
    reg = regular_bimodule(dual)
    assert is_right_projective(reg)
    # the regular bimodule composes fine even over infinite gldim
    tors = derived_tensor(reg, reg)
    assert [t.dim for t in tors] == [2]


def test_derived_tensor_associative_on_k0_classes():
    """Euler characteristics of iterated Tor agree both ways (K0-level)."""
    for name in ("A2", "square"):
        a = zoo.get(name)
        vs = a.quiver.vertices
        x = corner_bimodule(a, vs[0], vs[-1])
        y = corner_bimodule(a, vs[-1], vs[0])
        z = corner_bimodule(a, vs[0], vs[0])

        def chi_pair(u, v):
            return sum((-1) ** i * t.dim for i, t in enumerate(derived_tensor(u, v)))

        # with all factors projective this reduces to multiplicativity of dims
        t_xy = derived_tensor(x, y)[0]
        t_yz = derived_tensor(y, z)[0]
        left = chi_pair(t_xy, z)
        right = chi_pair(x, t_yz)
        assert left == right
