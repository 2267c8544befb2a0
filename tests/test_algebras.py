import random
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import assume, given, settings, strategies as st

from ncmotives.errors import InvariantError, UncertifiedError, CapExceededError
from ncmotives import algebras, zoo
from ncmotives.algebras import (
    Quiver, path_algebra, structure_algebra, opposite, tensor_algebra,
    global_dimension, derived_tensor, regular_bimodule, corner_bimodule,
    is_right_projective, Bimodule, presentation,
)
from ncmotives.exactlin import QMatrix, LinSubspace
from test_hochschild import quiver_algebras, corrupting, _over_q1


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


def test_structure_algebra_rejects_unknown_labels():
    with pytest.raises(InvariantError, match="unknown basis label.*: w, y, z"):
        structure_algebra("bad", ["x"], {"x": 1, "w": 1},
                          [("x", "y", {"z": 1})])


def test_path_algebra_rejects_unknown_arrows():
    q = Quiver(["1", "2"], [("a", "1", "2")])
    with pytest.raises(InvariantError, match="unknown arrow.*: y, z"):
        path_algebra(q, relations=[[(1, ["a", "z"]), (1, ["y"])]],
                     truncation=2)


def _oracle_path_algebra(quiver, relations=(), truncation=1, name=None):
    """path_algebra as it was: paths keyed by their names, with ("", v)
    for the vertices, and the ideal generators filtered from all pairs of
    paths (the oracle of the version indexed by paths).  Returns the
    algebra, its (vertex, basis index) pairs and the (source, target) of
    every basis path."""
    if truncation < 1:
        raise InvariantError("truncation must be >= 1")
    paths = algebras._enumerate_paths(quiver, truncation)
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
    psrc, ptgt = [], []
    for new, old in enumerate(kept):
        names, s, t = paths[old]
        if names:
            labels.append("*".join(names))
        else:
            labels.append("e_%s" % s)
            vertex_idx[s] = new
        psrc.append(s)
        ptgt.append(t)

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
    a = algebras.Algebra(name or "path algebra", labels, unit, table)
    return a, list(vertex_idx.items()), list(zip(psrc, ptgt))


def _presented_path_algebra(quiver, relations, truncation):
    """path_algebra, its (vertex, basis index) pairs and the (source,
    target) of every basis element, as its presentation reads them."""
    a = path_algebra(quiver, relations, truncation)
    pres = presentation(a)
    return a, [(v, pres.index[v]) for v in pres.vertices], pres.ends


def _path_algebra_outcome(build, quiver, relations, truncation):
    """Everything path_algebra fixes, in order, or the exception it raises."""
    try:
        a, vertices, ends = build(quiver, relations, truncation)
    except Exception as exc:
        return type(exc).__name__, str(exc)
    return (a.basis, list(a.unit.items()),
            [(k, list(v.items())) for k, v in a.table.items()],
            vertices, ends)


@st.composite
def quivers_with_relations(draw):
    """Quivers of <= 4 vertices and <= 4 arrows (loops included), truncated
    at <= 3, with 0-2 relations of 1-3 terms: parallel paths, any paths,
    or arrow lists that may not compose, be empty or name no arrow."""
    vertices = [str(v) for v in range(draw(st.integers(1, 4)))]
    ends = st.tuples(st.sampled_from(vertices), st.sampled_from(vertices))
    arrows = [("x%d" % i, s, t)
              for i, (s, t) in enumerate(draw(st.lists(ends, max_size=4)))]
    quiver = Quiver(vertices, arrows)
    paths = [p for p in algebras._enumerate_paths(quiver, 3) if p[0]]
    any_names = st.one_of(st.just([]), st.just(["zz"]),
                          st.lists(st.sampled_from([n for n, _, _ in arrows]),
                                   min_size=1, max_size=3) if arrows
                          else st.nothing())
    relations = []
    for _ in range(draw(st.integers(0, 2))):
        size = draw(st.integers(1, 3))
        if paths and draw(st.integers(0, 3)):
            first = draw(st.sampled_from(paths))
            pool = [p for p in paths if p[1:] == first[1:]] \
                if draw(st.booleans()) else paths
            names = [list(first[0])] + [list(draw(st.sampled_from(pool))[0])
                                        for _ in range(size - 1)]
        else:
            names = [draw(any_names) for _ in range(size)]
        relations.append([(draw(st.integers(-2, 2)), n) for n in names])
    return quiver, relations, draw(st.integers(1, 3))


@settings(deadline=None, max_examples=200)
@given(quivers_with_relations())
def test_path_algebra_matches_the_oracle_on_random_quivers(drawn):
    assert _path_algebra_outcome(_presented_path_algebra, *drawn) == \
        _path_algebra_outcome(_oracle_path_algebra, *drawn)


def test_an_arrow_named_by_the_empty_string_is_a_path():
    """With paths keyed by (names, source), the path of one arrow named ""
    is no longer read as a vertex: y = 0 kills the composite "" * y (the
    ("", v) keys kept it as a basis element)."""
    q = Quiver(["a", "b"], [("", "a", "b"), ("y", "b", "b")])
    a = path_algebra(q, [[(1, ["y"])]], 2)
    assert a.basis == ["e_a", "e_b", ""]
    assert _oracle_path_algebra(q, [[(1, ["y"])]], 2)[0].basis == \
        ["e_a", "e_b", "", "*y"]


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
        if presentation(a) is None and a.radical().dim > 0:
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
    pres = presentation(a)
    vs = pres.vertices
    c = {}
    for i in vs:
        for j in vs:
            c[(i, j)] = sum(1 for k in range(a.dim)
                            if pres.ends[k][0] == i and pres.ends[k][1] == j)
    return c


def assert_cartan_oracle(a, i, j, k, l, bound=None):
    # composition of projective bimodule classes over B follows the Cartan
    # matrix of B: (Ae_i o e_jB) x_B (Be_k o e_lC) = c^B_{jk} copies
    c = cartan_matrix(a)
    x = corner_bimodule(a, i, j)
    y = corner_bimodule(a, k, l)
    tors = derived_tensor(x, y, bound)
    # dim Tor_0 = dim(Ae_i) * dim(e_j A e_k) * dim(e_l A)
    d_aei = sum(1 for t in range(a.dim) if presentation(a).ends[t][1] == i)
    d_ela = sum(1 for t in range(a.dim) if presentation(a).ends[t][0] == l)
    assert tors[0].dim == d_aei * c[(j, k)] * d_ela
    assert all(t.dim == 0 for t in tors[1:])


def test_derived_tensor_matches_cartan_oracle():
    for name in ("A2", "A3", "square"):
        a = zoo.get(name)
        vs = presentation(a).vertices
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
    i, j, k, l = data.draw(st.lists(st.sampled_from(presentation(a).vertices),
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
    # the simple right module is not projective
    right = [QMatrix.identity(1) if i == 0 else QMatrix.zero(1, 1)
             for i in range(dual.dim)]
    s = Bimodule(zoo.get("Q"), dual, 1, [QMatrix.identity(1)], right,
                 name="S")
    assert not is_right_projective(s)


def count_resolutions(monkeypatch):
    """Counts the calls of algebras.minimal_resolution from now on."""
    calls = []
    real = algebras.minimal_resolution

    def counted(m, bound):
        calls.append(bound)
        return real(m, bound)

    monkeypatch.setattr(algebras, "minimal_resolution", counted)
    return calls


def test_global_dimension_is_memoized_per_bound(monkeypatch):
    calls = count_resolutions(monkeypatch)
    a = zoo.a3_algebra()
    assert global_dimension(a, bound=6) == 1
    done = len(calls)
    assert done > 0
    assert global_dimension(a, bound=6) == 1
    assert len(calls) == done
    # another bound is another question
    assert global_dimension(a, bound=0) is None
    assert len(calls) > done
    # a refusal is not stored: the failing call runs again.  Q[x]/x^2 in
    # the basis 1, y = 1 + x has no presentation: y is not radical
    c = structure_algebra("C", ["1", "y"], {"1": 1},
                          [("1", "1", {"1": 1}), ("1", "y", {"y": 1}),
                           ("y", "1", {"y": 1}),
                           ("y", "y", {"1": -1, "y": 2})])
    assert presentation(c) is None and c.radical().dim == 1
    for _ in range(2):
        with pytest.raises(InvariantError):
            global_dimension(c)
    assert c._gldim == {}


def test_right_projectivity_is_memoized(monkeypatch):
    calls = count_resolutions(monkeypatch)
    dual = zoo.dual_numbers()
    right = [QMatrix.identity(1) if i == 0 else QMatrix.zero(1, 1)
             for i in range(dual.dim)]
    s = Bimodule(zoo.get("Q"), dual, 1, [QMatrix.identity(1)], right)
    reg = regular_bimodule(dual)
    assert not is_right_projective(s)
    assert is_right_projective(reg)
    assert len(calls) == 2
    assert not is_right_projective(s)
    assert is_right_projective(reg)
    assert len(calls) == 2


def test_derived_tensor_associative_on_k0_classes():
    """Euler characteristics of iterated Tor agree both ways (K0-level)."""
    for name in ("A2", "square"):
        a = zoo.get(name)
        vs = presentation(a).vertices
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


def test_large_tor_complexes_check_d_o_d():
    """derived_tensor checks d o d at every size: a corrupted boundary in a
    Tor complex of 2340 chains is refused."""
    a = zoo.get("square")
    x, y = corner_bimodule(a, "1", "1"), corner_bimodule(a, "1", "4")
    built = {}
    corrupted = corrupting(algebras.hochschild_columns, built)
    with _over_q1(), mock.patch.object(algebras, "hochschild_columns",
                                       corrupted):
        with pytest.raises(InvariantError, match="d o d"):
            derived_tensor(x, y, bound=2)
    assert sum(len(built[n]) for n in built) + x.dim * y.dim > 2000


def _old_top_generators(m):
    """_top_generators as it was: a fresh LinSubspace per vertex pair and
    per accepted generator (the oracle of the one-span version)."""
    rad_vecs = []
    for alg, mats in ((m.A, m.left), (m.B, m.right)):
        for r in alg.radical().basis():
            mat = QMatrix.zero(m.dim, m.dim)
            for i, c in r.items():
                mat = mat + mats[i].scale(c)
            rad_vecs.extend(col for col in mat.columns() if col)
    radspan = LinSubspace(m.dim, rad_vecs)
    gens = []
    for i in presentation(m.A).vertices:
        ei = presentation(m.A).index[i]
        for j in presentation(m.B).vertices:
            proj = m.left[ei] * m.right[presentation(m.B).index[j]]
            seen = LinSubspace(m.dim, radspan.basis())
            for col in proj.columns():
                if col and not seen.contains(col):
                    gens.append((i, j, col))
                    seen = LinSubspace(m.dim, seen.basis() + [col])
    return gens


def _two_sided_simple(a, i, j):
    """The one-dimensional (a, a)-bimodule on which e_i acts on the left,
    e_j on the right, and every other basis element by 0."""
    def acting(vertex):
        k = presentation(a).index[vertex]
        return [QMatrix(1, 1, {(0, 0): 1} if t == k else None)
                for t in range(a.dim)]
    return Bimodule(a, a, 1, acting(i), acting(j),
                    name="S_%s,%s" % (i, j))


@settings(deadline=None, max_examples=30)
@given(st.data())
def test_top_generators_match_the_subspace_version(data):
    a = data.draw(quiver_algebras())
    assume(a.dim <= 6)
    vs = presentation(a).vertices
    i, j, k, l = data.draw(st.lists(st.sampled_from(vs), min_size=4,
                                    max_size=4))
    mods = [regular_bimodule(a), corner_bimodule(a, i, j),
            _two_sided_simple(a, i, j), _right_simple(a, i),
            _left_simple(a, j)]
    first = data.draw(st.sampled_from(mods[1:3]))
    second = data.draw(st.sampled_from([corner_bimodule(a, k, l),
                                        _two_sided_simple(a, k, l)]))
    # without the memory guard, which refuses the largest draws (two
    # 36-dimensional corner bimodules need 202176 chains)
    tors = derived_tensor(first, second, bound=2, cap=None)
    mods += [t for t in tors if t.dim]
    for m in mods:
        assert algebras._top_generators(m) == _old_top_generators(m)
