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
    is_right_projective, Bimodule, presentation, minimal_resolution,
)
from ncmotives.exactlin import LinSubspace, apply_cols, vec_addmul, vec_sub
from ncmotives.hochschild import hochschild_complex, periodic_cyclic
from test_exactlin import (_columns, _dense, _oracle_identity, _oracle_product,
                           _sparse_kron)
from test_hochschild import (quiver_algebras, corrupting, _over_q1,
                             loop_algebra, _conjugated)


def test_path_algebra_a2_shape():
    a = zoo.get("A2")
    assert a.dim == 3
    assert set(a.basis) == {"e_1", "e_2", "a"}
    # vertex idempotents sum to the unit
    e1 = {a.basis.index("e_1"): 1}
    e2 = {a.basis.index("e_2"): 1}
    assert a.mult_vec(e1, e1) == e1
    assert a.mult_vec(e1, e2) == {}
    s = dict(e1)
    for k, v in e2.items():
        s[k] = s.get(k, 0) + v
    assert s == a.unit


def test_path_algebra_dual_numbers_relation():
    a = zoo.get("dual")
    assert a.dim == 2
    x = {a.basis.index("x"): 1}
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
    ac = a.mult_vec({a.basis.index("a"): 1}, {a.basis.index("c"): 1})
    bd = a.mult_vec({a.basis.index("b"): 1}, {a.basis.index("d"): 1})
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


def test_three_loops_resolve_to_six_steps():
    assert global_dimension(loop_algebra("xyz"), bound=6) is None


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


def _at(a, k):
    """The actions on a line on which b_k acts as 1 and the rest of a's
    basis as 0, as column lists."""
    return [[{0: 1}] if i == k else [{}] for i in range(a.dim)]


def _right_simple(a, vertex):
    """The right simple at a vertex, packaged as a (Q, a)-bimodule."""
    right = _at(a, a.basis.index("e_%s" % vertex))
    return Bimodule(zoo.get("Q"), a, 1, [[{0: 1}]], right,
                    name="S%sr" % vertex)


def _left_simple(a, vertex):
    left = _at(a, a.basis.index("e_%s" % vertex))
    return Bimodule(a, zoo.get("Q"), 1, left, [[{0: 1}]],
                    name="S%sl" % vertex)


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
    s = Bimodule(q, dual, 1, [[{0: 1}]], _at(dual, 0), name="S")
    t = Bimodule(dual, q, 1, _at(dual, 0), [[{0: 1}]], name="T")
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
    s = Bimodule(zoo.get("Q"), dual, 1, [[{0: 1}]], _at(dual, 0), name="S")
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
    s = Bimodule(zoo.get("Q"), dual, 1, [[{0: 1}]], _at(dual, 0))
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
    per accepted generator (the oracle of the one-span version), on the
    actions as dense matrices."""
    left = [_dense(cols, m.dim) for cols in m.left]
    right = [_dense(cols, m.dim) for cols in m.right]
    rad_vecs = []
    for alg, mats in ((m.A, left), (m.B, right)):
        for r in alg.radical().basis():
            mat = [[sum((c * mats[i][row][col] for i, c in r.items()),
                        Fraction(0)) for col in range(m.dim)]
                   for row in range(m.dim)]
            rad_vecs.extend(col for col in _columns(mat, m.dim) if col)
    radspan = LinSubspace(m.dim, rad_vecs)
    gens = []
    for i in presentation(m.A).vertices:
        ei = presentation(m.A).index[i]
        for j in presentation(m.B).vertices:
            proj = _oracle_product(left[ei],
                                   right[presentation(m.B).index[j]])
            seen = LinSubspace(m.dim, radspan.basis())
            for col in _columns(proj, m.dim):
                if col and not seen.contains(col):
                    gens.append((i, j, col))
                    seen = LinSubspace(m.dim, seen.basis() + [col])
    return gens


_OLD_RREF = [None, None]    # the last kv _old_restrict saw, and its RREF


def _old_restrict(cols, kv):
    """_restrict as it was: the syzygy in the canonical RREF of its kernel
    vectors, with LinSubspace.coordinates' reading of an image -- the value
    at each row's lead, then a zero remainder -- as the oracle of the
    kernel-basis version.  The RREF is fully reduced, so no other row
    touches a lead and the leads can be read in any order.  The left and
    the right actions of a step share one kv list, so its RREF is built
    once per step, matched by identity.  Returns the actions as column
    lists."""
    if _OLD_RREF[0] is not kv:
        _OLD_RREF[:] = [kv, LinSubspace(len(cols[0]), kv)]
    sub = _OLD_RREF[1]
    row_of = {min(row): r for r, row in enumerate(sub.rows)}
    out = []
    for mat in cols:
        columns = []
        for v in sub.rows:
            img = apply_cols(mat, v)
            coords = {row_of[i]: x for i, x in img.items() if i in row_of}
            for r, x in coords.items():
                vec_addmul(img, -x, sub.rows[r])
            assert not img
            columns.append({r: x for r, x in coords.items() if x})
        out.append(columns)
    return out


def _two_sided_simple(a, i, j):
    """The one-dimensional (a, a)-bimodule on which e_i acts on the left,
    e_j on the right, and every other basis element by 0."""
    pres = presentation(a)
    return Bimodule(a, a, 1, _at(a, pres.index[i]), _at(a, pres.index[j]),
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
        # syzygies in the kernel basis resolve like those in the RREF basis
        with mock.patch.object(algebras, "_restrict", _old_restrict):
            oracle = minimal_resolution(m, 3)
        assert minimal_resolution(m, 3) == oracle


# ---------------------------------------------------------------------------
# bimodule actions as column lists, against the matrix code they replaced,
# on dense matrices


def _check_cases():
    """A regular, a corner and a Tor bimodule over A2, each with a
    radical basis element acting and of dimension > 1."""
    a = zoo.get("A2")
    corner = corner_bimodule(a, "2", "1")
    tor = derived_tensor(corner, corner, bound=0)[0]
    return [regular_bimodule(a), corner, tor]


CHECK_MESSAGES = ["left action is not unital", "right action is not unital",
                  "left action is not an algebra action",
                  "right action is not an algebra action",
                  "left and right actions do not commute"]


def _with_column(acts, k, c, col):
    """acts with column c of the action of b_k replaced by col."""
    out = [list(act) for act in acts]
    out[k][c] = col
    return out


def _breaking(m, law):
    """The (left, right) actions of m with the law-th law that
    Bimodule._check verifies broken, and none before it."""
    left, right = m.left, m.right
    if law < 2:
        # one unit term acts on column 0 with e_0 added
        acts = (left, right)[law]
        v = min((m.A, m.B)[law].unit)
        broken = _with_column(acts, v, 0, vec_sub(acts[v][0], {0: -1}))
        return (broken, right) if law == 0 else (left, broken)
    if law < 4:
        # a radical basis element fixing a vector is not nilpotent
        alg, acts = ((m.A, left), (m.B, right))[law - 2]
        k = min(set(range(alg.dim)) - set(alg.unit))
        broken = _with_column(acts, k, 0, {0: 1})
        return (broken, right) if law == 2 else (left, broken)
    # the right action in a basis with one corrupted column, P = 1 + E_rc:
    # still an algebra action, but no longer commuting with the left one
    lmats = [_dense(act, m.dim) for act in left]
    for r in range(m.dim):
        for c in range(m.dim):
            if r == c:
                continue
            p, q = _oracle_identity(m.dim), _oracle_identity(m.dim)
            p[r][c], q[r][c] = 1, -1
            rmats = [_oracle_product(q, _oracle_product(_dense(act, m.dim),
                                                        p))
                     for act in right]
            if any(_oracle_product(x, y) != _oracle_product(y, x)
                   for x in lmats for y in rmats):
                return left, [_columns(mat, m.dim) for mat in rmats]
    raise AssertionError("no corruption breaks commutation")


def test_bimodule_check_refuses_each_broken_law():
    """Each of the five laws, broken on a regular, a corner and a Tor
    bimodule, is refused with its own message; the intact actions pass."""
    for m in _check_cases():
        Bimodule(m.A, m.B, m.dim, m.left, m.right)
        for law, message in enumerate(CHECK_MESSAGES):
            left, right = _breaking(m, law)
            with pytest.raises(InvariantError) as refused:
                Bimodule(m.A, m.B, m.dim, left, right)
            assert str(refused.value) == message, (m, law)


def test_laws_with_one_zero_operand_are_checked():
    """A law whose one side is bilinear in a zero product and whose other
    side is not is still checked: on 1, x, y with x y = y, (x x) y = 0 but
    x (x y) = y; Q[x]/x^2 acting on Q^3 by the shift e0 -> e1 -> e2 -> 0
    has x x = 0 but a nonzero action of x x."""
    one = [("1", b, {b: 1}) for b in ("1", "x", "y")] + \
        [(b, "1", {b: 1}) for b in ("x", "y")]
    with pytest.raises(InvariantError) as refused:
        structure_algebra("xy=y", ["1", "x", "y"], {"1": 1},
                          one + [("x", "y", {"y": 1})])
    assert str(refused.value) == "associativity fails on (x,x,y)"
    dual = structure_algebra("Q[x]/x^2", ["1", "x"], {"1": 1},
                             [("1", "1", {"1": 1}), ("1", "x", {"x": 1}),
                              ("x", "1", {"x": 1})])
    q = structure_algebra("Q", ["1"], {"1": 1}, [("1", "1", {"1": 1})])
    ident = [{0: 1}, {1: 1}, {2: 1}]
    shift = [{1: 1}, {2: 1}, {}]
    with pytest.raises(InvariantError) as refused:
        Bimodule(dual, q, 3, [ident, shift], [ident])
    assert str(refused.value) == "left action is not an algebra action"


def test_bimodule_check_refuses_a_misshapen_action_first():
    """Each action map is checked for dim columns, and for row indices in
    [0, dim), before any law, also one that only zero products would
    reach.  Q[x]/x^2 on Q^2 with x acting by a column that reaches row 5,
    in either column, once leaked IndexError from apply_cols."""
    dual = structure_algebra("Q[x]/x^2", ["1", "x"], {"1": 1},
                             [("1", "1", {"1": 1}), ("1", "x", {"x": 1}),
                              ("x", "1", {"x": 1})])
    q = structure_algebra("Q", ["1"], {"1": 1}, [("1", "1", {"1": 1})])
    ident = [{0: 1}, {1: 1}]
    for x in ([{}, {5: 1}], [{5: 1}, {}]):
        with pytest.raises(InvariantError) as refused:
            Bimodule(dual, q, 2, [ident, x], [ident])
        assert str(refused.value) == ("left action has a row index outside "
                                      "the dimension 2")
    a = zoo.get("A2")
    m = regular_bimodule(a)
    k = min(set(range(a.dim)) - set(a.unit))
    for side in ("left", "right"):
        acts = {"left": list(m.left), "right": list(m.right)}
        acts[side][k] = acts[side][k][:-1]
        with pytest.raises(InvariantError) as refused:
            Bimodule(a, a, m.dim, acts["left"], acts["right"])
        assert str(refused.value) == ("shape mismatch: a map with %d columns "
                                      "in a combination on dimension %d"
                                      % (m.dim - 1, m.dim))


def _old_content_key(m):
    """Bimodule.content_key on (row, col)-keyed actions, as it was."""
    parts = [m.dim]
    for mat in [_dense(cols, m.dim) for cols in m.left + m.right]:
        parts.append(tuple(sorted(((r, c), v) for r, row in enumerate(mat)
                                  for c, v in enumerate(row) if v)))
    return tuple(map(str, parts))


def _zoo_bimodules(a):
    """The regular bimodule of a and, when a has a presentation, its corner
    bimodules at the first and last vertex and their nonzero Tor_0."""
    out = [regular_bimodule(a)]
    if presentation(a) is not None:
        vs = presentation(a).vertices
        corners = [corner_bimodule(a, i, j) for i in (vs[0], vs[-1])
                   for j in (vs[0], vs[-1])]
        out += corners
        out += [t for x in corners for y in corners
                for t in derived_tensor(x, y, bound=0) if t.dim]
    return out


@pytest.mark.parametrize("name", zoo.ZOO_NAMES)
def test_content_key_matches_the_matrix_key(name):
    """Also in a unitriangular basis, where the actions are dense."""
    for m in _zoo_bimodules(zoo.get(name)):
        assert m.content_key() == _old_content_key(m)
        scrambled = _conjugated(m)
        assert scrambled.content_key() == _old_content_key(scrambled)


@pytest.mark.parametrize("name", zoo.ZOO_NAMES)
def test_coefficient_bimodule_matches_kron(name):
    """The coefficients y (x) x of the Tor complex equal the Kronecker
    products I (x) y.left[k] and x.right[k] (x) I they replaced, built by
    the sparse oracle (test_exactlin pins it against the dense one)."""
    mods = _zoo_bimodules(zoo.get(name))
    for x, y in zip(mods, mods[1:] + mods[:1]):
        with mock.patch.object(algebras, "_chain_basis",
                               wraps=algebras._chain_basis) as spy:
            derived_tensor(x, y, bound=0)
        m = spy.call_args.args[0]
        ix, iy = _oracle_identity(x.dim), _oracle_identity(y.dim)
        assert m.left == [_sparse_kron(ix, _dense(g, y.dim))
                          for g in y.left]
        assert m.right == [_sparse_kron(_dense(g, x.dim), iy)
                           for g in x.right]


def test_resolution_stops_at_the_memory_guard(monkeypatch):
    """A resolution term above the memory guard is refused before its cover
    is built: global_dimension raises and stores nothing, the certificate
    reader reads the refusal as no certificate, so HP on three loops keeps
    its window verdict and an uncertified derived tensor refuses."""
    a = loop_algebra("xyz")
    monkeypatch.setattr(algebras, "DEFAULT_CAP", 100)
    # the terms over the simple have dimensions 4 * 3^k: P_3 has 108
    assert global_dimension(a, bound=2) is None
    with pytest.raises(CapExceededError,
                       match="resolution term dimension 108 exceeds the "
                             "memory guard 100"):
        global_dimension(a, bound=6)
    assert list(a._gldim) == [2]
    assert algebras._gldim_certificate(a, 6) is None
    hp = periodic_cyclic(a, 6)
    assert (hp.super_dims, hp.certificate) == ((1, 0), "WINDOW-STABLE")
    s, t = _right_simple(a, 1), _left_simple(a, 1)
    with pytest.raises(UncertifiedError):
        derived_tensor(s, t)


def test_ground_and_reduced_bases_are_built_once_per_algebra(monkeypatch):
    """Two derived tensors (one relative to the vertices of A2, one over
    Q.1 because a factor's basis is not adapted to them) and a Hochschild
    complex over a fresh A2 read its ground once and build the reduced
    basis of each ground once; the memos equal a fresh computation."""
    grounds, reduced = [], []
    read_ground, real_reduced = algebras._read_ground, algebras._Reduced

    def counted_ground(b):
        grounds.append(b)
        return read_ground(b)

    def counted_reduced(b, corners=None):
        reduced.append((b, corners is not None))
        return real_reduced(b, corners)

    monkeypatch.setattr(algebras, "_read_ground", counted_ground)
    monkeypatch.setattr(algebras, "_Reduced", counted_reduced)
    a = zoo.a2_algebra()
    reg = regular_bimodule(a)
    scrambled = _conjugated(reg)
    derived_tensor(corner_bimodule(a, "1", "2"), reg)
    derived_tensor(reg, scrambled)
    hochschild_complex(a, n_max=3)
    hochschild_complex(a, scrambled, n_max=3)
    assert grounds == [a]
    assert sorted(reduced, key=lambda r: r[1]) == [(a, False), (a, True)]
    monkeypatch.undo()
    assert algebras._basis_ground(a) == read_ground(a)
    for relative, corners in ((False, None), (True, read_ground(a))):
        fresh = real_reduced(a, corners)
        assert vars(algebras._reduced(a, relative)) == vars(fresh)
