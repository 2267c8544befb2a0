import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from ncmotives import algebras, zoo
from ncmotives.errors import InvariantError, UncertifiedError
from ncmotives.exactlin import QMatrix, matrix_rank, inverse, is_nilpotent_by_traces
from ncmotives.algebras import (corner_bimodule, Bimodule, regular_bimodule,
                                derived_tensor, global_dimension,
                                _vertex_ends)
from ncmotives.hochschild import hp_of_homomorphism, periodic_cyclic
from ncmotives.motives import (
    Correspondence, unit_correspondence, compose, categorical_trace,
    intersection_number, canonical_span, correspondence_class_vector,
    numerical_kernel, pairing_matrix, semisimplicity_check, even_projector_in_span, kernel_comparison,
    row_projective_correspondence,
    column_projective_correspondence, is_env_projective, bimodule_class_vector,
)
from test_hochschild import quiver_algebras, _two_cycle


def cartan(a):
    pres = a.quiver
    vs = pres.vertices
    return {(i, j): sum(1 for k in range(a.dim)
                        if pres.path_source[k] == i and pres.path_target[k] == j)
            for i in vs for j in vs}


def test_unit_acts_as_identity():
    a = zoo.get("A2")
    u = unit_correspondence(a)
    for x in canonical_span(a):
        left = compose(u, x)
        right = compose(x, u)
        assert correspondence_class_vector(left) == \
            correspondence_class_vector(x) == \
            correspondence_class_vector(right)


def test_compose_over_semisimple_is_plain_tensor():
    qq = zoo.get("QxQ")
    span = canonical_span(qq)
    for x in span:
        for y in span:
            z = compose(x, y)
            # at most one term, in degree 0 only (no higher Tor)
            assert all(c > 0 for c, _ in z.terms)


def test_compose_matches_cartan_matrix_model():
    """[Ae_i (x) e_jA] o [Ae_k (x) e_lA] = C_jk [Ae_i (x) e_lA]: the K_0
    matrix model with the Cartan matrix in the middle."""
    for name in ("A2", "A3", "square"):
        a = zoo.get(name)
        c = cartan(a)
        vs = a.quiver.vertices
        for i in vs[:2]:
            for j in vs:
                for k in vs:
                    x = Correspondence(a, a, [(1, corner_bimodule(a, i, j))])
                    y = Correspondence(a, a, [(1, corner_bimodule(a, k, vs[-1]))])
                    z = compose(x, y)
                    got = correspondence_class_vector(z)
                    expect = {}
                    if c[(j, k)]:
                        expect[(i, vs[-1])] = Fraction(c[(j, k)])
                    assert got == expect


def test_trace_of_unit_is_euler_characteristic():
    expected = {"Q": 1, "QxQ": 2, "QxQxQ": 3, "M2(Q)": 1,
                "A2": 2, "A3": 3, "square": 4}
    for name, chi in expected.items():
        a = zoo.get(name)
        assert categorical_trace(unit_correspondence(a)) == chi


def test_adding_correspondences_between_other_algebras_is_refused():
    """Correspondences with another source or target do not add; the check
    raises InvariantError, which, unlike an assert, python -O keeps."""
    a2, q = zoo.get("A2"), zoo.get("Q")
    u = unit_correspondence(a2)
    assert len((u + u.scale(2)).terms) == 2
    with pytest.raises(InvariantError, match="cannot add"):
        u + unit_correspondence(q)


def test_intersection_number_base_cases():
    q = zoo.get("Q")
    u = unit_correspondence(q)
    assert intersection_number(u, u) == 1
    z = Correspondence(q, q, [])
    assert intersection_number(z, u) == 0
    a2 = zoo.get("A2")
    assert intersection_number(unit_correspondence(a2),
                               unit_correspondence(a2)) == 2


def test_pairing_agrees_with_trace_of_composite():
    """<x . y> = tr(x o y) on randomized rational combinations; the pairing
    values themselves are pinned by the Cartan model."""
    rng = random.Random(42)
    for name in ("QxQ", "A2"):
        a = zoo.get(name)
        span = canonical_span(a)
        c = cartan(a)
        vs = a.quiver.vertices
        for _ in range(12):
            coeffs1 = [Fraction(rng.randint(-3, 3), rng.randint(1, 3))
                       for _ in span]
            coeffs2 = [Fraction(rng.randint(-3, 3), rng.randint(1, 3))
                       for _ in span]
            x = Correspondence(a, a, [(cc, s.terms[0][1])
                                      for cc, s in zip(coeffs1, span) if cc])
            y = Correspondence(a, a, [(cc, s.terms[0][1])
                                      for cc, s in zip(coeffs2, span) if cc])
            lhs = intersection_number(x, y)
            rhs = categorical_trace(compose(x, y))
            assert lhs == rhs
            # independent oracle: <[Ae_i(x)e_jA].[Ae_k(x)e_lA]> = C_jk C_li
            oracle = Fraction(0)
            pairs = [(i, j) for i in vs for j in vs]
            for (i, j), c1 in zip(pairs, coeffs1):
                for (k, l), c2 in zip(pairs, coeffs2):
                    oracle += c1 * c2 * c[(j, k)] * c[(l, i)]
            assert lhs == oracle


def test_pairing_matrices_unchanged_by_the_vertex_relative_complex(
        monkeypatch):
    """The pairing matrices of the canonical spans of A2, A3 and square
    follow the Cartan model <[P_ij].[P_kl]> = C_jk C_li, and equal those
    computed with every Hochschild complex and every Tor taken relative
    to Q.1."""
    names = ("A2", "A3", "square")
    spans = {name: canonical_span(zoo.get(name)) for name in names}
    relative = {name: pairing_matrix(span, span).matrix
                for name, span in spans.items()}
    for name in names:
        a = zoo.get(name)
        c = cartan(a)
        vs = a.quiver.vertices
        pairs = [(i, j) for i in vs for j in vs]
        assert relative[name] == QMatrix(
            len(pairs), len(pairs),
            {(p, q): c[(j, k)] * c[(l, i)]
             for p, (i, j) in enumerate(pairs)
             for q, (k, l) in enumerate(pairs)})
    asked = []

    def absolute(m):
        asked.append(m.dim)
        return None

    monkeypatch.setattr(algebras, "_vertex_ends", absolute)
    for name, span in spans.items():
        assert pairing_matrix(span, span).matrix == relative[name]
    # derived_tensor reads the same rule, on y (x) x
    a3 = zoo.get("A3")
    x = corner_bimodule(a3, *a3.quiver.vertices[:2])
    del asked[:]
    derived_tensor(x, x)
    assert asked == [x.dim * x.dim]


def test_tor_of_corner_bimodules_is_vertex_adapted():
    """Every nonzero Tor of two corner bimodules of A3 and square has a
    vertex-adapted basis, so its Euler characteristic in the pairing comes
    from the complex relative to Q^{Q_0}."""
    for name in ("A3", "square"):
        a = zoo.get(name)
        vs = a.quiver.vertices
        corners = [corner_bimodule(a, i, j) for i in vs for j in vs]
        for x in corners:
            for y in corners:
                for t in derived_tensor(x, y):
                    assert not t.dim or _vertex_ends(t) is not None


def test_pairing_bilinear():
    a = zoo.get("A2")
    span = canonical_span(a)
    x, y, z = span[0], span[1], span[2]
    s = Fraction(3, 7)
    lhs = intersection_number(x + y.scale(s), z)
    rhs = intersection_number(x, z) + s * intersection_number(y, z)
    assert lhs == rhs


def test_trace_nilpotency_bridge():
    """If all power traces of a correspondence vanish, its periodic
    realization matrix is nilpotent (checked by the trace criterion)."""
    qq = zoo.get("QxQ")
    # x = [P_1-block] - [P_2-block]: realization diag(1, -1), traces != 0
    e11 = corner_bimodule(qq, "1", "1")
    e22 = corner_bimodule(qq, "2", "2")
    x = Correspondence(qq, qq, [(1, e11), (-1, e22)])
    assert categorical_trace(compose(x, x)) == 2    # tr of x^2 = 2 != 0
    # y with y o y = 0: off-diagonal corner over QxQ is the zero bimodule,
    # so build a nilpotent witness over A2 instead: N = [Ae_1 (x) e_2A]
    a2 = zoo.get("A2")
    n = Correspondence(a2, a2, [(1, corner_bimodule(a2, "1", "2"))])
    n2 = compose(n, n)
    assert n2.is_zero()
    assert categorical_trace(n) == 0
    # realization of a trace-nilpotent correspondence: strictly upper
    # triangular on the 2-dim even part in the P-class basis
    realization = QMatrix(2, 2, {(0, 1): 1})
    assert is_nilpotent_by_traces(realization)


def test_numerical_kernel_nondegenerate_projective_span():
    for name in ("QxQ", "A2", "A3"):
        a = zoo.get(name)
        nq = numerical_kernel(a, a, canonical_span(a))
        assert nq.kernel.dim == 0
        assert nq.dim_after == nq.dim_before


def test_numerical_kernel_catches_zero_and_duplicates():
    a = zoo.get("A2")
    span = canonical_span(a)
    zero = Correspondence(a, a, [])
    nq = numerical_kernel(a, a, span + [zero])
    assert nq.kernel.dim == 1
    assert nq.kernel.contains({len(span): 1})
    dup = span + [span[0]]
    nq = numerical_kernel(a, a, dup)
    assert nq.kernel.dim == 1
    assert nq.kernel.contains({0: 1, len(span): -1})


def test_numerical_kernel_euler_form_determinant_oracle():
    """Nondegeneracy matches the determinant of the Cartan-model Gram
    matrix, computed independently."""
    for name in ("A2", "square"):
        a = zoo.get(name)
        c = cartan(a)
        vs = a.quiver.vertices
        pairs = [(i, j) for i in vs for j in vs]
        gram = [[c[(j, k)] * c[(l, i)] for (k, l) in pairs]
                for (i, j) in pairs]
        m = QMatrix.from_rows(gram)
        nq = numerical_kernel(a, a, canonical_span(a))
        assert (nq.kernel.dim == 0) == (matrix_rank(m) == len(pairs))
        assert {(r, c2): Fraction(v) for (r, c2), v in
                nq.pairing.matrix.entries.items()} == \
            {k: Fraction(v) for k, v in m.entries.items()}


def test_numerical_kernel_is_two_sided_ideal():
    """Kernel directions stay in the kernel under composition by basis
    elements (two-sidedness of numerical equivalence on the example)."""
    a = zoo.get("A2")
    span = canonical_span(a)
    zero = Correspondence(a, a, [])
    basis = span + [zero]
    nq = numerical_kernel(a, a, basis)
    for kvec in nq.kernel.basis():
        # realize the kernel vector as an honest correspondence
        terms = []
        for idx, c in kvec.items():
            terms.extend((c * t_c, bim) for t_c, bim in basis[idx].terms)
        k_corr = Correspondence(a, a, terms)
        for g in span:
            for prod in (compose(k_corr, g), compose(g, k_corr)):
                for h in span:
                    assert intersection_number(prod, h) == 0


def test_semisimplicity_zoo():
    for name in ("Q", "QxQ", "A2", "A3", "dual", "cubic", "M2(Q)", "square"):
        rep = semisimplicity_check(zoo.get(name))
        assert rep.radical_dim == 0, name
        assert rep.quotient_dim == rep.span_size - rep.kernel_dim


def test_semisimplicity_refuses_unclosed_span():
    a = zoo.get("A2")
    span = canonical_span(a)
    # {[Ae_1(x)e_1A], [Ae_2(x)e_2A]} composes into [Ae_1(x)e_2A]: not closed
    bad = [span[0], span[3]]
    with pytest.raises(UncertifiedError):
        semisimplicity_check(a, bad)


def test_semisimplicity_numerically_trivial_span():
    a = zoo.get("A2")
    # the nilpotent corner class pairs to zero with itself: zero quotient
    rep = semisimplicity_check(a, [canonical_span(a)[1]])
    assert rep.quotient_dim == 0 and rep.radical_dim == 0


def test_env_projectivity_detection():
    dual = zoo.get("dual")
    assert is_env_projective(corner_bimodule(dual, "1", "1"))
    assert not is_env_projective(regular_bimodule(dual))


def test_cnc_separable_unit_witness():
    for name in ("Q", "QxQ", "QxQxQ", "M2(Q)"):
        a = zoo.get(name)
        hp = periodic_cyclic(a, n_max=5)
        de, do = hp.super_dims
        assert do == 0
        gens = [(unit_correspondence(a),
                 (QMatrix.identity(de), QMatrix.identity(do)))]
        v = even_projector_in_span(a, gens)
        assert v.found
        assert v.witness == {0: 1}


def projection_generators_qxq(n_max=5):
    """The two projection correspondences of QxQ with realizations derived
    from hp_of_homomorphism data."""
    qq = zoo.get("QxQ")
    q = zoo.get("Q")
    proj1 = QMatrix(1, 2, {(0, 0): 1})
    proj2 = QMatrix(1, 2, {(0, 1): 1})
    p1, _ = hp_of_homomorphism(proj1, qq, q, n_max=n_max)
    p2, _ = hp_of_homomorphism(proj2, qq, q, n_max=n_max)
    m = QMatrix(2, 2, {(0, c): v for (r, c), v in p1.entries.items()}
                | {(1, c): v for (r, c), v in p2.entries.items()})
    minv = inverse(m)
    assert minv is not None
    picks = [QMatrix(2, 2, {(0, 0): 1}), QMatrix(2, 2, {(1, 1): 1})]
    realizations = [minv * pick * m for pick in picks]

    def projection_bimodule(vertex_idx):
        left = [QMatrix(1, 1, {(0, 0): 1} if i == vertex_idx else None)
                for i in range(2)]
        right = [QMatrix(1, 1, {(0, 0): 1} if i == vertex_idx else None)
                 for i in range(2)]
        return Bimodule(qq, qq, 1, left, right, name="proj_%d" % vertex_idx)

    gens = []
    for idx in (0, 1):
        corr = Correspondence(qq, qq, [(1, projection_bimodule(idx))],
                              name="pi_%d" % (idx + 1))
        gens.append((corr, (realizations[idx], QMatrix.zero(0, 0))))
    return qq, gens


def test_cnc_qxq_projection_generators():
    qq, gens = projection_generators_qxq()
    v = even_projector_in_span(qq, gens)
    assert v.found
    # the witness is the sum of the two projections
    assert v.witness == {0: 1, 1: 1}


def test_cnc_witness_keys_are_sorted():
    """The printed witness does not depend on the order in which the
    elimination found its coefficients."""
    qq, gens = projection_generators_qxq()
    for order in (gens, gens[::-1]):
        v = even_projector_in_span(qq, order)
        assert list(v.witness) == sorted(v.witness)
    assert repr(even_projector_in_span(qq, gens).witness) == "{0: 1, 1: 1}"


def test_cnc_undecided_in_small_span():
    """A span whose realizations cannot produce (id, 0): supplied data with
    a forced odd part (no degree-zero algebra realizes it, so the checker is
    exercised on declared matrices)."""
    q = zoo.get("Q")
    gens = [(unit_correspondence(q),
             (QMatrix.identity(1), QMatrix.identity(1)))]
    v = even_projector_in_span(q, gens)
    assert not v.found
    assert v.status == "UNDECIDED-IN-SPAN"


def test_cnc_rejects_inconsistent_realizations():
    qq = zoo.get("QxQ")
    bad = [(unit_correspondence(qq),
            (QMatrix(2, 2, {(0, 0): 1, (1, 1): 2}), QMatrix.zero(0, 0)))]
    with pytest.raises(InvariantError):
        even_projector_in_span(qq, bad)


def test_dnc_equal_on_acceptance_algebras():
    for name in ("Q", "QxQ", "A2", "A3"):
        v = kernel_comparison(zoo.get(name), n_max=6)
        assert v.equal
        assert v.ker_hom.dim == 0 and v.ker_num.dim == 0
        assert v.caveat == ""


def test_dnc_equal_on_the_two_cycle_algebra():
    """The quiver 1 <-> 2 with xy = 0 (global dimension 2) has composable
    chains in every degree of its relative mixed complex; its verdict is
    the one the complex relative to Q.1 gives."""
    v = kernel_comparison(_two_cycle(), n_max=6)
    assert v.equal
    assert v.ker_hom.dim == 0 and v.ker_num.dim == 0
    assert v.caveat == ""


def test_dnc_refuses_without_quiver():
    with pytest.raises(UncertifiedError):
        kernel_comparison(zoo.get("M2(Q)"), n_max=5)


def test_kernel_comparison_window_stable_caveat():
    """The dual numbers only reach WINDOW-STABLE: the comparison proceeds
    but records the truncation caveat; with K0 of rank one and pairing 2,
    both kernels vanish."""
    v = kernel_comparison(zoo.get("dual"), n_max=6)
    assert v.equal
    assert v.caveat
    assert v.ker_hom.dim == 0 and v.ker_num.dim == 0


def test_kernel_comparison_refuses_not_stabilized():
    with pytest.raises(UncertifiedError):
        kernel_comparison(zoo.get("dual"), n_max=4)


def test_compose_associative_on_k0_classes():
    """(x o y) o z = x o (y o z) as class vectors, over gldim <= 2 members."""
    for name in ("A2", "square"):
        a = zoo.get(name)
        span = canonical_span(a)
        triples = [(span[0], span[1], span[-1]),
                   (span[1], span[-1], span[0]),
                   (span[0], span[-2], span[-1])]
        for x, y, z in triples:
            left = compose(compose(x, y), z)
            right = compose(x, compose(y, z))
            assert correspondence_class_vector(left) == \
                correspondence_class_vector(right)


def test_k0_pairing_is_cartan_matrix():
    a = zoo.get("A3")
    c = cartan(a)
    vs = a.quiver.vertices
    for i, v in enumerate(vs):
        x = row_projective_correspondence(a, v)
        for j, w in enumerate(vs):
            y = column_projective_correspondence(a, w)
            assert intersection_number(x, y) == c[(v, w)]


def assert_cartan_identity(m):
    """C . X . C = D(M): X the class vector of the (A, A)-bimodule m over
    the P_ij = Ae_i (x) e_jA, C_kl = dim e_k A e_l and D(M)_kl the rank of
    e_k . m . e_l (e_k P_ij e_l has dimension C_ki C_jl)."""
    a = m.A
    c = cartan(a)
    x = bimodule_class_vector(m)
    vs = a.quiver.vertices
    idx = a.quiver.vertex_idx
    for k in vs:
        for l in vs:
            cxc = sum(c[(k, i)] * x.get((i, j), 0) * c[(j, l)]
                      for i in vs for j in vs)
            assert cxc == matrix_rank(m.left[idx[k]] * m.right[idx[l]])


@settings(deadline=None, max_examples=30)
@given(st.data())
def test_class_vector_cartan_identity_on_random_quivers(data):
    """Class vectors from resolutions of one term (the Tor of the regular
    bimodule with a corner bimodule), up to gldim + 1 terms (the regular
    bimodule) and up to 2 gldim + 1 terms (the simple bimodule at (i, j))."""
    a = data.draw(quiver_algebras())
    assume(a.dim <= 6)
    g = global_dimension(a, bound=4)
    assume(g is not None)
    reg = regular_bimodule(a)
    vs = a.quiver.vertices
    i, j = data.draw(st.sampled_from(vs)), data.draw(st.sampled_from(vs))
    tors = derived_tensor(reg, corner_bimodule(a, i, j), bound=g)

    def at(v):
        return [QMatrix.identity(1) if k == a.quiver.vertex_idx[v]
                else QMatrix.zero(1, 1) for k in range(a.dim)]

    simple = Bimodule(a, a, 1, at(i), at(j))
    for m in [reg, simple] + [t for t in tors if t.dim]:
        assert_cartan_identity(m)
