import random
from fractions import Fraction

import pytest
from hypothesis import assume, event, given, settings, strategies as st

from ncmotives import algebras, motives, zoo
from ncmotives.errors import InvariantError, UncertifiedError, CapExceededError
from ncmotives.exactlin import (Elimination, compose_cols, identity_cols,
                               kernel, matrix_rank, inverse,
                               is_nilpotent_by_traces)
from ncmotives.algebras import (corner_bimodule, Bimodule, regular_bimodule,
                                structure_algebra,
                                derived_tensor, global_dimension,
                                presentation, _vertex_ends)
from ncmotives.hochschild import (hp_of_homomorphism, periodic_cyclic,
                                  DEFAULT_CAP)
from ncmotives.motives import (
    Correspondence, unit_correspondence, compose, categorical_trace,
    intersection_number, canonical_span, correspondence_class_vector,
    numerical_kernel, pairing_matrix, semisimplicity_check, even_projector_in_span, kernel_comparison,
    row_projective_correspondence,
    column_projective_correspondence, is_env_projective, bimodule_class_vector,
    cartan_counts, _tor_intersection_number,
    _compose_classes, _span_structure_constants, SemisimplicityReport,
)
from test_exactlin import _columns, _dense
from test_hochschild import (quiver_algebras, _two_cycle, _in_basis, _rescaled,
                             MONOMIAL_SCALES)


def cartan(a):
    pres = presentation(a)
    vs = pres.vertices
    return {(i, j): sum(1 for k in range(a.dim)
                        if pres.ends[k][0] == i and pres.ends[k][1] == j)
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
        vs = presentation(a).vertices
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
        vs = presentation(a).vertices
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
    follow the Cartan model <[P_ij].[P_kl]> = C_jk C_li, both from class
    vectors (pairing_matrix) and through Tor and HH, and the Tor route
    gives the same matrices with every Hochschild complex and every Tor
    taken relative to Q.1."""
    names = ("A2", "A3", "square")
    spans = {name: canonical_span(zoo.get(name)) for name in names}

    def tor_matrix(span):
        return [[_tor_intersection_number(x, y) for y in span] for x in span]

    relative = {name: tor_matrix(span) for name, span in spans.items()}
    for name in names:
        a = zoo.get(name)
        c = cartan(a)
        vs = presentation(a).vertices
        pairs = [(i, j) for i in vs for j in vs]
        model = [[c[(j, k)] * c[(l, i)] for (k, l) in pairs]
                 for (i, j) in pairs]
        assert relative[name] == model
        assert pairing_matrix(spans[name], spans[name]).columns == \
            _columns(model, len(model))
    asked = []

    def absolute(m):
        asked.append(m.dim)
        return None

    monkeypatch.setattr(algebras, "_vertex_ends", absolute)
    for name, span in spans.items():
        del asked[:]
        assert tor_matrix(span) == relative[name]
        assert asked
    # derived_tensor reads the same rule, on y (x) x
    a3 = zoo.get("A3")
    x = corner_bimodule(a3, *presentation(a3).vertices[:2])
    del asked[:]
    derived_tensor(x, x)
    assert asked == [x.dim * x.dim]


def test_tor_of_corner_bimodules_is_vertex_adapted():
    """Every nonzero Tor of two corner bimodules of A3 and square has a
    vertex-adapted basis, so its Euler characteristic in the pairing comes
    from the complex relative to Q^{Q_0}."""
    for name in ("A3", "square"):
        a = zoo.get(name)
        vs = presentation(a).vertices
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
    assert not n2.terms
    assert categorical_trace(n) == 0
    # realization of a trace-nilpotent correspondence: strictly upper
    # triangular on the 2-dim even part in the P-class basis
    realization = [{}, {0: 1}]
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
        vs = presentation(a).vertices
        pairs = [(i, j) for i in vs for j in vs]
        gram = [[c[(j, k)] * c[(l, i)] for (k, l) in pairs]
                for (i, j) in pairs]
        m = _columns(gram, len(pairs))
        nq = numerical_kernel(a, a, canonical_span(a))
        assert (nq.kernel.dim == 0) == (matrix_rank(m) == len(pairs))
        assert nq.pairing.columns == m


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


def _oracle_semisimplicity_check(a, basis=None, cap=DEFAULT_CAP):
    """semisimplicity_check as it was: its own pairing, kernel and unit
    elimination, and the quotient through structure_algebra's labels."""
    if basis is None:
        basis = canonical_span(a) if presentation(a) is not None \
            else [unit_correspondence(a)]
    table = _span_structure_constants(a, basis, cap)
    pm = pairing_matrix(basis, basis, cap)
    n = len(basis)
    gram = _dense(pm.columns, n)
    ker = kernel(_columns([list(col) for col in zip(*gram)], n))
    # quotient coordinates: complement of the kernel
    kept = [i for i in range(n)
            if not any(min(row) == i for row in ker.rows)]
    if not kept:
        # the span is numerically trivial: the zero algebra is semisimple
        return SemisimplicityReport(a.name, n, pm.rank, ker.dim, 0, 0, None)
    # structure constants on the quotient: reduce products mod the kernel
    reduced = {(i, j): ker.reduce(table[(i, j)]) for i in kept for j in kept}
    pos = {k: t for t, k in enumerate(kept)}
    products = []
    labels = ["q%d" % k for k in kept]
    for i in kept:
        for j in kept:
            prod = reduced[(i, j)]
            products.append((labels[pos[i]], labels[pos[j]],
                             {labels[pos[k]]: v for k, v in prod.items()
                              if k in pos}))
    # unit of the quotient algebra: solve u . q_j = q_j for all j
    qdim = len(kept)
    lhs = [{} for _ in range(qdim)]
    for u_idx, i in enumerate(kept):
        for j_idx, j in enumerate(kept):
            for k, v in reduced[(i, j)].items():
                if k in pos:
                    lhs[u_idx][j_idx * qdim + pos[k]] = v
    target = {}
    for j_idx in range(qdim):
        target[j_idx * qdim + j_idx] = Fraction(1)
    elim = Elimination(track=True)
    for j in range(qdim):
        elim.add_column(lhs[j], j)
    unit_coeffs = elim.solve(target)
    if unit_coeffs is None:
        raise UncertifiedError("numerical quotient has no unit inside the "
                               "span; enlarge the basis")
    unit_labelled = {labels[j]: c for j, c in unit_coeffs.items()}
    quotient = structure_algebra("End/N(%s)" % a.name, labels, unit_labelled,
                                 products)
    rad = quotient.radical()
    return SemisimplicityReport(a.name, n, pm.rank, ker.dim, qdim, rad.dim,
                                quotient)


def _semisimplicity_outcome(check, a, basis=None):
    """Every field of the report and the quotient's basis, unit and table,
    in order, or the exception the check raises."""
    try:
        rep = check(a, basis)
    except Exception as exc:
        return type(exc).__name__, str(exc)
    fields = (rep.algebra_name, rep.span_size, rep.pairing_rank,
              rep.kernel_dim, rep.quotient_dim, rep.radical_dim,
              rep.semisimple)
    q = rep.structure
    if q is None:
        return fields, None
    return fields, (q.name, q.basis, list(q.unit.items()),
                    [(k, list(v.items())) for k, v in q.table.items()])


def test_semisimplicity_matches_the_oracle_on_the_zoo():
    for name in zoo.ZOO_NAMES:
        a = zoo.get(name)
        assert _semisimplicity_outcome(semisimplicity_check, a) == \
            _semisimplicity_outcome(_oracle_semisimplicity_check, a), name
    a = zoo.get("A2")
    for basis in ([canonical_span(a)[1]], [canonical_span(a)[0]],
                  [canonical_span(a)[0], canonical_span(a)[3]]):
        assert _semisimplicity_outcome(semisimplicity_check, a, basis) == \
            _semisimplicity_outcome(_oracle_semisimplicity_check, a, basis)
    # M2(Q) has no quiver: its span products are matched term by term, and
    # a span holding the unit twice has a kernel
    a = zoo.get("M2(Q)")
    u = unit_correspondence(a)
    for basis in ([u, u.scale(2)], [u.scale(-3), u], [u, u, u.scale(2)]):
        assert _semisimplicity_outcome(semisimplicity_check, a, basis) == \
            _semisimplicity_outcome(_oracle_semisimplicity_check, a, basis)


def test_cancelling_terms_leave_no_span_coefficient():
    """A composite lists its Tor terms unmerged, so two of equal content
    and opposite signs cancel: no zero coefficient enters the span table
    (where a zero at a kernel lead would survive the kernel reduction)."""
    a = zoo.get("M2(Q)")
    reg = regular_bimodule(a)
    span = [Correspondence(a, a, [(2, reg)])]
    z = Correspondence(a, a, [(1, reg), (-1, regular_bimodule(a))])
    assert motives._syntactic_span_coeffs(z, span) == {}
    z = Correspondence(a, a, [(1, reg), (3, reg), (-1, reg)])
    assert motives._syntactic_span_coeffs(z, span) == {0: Fraction(3, 2)}


@settings(deadline=None, max_examples=25)
@given(st.data())
def test_semisimplicity_matches_the_oracle_on_random_quivers(data):
    """On the canonical span, a part of it, or the span with a redundant
    combination added (a kernel, so kept coordinates that are not a
    prefix)."""
    a = data.draw(quiver_algebras())
    assume(a.dim <= 6)
    assume(global_dimension(a, bound=4) is not None)
    span = canonical_span(a)
    kind = data.draw(st.sampled_from(["canonical", "part", "redundant"]))
    if kind == "part":
        span = data.draw(st.lists(st.sampled_from(span), min_size=1,
                                  max_size=3))
    elif kind == "redundant":
        picks = data.draw(st.lists(st.sampled_from(span), min_size=1,
                                   max_size=2))
        extra = picks[0]
        for x in picks[1:]:
            extra = extra + x.scale(Fraction(-1, 2))
        span.insert(data.draw(st.integers(0, len(span))), extra)
    assert _semisimplicity_outcome(semisimplicity_check, a, span) == \
        _semisimplicity_outcome(_oracle_semisimplicity_check, a, span)


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


def test_span_products_without_a_quiver_take_the_cap():
    """M2(Q) has no quiver, so the products of a span holding its regular
    bimodule (without the unit's shortcut) are Tor composites, and the cap
    given to semisimplicity_check and even_projector_in_span guards their
    derived tensors, of 16 chains: 15 refuses them, 16 admits them."""
    a = zoo.get("M2(Q)")
    span = [Correspondence(a, a, [(1, regular_bimodule(a))], name="reg")]
    gens = [(span[0], (identity_cols(1), []))]
    for check in (lambda cap: semisimplicity_check(a, span, cap=cap),
                  lambda cap: even_projector_in_span(a, gens, cap=cap)):
        with pytest.raises(CapExceededError) as refused:
            check(15)
        assert refused.value.needed == 16
    assert semisimplicity_check(a, span, cap=16).radical_dim == 0
    assert even_projector_in_span(a, gens, cap=16).witness == {0: 1}


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
                 (identity_cols(de), identity_cols(do)))]
        v = even_projector_in_span(a, gens)
        assert v.found
        assert v.witness == {0: 1}


def projection_generators_qxq(n_max=5):
    """The two projection correspondences of QxQ with realizations derived
    from hp_of_homomorphism data."""
    qq = zoo.get("QxQ")
    q = zoo.get("Q")
    proj1 = [{0: 1}, {}]
    proj2 = [{}, {0: 1}]
    p1, _ = hp_of_homomorphism(proj1, qq, q, n_max=n_max)
    p2, _ = hp_of_homomorphism(proj2, qq, q, n_max=n_max)
    # m = (p1; p2): HP_even(QxQ) -> Q^2
    m = [{r: p[c][0] for r, p in enumerate((p1, p2)) if p[c]}
         for c in (0, 1)]
    minv = inverse(m)
    assert minv is not None
    picks = [[{0: 1}, {}], [{}, {1: 1}]]
    realizations = [compose_cols(minv, compose_cols(pick, m))
                    for pick in picks]

    def projection_bimodule(vertex_idx):
        left = [[{0: 1} if i == vertex_idx else {}] for i in range(2)]
        right = [[{0: 1} if i == vertex_idx else {}] for i in range(2)]
        return Bimodule(qq, qq, 1, left, right, name="proj_%d" % vertex_idx)

    gens = []
    for idx in (0, 1):
        corr = Correspondence(qq, qq, [(1, projection_bimodule(idx))],
                              name="pi_%d" % (idx + 1))
        gens.append((corr, (realizations[idx], [])))
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
             (identity_cols(1), identity_cols(1)))]
    v = even_projector_in_span(q, gens)
    assert not v.found
    assert v.status == "UNDECIDED-IN-SPAN"


def test_cnc_rejects_inconsistent_realizations():
    qq = zoo.get("QxQ")
    bad = [(unit_correspondence(qq), ([{0: 1}, {1: 2}], []))]
    with pytest.raises(InvariantError):
        even_projector_in_span(qq, bad)


@pytest.mark.parametrize("realizations, message", [
    ([(identity_cols(2), []), (identity_cols(1), [])], "mixed shapes"),
    ([(identity_cols(2), []), (identity_cols(2), identity_cols(1))],
     "mixed shapes"),
    ([([{0: 1}, {2: 1}], [])], "not square"),
    ([(identity_cols(2), [{1: 1}])], "not square"),
    ([([{0: 1}, {-1: 1}], [])], "not square"),
], ids=["even sizes", "odd sizes", "even 3x2", "odd 2x1", "negative row"])
def test_cnc_rejects_malformed_realization_shapes(realizations, message):
    """Realizations of one size, each a square map; the column lists carry
    no row count, so an entry below row 0 or past the last column is a
    non-square map."""
    qq = zoo.get("QxQ")
    gens = [(unit_correspondence(qq), pair) for pair in realizations]
    with pytest.raises(InvariantError, match=message):
        even_projector_in_span(qq, gens)


def test_dnc_equal_on_acceptance_algebras():
    for name in ("Q", "QxQ", "A2", "A3"):
        v = kernel_comparison(zoo.get(name), n_max=6)
        assert v.status == "EQUAL"
        assert v.ker_hom.dim == 0 and v.ker_num.dim == 0
        assert v.caveat == ""


def test_dnc_equal_on_the_two_cycle_algebra():
    """The quiver 1 <-> 2 with xy = 0 (global dimension 2) has composable
    chains in every degree of its relative mixed complex; its verdict is
    the one the complex relative to Q.1 gives."""
    v = kernel_comparison(_two_cycle(), n_max=6)
    assert v.status == "EQUAL"
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
    assert v.status == "EQUAL"
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
    vs = presentation(a).vertices
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
    vs = presentation(a).vertices
    idx = presentation(a).index
    for k in vs:
        for l in vs:
            cxc = sum(c[(k, i)] * x.get((i, j), 0) * c[(j, l)]
                      for i in vs for j in vs)
            assert cxc == matrix_rank(compose_cols(m.left[idx[k]],
                                                   m.right[idx[l]]))


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
    vs = presentation(a).vertices
    i, j = data.draw(st.sampled_from(vs)), data.draw(st.sampled_from(vs))
    tors = derived_tensor(reg, corner_bimodule(a, i, j), bound=g)

    def at(v):
        return [[{0: 1} if k == presentation(a).index[v] else {}]
                for k in range(a.dim)]

    simple = Bimodule(a, a, 1, at(i), at(j))
    for m in [reg, simple] + [t for t in tors if t.dim]:
        assert_cartan_identity(m)


def test_pairings_and_span_products_build_no_tor(monkeypatch):
    """With class vectors on both sides, pairing matrices, numerical
    kernels and span tables come from K_0; only compose builds Tor."""
    def refused(*args, **kwargs):
        raise AssertionError("derived_tensor called")

    monkeypatch.setattr(motives, "derived_tensor", refused)
    a = zoo.get("square")
    span = canonical_span(a)
    assert pairing_matrix(span, span).rank == len(span)
    assert numerical_kernel(a, a, span).kernel.dim == 0
    assert semisimplicity_check(a).radical_dim == 0
    assert kernel_comparison(zoo.get("A3"), n_max=6).status == "EQUAL"
    with pytest.raises(AssertionError, match="derived_tensor called"):
        compose(span[0], span[1])


def test_pairing_without_class_vectors_takes_the_tor_route():
    """The dual numbers have infinite global dimension, so the unit has no
    class vector; its pairing with itself is chi(HH(A; A)) through HH, as
    before, and refuses without a certificate."""
    dual = zoo.get("dual")
    u = unit_correspondence(dual)
    corner = canonical_span(dual)[0]
    with pytest.raises(UncertifiedError):
        correspondence_class_vector(u)
    assert intersection_number(corner, corner) == \
        _tor_intersection_number(corner, corner) == 4
    with pytest.raises(UncertifiedError, match="Euler characteristic"):
        intersection_number(u, u)


def _simple(a, i, j):
    """The 1-dimensional simple A-bimodule at the vertex pair (i, j)."""
    def at(v):
        return [[{0: 1} if k == presentation(a).index[v] else {}]
                for k in range(a.dim)]
    return Bimodule(a, a, 1, at(i), at(j), name="S_%s%s" % (i, j))


def _tor_composite_class_vector(x, y):
    """[x o y] from the Tor bimodules of the composite, each resolved."""
    return correspondence_class_vector(compose(x, y, DEFAULT_CAP))


def _old_k0_intersection_number(x, y):
    """The K_0 branch of intersection_number as it was: its own double
    loop over the class vectors."""
    xv, yv = correspondence_class_vector(x), correspondence_class_vector(y)
    ca, cb = cartan_counts(x.source), cartan_counts(x.target)
    total = Fraction(0)
    for (i, j), u in xv.items():
        for (k, l), v in yv.items():
            n = cb.get((j, k), 0) * ca.get((l, i), 0)
            if n:
                total += u * v * n
    return total


@settings(deadline=None, max_examples=25)
@given(st.data())
def test_k0_route_matches_the_tor_route_on_random_quivers(data):
    """Pairing and composition law from class vectors and Cartan counts
    against Tor plus HH (pairing) and Tor plus resolutions (composition),
    on combinations of corner bimodules (the span), the unit, simple
    bimodules and nonzero Tor outputs; and Q -> A against A -> Q, where the
    Cartan matrix of A2 or A3 is not symmetric."""
    a = data.draw(quiver_algebras())
    assume(a.dim <= 6)
    assume(global_dimension(a, bound=4) is not None)
    vs = presentation(a).vertices
    vertex = st.sampled_from(vs)
    pool = [unit_correspondence(a).terms[0][1]]
    pool += [corner_bimodule(a, data.draw(vertex), data.draw(vertex))
             for _ in range(2)]
    pool += [_simple(a, data.draw(vertex), data.draw(vertex))
             for _ in range(2)]
    pool += [t for t in derived_tensor(pool[3], pool[4]) if t.dim]
    coeff = st.sampled_from([Fraction(1), Fraction(-2), Fraction(1, 3)])
    term = st.tuples(coeff, st.sampled_from(pool))

    def correspondence():
        return Correspondence(a, a, data.draw(st.lists(term, min_size=1,
                                                       max_size=2)))

    x, y = correspondence(), correspondence()
    xv, yv = correspondence_class_vector(x), correspondence_class_vector(y)
    assert intersection_number(x, y) == _tor_intersection_number(x, y) == \
        _old_k0_intersection_number(x, y)
    assert _compose_classes(xv, yv, cartan_counts(a)) == \
        _tor_composite_class_vector(x, y)
    # A != B: Q -> A against A -> Q, both orders of composition
    v, w = data.draw(vertex), data.draw(vertex)
    row = row_projective_correspondence(a, v)
    col = column_projective_correspondence(a, w)
    assert intersection_number(row, col) == \
        _tor_intersection_number(row, col) == \
        _old_k0_intersection_number(row, col) == cartan(a)[(v, w)]
    rv, cv = correspondence_class_vector(row), correspondence_class_vector(col)
    assert _compose_classes(rv, cv, cartan_counts(a)) == \
        _tor_composite_class_vector(row, col)
    q = row.source
    assert _compose_classes(cv, rv, cartan_counts(q)) == \
        _tor_composite_class_vector(col, row)


def _pair_by_pair(basis, dual_basis):
    """The pairing matrix from intersection_number, the 1 x 1 matrix, pair
    by pair in row-major order: (columns, None), or (None, the first
    refusal)."""
    columns = [{} for _ in dual_basis]
    try:
        for i, x in enumerate(basis):
            for j, y in enumerate(dual_basis):
                v = intersection_number(x, y)
                assert type(v) is Fraction
                if v:
                    columns[j][i] = v
    except (InvariantError, UncertifiedError) as refused:
        return None, (type(refused), str(refused))
    return columns, None


def _assert_pairing_matches(basis, dual_basis):
    """pairing_matrix against intersection_number pair by pair (values,
    Fraction entries and the first refusal), and each entry against the
    K_0 double loop where both sides have class vectors and against the
    Tor route; returns the number of pairs that took the Tor route, or
    None when the matrix is refused."""
    try:
        got = pairing_matrix(basis, dual_basis).columns, None
    except (InvariantError, UncertifiedError) as refused:
        got = None, (type(refused), str(refused))
    assert got == _pair_by_pair(basis, dual_basis)
    columns = got[0]
    if columns is None:
        return None
    assert all(type(v) is Fraction for col in columns for v in col.values())
    tor = 0
    for i, x in enumerate(basis):
        for j, y in enumerate(dual_basis):
            v = columns[j].get(i, 0)
            assert v == _tor_intersection_number(x, y)
            if None not in (motives._class_vector_or_none(x),
                            motives._class_vector_or_none(y)):
                assert v == _old_k0_intersection_number(x, y)
            else:
                tor += 1
    return tor


@settings(deadline=None, max_examples=50)
@given(st.data())
def test_pairing_matrix_is_the_pairing_pair_by_pair(data):
    """pairing_matrix, which shares class vectors and Euler-form rows
    across its pairs, against its 1 x 1 matrices (intersection_number),
    the K_0 double loop and the Tor route, pair by pair.  Spans of up to
    three correspondences (possibly none, possibly the zero one) with
    Fraction coefficients are drawn over a random quiver algebra of finite
    global dimension: A -> A on the unit, every corner, simple bimodules
    and their Tor, or Q -> A on the row projectives against A -> Q on the
    column projectives (either one first), where the Cartan matrix need
    not be symmetric; the two pools are first paired whole, both ways.  Or
    they are drawn over the dual numbers or Q[x]/x^3, whose unit has no
    class vector: its pairs with corners take the Tor route and its pair
    with itself is refused (there one of the two spans is drawn on the
    corners alone, so most matrices are answered).  The unit of Q drawn
    into the dual span is a mismatched pair, refused at the first pair
    that reaches it."""
    kind = data.draw(st.sampled_from(["A -> A", "Q -> A"] * 2
                                     + ["dual", "cubic"]))
    if kind in ("dual", "cubic"):
        a = zoo.get(kind)
    else:
        a = data.draw(quiver_algebras())
        assume(a.dim <= 6)
        assume(global_dimension(a, bound=4) is not None)
    vs = presentation(a).vertices
    vertex = st.sampled_from(vs)
    corners = [x.terms[0][1] for x in canonical_span(a)]
    pools = [[unit_correspondence(a).terms[0][1]] + corners, corners]
    if kind == "A -> A":
        simples = [_simple(a, data.draw(vertex), data.draw(vertex))
                   for _ in range(2)]
        pools[0] += simples + [t for t in derived_tensor(*simples) if t.dim]
        pools[1] = pools[0]
    elif kind == "Q -> A":
        pools = [[row_projective_correspondence(a, v).terms[0][1]
                  for v in vs],
                 [column_projective_correspondence(a, v).terms[0][1]
                  for v in vs]]
    whole = [[Correspondence(x.A, x.B, [(1, x)]) for x in pool]
             for pool in pools]
    _assert_pairing_matches(*whole)
    _assert_pairing_matches(*whole[::-1])
    coeff = st.fractions(min_value=-3, max_value=3, max_denominator=4)

    def span(pool):
        term = st.tuples(coeff, st.sampled_from(pool))
        return data.draw(st.lists(st.lists(term, max_size=2).map(
            lambda terms: Correspondence(pool[0].A, pool[0].B, terms)),
            max_size=3))

    basis, dual_basis = span(pools[0]), span(pools[1])
    if data.draw(st.booleans()):
        basis, dual_basis = dual_basis, basis
    if data.draw(st.booleans()):
        stray = unit_correspondence(zoo.get("Q"))
        dual_basis.insert(data.draw(st.integers(0, len(dual_basis))), stray)
    tor = _assert_pairing_matches(basis, dual_basis)
    event("%s: %s" % (kind, "refused" if tor is None else
                      "Tor pairs" if tor else "K_0 pairs only"))


def test_pairing_matrix_takes_the_tor_route_without_class_vectors(
        monkeypatch):
    """Over the dual numbers the unit has no class vector: its pairs with
    the corner take the Tor route, once each, beside K_0 pairs in the same
    matrix; the zero correspondence pairs to 0 and empty spans give empty
    matrices.  The unit against itself and a mismatched pair are refused
    with the messages of intersection_number, whichever comes first."""
    dual = zoo.get("dual")
    corner = canonical_span(dual)[0]
    unit = unit_correspondence(dual)
    mixed = corner + unit.scale(Fraction(-1, 2))
    zero = Correspondence(dual, dual, [])
    taken = []
    real = motives._tor_intersection_number

    def counting(x, y, cap=DEFAULT_CAP):
        taken.append((x, y))
        return real(x, y, cap)

    monkeypatch.setattr(motives, "_tor_intersection_number", counting)
    basis = [corner, unit, mixed, zero]
    dual_basis = [corner, corner.scale(Fraction(2, 3)), zero]
    assert pairing_matrix(basis, dual_basis).columns == \
        [{0: 4, 1: 2, 2: 3}, {0: Fraction(8, 3), 1: Fraction(4, 3), 2: 2}, {}]
    assert [(basis.index(x), dual_basis.index(y)) for x, y in taken] == \
        [(1, 0), (1, 1), (1, 2), (2, 0), (2, 1), (2, 2)]
    monkeypatch.setattr(motives, "_tor_intersection_number", real)
    assert _assert_pairing_matches(basis, dual_basis) == 6
    assert pairing_matrix([], dual_basis).columns == [{}, {}, {}]
    assert pairing_matrix(basis, []).columns == []
    with pytest.raises(UncertifiedError, match="Euler characteristic"):
        pairing_matrix([corner, unit], [corner, unit])
    stray = row_projective_correspondence(dual, "1")
    with pytest.raises(InvariantError, match="pairing needs x: A -> B "
                                             "against y: B -> A"):
        pairing_matrix([corner], [corner, stray])
    with pytest.raises(UncertifiedError, match="Euler characteristic"):
        pairing_matrix([unit], [unit, stray])


def test_class_vectors_are_resolved_once_per_bimodule_object(monkeypatch):
    """Projective pairs carry their class vector, so pairings on the
    canonical span resolve nothing.  Any other class vector is memoized on
    the bimodule object: a simple bimodule is resolved once however often
    it is paired, and an equal fresh one is resolved again."""
    resolved = []
    real = motives.minimal_resolution

    def counting(m, bound):
        resolved.append(m)
        return real(m, bound)

    monkeypatch.setattr(motives, "minimal_resolution", counting)
    a = zoo.get("A3")
    span = canonical_span(a)
    pairing_matrix(span, span)
    assert resolved == []
    simple = Correspondence(a, a, [(1, _simple(a, "1", "2"))])
    for _ in range(2):
        pairing_matrix([simple], span)
    assert [id(m) for m in resolved] == [id(simple.terms[0][1])]
    fresh = Correspondence(a, a, [(1, _simple(a, "1", "2"))])
    pairing_matrix([fresh], span)
    assert [id(m) for m in resolved[1:]] == [id(fresh.terms[0][1])]


@settings(deadline=None, max_examples=30)
@given(st.data())
def test_projective_pairs_carry_the_class_vector_of_their_resolution(data):
    """The class vector a projective pair is built with is what its
    minimal resolution gives: {(i, j): 1}."""
    a = data.draw(quiver_algebras())
    assume(a.dim <= 6)
    vertex = st.sampled_from(presentation(a).vertices)
    i, j = data.draw(vertex), data.draw(vertex)
    for p, key in ((corner_bimodule(a, i, j), (i, j)),
                   (row_projective_correspondence(a, j).terms[0][1],
                    ("1", j))):
        assert bimodule_class_vector(p) == {key: 1}
        assert motives._resolution_class_vector(p, 0) == {key: 1}


# ---------------------------------------------------------------------------
# the same algebra in another input format


@settings(deadline=None, max_examples=30)
@given(quiver_algebras(), st.data())
def test_presentations_do_not_depend_on_the_input_format(a, data):
    """A quiver algebra and a copy by structure constants in a permuted
    basis, scaled by signs and rationals, with no vertex names: the
    presentation's corners up to the permutation, the Cartan counts, the
    global dimension, the pairing matrix of the canonical span, the
    semisimplicity report and the HP verdict all agree once the copy's
    vertices (named by their basis labels) are renamed."""
    assume(a.dim <= 5)
    perm = data.draw(st.permutations(range(a.dim)))
    scales = data.draw(st.lists(st.sampled_from(MONOMIAL_SCALES),
                                min_size=a.dim, max_size=a.dim))
    r = _rescaled(a, scales, perm)
    pa, pr = presentation(a), presentation(r)
    assert pr is not None
    # r's basis element i is a multiple of a's basis element perm[i]
    name = {r.basis[i]: pa.ends[k][0] for i, k in enumerate(perm)
            if k in a.unit}
    assert [(name[u], name[w]) for u, w in pr.ends] == \
        [pa.ends[k] for k in perm]
    assert {(name[u], name[w]): n for (u, w), n in
            cartan_counts(r).items()} == cartan_counts(a)
    assert global_dimension(r, bound=4) == global_dimension(a, bound=4)
    pairings = []
    for alg, rename in ((a, lambda v: v), (r, name.get)):
        span = canonical_span(alg)
        keys = [(rename(i), rename(j)) for i in presentation(alg).vertices
                for j in presentation(alg).vertices]
        columns = pairing_matrix(span, span).columns
        pairings.append({(keys[s], keys[t]): columns[t].get(s, 0)
                         for s in range(len(span))
                         for t in range(len(span))})
    assert pairings[0] == pairings[1]

    def report(alg):
        try:
            rep = semisimplicity_check(alg)
        except UncertifiedError as refused:
            return str(refused)
        return (rep.span_size, rep.pairing_rank, rep.kernel_dim,
                rep.quotient_dim, rep.radical_dim)

    def hp(alg):
        out = periodic_cyclic(alg, 4)
        return out.certificate, out.super_dims, out.r0

    assert report(r) == report(a)
    assert hp(r) == hp(a)


def test_algebras_without_a_presentation_keep_the_tor_route():
    """M2(Q), bases that hide the ground, Q x Q in the basis 1, e_1 (a
    one-term unit beside a basis element outside the radical) and Q[x]/x^3
    in the basis 1, 1 + x, x^2 have no presentation: no canonical span and
    no class vector, so a pairing takes the Tor route and
    semisimplicity_check the unit span, and the global dimension is
    unknown unless the algebra is semisimple.  A zero correspondence
    still pairs to 0, by the Tor route."""
    m2, q3 = zoo.get("M2(Q)"), zoo.get("QxQxQ")
    cases = [m2] + [_in_basis(b, [{i: 1 for i in range(j + 1)}
                                  for j in range(b.dim)], b.name + "'")
                    for b in (m2, zoo.get("A2"), q3, zoo.get("square"))]
    cases += [_in_basis(m2, [{0: 1}, {3: 1}, {1: 1, 2: 1}, {1: 1, 2: -1}],
                        "M2(Q) straddled"),
              _in_basis(q3, [{0: 1, 1: 1}, {1: 1, 2: 1}, {1: 1}],
                        "Q^3 overlapping"),
              _in_basis(zoo.get("QxQ"), [{0: 1, 1: 1}, {0: 1}], "QxQ 1, e1"),
              _in_basis(zoo.get("cubic"), [{0: 1}, {0: 1, 1: 1}, {2: 1}],
                        "cubic 1, 1+x, x^2")]
    for a in cases:
        assert presentation(a) is None, a.name
        u = unit_correspondence(a)
        zero = Correspondence(a, a, [])
        assert intersection_number(zero, zero) == 0
        with pytest.raises(UncertifiedError, match="quiver presentations"):
            canonical_span(a)
        with pytest.raises(UncertifiedError, match="quiver presentations"):
            correspondence_class_vector(u)
        if a.radical().dim:
            assert algebras._gldim_certificate(a) is None
            with pytest.raises(InvariantError, match="quiver presentation"):
                global_dimension(a)
            with pytest.raises(UncertifiedError, match="Euler characteristic"):
                intersection_number(u, u)
            continue
        assert global_dimension(a) == 0
        assert intersection_number(u, u) == _tor_intersection_number(u, u)
        assert semisimplicity_check(a).span_size == 1
