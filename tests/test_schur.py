import os
import random
import subprocess
import sys
from fractions import Fraction
from math import factorial
from functools import lru_cache, reduce
from itertools import permutations

import pytest
from hypothesis import given, settings, strategies as st

from ncmotives import schur
from ncmotives.errors import CapExceededError, InvariantError
from ncmotives.exactlin import compose_cols, matrix_rank
from ncmotives.supers import SuperSpace
from ncmotives.schur import (
    Partition, partitions_of, standard_tableau_count, character_table_row,
    central_idempotent, GroupAlgebraElement, schur_dimension,
    super_schur_value, rectangle_criterion, is_schur_finite, compose_perm,
    cycle_type,
)


# ---------------------------------------------------------------------------
# oracles only the tests need: the Young symmetrizer, the signed action of
# one permutation and of a group algebra element, the sign of a permutation


def perm_sign(perm):
    """(-1)^(n - number of cycles): an l-cycle is l - 1 transpositions."""
    return (-1) ** (len(perm) - len(cycle_type(perm)))


def naive_mul(x, y):
    """The product in Q[S_n] of x and y, {permutation: coefficient}, by
    convolution: (p o q)(i) = p(q(i))."""
    out = {}
    for p, c in x.items():
        for q, d in y.items():
            r = tuple(p[q[i]] for i in range(len(q)))
            out[r] = out.get(r, 0) + c * d
    return {r: v for r, v in out.items() if v}


def naive_add(x, y):
    out = dict(x)
    for p, c in y.items():
        out[p] = out.get(p, 0) + c
    return {p: v for p, v in out.items() if v}


def young_symmetrizer(partition):
    """The classical (non-central) Young symmetrizer of the canonical
    tableau, normalized to an idempotent, as {permutation: Fraction}: a
    secondary route to the same Schur functors."""
    parts = tuple(partition)
    n = sum(parts)
    rows = []
    k = 0
    for p in parts:
        rows.append(list(range(k, k + p)))
        k += p
    cols = []
    for j in range(parts[0]):
        col = [row[j] for row in rows if j < len(row)]
        cols.append(col)

    def group_of(blocks):
        perms = [tuple(range(n))]
        for block in blocks:
            new = []
            for block_perm in permutations(block):
                mapping = list(range(n))
                for a, b in zip(block, block_perm):
                    mapping[a] = b
                new.append(tuple(mapping))
            perms = [compose_perm(p, q) for p in perms for q in new]
        return perms

    y = naive_mul({p: 1 for p in group_of(rows)},
                  {p: perm_sign(p) for p in group_of(cols)})
    # y^2 = (n!/f) y, so scale to an idempotent
    scale = Fraction(standard_tableau_count(parts), factorial(n))
    return {p: scale * c for p, c in y.items()}


def tensor_power_action(v, n, perm):
    """The columns of the signed permutation matrix of perm acting on
    v^(x n).

    perm moves the factor in position i to position perm(i); the Koszul
    sign collects (-1) for every pair of odd factors whose order flips.
    """
    return [{tgt: sign}
            for tgt, sign in schur._signed_permutation_entries(v, n, perm)]


def group_element_action(v, n, x):
    """The columns of the action on v^(x n) of x in Q[S_n], given as
    {permutation: coefficient}."""
    cols = [{} for _ in range(v.total ** n)]
    for p, c in x.items():
        for col, (tgt, sign) in zip(
                cols, schur._signed_permutation_entries(v, n, p)):
            col[tgt] = col.get(tgt, 0) + sign * c
    return [{i: s for i, s in col.items() if s} for col in cols]


def test_character_trivial_and_sign():
    row = character_table_row((4,))
    assert all(v == 1 for v in row.values())
    row = character_table_row((1, 1, 1))
    assert row[(3,)] == 1 and row[(2, 1)] == -1 and row[(1, 1, 1)] == 1


def test_character_2_1_explicit():
    row = character_table_row((2, 1))
    assert row[(1, 1, 1)] == 2
    assert row[(2, 1)] == 0
    assert row[(3,)] == -1


def test_character_identity_is_hook_count():
    for n in range(1, 7):
        for parts in partitions_of(n):
            row = character_table_row(parts)
            assert row[tuple([1] * n)] == standard_tableau_count(parts)


def test_character_orthogonality_n5():
    """First orthogonality of S_5 characters: an independent global check."""
    n = 5
    # sizes of conjugacy classes by cycle type
    def class_size(ct):
        total = factorial(n)
        div = 1
        counts = {}
        for l in ct:
            div *= l
            counts[l] = counts.get(l, 0) + 1
        for l, m in counts.items():
            div *= factorial(m)
        return total // div

    rows = {parts: character_table_row(parts) for parts in partitions_of(n)}
    for p1 in partitions_of(n):
        for p2 in partitions_of(n):
            s = sum(class_size(ct) * rows[p1][ct] * rows[p2][ct]
                    for ct in partitions_of(n))
            assert s == (factorial(n) if p1 == p2 else 0)


def test_character_cap():
    with pytest.raises(CapExceededError):
        character_table_row((9,))


def test_central_idempotent_n1_and_n2():
    c = central_idempotent((1,))
    assert c.coeffs == {(0,): 1}
    from fractions import Fraction
    c2 = central_idempotent((2,))
    assert c2.coeffs == {(0, 1): Fraction(1, 2), (1, 0): Fraction(1, 2)}
    c11 = central_idempotent((1, 1))
    assert c11.coeffs == {(0, 1): Fraction(1, 2), (1, 0): Fraction(-1, 2)}


def test_central_idempotents_orthogonal_and_complete():
    """c_lambda c_mu = delta c_lambda and sum c_lambda = 1 for every n <= 6,
    on default construction (which verifies each c^2 = c)."""
    for n in range(1, 7):
        cs = [central_idempotent(p) for p in partitions_of(n)]
        for i, a in enumerate(cs):
            for j, b in enumerate(cs):
                prod = a * b
                assert prod == (a if i == j else
                                GroupAlgebraElement(n, {}))
        total = reduce(naive_add, (c.coeffs for c in cs))
        assert total == {tuple(range(n)): 1}


def test_central_idempotent_is_built_once_per_partition(monkeypatch):
    monkeypatch.setattr(schur, "_IDEMPOTENTS", {})
    builds = []
    row = schur.character_table_row

    def counted_row(parts):
        builds.append(parts)
        return row(parts)

    monkeypatch.setattr(schur, "character_table_row", counted_row)
    for _ in range(3):
        for p in partitions_of(4):
            assert central_idempotent(p) is central_idempotent(Partition(p))
    assert builds == partitions_of(4)
    monkeypatch.setattr(schur, "CHARACTER_CAP", 3)
    with pytest.raises(CapExceededError,        # the cap holds on a hit
                       match=r"^idempotent cap is n <= 3$"):
        central_idempotent((2, 2))


def test_central_idempotent_checks_c2_by_one_class_product(monkeypatch):
    """Construction checks c^2 = c by one class product up to n = 6, and
    makes no product above, where c^2 = c is the caller's to check."""
    monkeypatch.setattr(schur, "_IDEMPOTENTS", {})
    products = []
    mul = GroupAlgebraElement.__mul__

    def counted_mul(x, y):
        products.append((x, y))
        return mul(x, y)

    monkeypatch.setattr(GroupAlgebraElement, "__mul__", counted_mul)
    checked = central_idempotent((4, 2))        # n = 6: checked
    assert products == [(checked, checked)]
    assert central_idempotent((4, 2)) is checked
    assert len(products) == 1
    plain = central_idempotent((4, 2, 1))       # n = 7: not checked
    assert len(products) == 1
    assert central_idempotent((4, 2, 1)) is plain
    assert plain * plain == plain
    assert products[1:] == [(plain, plain)]


def test_a_corrupted_character_fails_default_construction(monkeypatch):
    """One character value off by one, at the class of a transposition:
    construction checks c^2 = c at n = 6 and raises; at n = 7 it builds the
    element unchecked, and c^2 = c computed here fails."""
    monkeypatch.setattr(schur, "_IDEMPOTENTS", {})
    row = schur.character_table_row

    def corrupted_row(parts):
        out = dict(row(parts))
        out[(2,) + (1,) * (sum(parts) - 2)] += 1
        return out

    monkeypatch.setattr(schur, "character_table_row", corrupted_row)
    with pytest.raises(InvariantError,
                       match=r"^central idempotent failed c\^2 = c$"):
        central_idempotent((4, 2))
    c = central_idempotent((4, 2, 1))
    assert c * c != c


def test_young_symmetrizer_idempotent_and_matching_rank():
    v = SuperSpace(2, 0)
    for parts in ((2,), (1, 1), (2, 1)):
        y = young_symmetrizer(parts)
        assert naive_mul(y, y) == y
        n = sum(parts)
        # the (non-central) symmetrizer cuts one irreducible copy:
        # rank = s_lambda(v), while the central block cuts f^lambda copies
        ry = matrix_rank(group_element_action(v, n, y))
        rc = schur_dimension(parts, v, force_matrix=True)
        assert rc == standard_tableau_count(parts) * ry


def test_numerator_action_is_the_expanded_element_acting():
    """The forced route's action, read class by class, is den times the
    action of the expanded coefficients, one permutation at a time."""
    for parts, v in (((2, 1), SuperSpace(1, 1)), ((2, 2), SuperSpace(2, 0)),
                     ((3, 1, 1), SuperSpace(1, 1))):
        c = central_idempotent(parts)
        expanded = group_element_action(v, sum(parts), c.coeffs)
        assert schur._numerator_action(v, c) == \
            [{i: c.den * s for i, s in col.items()} for col in expanded]


def test_tensor_power_action_identity_and_signs():
    v = SuperSpace(0, 1)
    assert tensor_power_action(v, 2, (0, 1)) == [{0: 1}]
    assert tensor_power_action(v, 2, (1, 0)) == [{0: -1}]
    v = SuperSpace(1, 1)
    m = tensor_power_action(v, 2, (1, 0))
    negs = [(r, c) for c, col in enumerate(m) for r, val in col.items()
            if val < 0]
    assert negs == [(3, 3)]


def test_tensor_cap_refuses_every_built_action(monkeypatch):
    """TENSOR_CAP is read at call time by each function that builds an
    action on v^(x n); the trace route builds none and still answers."""
    monkeypatch.setattr(schur, "TENSOR_CAP", 8)
    v = SuperSpace(1, 1)                    # v^(x 4) has dimension 16
    message = r"^tensor power dimension 16 exceeds cap 8$"
    with pytest.raises(CapExceededError, match=message):
        tensor_power_action(v, 4, (1, 0, 2, 3))
    with pytest.raises(CapExceededError, match=message):
        schur._numerator_action(v, central_idempotent((2, 2)))
    with pytest.raises(CapExceededError, match=r"^tensor power exceeds cap$"):
        schur_dimension((2, 2), v, force_matrix=True)
    assert schur_dimension((2, 2), v) == super_schur_value((2, 2), v)
    assert len(tensor_power_action(v, 3, (1, 0, 2))) == 8


def test_tensor_power_action_is_homomorphism():
    rng = random.Random(17)
    v = SuperSpace(1, 1)
    perms3 = [(0, 1, 2), (1, 0, 2), (0, 2, 1), (2, 0, 1), (1, 2, 0), (2, 1, 0)]
    for _ in range(12):
        p = perms3[rng.randrange(6)]
        q = perms3[rng.randrange(6)]
        mp = tensor_power_action(v, 3, p)
        mq = tensor_power_action(v, 3, q)
        mpq = tensor_power_action(v, 3, compose_perm(p, q))
        assert compose_cols(mp, mq) == mpq


def test_schur_dimension_classical_cases():
    assert schur_dimension((2,), SuperSpace(2, 0)) == 3     # Sym^2 Q^2
    assert schur_dimension((1, 1), SuperSpace(1, 0)) == 0   # Lambda^2 of a line
    assert schur_dimension((1, 1), SuperSpace(2, 0)) == 1
    assert schur_dimension((2, 1), SuperSpace(2, 0)) == 4   # f^lambda = 2 times 2
    assert schur_dimension((2,), SuperSpace(0, 1)) == 0     # Sym^2 of odd line
    assert schur_dimension((1, 1), SuperSpace(0, 1)) == 1


def test_schur_dimension_two_paths_agree():
    """Trace formula vs honest matrix rank vs hook Schur oracle."""
    spaces = [SuperSpace(a, b) for a in range(3) for b in range(3) if a + b]
    for n in range(1, 5):
        for parts in partitions_of(n):
            for v in spaces:
                trace_path = schur_dimension(parts, v)
                matrix_path = schur_dimension(parts, v, force_matrix=True)
                oracle = super_schur_value(parts, v)
                assert trace_path == matrix_path == oracle, (parts, tuple(v))


def test_trace_route_answers_at_every_size(monkeypatch):
    """Above t^n = 512 the trace equals the matrix rank and the hook
    oracle; below it, where a size switch once chose the matrix, only
    force_matrix builds the action."""
    cases = [(parts, SuperSpace(2, 2)) for parts in partitions_of(5)]
    cases += [((2, 2, 2), SuperSpace(2, 1)), ((3, 3), SuperSpace(2, 1))]
    for parts, v in cases:
        assert v.total ** sum(parts) > 512
        assert (schur_dimension(parts, v)
                == schur_dimension(parts, v, force_matrix=True)
                == super_schur_value(parts, v)), (parts, tuple(v))

    def refused(*args):
        raise AssertionError("the trace route built the action")

    monkeypatch.setattr(schur, "_numerator_action", refused)
    for parts in partitions_of(4):
        v = SuperSpace(1, 1)
        assert schur_dimension(parts, v) == super_schur_value(parts, v)


def test_rectangle_criterion_matches_vanishing():
    spaces = [SuperSpace(a, b) for a in range(3) for b in range(3) if a + b]
    for n in range(1, 5):
        for parts in partitions_of(n):
            for v in spaces:
                vanishes = schur_dimension(parts, v) == 0
                assert vanishes == rectangle_criterion(parts, v)


def test_is_schur_finite_minimal_partitions():
    assert is_schur_finite(SuperSpace(1, 0)).parts == (1, 1)
    assert is_schur_finite(SuperSpace(0, 1)).parts == (2,)
    assert is_schur_finite(SuperSpace(1, 1)).parts == (2, 2)
    assert is_schur_finite(SuperSpace(2, 0)).parts == (1, 1, 1)
    assert is_schur_finite(SuperSpace(2, 1)).parts == (2, 2, 2)
    assert is_schur_finite(SuperSpace(0, 2)).parts == (3,)


def test_partition_validation():
    with pytest.raises(InvariantError):
        Partition((1, 2))
    with pytest.raises(InvariantError):
        Partition((2, 0))


# ---------------------------------------------------------------------------
# the class algebra against a naive Fraction-dict convolution


small_fractions = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 6))
nonzero_fractions = st.builds(Fraction, st.integers(-6, 6).filter(bool),
                              st.integers(1, 6))


@lru_cache(maxsize=None)
def conjugacy_classes(n):
    """The conjugacy classes of S_n, as the orbits of conjugation by the
    adjacent transpositions, which generate S_n."""
    taus = []
    for k in range(n - 1):
        t = list(range(n))
        t[k], t[k + 1] = t[k + 1], t[k]
        taus.append(t)
    left = set(permutations(range(n)))
    classes = []
    while left:
        orbit = [left.pop()]
        for p in orbit:
            for t in taus:
                q = tuple(t[p[t[i]]] for i in range(n))
                if q in left:
                    left.remove(q)
                    orbit.append(q)
        classes.append(orbit)
    return classes


def is_class_function(x, n):
    return all(len({x.get(p, 0) for p in cl}) == 1
               for cl in conjugacy_classes(n))


@st.composite
def class_functions(draw, n):
    """A central element as (its class values by cycle type, its expansion
    on the conjugation orbits): values zero, negative or rational.  At
    n = 6 at most two classes are nonzero, so that the naive product stays
    small."""
    classes = conjugacy_classes(n)
    if n <= 5:
        values = draw(st.lists(small_fractions, min_size=len(classes),
                               max_size=len(classes)))
    else:
        chosen = draw(st.dictionaries(st.integers(0, len(classes) - 1),
                                      nonzero_fractions, max_size=2))
        values = [chosen.get(i, 0) for i in range(len(classes))]
    return ({cycle_type(cl[0]): v for cl, v in zip(classes, values)},
            {p: v for cl, v in zip(classes, values) for p in cl if v})


@settings(deadline=None, max_examples=40)
@given(st.data())
def test_class_product_matches_naive_convolution(data):
    """Central factors multiply in the class algebra, in both orders; the
    expanded product equals the naive convolution of the expanded factors,
    and it is the element built from the convolution's class values."""
    n = data.draw(st.integers(1, 6))
    (xv, x), (yv, y) = data.draw(class_functions(n)), data.draw(
        class_functions(n))
    ex, ey = GroupAlgebraElement(n, xv), GroupAlgebraElement(n, yv)
    assert ex.coeffs == x and ey.coeffs == y
    for a, b, ea, eb in ((x, y, ex, ey), (y, x, ey, ex)):
        product = naive_mul(a, b)
        assert is_class_function(product, n)
        assert (ea * eb).coeffs == product
        assert ea * eb == GroupAlgebraElement(
            n, {cycle_type(p): v for p, v in product.items()})


def test_class_sizes_and_representatives():
    """size[E] is the number of permutations of cycle type E, counted here
    for n <= 7, and rep[E] has cycle type E."""
    for n in range(1, 8):
        counted = {}
        for p in permutations(range(n)):
            e = cycle_type(p)
            counted[e] = counted.get(e, 0) + 1
        data = schur._ClassData(n)
        assert data.size == counted
        assert sorted(data.rep) == sorted(counted)
        for e, g in data.rep.items():
            assert sorted(g) == list(range(n)) and cycle_type(g) == e


def _counting(monkeypatch):
    """Record the letters of every enumeration of S_n and of every
    composition that schur makes, in two lists."""
    enumerated, composed = [], []
    perms, compose = schur.permutations, schur.compose_perm

    def counted_permutations(letters):
        enumerated.append(len(letters))
        return perms(letters)

    def counted_compose(p, q):
        composed.append(len(p))
        return compose(p, q)

    monkeypatch.setattr(schur, "permutations", counted_permutations)
    monkeypatch.setattr(schur, "compose_perm", counted_compose)
    return enumerated, composed


def test_class_counts_are_built_once_by_central_products(monkeypatch):
    """Class data is made without enumerating S_n and holds no counts; the
    first product at n counts p(n) n! compositions, 840 at n = 5, and
    every later one none."""
    monkeypatch.setattr(schur, "_CLASSES", {})
    monkeypatch.setattr(schur, "_IDEMPOTENTS", {})
    enumerated, compositions = _counting(monkeypatch)
    v = SuperSpace(1, 1)
    schur_dimension((4, 3), v)
    schur_dimension((4, 4), v)
    assert sorted(schur._CLASSES) == [7, 8]
    assert all(data.counts is None for data in schur._CLASSES.values())
    assert enumerated == compositions == []
    for _ in range(2):
        for parts in partitions_of(5):
            c = central_idempotent(parts)       # checked: c^2 = c
            assert c * c == c
    assert enumerated == [5]
    assert compositions == [5] * 840
    counts = schur._CLASSES[5].counts
    assert sum(m for terms in counts.values() for _, _, m in terms) == 840


def test_schur_finiteness_enumerates_permutations_up_to_six_only(
        monkeypatch):
    """(3|1) is annihilated at weight 8; the search reads the class values
    of every c_lambda up to n = 8 but enumerates S_n, once, and composes
    permutations only for the class counts of c^2 = c at n <= 6."""
    monkeypatch.setattr(schur, "_CLASSES", {})
    monkeypatch.setattr(schur, "_IDEMPOTENTS", {})
    enumerated, composed = _counting(monkeypatch)
    assert is_schur_finite(SuperSpace(3, 1)).parts == (2, 2, 2, 2)
    assert enumerated == [1, 2, 3, 4, 5, 6]
    assert sorted(set(composed)) == [1, 2, 3, 4, 5, 6]
    assert sorted(schur._CLASSES) == list(range(1, 9))
    assert [n for n, data in sorted(schur._CLASSES.items())
            if data.counts is not None] == [1, 2, 3, 4, 5, 6]


def test_importing_the_package_builds_no_class_data():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.dirname(os.path.dirname(schur.__file__))]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    code = ("import ncmotives, ncmotives.cli\n"
            "from ncmotives import schur\n"
            "print(len(schur._CLASSES))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, env=env, check=True)
    assert out.stdout == "0\n"


def test_group_algebra_element_rejects_non_partitions():
    for key in ((2, 2), (2,), (1, 2), (3, 0), 3):
        with pytest.raises(InvariantError):
            GroupAlgebraElement(3, {key: 1})
    assert GroupAlgebraElement(3, {(2, 1): 1, (3,): 0}).num == {(2, 1): 1}


def test_coeffs_view_is_numerators_over_the_denominator(monkeypatch):
    for parts in ((2, 1), (2, 2), (3, 1, 1)):
        c = central_idempotent(parts)
        n = sum(parts)
        assert c.den > 0
        assert all(type(v) is int for v in c.num.values())
        assert c.coeffs == {p: Fraction(c.num[cycle_type(p)], c.den)
                            for p in permutations(range(n))
                            if cycle_type(p) in c.num}

    def refused(letters):
        raise AssertionError("the zero element enumerated S_n")

    monkeypatch.setattr(schur, "permutations", refused)
    assert GroupAlgebraElement(8, {}).coeffs == {}


def test_perm_sign_is_inversion_parity():
    for p in permutations(range(4)):
        inversions = sum(p[i] > p[j] for i in range(4) for j in range(i + 1, 4))
        assert perm_sign(p) == (-1) ** inversions
