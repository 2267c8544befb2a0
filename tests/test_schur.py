import os
import random
import subprocess
import sys
from fractions import Fraction
from functools import reduce
from itertools import permutations

import pytest
from hypothesis import given, settings, strategies as st

from ncmotives import schur
from ncmotives.errors import CapExceededError, InvariantError
from ncmotives.exactlin import compose_cols, matrix_rank
from ncmotives.supers import SuperSpace
from ncmotives.schur import (
    Partition, partitions_of, standard_tableau_count, character_table_row,
    central_idempotent, young_symmetrizer, GroupAlgebraElement,
    tensor_power_action, group_element_action, schur_dimension,
    super_schur_value, rectangle_criterion, is_schur_finite,
    compose_perm, perm_sign,
)


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
    from math import factorial
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
    for n in range(2, 6):
        cs = [central_idempotent(p) for p in partitions_of(n)]
        for i, a in enumerate(cs):
            for j, b in enumerate(cs):
                prod = a * b
                assert prod == (a if i == j else
                                GroupAlgebraElement(n, {}))
        total = reduce(lambda x, y: x + y, cs)
        assert total.coeffs == {tuple(range(n)): 1}


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


def test_central_idempotent_verify_above_five_is_not_skipped(monkeypatch):
    monkeypatch.setattr(schur, "_IDEMPOTENTS", {})
    products = []
    mul = GroupAlgebraElement.__mul__

    def counted_mul(x, y):
        products.append((len(x.num), len(y.num)))
        return mul(x, y)

    monkeypatch.setattr(GroupAlgebraElement, "__mul__", counted_mul)
    plain = central_idempotent((4, 2))          # n = 6: unverified
    assert products == []
    checked = central_idempotent((4, 2), verify=True)
    # c^2 = c and both sides of the 5 adjacent transpositions
    assert len(products) == 11
    assert checked == plain
    central_idempotent((4, 2), verify=True)
    assert len(products) == 11


def test_young_symmetrizer_idempotent_and_matching_rank():
    v = SuperSpace(2, 0)
    for parts in ((2,), (1, 1), (2, 1)):
        y = young_symmetrizer(parts)
        assert y * y == y
        n = sum(parts)
        # the (non-central) symmetrizer cuts one irreducible copy:
        # rank = s_lambda(v), while the central block cuts f^lambda copies
        ry = matrix_rank(group_element_action(v, y))
        rc = schur_dimension(parts, v, force_matrix=True)
        assert rc == standard_tableau_count(parts) * ry


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
        group_element_action(v, central_idempotent((2, 2)))
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


def test_schur_finite_transport_under_collapse():
    """If S_lambda kills a graded space it kills its super collapse: the
    annihilating partition transports along the collapse realization."""
    from ncmotives.supers import GradedSpace
    for dims in ({0: 1, 1: 1}, {0: 2}, {-1: 1, 2: 1}, {0: 1, 1: 1, 2: 1}):
        g = GradedSpace(dims)
        v = g.collapse()
        # graded space realized with everything in its parity
        lam = is_schur_finite(v, search_cap=10)
        assert schur_dimension(lam, v) == 0


def test_partition_validation():
    with pytest.raises(InvariantError):
        Partition((1, 2))
    with pytest.raises(InvariantError):
        Partition((2, 0))


# ---------------------------------------------------------------------------
# Q[S_n] arithmetic against a naive Fraction-dict convolution


def naive_mul(x, y):
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


small_fractions = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 6))
nonzero_fractions = st.builds(Fraction, st.integers(-6, 6).filter(bool),
                              st.integers(1, 6))


@st.composite
def group_elements(draw, n):
    """At most 6 terms, or (for n <= 5) at least half of S_n."""
    perms = list(permutations(range(n)))
    if n > 5 or draw(st.booleans()):
        return draw(st.dictionaries(st.sampled_from(perms), small_fractions,
                                    max_size=6))
    size = draw(st.integers((len(perms) + 1) // 2, len(perms)))
    support = draw(st.permutations(perms))[:size]
    coeffs = draw(st.lists(nonzero_fractions, min_size=size, max_size=size))
    return dict(zip(support, coeffs))


@settings(deadline=None, max_examples=60)
@given(st.data())
def test_group_algebra_arithmetic_matches_naive_convolution(data):
    # two sizes per draw, so the per-n tables serve both in one process;
    # n = 6 is above schur.TABLE_CAP and composes tuples
    for n in data.draw(st.lists(st.integers(1, 6), min_size=2, max_size=2,
                                unique=True)):
        x = data.draw(group_elements(n))
        y = data.draw(group_elements(n))
        c = data.draw(small_fractions)
        ex, ey = GroupAlgebraElement(n, x), GroupAlgebraElement(n, y)
        for (a, b), (ea, eb) in (((x, y), (ex, ey)), ((y, x), (ey, ex))):
            product = naive_mul(a, b)
            assert (ea * eb).coeffs == product
            # results are equal to the same element built from outside
            assert ea * eb == GroupAlgebraElement(n, product)
        assert (ex + ey).coeffs == naive_add(x, y)
        assert ex.scale(c).coeffs == {p: c * v for p, v in x.items() if c * v}
        assert (ex == ey) == (naive_add(x, {p: -v for p, v in y.items()})
                              == {})
        assert ex + ey == GroupAlgebraElement(n, naive_add(x, y))


def _rows_built():
    return {n: set(table.rows) for n, table in schur._TABLES.items()}


def test_cayley_rows_are_built_up_to_the_cap_only(monkeypatch):
    monkeypatch.setattr(schur, "_TABLES", {})
    monkeypatch.setattr(schur, "_IDEMPOTENTS", {})
    assert schur.TABLE_CAP == 5
    # 144 terms times 8 at n = 7 and 36 times 8 at n = 6: tuples only
    young_symmetrizer((4, 3))
    young_symmetrizer((3, 3))
    assert _rows_built() == {}
    # c^2 = c and c tau read the rows of c's terms, tau c the row of tau
    c = central_idempotent((2, 1, 1, 1), verify=True)
    taus = set()
    for k in range(4):
        t = list(range(5))
        t[k], t[k + 1] = t[k + 1], t[k]
        taus.add(tuple(t))
    assert _rows_built() == {5: set(c.num) | taus}


def test_importing_the_package_builds_no_cayley_table():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.dirname(os.path.dirname(schur.__file__))]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    code = ("import ncmotives, ncmotives.cli\n"
            "from ncmotives import schur\n"
            "print(len(schur._TABLES))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, env=env, check=True)
    assert out.stdout == "0\n"


def test_group_algebra_element_rejects_non_permutations():
    with pytest.raises(InvariantError):
        GroupAlgebraElement(3, {(0, 0, 1): 1})
    with pytest.raises(InvariantError):
        GroupAlgebraElement(3, {(0, 1): 1})


def test_coeffs_view_is_numerators_over_the_denominator():
    for parts in ((2, 1), (2, 2), (3, 1, 1)):
        c = central_idempotent(parts)
        assert c.den > 0
        assert set(c.coeffs) == set(c.num)
        for p, v in c.coeffs.items():
            assert v == Fraction(c.num[p], c.den)
            assert type(c.num[p]) is int
    y = young_symmetrizer((2, 1))
    assert y.coeffs == {p: Fraction(v, y.den) for p, v in y.num.items()}


def test_perm_sign_is_inversion_parity():
    for p in permutations(range(4)):
        inversions = sum(p[i] > p[j] for i in range(4) for j in range(i + 1, 4))
        assert perm_sign(p) == (-1) ** inversions
