import random

import pytest

from ncmotives.errors import InvariantError
from ncmotives.exactlin import compose_cols, identity_cols, matrix_rank
from ncmotives.supers import (
    SuperSpace, GradedSpace, KunnethPair, kunneth_projectors,
    rank_super, rank_dagger, koszul_swap, twist_symmetry,
)
from test_exactlin import _columns, _dense, _oracle_kron, _oracle_trace


def _kunneth_tensor(a, b):
    """The Kuenneth pair of the tensor product, on the product basis
    i * |w| + j of the pairs a on v and b on w:

        pi+ = pi+ (x) pi+  +  pi- (x) pi-,
        pi- = pi+ (x) pi-  +  pi- (x) pi+;

    KunnethPair checks it against the super dimensions of v (x) w."""
    v, w = a.space, b.space
    t = v.total * w.total

    def kron_sum(f1, g1, f2, g2):
        x = _oracle_kron(_dense(f1, v.total), _dense(g1, w.total))
        y = _oracle_kron(_dense(f2, v.total), _dense(g2, w.total))
        return _columns([[p + q for p, q in zip(r1, r2)]
                         for r1, r2 in zip(x, y)], t)

    return KunnethPair(v.tensor(w), kron_sum(a.plus, b.plus, a.minus, b.minus),
                       kron_sum(a.plus, b.minus, a.minus, b.plus))


def test_kunneth_projectors_pure_cases():
    p = kunneth_projectors(SuperSpace(1, 0))
    assert p.plus == identity_cols(1) and not any(p.minus)
    p = kunneth_projectors(SuperSpace(0, 1))
    assert p.minus == identity_cols(1) and not any(p.plus)
    p = kunneth_projectors(SuperSpace(2, 1))
    assert matrix_rank(p.plus) == 2 and matrix_rank(p.minus) == 1


def test_kunneth_pair_refuses_each_broken_law():
    """KunnethPair refuses projectors of (1|1) that do not sum to the
    identity, have the wrong number of columns, are not idempotent or have
    the wrong ranks.  (Idempotents summing to the identity are
    orthogonal, so KunnethPair has no orthogonality check.)"""
    v = SuperSpace(1, 1)
    cases = [
        ([{0: 1}, {}], [{}, {}], "do not sum to the identity"),
        ([{0: 1}, {}, {}], [{}, {1: 1}, {}], "shape mismatch"),
        ([{0: 2}, {}], [{0: -1}, {1: 1}], "not idempotent"),
        (identity_cols(2), [{}, {}], "ranks disagree"),
        ([{}, {}], identity_cols(2), "ranks disagree"),
    ]
    for plus, minus, message in cases:
        with pytest.raises(InvariantError, match=message):
            KunnethPair(v, plus, minus)


def test_kunneth_tensor_dims():
    a = kunneth_projectors(SuperSpace(1, 1))
    t = _kunneth_tensor(a, a)
    assert tuple(t.space) == (2, 2)
    unit = kunneth_projectors(SuperSpace(1, 0))
    for dims in ((2, 1), (0, 2), (3, 0)):
        v = kunneth_projectors(SuperSpace(*dims))
        assert tuple(_kunneth_tensor(v, unit).space) == dims
    odd = kunneth_projectors(SuperSpace(0, 1))
    assert tuple(_kunneth_tensor(odd, odd).space) == (1, 0)


def test_kunneth_tensor_matches_super_product():
    rng = random.Random(1)
    for _ in range(20):
        a = SuperSpace(rng.randint(0, 3), rng.randint(0, 3))
        b = SuperSpace(rng.randint(0, 3), rng.randint(0, 3))
        t = _kunneth_tensor(kunneth_projectors(a), kunneth_projectors(b))
        assert t.space.even == a.even * b.even + a.odd * b.odd
        assert t.space.odd == a.even * b.odd + a.odd * b.even


def test_ranks():
    assert rank_super(SuperSpace(1, 1)) == 0
    assert rank_dagger(SuperSpace(1, 1)) == 2
    assert rank_super(SuperSpace(3, 0)) == 3 == rank_dagger(SuperSpace(3, 0))
    assert rank_super(SuperSpace(0, 2)) == -2
    assert rank_dagger(SuperSpace(0, 2)) == 2


def test_rank_multiplicativity():
    rng = random.Random(9)
    for _ in range(30):
        v = SuperSpace(rng.randint(0, 3), rng.randint(0, 3))
        w = SuperSpace(rng.randint(0, 3), rng.randint(0, 3))
        vw = v.tensor(w)
        assert rank_super(vw) == rank_super(v) * rank_super(w)
        assert rank_dagger(vw) == rank_dagger(v) * rank_dagger(w)


def test_twist_even_line_identity():
    v = SuperSpace(1, 0)
    before, after = twist_symmetry(v, kunneth_projectors(v))
    assert before == after == identity_cols(1)


def test_twist_odd_line_sign_flip():
    v = SuperSpace(0, 1)
    before, after = twist_symmetry(v, kunneth_projectors(v))
    assert before == [{0: -1}]
    assert after == identity_cols(1)


def test_twist_flips_exactly_odd_odd_slots():
    for dims in ((1, 1), (2, 1), (2, 2)):
        v = SuperSpace(*dims)
        before, after = twist_symmetry(v, kunneth_projectors(v))
        t = v.total
        for i in range(t):
            for j in range(t):
                b = before[i * t + j].get(j * t + i, 0)
                a = after[i * t + j].get(j * t + i, 0)
                if v.parity(i) and v.parity(j):
                    assert a == -b == 1
                else:
                    assert a == b == 1
        assert compose_cols(after, after) == identity_cols(t * t)


def test_koszul_swap_squares_to_identity():
    for dims in ((1, 1), (2, 1), (0, 2)):
        v = SuperSpace(*dims)
        s = koszul_swap(v)
        assert compose_cols(s, s) == identity_cols(v.total ** 2)


def test_swap_traces_give_the_two_ranks():
    """Trace of the signed swap on v (x) v is the categorical rank d+ - d-;
    after the twist the trace becomes d+ + d- (dims <= 3)."""
    for dp in range(4):
        for dm in range(4 - dp):
            if dp + dm == 0 or dp + dm > 3:
                continue
            v = SuperSpace(dp, dm)
            before, after = twist_symmetry(v, kunneth_projectors(v))
            assert _oracle_trace(_dense(before, v.total ** 2)) == \
                rank_super(v)
            assert _oracle_trace(_dense(after, v.total ** 2)) == rank_dagger(v)


def test_graded_space_collapse():
    g = GradedSpace({0: 1, 1: 2, 2: 1, -3: 1})
    assert tuple(g.collapse()) == (2, 3)
    assert g.total == 5


def test_invalid_dims_rejected():
    with pytest.raises(InvariantError):
        SuperSpace(-1, 0)
    with pytest.raises(InvariantError):
        GradedSpace({0: -2})
