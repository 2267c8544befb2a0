"""Super dimensions and the Koszul sign.

The sign lives in one place, `categories.dagger_twist`: on a graded
presentation (no signs, traces the plain ones) the twist by the even-slot
idempotents pi+ gives the Koszul-signed category, whose symmetry is -1 at
the odd-odd slots and whose trace is the supertrace.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from ncmotives.categories import (dagger_twist, graded_line_window,
                                  graded_space_category)
from ncmotives.errors import InvariantError
from ncmotives.supers import SuperSpace


def _even_idempotents(c):
    """pi+ on every object of a graded presentation: the identity on its
    even-degree slots.  End(x) has the basis of slot pairs (t, s) of equal
    degree, t-major, and the degree list of x is c.grading[x]."""
    plus = {}
    for x, degs in c.grading.items():
        pairs = [(t, s) for t in range(len(degs)) for s in range(len(degs))
                 if degs[t] == degs[s]]
        plus[x] = {pairs.index((s, s)): 1
                   for s, d in enumerate(degs) if d % 2 == 0}
    return plus


def _tensor_square(degrees):
    """The graded presentation on the unit 1 = (0,), X = degrees and
    XX = X (x) X; degrees must not be (0,), the unit's."""
    x = tuple(sorted(degrees))
    xx = tuple(sorted(a + b for a in x for b in x))
    return graded_space_category({"1": (0,), "X": x, "XX": xx},
                                 max(abs(d) for d in xx))


def _graded(dp, dm):
    """_tensor_square of dp even and dm odd degrees whose pairwise sums
    differ, so that each End is as small as (dp|dm) allows."""
    degrees = (4, 16, 64)[:dp] + (1, 11, 41)[:dm]
    sums = [a + b for i, a in enumerate(degrees) for b in degrees[i:]]
    assert len(set(sums)) == len(sums)
    return _tensor_square(degrees)


def _swap_signs(c, signed):
    """The entries of c_{X,X} that the twist to signed negates and those it
    keeps, as two lists of the parities (|x_i|, |x_j|) of their source
    slots x_i (x) x_j; any other change fails.  The slots of XX are ordered
    as graded_space_category orders them, by (degree, i, j)."""
    x, xx = c.grading["X"], c.grading["XX"]
    slots = sorted((a + b, i, j) for i, a in enumerate(x)
                   for j, b in enumerate(x))
    pairs = [(t, s) for t in range(len(xx)) for s in range(len(xx))
             if xx[t] == xx[s]]
    before, after = c.symmetry[("X", "X")], signed.symmetry[("X", "X")]
    assert set(before) == set(after)
    flipped, kept = [], []
    for k, v in before.items():
        assert after[k] in (v, -v)
        _, i, j = slots[pairs[k][1]]
        (flipped if after[k] == -v else kept).append((x[i] % 2, x[j] % 2))
    return flipped, kept


def _ranks(c):
    """(tr(id_X), tr(c_{X,X})), each by the category's own traces."""
    return (c.trace("X", c.ident["X"]),
            c.trace("XX", c.symmetry[("X", "X")]))


def test_twist_even_line_identity():
    c = _graded(1, 0)
    d = dagger_twist(c, _even_idempotents(c))
    assert d.symmetry == c.symmetry and d.traces == c.traces


def test_twist_odd_line_sign_flip():
    c = _graded(0, 1)
    d = dagger_twist(c, _even_idempotents(c))
    assert c.symmetry[("X", "X")] == {0: 1}
    assert d.symmetry[("X", "X")] == {0: -1}
    assert _ranks(c) == (1, 1) and _ranks(d) == (-1, -1)


def test_twist_flips_exactly_odd_odd_slots():
    for dp, dm in ((1, 1), (2, 1), (2, 2)):
        c = _graded(dp, dm)
        flipped, kept = _swap_signs(c, dagger_twist(c, _even_idempotents(c)))
        assert flipped == [(1, 1)] * dm ** 2
        assert len(kept) == dp ** 2 + 2 * dp * dm and (1, 1) not in kept


def test_koszul_swap_squares_to_identity():
    for dp, dm in ((1, 1), (2, 1), (0, 2)):
        c = _graded(dp, dm)
        d = dagger_twist(c, _even_idempotents(c))
        s = d.symmetry[("X", "X")]
        assert d.compose("XX", "XX", "XX", s, s) == d.ident["XX"]


def test_swap_traces_give_the_two_ranks():
    """The trace of the swap on X (x) X is the rank: d+ + d- on the graded
    presentation, d+ - d- after the twist (d+ + d- <= 3)."""
    for dp in range(4):
        for dm in range(4 - dp):
            if dp + dm == 0:
                continue
            c = _graded(dp, dm)
            d = dagger_twist(c, _even_idempotents(c))
            assert _ranks(c) == (dp + dm, dp + dm)
            assert _ranks(d) == (dp - dm, dp - dm)


def test_ranks():
    """Each object's rank is its own: on the lines L_d, |d| <= 3, tr(id) is
    1 on the graded presentation and (-1)^d after the twist."""
    g = graded_line_window(3)
    d = dagger_twist(g, _even_idempotents(g))
    for x, (degree,) in g.grading.items():
        assert g.trace(x, g.ident[x]) == 1
        assert d.trace(x, d.ident[x]) == 1 - 2 * (degree % 2)


def _product_traces(a, b):
    """tr(id) of V = (a+|a-), W = (b+|b-) and V (x) W, on the graded
    presentation and after the twist, as two dicts keyed "V", "W", "VW"."""
    # W's degrees lie at least 99 apart and V's in 1..6, so every sum v + w
    # is distinct
    v = (2, 4, 6)[:a[0]] + (1, 3, 5)[:a[1]]
    w = (200, 400, 600)[:b[0]] + (101, 301, 501)[:b[1]]
    vw = tuple(sorted(p + q for p in v for q in w))
    c = graded_space_category({"1": (0,), "V": v, "W": w, "VW": vw}, max(vw))
    assert c.tensor_objects("V", "W") == "VW"
    d = dagger_twist(c, _even_idempotents(c))
    return tuple({x: k.trace(x, k.ident[x]) for x in ("V", "W", "VW")}
                 for k in (c, d))


def _product_dims(a, b):
    """The super dimensions (d+|d-) of V (x) W, read off the plain trace
    d+ + d- and the signed trace d+ - d- of its identity."""
    plain, signed = _product_traces(a, b)
    return ((plain["VW"] + signed["VW"]) // 2,
            (plain["VW"] - signed["VW"]) // 2)


def _random_pairs(rng, n):
    """n pairs of super dimensions in 0..3, neither of them (0|0)."""
    pairs = []
    while len(pairs) < n:
        a = (rng.randint(0, 3), rng.randint(0, 3))
        b = (rng.randint(0, 3), rng.randint(0, 3))
        if sum(a) and sum(b):
            pairs.append((a, b))
    return pairs


def test_kunneth_tensor_dims():
    """(1|1) (x) (1|1) = (2|2), the even line is a unit, and odd (x) odd is
    the even line."""
    assert _product_dims((1, 1), (1, 1)) == (2, 2)
    for dims in ((2, 1), (0, 2), (3, 0)):
        assert _product_dims(dims, (1, 0)) == dims
    assert _product_dims((0, 1), (0, 1)) == (1, 0)


def test_kunneth_tensor_matches_super_product():
    """The super dimensions of V (x) W follow the product rule
    (a+ b+ + a- b-, a+ b- + a- b+)."""
    for a, b in _random_pairs(random.Random(1), 20):
        assert _product_dims(a, b) == (a[0] * b[0] + a[1] * b[1],
                                       a[0] * b[1] + a[1] * b[0])


def test_rank_multiplicativity():
    """tr(id_(V (x) W)) = tr(id_V) tr(id_W) on the graded presentation and
    after the twist."""
    for a, b in _random_pairs(random.Random(9), 30):
        for t in _product_traces(a, b):
            assert t["VW"] == t["V"] * t["W"]


@settings(deadline=None, max_examples=20)
@given(st.lists(st.integers(-2, 2), min_size=1, max_size=3)
       .filter(lambda d: d != [0] and (len(d) < 3 or len(set(d)) > 1)))
def test_twist_is_an_involution_that_signs_odd_odd_slots(degrees):
    """On the graded presentation of any X of at most three slots (repeated
    degrees included, but not three equal ones: End(X (x) X) would have
    dimension 81), with the unit and X (x) X: twisting twice gives back the
    symmetry and the traces, tr(c_{X,X}) = tr(id_X) in both categories, and
    only the odd-odd slots change sign."""
    c = _tensor_square(degrees)
    plus = _even_idempotents(c)
    d = dagger_twist(c, plus)
    back = dagger_twist(d, plus)
    assert back.symmetry == c.symmetry and back.traces == c.traces
    dm = sum(g % 2 for g in degrees)
    assert _ranks(c) == (len(degrees),) * 2
    assert _ranks(d) == (len(degrees) - 2 * dm,) * 2
    flipped, kept = _swap_signs(c, d)
    assert flipped == [(1, 1)] * dm ** 2 and (1, 1) not in kept


def test_invalid_dims_rejected():
    with pytest.raises(InvariantError):
        SuperSpace(-1, 0)
