"""Symmetric-group combinatorics and Schur functors on super vector spaces.

Partitions index the irreducible representations of S_n; the central block
idempotent attached to a partition acts on n-th tensor powers (with Koszul
signs in the super case), and Schur-finiteness asks for a partition whose
functor kills the space.  Characters come from the Murnaghan-Nakayama rule
with the hook length formula as a cross-check; Schur dimensions have the
supersymmetric hook Schur evaluation as an independent oracle.

The block idempotents are central, so they live in the centre of Q[S_n], a
subalgebra of dimension p(n) spanned by the class sums.  A product of two
central elements, the check c^2 = c and the trace of an idempotent run over
the p(n) conjugacy classes, not the n! permutations: a central element is
fixed by its value at one representative of each class.  The class counts
that multiply in the centre are counted from permutations, never derived
from characters, so c^2 = c stays an independent check of the characters.
"""

from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import permutations
from math import factorial, gcd, lcm

from .errors import InvariantError, CapExceededError
from .exactlin import matrix_rank

CHARACTER_CAP = 8


def check_partition(parts):
    parts = tuple(int(p) for p in parts)
    if any(p <= 0 for p in parts):
        raise InvariantError("partition parts must be positive")
    if any(parts[i] < parts[i + 1] for i in range(len(parts) - 1)):
        raise InvariantError("partition parts must be weakly decreasing")
    return parts


class Partition:
    def __init__(self, parts):
        self.parts = check_partition(parts)
        self.weight = sum(self.parts)

    def __eq__(self, other):
        return isinstance(other, Partition) and self.parts == other.parts

    def __hash__(self):
        return hash(self.parts)

    def __repr__(self):
        return "Partition%s" % (self.parts,)


def partitions_of(n):
    """All partitions of n, largest part first, in lexicographic order."""
    if n == 0:
        return [()]
    out = []

    def rec(rest, maxpart, prefix):
        if rest == 0:
            out.append(tuple(prefix))
            return
        for p in range(min(rest, maxpart), 0, -1):
            rec(rest - p, p, prefix + [p])

    rec(n, n, [])
    return out


def hook_lengths(parts):
    conj = conjugate(parts)
    return [[parts[i] - j + conj[j] - i - 1 for j in range(parts[i])]
            for i in range(len(parts))]


def conjugate(parts):
    if not parts:
        return ()
    out = []
    for j in range(parts[0]):
        out.append(sum(1 for p in parts if p > j))
    return tuple(out)


def standard_tableau_count(parts):
    """f^lambda by the hook length formula."""
    n = sum(parts)
    prod = 1
    for row in hook_lengths(parts):
        for h in row:
            prod *= h
    return factorial(n) // prod


@lru_cache(maxsize=None)
def _mn_character(parts, cycle_type):
    """Murnaghan-Nakayama: chi_lambda at a given cycle type (both tuples).

    Recursion removes a rim hook of the first cycle length in every valid
    way; a hook spanning rows start..end takes row i to parts[i+1] - 1 for
    start <= i < end and row end to parts[start] - k + (end - start), and is
    valid iff the result is again a partition shape.
    """
    if not parts:
        return 1 if not cycle_type else 0
    if not cycle_type:
        return 0
    k = cycle_type[0]
    rest = cycle_type[1:]
    total = 0
    rows = len(parts)
    for start in range(rows):
        for end in range(start, rows):
            new = list(parts)
            for i in range(start, end):
                new[i] = parts[i + 1] - 1
            new[end] = parts[start] - k + (end - start)
            if new[end] < 0 or new[end] > parts[end] - 1:
                continue
            if any(new[i] < new[i + 1] for i in range(len(new) - 1)):
                continue
            trimmed = tuple(p for p in new if p > 0)
            total += (-1) ** (end - start) * _mn_character(trimmed, rest)
    return total


def character_table_row(partition):
    """chi_lambda on all cycle types of S_n, as {cycle_type: integer}.

    The identity value is cross-checked against the hook length formula.
    """
    parts = partition.parts if isinstance(partition, Partition) \
        else check_partition(partition)
    n = sum(parts)
    if n > CHARACTER_CAP:
        raise CapExceededError("character cap is n <= %d" % CHARACTER_CAP,
                               needed=n, cap=CHARACTER_CAP)
    row = {}
    for ct in partitions_of(n):
        row[ct] = _mn_character(parts, ct)
    ident = tuple([1] * n)
    if row[ident] != standard_tableau_count(parts):
        raise InvariantError("Murnaghan-Nakayama disagrees with the hook "
                             "length formula (internal bug)")
    return row


def cycle_type(perm):
    n = len(perm)
    seen = [False] * n
    lens = []
    for i in range(n):
        if seen[i]:
            continue
        l = 0
        j = i
        while not seen[j]:
            seen[j] = True
            j = perm[j]
            l += 1
        lens.append(l)
    lens.sort(reverse=True)
    return tuple(lens)


def compose_perm(p, q):
    """(p o q)(i) = p(q(i))."""
    return tuple(map(p.__getitem__, q))


class _ClassData:
    """The conjugacy classes of S_n, a class being a cycle type: the class
    of each permutation (in the order of itertools.permutations), one
    representative g_E and the size of each class E, and the class counts

        N_E(C, D) = #{h in C : h^(-1) o g_E in D},

    counted from permutations by the first product of two central elements
    of S_n: p(n) n! compositions, 840 at n = 5 and 7920 at n = 6."""

    def __init__(self, n):
        self.class_of = {p: cycle_type(p) for p in permutations(range(n))}
        self.rep, self.size = {}, {}
        for p, e in self.class_of.items():
            self.rep.setdefault(e, p)
            self.size[e] = self.size.get(e, 0) + 1
        self.counts = None

    def class_counts(self):
        """{E: [(C, D, N_E(C, D)) for each nonzero count]}.  h and its
        inverse k share a class, so the count runs over k = h^(-1)."""
        if self.counts is None:
            cls = self.class_of
            counts = {}
            for e, g in self.rep.items():
                tally = {}
                for k, c in cls.items():
                    key = (c, cls[compose_perm(k, g)])
                    tally[key] = tally.get(key, 0) + 1
                counts[e] = [(c, d, m) for (c, d), m in tally.items()]
            self.counts = counts
        return self.counts


_CLASSES = {}       # n -> _ClassData, made by the first use at n


def _class_data(n):
    data = _CLASSES.get(n)
    if data is None:
        data = _CLASSES[n] = _ClassData(n)
    return data


def _class_values(n, num):
    """{class: numerator} when num is constant on every conjugacy class of
    S_n (a class num misses has value 0, and is left out), else None."""
    data = _class_data(n)
    cls = data.class_of
    vals = {}
    for p, v in num.items():
        if vals.setdefault(cls[p], v) != v:
            return None
    # num meets each class in at most its size, so equal totals mean num
    # covers every class it meets
    if sum(data.size[e] for e in vals) != len(num):
        return None
    return vals


class GroupAlgebraElement:
    """Sparse element of Q[S_n]: permutation tuple -> coefficient.

    Coefficients are stored as int numerators num[p] over one positive
    common denominator den, with gcd(den, num...) = 1, so equal elements
    have equal fields.  coeffs is the read-only Fraction view.

    An element is central iff its numerators are constant on every
    conjugacy class, which is the same as commuting with all of S_n; it
    records that once, as its class values (None if not central), since
    elements are never mutated.  A product x * y of two central elements is
    computed in the class algebra: the centre is a subalgebra, so xy is
    central and its value at one representative g_E fixes its whole class,

        (xy)(g_E) = sum over C, D of N_E(C, D) x_C y_D,

    at most p(n)^3 multiply-adds (124 nonzero counts at n = 5) in place of
    (n!)^2 (14400), with the counts N_E(C, D) of _ClassData.  Every other product sums c * d at
    p o q over the terms c p of x and d q of y, composing the tuples.
    """

    def __init__(self, n, coeffs):
        coeffs = {p: Fraction(c) for p, c in coeffs.items() if c}
        for p in coeffs:
            if len(p) != n or sorted(p) != list(range(n)):
                raise InvariantError("not a permutation of %d letters" % n)
        den = lcm(*(c.denominator for c in coeffs.values()))
        self.n = n
        self.num = {p: c.numerator * (den // c.denominator)
                    for p, c in coeffs.items()}
        self.den = den

    @classmethod
    def _make(cls, n, num, den):
        """An element from int numerators over den > 0, with no permutation
        check: callers pass composites of checked permutations."""
        num = {p: v for p, v in num.items() if v}
        g = gcd(den, *num.values())
        if g > 1:
            num = {p: v // g for p, v in num.items()}
            den //= g
        out = cls.__new__(cls)
        out.n, out.num, out.den = n, num, den
        return out

    @classmethod
    def _from_classes(cls, n, vals, den):
        """The central element with numerator vals.get(E, 0) at every
        permutation of class E, over den > 0."""
        return cls._make(n, {p: vals.get(e, 0) for p, e in
                             _class_data(n).class_of.items()}, den)

    @cached_property
    def _classes(self):
        """{class: numerator} if the element is central, else None."""
        return _class_values(self.n, self.num)

    @property
    def coeffs(self):
        den = self.den
        return {p: Fraction(v, den) for p, v in self.num.items()}

    def __mul__(self, other):
        n = self.n
        den = self.den * other.den
        x = self._classes
        y = other._classes if x is not None else None
        if y is not None:
            vals = {}
            for e, terms in _class_data(n).class_counts().items():
                total = 0
                for c, d, m in terms:
                    if c in x and d in y:
                        total += m * x[c] * y[d]
                vals[e] = total
            return GroupAlgebraElement._from_classes(n, vals, den)
        out = {}
        get = out.get
        for p, c in self.num.items():
            at = p.__getitem__
            for q, d in other.num.items():
                r = tuple(map(at, q))
                out[r] = get(r, 0) + c * d
        return GroupAlgebraElement._make(n, out, den)

    def __add__(self, other):
        den = lcm(self.den, other.den)
        a, b = den // self.den, den // other.den
        out = {p: a * v for p, v in self.num.items()}
        for p, v in other.num.items():
            out[p] = out.get(p, 0) + b * v
        return GroupAlgebraElement._make(self.n, out, den)

    def scale(self, c):
        c = Fraction(c)
        k = c.numerator
        return GroupAlgebraElement._make(
            self.n, {p: k * v for p, v in self.num.items()},
            self.den * c.denominator)

    def __eq__(self, other):
        return (isinstance(other, GroupAlgebraElement) and self.n == other.n
                and self.den == other.den and self.num == other.num)

    def __repr__(self):
        return "GroupAlgebraElement(S_%d, %d terms)" % (self.n,
                                                        len(self.num))


_IDEMPOTENTS = {}    # (parts, verified) -> c_lambda, stored once checked


def central_idempotent(partition, verify=None):
    """The central block idempotent

        c_lambda = (f^lambda / n!) sum_sigma chi_lambda(sigma^(-1)) sigma,

    built from its class values f^lambda chi_lambda(C) / n! (sigma^(-1)
    has the cycle type of sigma).  At construction for n <= 6 (and on
    request above) it is verified central, its numerators being constant
    on every conjugacy class, and idempotent, c^2 = c through the class
    product, whose counts come from permutations and not from characters.
    Results are memoized by partition and by whether they were verified;
    elements are never mutated, so callers share them.  n above
    CHARACTER_CAP raises CapExceededError, also on a memo hit.
    """
    parts = partition.parts if isinstance(partition, Partition) \
        else check_partition(partition)
    n = sum(parts)
    if n > CHARACTER_CAP:
        raise CapExceededError("idempotent cap is n <= %d" % CHARACTER_CAP,
                               needed=n, cap=CHARACTER_CAP)
    if verify is None:
        # c^2 = c costs p(n)^3 multiply-adds and, once per process and n,
        # p(n) n! compositions for the class counts: 7920 at n = 6, and
        # 887040 at n = 8
        verify = n <= 6
    key = (parts, bool(verify))
    if key in _IDEMPOTENTS:
        return _IDEMPOTENTS[key]
    row = character_table_row(parts)
    f = standard_tableau_count(parts)
    c = GroupAlgebraElement._from_classes(
        n, {e: f * chi for e, chi in row.items()}, factorial(n))
    if verify:
        if c._classes is None:
            raise InvariantError("idempotent is not central")
        if c * c != c:
            raise InvariantError("central idempotent failed c^2 = c")
    _IDEMPOTENTS[key] = c
    return c


# ---------------------------------------------------------------------------
# tensor power actions with Koszul signs

TENSOR_CAP = 50000


def _power_dim(v, n):
    """dim v^(x n), refused above TENSOR_CAP."""
    t = v.total
    if t ** n > TENSOR_CAP:
        raise CapExceededError("tensor power dimension %d exceeds cap %d"
                               % (t ** n, TENSOR_CAP), needed=t ** n,
                               cap=TENSOR_CAP)
    return t ** n


def _signed_permutation_entries(v, n, perm):
    """[(target code, sign)] of perm acting on v^(x n), one pair per source
    code."""
    t = v.total
    odd = [v.parity(k) for k in range(t)]
    entries = []
    for code in range(_power_dim(v, n)):
        idx = []
        c = code
        for _ in range(n):
            idx.append(c % t)
            c //= t
        idx.reverse()
        # target: factor at position i goes to position perm[i]
        out = [0] * n
        for i in range(n):
            out[perm[i]] = idx[i]
        sign = 1
        for i in range(n):
            for j in range(i + 1, n):
                if perm[i] > perm[j] and odd[idx[i]] and odd[idx[j]]:
                    sign = -sign
        tgt = 0
        for k in out:
            tgt = tgt * t + k
        entries.append((tgt, sign))
    return entries


def _numerator_action(v, elem):
    """The columns of elem.den times the action of elem on v^(x n), on
    ints: the signed permutation entries of every term times its
    numerator."""
    cols = [{} for _ in range(_power_dim(v, elem.n))]
    for p, c in elem.num.items():
        for col, (tgt, sign) in zip(
                cols, _signed_permutation_entries(v, elem.n, p)):
            col[tgt] = col.get(tgt, 0) + sign * c
    return [{i: s for i, s in col.items() if s} for col in cols]


def _super_trace(v, lengths):
    """Trace of the signed action of a permutation with cycle lengths
    lengths: product over cycles of (d+ + (-1)^(l+1) d-)."""
    total = 1
    for l in lengths:
        total *= v.even + ((-1) ** (l + 1)) * v.odd
    return total


def schur_dimension(partition, v, force_matrix=False):
    """dim S_lambda(v) computed from the idempotent action on v^(x n).

    The action of a central idempotent is an idempotent matrix, so in
    characteristic zero its rank equals its trace.  The super trace of a
    permutation depends on its cycle type alone and c_lambda is constant on
    each class, so the trace is the sum of |C| c_C str(C) over the p(n)
    conjugacy classes C; it builds no matrix and answers at every size.
    force_matrix computes the rank of the action instead (the --oracle
    cross-check and the tests' reference) and raises CapExceededError when
    t^n exceeds TENSOR_CAP.
    """
    parts = partition.parts if isinstance(partition, Partition) \
        else check_partition(partition)
    n = sum(parts)
    c = central_idempotent(parts)
    t = v.total
    if force_matrix:
        if t ** n > TENSOR_CAP:
            raise CapExceededError("tensor power exceeds cap", needed=t ** n,
                                   cap=TENSOR_CAP)
        # the rank of the action is the rank of den times it
        return matrix_rank(_numerator_action(v, c))
    size = _class_data(n).size
    val, rem = divmod(sum(size[e] * coeff * _super_trace(v, e)
                          for e, coeff in c._classes.items()), c.den)
    if rem:
        raise InvariantError("projector trace is not an integer")
    return val


def super_schur_value(partition, v):
    """Independent oracle: f^lambda * hs_lambda(1^d+ | 1^d-) via the
    Jacobi-Trudi determinant in the complete supersymmetric functions."""
    parts = partition.parts if isinstance(partition, Partition) \
        else check_partition(partition)
    a, b = v.even, v.odd

    def comb(m, k):
        if k < 0:
            return 0
        if k == 0:
            return 1
        if m < 0:
            return 0
        out = 1
        for i in range(k):
            out = out * (m - i) // (i + 1)
        return out

    def h_super(k):
        if k < 0:
            return 0
        if k == 0:
            return 1
        return sum(comb(a - 1 + i, i) * comb(b, k - i) for i in range(k + 1))

    l = len(parts)
    m = [[h_super(parts[i] - i + j) for j in range(l)] for i in range(l)]
    # exact integer determinant by expansion on the small matrices used here
    def det(mat, rows, cols):
        if not rows:
            return 1
        total = 0
        r = rows[0]
        for k, c in enumerate(cols):
            v0 = mat[r][c]
            if v0:
                sub = det(mat, rows[1:], cols[:k] + cols[k + 1:])
                total += (-1) ** k * v0 * sub
        return total

    value = det(m, list(range(l)), list(range(l)))
    return standard_tableau_count(parts) * value


def rectangle_criterion(partition, v):
    """True iff S_lambda(v) = 0 by the hook criterion: lambda_(d+ + 1) >= d- + 1."""
    parts = partition.parts if isinstance(partition, Partition) \
        else check_partition(partition)
    a, b = v.even, v.odd
    return len(parts) > a and parts[a] >= b + 1


def is_schur_finite(v, search_cap=12):
    """A minimal-weight annihilating partition, if one exists within the cap.

    For honest super spaces one always exists; the rectangle criterion is a
    cross-check oracle, never the returned evidence (each candidate's Schur
    dimension is computed).
    """
    for n in range(1, search_cap + 1):
        for parts in partitions_of(n):
            if schur_dimension(parts, v) == 0:
                if not rectangle_criterion(parts, v):
                    raise InvariantError("vanishing disagrees with the hook "
                                         "criterion (internal bug)")
                return Partition(parts)
    raise CapExceededError("no annihilating partition of weight <= %d found"
                           % search_cap, needed=None, cap=search_cap)
