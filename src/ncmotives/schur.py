"""Symmetric-group combinatorics and Schur functors on super vector spaces.

Partitions index the irreducible representations of S_n; the central block
idempotent attached to a partition acts on n-th tensor powers (with Koszul
signs in the super case), and Schur-finiteness asks for a partition whose
functor kills the space.  Characters come from the Murnaghan-Nakayama rule
with the hook length formula as a cross-check; Schur dimensions have the
supersymmetric hook Schur evaluation as an independent oracle.

A block idempotent is a class function, so it is kept as its values on the
p(n) conjugacy classes, never on the n! permutations: products, the check
c^2 = c and the trace of an idempotent all run over the classes.  The class
counts that multiply in the centre are counted from permutations, never
derived from characters, so c^2 = c stays an independent check of the
characters.
"""

from fractions import Fraction
from functools import lru_cache
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


def _parts(partition):
    """The checked parts of a Partition or of a sequence of parts."""
    if isinstance(partition, Partition):
        return partition.parts
    return check_partition(partition)


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
    parts = _parts(partition)
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
    """The conjugacy classes of S_n, a class being a cycle type E: its size
    n!/z_E, with z_E = prod over i of i^(m_i) m_i! for m_i parts equal to
    i, one representative g_E (the cycles (0 1 .. l-1)(l ..) ... of E's
    lengths in order), and the class counts

        N_E(C, D) = #{h in C : h^(-1) o g_E in D},

    counted from permutations by the first product of two central elements
    of S_n: p(n) n! compositions, 840 at n = 5 and 7920 at n = 6."""

    def __init__(self, n):
        self.n = n
        self.rep, self.size = {}, {}
        for e in partitions_of(n):
            z = 1
            for i in set(e):
                m = e.count(i)
                z *= i ** m * factorial(m)
            self.size[e] = factorial(n) // z
            rep, start = [], 0
            for l in e:
                rep += range(start + 1, start + l)
                rep.append(start)
                start += l
            self.rep[e] = tuple(rep)
        self.counts = None

    def class_counts(self):
        """{E: [(C, D, N_E(C, D)) for each nonzero count]}.  h and its
        inverse k share a class, so the count runs over k = h^(-1)."""
        if self.counts is None:
            cls = {p: cycle_type(p) for p in permutations(range(self.n))}
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


class GroupAlgebraElement:
    """A central element of Q[S_n], a class function: cycle type ->
    coefficient.

    Coefficients are stored as int numerators num[E] over one positive
    common denominator den, with gcd(den, num...) = 1, so equal elements
    have equal fields; a class missing from num has coefficient 0.  coeffs
    is the read-only view on permutations.

    The centre is a subalgebra, so a product xy is central and its value at
    one representative g_E fixes its whole class,

        (xy)(g_E) = sum over C, D of N_E(C, D) x_C y_D,

    at most p(n)^3 multiply-adds (124 nonzero counts at n = 5) with the
    counts N_E(C, D) of _ClassData.
    """

    def __init__(self, n, values):
        values = {e: Fraction(c) for e, c in values.items() if c}
        for e in values:
            if not isinstance(e, tuple) or sum(e) != n or \
                    check_partition(e) != e:
                raise InvariantError("not a partition of %d" % n)
        den = lcm(*(c.denominator for c in values.values()))
        self.n = n
        self.num = {e: c.numerator * (den // c.denominator)
                    for e, c in values.items()}
        self.den = den

    @classmethod
    def _make(cls, n, num, den):
        """An element from int numerators over den > 0, with no class
        check: callers pass the cycle types of S_n."""
        num = {e: v for e, v in num.items() if v}
        g = gcd(den, *num.values())
        if g > 1:
            num = {e: v // g for e, v in num.items()}
            den //= g
        out = cls.__new__(cls)
        out.n, out.num, out.den = n, num, den
        return out

    @property
    def coeffs(self):
        """{permutation: Fraction} over the permutations of the classes
        with a nonzero value; the zero element enumerates nothing."""
        if not self.num:
            return {}
        num, den = self.num, self.den
        out = {}
        for p in permutations(range(self.n)):
            v = num.get(cycle_type(p))
            if v:
                out[p] = Fraction(v, den)
        return out

    def __mul__(self, other):
        x, y = self.num, other.num
        vals = {}
        for e, terms in _class_data(self.n).class_counts().items():
            total = 0
            for c, d, m in terms:
                if c in x and d in y:
                    total += m * x[c] * y[d]
            vals[e] = total
        return GroupAlgebraElement._make(self.n, vals, self.den * other.den)

    def __eq__(self, other):
        return (isinstance(other, GroupAlgebraElement) and self.n == other.n
                and self.den == other.den and self.num == other.num)

    def __repr__(self):
        return "GroupAlgebraElement(S_%d, %d classes)" % (self.n,
                                                          len(self.num))


_IDEMPOTENTS = {}    # parts -> c_lambda, stored once built (and checked)


def central_idempotent(partition):
    """The central block idempotent

        c_lambda = (f^lambda / n!) sum_sigma chi_lambda(sigma^(-1)) sigma,

    kept by its class values f^lambda chi_lambda(C) / n! (sigma^(-1) has
    the cycle type of sigma).  For n <= 6 construction checks c^2 = c
    through the class product, whose counts come from permutations and not
    from characters; above, the counts would cost p(n) n! compositions once
    per process and n (887040 at n = 8), so construction leaves the check
    to callers.  Results are memoized by partition; elements are never
    mutated, so callers share them.  n above CHARACTER_CAP raises
    CapExceededError, also on a memo hit.
    """
    parts = _parts(partition)
    n = sum(parts)
    if n > CHARACTER_CAP:
        raise CapExceededError("idempotent cap is n <= %d" % CHARACTER_CAP,
                               needed=n, cap=CHARACTER_CAP)
    c = _IDEMPOTENTS.get(parts)
    if c is None:
        row = character_table_row(parts)
        f = standard_tableau_count(parts)
        c = GroupAlgebraElement._make(
            n, {e: f * chi for e, chi in row.items()}, factorial(n))
        if n <= 6 and c * c != c:
            raise InvariantError("central idempotent failed c^2 = c")
        _IDEMPOTENTS[parts] = c
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
    ints: the signed permutation entries of every permutation times the
    numerator of its class."""
    n, num = elem.n, elem.num
    cols = [{} for _ in range(_power_dim(v, n))]
    for p in permutations(range(n)):
        c = num.get(cycle_type(p))
        if not c:
            continue
        for col, (tgt, sign) in zip(cols,
                                    _signed_permutation_entries(v, n, p)):
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
    """dim S_lambda(v), the rank of the idempotent's action on v^(x n).

    The action of a central idempotent is an idempotent matrix, so in
    characteristic zero its rank equals its trace.  The super trace of a
    permutation depends on its cycle type alone, so the trace is the sum of
    |C| c_C str(C) over the p(n) conjugacy classes C, with |C| = n!/z_C and
    c_C the stored class value; it builds no matrix and answers at every
    size.  force_matrix computes the rank of the action instead (the
    --oracle cross-check and the tests' reference) and raises
    CapExceededError when t^n exceeds TENSOR_CAP.
    """
    parts = _parts(partition)
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
                          for e, coeff in c.num.items()), c.den)
    if rem:
        raise InvariantError("projector trace is not an integer")
    return val


def super_schur_value(partition, v):
    """Independent oracle: f^lambda * hs_lambda(1^d+ | 1^d-) via the
    Jacobi-Trudi determinant in the complete supersymmetric functions."""
    parts = _parts(partition)
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
    parts = _parts(partition)
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
