"""Symmetric-group combinatorics and Schur functors on super vector spaces.

Partitions index the irreducible representations of S_n; the central block
idempotent attached to a partition acts on n-th tensor powers (with Koszul
signs in the super case), and Schur-finiteness asks for a partition whose
functor kills the space.  Characters come from the Murnaghan-Nakayama rule
with the hook length formula as a cross-check; Schur dimensions have the
supersymmetric hook Schur evaluation as an independent oracle.
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


def perm_sign(perm):
    """(-1)^(n - number of cycles): an l-cycle is l - 1 transpositions."""
    return (-1) ** (len(perm) - len(cycle_type(perm)))


def compose_perm(p, q):
    """(p o q)(i) = p(q(i))."""
    return tuple(p[q[i]] for i in range(len(p)))


def invert_perm(p):
    out = [0] * len(p)
    for i, v in enumerate(p):
        out[v] = i
    return tuple(out)


TABLE_CAP = 5       # a full Cayley table of S_5 is 0.13 MB; of S_6, 4.4 MB


class _CayleyTable:
    """S_n as a list, each permutation's index, and the rows of the Cayley
    table built on demand: row(p)[j] is the index of p o perms[j].

    Rows are lists rather than arrays: the `array` extension module adds
    80 kB to the memory of every process that imports it, and most
    processes never multiply in Q[S_n]."""

    def __init__(self, n):
        self.perms = list(permutations(range(n)))
        self.index = {p: i for i, p in enumerate(self.perms)}
        self.rows = {}

    def row(self, p):
        row = self.rows.get(p)
        if row is None:
            at, index = p.__getitem__, self.index
            row = self.rows[p] = [index[tuple(map(at, q))]
                                  for q in self.perms]
        return row


_TABLES = {}        # n -> _CayleyTable, made by the first product that reads it


def _cayley_table(n):
    table = _TABLES.get(n)
    if table is None:
        table = _TABLES[n] = _CayleyTable(n)
    return table


class GroupAlgebraElement:
    """Sparse element of Q[S_n]: permutation tuple -> coefficient.

    Coefficients are stored as int numerators num[p] over one positive
    common denominator den, with gcd(den, num...) = 1, so equal elements
    have equal fields.  coeffs is the read-only Fraction view.

    A product x * y sums c * d at p o q over the terms c p of x and d q of
    y.  For n <= TABLE_CAP, p o q is read from the Cayley table row of p,
    indexed by the position of q, and the sums go into a list over S_n;
    all 120 rows of S_5 cost 14400 compositions, once per process.  Above
    the cap a table would cost (n!)^2 compositions and memory, so the
    product composes the tuples p and q.
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

    @property
    def coeffs(self):
        den = self.den
        return {p: Fraction(v, den) for p, v in self.num.items()}

    def __mul__(self, other):
        n = self.n
        if n <= TABLE_CAP:
            table = _cayley_table(n)
            index = table.index
            right = [(index[q], d) for q, d in other.num.items()]
            acc = [0] * len(table.perms)
            for p, c in self.num.items():
                row = table.row(p)
                for j, d in right:
                    acc[row[j]] += c * d
            out = dict(zip(table.perms, acc))
        else:
            out = {}
            get = out.get
            for p, c in self.num.items():
                at = p.__getitem__
                for q, d in other.num.items():
                    r = tuple(map(at, q))
                    out[r] = get(r, 0) + c * d
        return GroupAlgebraElement._make(n, out, self.den * other.den)

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

        c_lambda = (f^lambda / n!) sum_sigma chi_lambda(sigma^(-1)) sigma.

    Idempotency and centrality are verified at construction for n <= 5
    (and on request above).  Results are memoized by partition and by
    whether they were verified; elements are never mutated, so callers
    share them.  n above CHARACTER_CAP raises CapExceededError, also on a
    memo hit.
    """
    parts = partition.parts if isinstance(partition, Partition) \
        else check_partition(partition)
    n = sum(parts)
    if n > CHARACTER_CAP:
        raise CapExceededError("idempotent cap is n <= %d" % CHARACTER_CAP,
                               needed=n, cap=CHARACTER_CAP)
    if verify is None:
        # c^2 = c costs (n!)^2 products: 14400 at n = 5, read from the
        # Cayley table (whose rows cost as many compositions, once per
        # process); 518400 tuple compositions at n = 6
        verify = n <= 5
    key = (parts, bool(verify))
    if key in _IDEMPOTENTS:
        return _IDEMPOTENTS[key]
    row = character_table_row(parts)
    f = standard_tableau_count(parts)
    num = {sigma: f * row[cycle_type(invert_perm(sigma))]
           for sigma in permutations(range(n))}
    c = GroupAlgebraElement._make(n, num, factorial(n))
    if verify:
        if c * c != c:
            raise InvariantError("central idempotent failed c^2 = c")
        for k in range(n - 1):
            t = list(range(n))
            t[k], t[k + 1] = t[k + 1], t[k]
            t = tuple(t)
            tau = GroupAlgebraElement(n, {t: 1})
            if tau * c != c * tau:
                raise InvariantError("idempotent is not central")
    _IDEMPOTENTS[key] = c
    return c


def young_symmetrizer(partition):
    """The classical (non-central) Young symmetrizer of the canonical
    tableau, normalized to an idempotent: a secondary route to the same
    Schur functors."""
    parts = partition.parts if isinstance(partition, Partition) \
        else check_partition(partition)
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

    row_sum = GroupAlgebraElement(
        n, {p: 1 for p in group_of(rows)})
    col_sum = GroupAlgebraElement(
        n, {p: perm_sign(p) for p in group_of(cols)})
    y = row_sum * col_sum
    # y^2 = (n!/f) y, so scale to an idempotent
    f = standard_tableau_count(parts)
    return y.scale(Fraction(f, factorial(n)))


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


def tensor_power_action(v, n, perm):
    """The columns of the signed permutation matrix of perm acting on
    v^(x n).

    perm moves the factor in position i to position perm(i); the Koszul
    sign collects (-1) for every pair of odd factors whose order flips.
    """
    return [{tgt: sign}
            for tgt, sign in _signed_permutation_entries(v, n, perm)]


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


def group_element_action(v, elem):
    """The columns of the action of elem on v^(x n)."""
    den = elem.den
    return [{i: Fraction(s, den) for i, s in col.items()}
            for col in _numerator_action(v, elem)]


def _super_trace_of_permutation(v, perm):
    """Trace of the signed permutation action: product over cycles of
    (d+ + (-1)^(l+1) d-)."""
    total = 1
    for l in cycle_type(perm):
        total *= v.even + ((-1) ** (l + 1)) * v.odd
    return total


def schur_dimension(partition, v, force_matrix=False):
    """dim S_lambda(v) computed from the idempotent action on v^(x n).

    The action of a central idempotent is an idempotent matrix, so in
    characteristic zero its rank equals its trace; the trace expands over
    cycle types without building the matrix, and answers at every size.
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
    val, rem = divmod(sum(coeff * _super_trace_of_permutation(v, p)
                          for p, coeff in c.num.items()), c.den)
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
