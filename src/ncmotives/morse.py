"""Algebraic Morse reduction of the (b, B) totalization of kQ / J^(t+1).

A truncated path algebra A = kQ / J^(t+1) with t >= 2, which path_algebra
marks (Algebra.truncated_quiver), and an oriented cycle in Q (without one
every relative chain lies in degree 0 and hochschild keeps the bar
complex) has normalized chains
a_0 (x) r_1 (x) ... (x) r_n whose letters r_j are paths of length 1..t,
relative to the quiver's vertices (over Q.1 when there is one vertex).
The Anick matching (Skoldberg, Trans. AMS 358, 2006; Joellenbeck-Welker,
Mem. AMS 197, 2009) scans the bar word r_1 ... r_n from the left and
leaves a_0 alone:

  odd j,  |r_j| >= 2   split r_j into (first arrow, rest): the chain is
                       matched with one of degree n + 1;
  even j, |r_j| < t    merge r_j into the arrow r_(j-1): the chain is
                       matched with one of degree n - 1;

and any other letter passes.  The chains whose scan passes every letter,
the Anick words (arrow, t-path, arrow, t-path, ...), are critical.  A
matched pair differs by one middle face of b, whose coefficient is +-1.

A cell of Tot_N = (+)_i u^i C_(N-2i) is a triple (i, n, code): component
i, chain degree n = N - 2i and the chain's code (algebras._Chains).  The
matching is the same in every component and D = b + B keeps or lowers the
component, so it is acyclic on the whole totalization, and HH, HC, the
SBI maps and the S towers are all read from one Morse complex.  Its
differential on a critical cell c is

    D^M(c) = sum_d <Dc, d> Phi(d),

where Phi(d) = d for a critical d, 0 for a d matched downward, and, for d
matched upward to d+ with <Dd+, d> = e,

    Phi(d) = -e * sum_(d' != d) <Dd+, d'> Phi(d').

Phi is the projection of the chains onto the Morse complex, a map of
complexes and an isomorphism on homology.  It is memoized over the cells a
walk reaches, and the walk keeps its own stack, so no recursion limit
bounds the degree.  D is read one cell at a time through the readers
algebras.hochschild_column_reader and hochschild.connes_column_reader, the
face code of the bar complex.

Checked literally: D o D = 0 on every column the walk reads (b^2,
bB + Bb and B^2, told apart by component), before the column is used;
each matched coefficient is +-1; a walk that re-enters a cell still in
progress (a cycle of the matching) raises InvariantError; and the Morse
complexes are built with ChainComplex(check=True), so (D^M)^2 = 0.
"""

from .algebras import (_guarded_dims, _reduced, _relative_ends,
                       hochschild_column_reader, regular_bimodule)
from .errors import InvariantError
from .exactlin import vec_addmul
from .hochschild import connes_column_reader
from .homcore import ChainComplex


def reduce_totalization(a, n_max, cap, components):
    """The MorseReduction of the totalization of a = kQ / J^(t+1) in
    degrees 0..n_max, or None when a's chains are not words in its paths
    (its ground is not the vertices, as under a withheld ground).  The
    memory guard reads the bar chain count before any work."""
    t, paths = a.truncated_quiver
    m = regular_bimodule(a)
    ends = _relative_ends(m)
    red = _reduced(a, ends is not None)
    if sorted(red.kept) != [k for k, names in enumerate(paths) if names]:
        return None
    red, _, ends = _guarded_dims(m, n_max, ends, cap)
    return MorseReduction(m, red, ends, t, [paths[k] for k in red.kept],
                          n_max, components)


class MorseReduction:
    """The Anick matching on the chains of red and its Morse complexes in
    degrees 0..n_max.  words[p] is the path of red.kept[p], as its arrow
    names; ends are the ends of the coefficients' coordinates, as for
    algebras._Chains.  critical[n] lists the codes of the critical chains
    of degree n in increasing order."""

    def __init__(self, m, red, ends, t, words, n_max, components):
        self.red = red
        self.n_max = n_max
        self.t = t
        dbar = self.dbar = red.dbar
        self.pows = [dbar ** j for j in range(n_max + 2)]
        self.length = [len(w) for w in words]
        where = {w: p for p, w in enumerate(words)}
        self.split = [(where[w[:1]], where[w[1:]]) if len(w) >= 2 else None
                      for w in words]
        # [b_n], [B_n] readers, and the columns they gave, by (n, code)
        self._readers = ([None] + [hochschild_column_reader(m, red, n)
                                   for n in range(1, n_max + 1)],
                         [connes_column_reader(red, n)
                          for n in range(n_max)])
        self._cols = ({}, {})
        self.components = components
        # the component Phi of a chain of degree n is walked at: the
        # highest whose cells lie in Tot_(n_max - 1), where Phi is read
        self.tops = [min(components - 1, (n_max - 1 - n) // 2)
                     for n in range(n_max + 2)]
        self._checked = {}      # (n, code) -> the level _check passed
        self._phi = {}          # (n, code) -> Phi at its top component
        self.critical = self._anick_chains(ends)
        self.index = [{code: p for p, code in enumerate(codes)}
                      for codes in self.critical]

    def _anick_chains(self, ends):
        """The codes of the critical chains in degrees 0..n_max: a_c (x) w
        with w an Anick word from where a_c ends back to where it starts."""
        red = self.red
        letters = [{}, {}]      # [t-paths, arrows] by the vertex they leave
        for p, (u, _) in enumerate(red.ends):
            if self.length[p] in (1, self.t):
                letters[self.length[p] == 1].setdefault(u, []).append(p)
        words = {w: {w: [0]} for _, w in ends}  # codes from w, by their end
        critical = []
        for n in range(self.n_max + 1):
            if n:
                step = letters[n % 2]
                for w, by_end in words.items():
                    out = {}
                    for u, codes in by_end.items():
                        for p in step.get(u, ()):
                            out.setdefault(red.ends[p][1], []).extend(
                                code * self.dbar + p for code in codes)
                    words[w] = out
            critical.append(sorted(
                c * self.pows[n] + code for c, (u, w) in enumerate(ends)
                for code in words[w].get(u, ())))
        return critical

    def _match(self, n, code):
        """None when the chain is critical, -1 when the matching pairs it
        with a chain of degree n - 1, else the code of its partner of
        degree n + 1."""
        dbar, length = self.dbar, self.length
        for j in range(1, n + 1):
            w = self.pows[n - j]
            p = code // w % dbar
            if j % 2:
                if length[p] >= 2:
                    first, rest = self.split[p]
                    head = code // (w * dbar)
                    return ((head * dbar + first) * dbar + rest) * w \
                        + code % w
            elif length[p] < self.t:
                return -1
        return None

    def _read(self, connes, n, code):
        """The column of B_n (connes) or b_n at the chain, over codes;
        memoized."""
        memo = self._cols[connes]
        col = memo.get((n, code))
        if col is None:
            col = memo[(n, code)] = self._readers[connes][n](code)
        return col

    def _image(self, connes, n, vec):
        """B_n (connes) or b_n of a vector over codes of degree n."""
        out = {}
        for c, v in vec.items():
            vec_addmul(out, v, self._read(connes, n, c))
        return out

    def _check(self, n, code, level):
        """b^2 = 0 on the chain, and bB + Bb = 0 from level 1 and B^2 = 0
        from level 2: the components of D(D(c)) that a cell c of the chain
        in component i >= level has.  They depend on the chain alone, so
        each is checked once."""
        if self._checked.get((n, code), -1) >= level:
            return
        b = self._read(False, n, code) if n else {}
        broken = []
        if n >= 2 and self._image(False, n - 1, b):
            broken.append("b^2")
        if level:
            B = self._read(True, n, code)
            if level >= 2 and self._image(True, n + 1, B):
                broken.append("B^2")
            bB = self._image(False, n + 1, B)
            if n:
                vec_addmul(bB, 1, self._image(True, n - 1, b))
            if bB:
                broken.append("bB + Bb")
        if broken:
            raise InvariantError("%s != 0 at degree %d" % (broken[0], n))
        self._checked[(n, code)] = level

    def column(self, cell):
        """The column of D at the cell, over cells, once D(D(cell)) = 0 is
        checked on it."""
        i, n, code = cell
        self._check(n, code, min(i, 2))
        col = {}
        if n:
            for c, v in self._read(False, n, code).items():
                col[(i, n - 1, c)] = v
        if i:
            for c, v in self._read(True, n, code).items():
                col[(i - 1, n + 1, c)] = v
        return col

    def phi(self, cell):
        """Phi(cell), over critical cells.  D keeps or lowers the component
        by one, so Phi(u^i d) = sum_(k <= i) u^(i - k) phi_k(d) with phi_k
        free of i: the walk runs once per chain, at the chain's top
        component tops[n], and its value is cut and shifted down to the
        others."""
        i, n, code = cell
        shift = self.tops[n] - i
        if shift < 0:
            raise InvariantError("Phi reads a cell of Tot_%d, past the "
                                 "truncation (internal bug)" % (n + 2 * i))
        return {(self.tops[m] - shift, m, c): w
                for (m, c), w in self._walk(n, code).items()
                if self.tops[m] >= shift}

    def _walk(self, n, code):
        """Phi of the chain at its top component, over the critical chains
        at theirs.  A partner's faces lie at their top components too: b
        keeps the component and the degree, and B lowers the component by
        one and raises the degree by two."""
        memo = self._phi
        if (n, code) in memo:
            return memo[(n, code)]
        stack, active = [(n, code)], set()
        while stack:
            key = stack[-1]
            if key in memo:
                stack.pop()
                continue
            n, code = key
            up = self._match(n, code)
            if up is None or up < 0:
                memo[key] = {key: 1} if up is None else {}
                stack.pop()
                continue
            i = self.tops[n]
            col = {(m, c): v for (_, m, c), v in
                   self.column((i, n + 1, up)).items()}
            sign = col.pop(key, 0)
            if key not in active:
                if sign not in (1, -1):
                    raise InvariantError(
                        "a matched coefficient is %s, not +-1, on a chain of "
                        "degree %d" % (sign, n))
                pending = [e for e in col if e not in memo]
                if any(e in active for e in pending):
                    raise InvariantError(
                        "the matching has a cycle: a walk re-enters a chain "
                        "of degree %d still in progress" % n)
                active.add(key)
                if pending:
                    stack.extend(pending)
                    continue
            out = {}
            for e, v in col.items():
                vec_addmul(out, -sign * v, memo[e])
            memo[key] = out
            active.discard(key)
            stack.pop()
        return memo[key]

    def _offsets(self, N):
        """{component: offset} of the components of Tot_N the reduction
        holds, and their total dimension."""
        offs, off = {}, 0
        for i in range(min(self.components, N // 2 + 1)):
            offs[i] = off
            off += len(self.critical[N - 2 * i])
        return offs, off

    def _add_phi(self, out, cell, v, offs):
        """out += v * Phi(cell), over the positions offs lays out."""
        vec_addmul(out, v, {offs[k] + self.index[n][c]: w
                            for (k, n, c), w in self.phi(cell).items()})

    def complex(self):
        """The Morse complex in degrees 0..n_max, laid out as
        TruncatedMixedComplex.tot_offsets lays out the bar complex: the
        Hochschild complex with one component, the totalization with
        n_max // 2 + 1."""
        layout = [self._offsets(N) for N in range(self.n_max + 1)]
        diffs = [None]
        for N in range(1, self.n_max + 1):
            below = layout[N - 1][0]
            cols = []
            for i in layout[N][0]:
                for code in self.critical[N - 2 * i]:
                    col = {}
                    for e, v in self.column((i, N - 2 * i, code)).items():
                        self._add_phi(col, e, v, below)
                    cols.append(col)
            diffs.append(cols)
        return ChainComplex([dim for _, dim in layout], diffs)

    def from_bar(self, N, vec, mixed):
        """Phi of a vector of the bar complex's Tot_N (mixed, a
        TruncatedMixedComplex on the same chains), over the Morse Tot_N,
        for N < n_max."""
        if mixed.red is not self.red:
            raise InvariantError("Phi reads the bar complex of other chains "
                                 "(internal bug)")
        offs = self._offsets(N)[0]
        out = {}
        for n, off in mixed.tot_offsets(N)[0]:
            i, codes = (N - n) // 2, mixed.chains.lists[n]
            for p, v in vec.items():
                if off <= p < off + mixed.dims[n]:
                    self._add_phi(out, (i, n, codes[p - off]), v, offs)
        return out
