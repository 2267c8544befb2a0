"""Chain complex homology over Q.

A complex is stored column-wise: diffs[n] is the list of columns of
d_n : C_n -> C_{n-1} (each column a sparse dict).  Cycle representatives
are extracted lazily so that large kernels never have to be materialized
when only a few homology classes are needed.  induced_map gives the
columns of a chain map on homology.

Ranks come from one row pass per degree, with cohomology clearing: a
rank-only elimination of the rows of d_n skips row i whenever i is a lead
of the row echelon form of d_(n-1), and the leads it finds are cached;
rank(n) is their count.  A skipped lead is a coboundary e_i + (entries
after i), and d_(n-1) o d_n = 0 puts row i in the span of the later rows,
so the skip is exact only once d o d = 0 is proved: check_dd_zero runs in
the constructor, and a complex built with check=False must have it proved
elsewhere (the mixed complex's _verify_relations).

The span of the boundaries is eliminated only when a homology space needs
it: boundary_elim(n) is fed the columns of d_n at the row leads alone.
They are independent, because the r pivots of the row pass form a
triangular r x r minor of d_n at those columns; a dependent one is refused.
The span is built in reversed coordinates (index i of C_(n-1) is fed as
dims[n-1]-1-i), so each pivot's lead is the largest index of a boundary.

homology_space starts from that span (Elimination.modulo) and feeds the
candidate cycles, then the kernel vectors z_k of cycles_lazy, whose largest
index f_k is the k-th dependent column of d_n.  z_1..z_k span the cycles
supported on indices <= f_k, and every vector already tried lies in the
span, which holds only cycles; so a kernel vector is a new class iff its
largest index is not a lead of the span, and the chosen ones become pivots
with no reduction step.  project solves against the same span; its
coefficients are unique, since the representatives are independent modulo
the boundaries.
"""

from .errors import InvariantError
from .exactlin import Elimination, apply_cols


def _reversed(vec, dim):
    """vec with index i moved to dim - 1 - i."""
    return {dim - 1 - i: v for i, v in vec.items()}


class ChainComplex:
    """Non-negatively graded complex, degrees 0..N, d lowering degree by 1."""

    def __init__(self, dims, diffs, check=True):
        self.dims = list(dims)
        self.top = len(dims) - 1
        self.diffs = diffs            # diffs[0] is None
        self._leads = {0: []}         # n -> leads of d_n's row echelon form
        self._elims = {}              # n -> reversed boundary span of d_n
        self._spaces = {}
        if check:
            self.check_dd_zero()

    def check_dd_zero(self):
        for n in range(2, self.top + 1):
            lower = self.diffs[n - 1]
            for col in self.diffs[n]:
                if apply_cols(lower, col):
                    raise InvariantError("d o d != 0 between degrees %d and %d"
                                         % (n, n - 2))

    def _row_leads(self, n, cleared):
        """The leads of a row echelon form of d_n (column indices in C_n),
        from a rank-only elimination of its nonzero rows outside cleared."""
        rows = {}
        for j, col in enumerate(self.diffs[n]):
            for i, v in col.items():
                if i not in cleared:
                    rows.setdefault(i, {})[j] = v
        elim = Elimination()
        for i in sorted(rows):
            elim.add_column(rows[i])
        return sorted(elim.pivots)

    def leads(self, n):
        """The leads of d_n's row echelon form (cached), for 1 <= n <= top;
        the row pass skips the leads one degree down."""
        if n not in self._leads:
            self._leads[n] = self._row_leads(n, set(self.leads(n - 1)))
        return self._leads[n]

    def boundary_elim(self, n):
        """Rank-only Elimination spanning im(d_n) in reversed coordinates,
        fed only the columns of d_n at its row leads; cached.  A refusal
        drops the cached leads of degree n."""
        if n not in self._elims:
            elim = Elimination()
            if 1 <= n <= self.top:
                rows = self.dims[n - 1]
                for j in self.leads(n):
                    if not elim.add_column(_reversed(self.diffs[n][j], rows),
                                           j):
                        del self._leads[n]
                        raise InvariantError(
                            "column %d of d_%d is a row echelon lead but "
                            "depends on the earlier ones" % (j, n))
            self._elims[n] = elim
        return self._elims[n]

    def rank(self, n):
        if n < 1 or n > self.top:
            return 0
        return len(self.leads(n))

    def cycle_dim(self, n):
        return self.dims[n] - self.rank(n)

    def homology_dim(self, n):
        """dim H_n; certified only for n <= top-1 (needs d_{n+1})."""
        if n > self.top - 1:
            raise InvariantError("homology at degree %d is not certified by a "
                                 "truncation at %d" % (n, self.top))
        return self.cycle_dim(n) - self.rank(n + 1)

    def is_cycle(self, n, vec):
        if n == 0:
            return True
        return not apply_cols(self.diffs[n], vec)

    def cycles_lazy(self, n):
        """Generator of kernel vectors of d_n (all of C_n when n = 0); the
        k-th has its largest index at the k-th dependent column."""
        if n == 0 or n > self.top:
            for i in range(self.dims[n]):
                yield {i: 1}
            return
        elim = Elimination(track=True)
        for j, col in enumerate(self.diffs[n]):
            if not elim.add_column(col, j):
                yield elim.kernel_expression()

    def homology_space(self, n, candidates=()):
        """Representatives and a projection map for H_n.

        Returns (reps, project): reps is a list of cycle vectors whose
        classes form a basis; project(cycle) -> dict coordinate -> value.
        Candidate cycles are tried before the generic lazy kernel scan, so
        callers who know cheap generators avoid large eliminations.
        """
        if n in self._spaces:
            return self._spaces[n]
        h = self.homology_dim(n)
        dim = self.dims[n]
        # boundary coordinates are dropped by project, so the cached span of
        # d_(n+1) serves as it is: only new classes become pivots
        span = Elimination.modulo(self.boundary_elim(n + 1))
        reps = []
        for z in candidates:
            if len(reps) == h:
                break
            if self.is_cycle(n, z) and span.add_column(_reversed(z, dim),
                                                       len(reps)):
                reps.append(dict(z))
        if len(reps) < h:
            for z in self.cycles_lazy(n):
                if len(reps) == h:
                    break
                if dim - 1 - max(z) not in span.pivots:
                    span.add_column(_reversed(z, dim), len(reps))
                    reps.append(dict(z))
        if len(reps) != h:
            raise InvariantError("could not extract a homology basis at "
                                 "degree %d" % n)

        def project(vec):
            coeffs = span.solve(_reversed(vec, dim))
            if coeffs is None:
                raise InvariantError("vector is not a cycle-mod-boundary "
                                     "combination at degree %d" % n)
            return coeffs

        self._spaces[n] = (reps, project)
        return self._spaces[n]


def induced_map(source, target, chain_map):
    """The columns of a chain map on homology.

    source and target are (reps, project) pairs from homology_space;
    column j is the projection of chain_map(reps[j]) onto target's basis.
    """
    reps, _ = source
    _, project = target
    return [project(chain_map(z)) for z in reps]
