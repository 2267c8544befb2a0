"""Chain complex homology over Q.

A complex is stored column-wise: diffs[n] is the list of columns of
d_n : C_n -> C_{n-1} (each column a sparse dict).  Ranks are cached; cycle
representatives are extracted lazily so that large kernels never have to be
materialized when only a few homology classes are needed.  homology_space
starts from the cached echelon form of d_(n+1) (Elimination.modulo) and
feeds only candidate cycles, since project drops boundary coordinates.
induced_map is the matrix of a chain map on homology.
"""

from .errors import InvariantError
from .exactlin import Elimination, QMatrix, vec_addmul


def apply_cols(cols, vec):
    """Matrix-vector product where the matrix is a list of columns."""
    out = {}
    for j, c in vec.items():
        if c:
            vec_addmul(out, c, cols[j])
    return out


class ChainComplex:
    """Non-negatively graded complex, degrees 0..N, d lowering degree by 1."""

    def __init__(self, dims, diffs, check=True):
        self.dims = list(dims)
        self.top = len(dims) - 1
        self.diffs = diffs            # diffs[0] is None
        self._elims = {}              # n -> rank-only Elimination of d_n
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

    def boundary_elim(self, n):
        """Elimination spanning im(d_n); rank-only, cached."""
        if n not in self._elims:
            if n < 1 or n > self.top:
                elim = Elimination(self.dims[max(n - 1, 0)] if n >= 1 else 0)
            else:
                elim = Elimination(self.dims[n - 1])
                for col in self.diffs[n]:
                    elim.add_column(col)
            self._elims[n] = elim
        return self._elims[n]

    def rank(self, n):
        if n < 1 or n > self.top:
            return 0
        return self.boundary_elim(n).rank

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
        """Generator of kernel vectors of d_n (all of C_n when n = 0)."""
        if n == 0 or n > self.top:
            for i in range(self.dims[n]):
                yield {i: 1}
            return
        elim = Elimination(self.dims[n - 1], track=True)
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
        # boundary coordinates are dropped by project, so the cached span of
        # d_(n+1) serves as it is: only the candidate cycles are fed
        span = Elimination.modulo(self.boundary_elim(n + 1))
        reps = []

        def try_rep(z):
            if span.add_column(z, len(reps)):
                reps.append(dict(z))

        for z in candidates:
            if len(reps) == h:
                break
            if self.is_cycle(n, z):
                try_rep(z)
        if len(reps) < h:
            for z in self.cycles_lazy(n):
                if len(reps) == h:
                    break
                try_rep(z)
        if len(reps) != h:
            raise InvariantError("could not extract a homology basis at "
                                 "degree %d" % n)

        def project(vec):
            coeffs = span.solve(vec)
            if coeffs is None:
                raise InvariantError("vector is not a cycle-mod-boundary "
                                     "combination at degree %d" % n)
            return coeffs

        self._spaces[n] = (reps, project)
        return self._spaces[n]


def induced_map(source, target, chain_map):
    """The matrix of a chain map on homology.

    source and target are (reps, project) pairs from homology_space;
    column j is the projection of chain_map(reps[j]) onto target's basis.
    """
    reps, _ = source
    target_reps, project = target
    entries = {}
    for j, z in enumerate(reps):
        for r, v in project(chain_map(z)).items():
            entries[(r, j)] = v
    return QMatrix(len(target_reps), len(reps), entries)
