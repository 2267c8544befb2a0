"""Hochschild, cyclic, and periodic cyclic homology of finite-dimensional
rational algebras, computed exactly from the normalized chain complex.

Grading convention is homological throughout: the Hochschild boundary b
lowers degree, the Connes operator B raises it, and

    b^2 = B^2 = bB + Bb = 0

holds exactly on every constructed mixed complex (verified at construction).
Sources written cohomologically call b the degree +1 map; the translation is
a straight reindexing.  Chains are normalized and relative to a separable
ground subalgebra E of A: C_n(A; M) = M (x)_{E^e} Abar^{(x)_E n} with
Abar = A / E.  For E = Q.1 this is M (x) Abar^n, of dimension
dim(M) * (dim A - 1)^n.  hochschild_complex takes E = Q^{Q_0}, spanned by
the vertex idempotents, for a quiver algebra with more than one vertex and
coefficients in a vertex-adapted basis: then Abar is the radical, and a
chain m (x) r_1 (x) ... (x) r_n must close up into a cycle, so for M = A
on an acyclic quiver every chain of degree >= 1 vanishes.  Both choices
compute HH(A; M) (Cibils; Loday, reduction to a separable subalgebra).
The mixed complex takes the same ground as hochschild_complex does for
the regular bimodule, and the relative normalized cyclic module computes
the same HC and HP.  The Chern character is projected onto it (the
projection pi from the chains over Q.1 is a map of mixed complexes), and
a homomorphism that does not carry the vertex idempotents into the target's
ground algebra is read on its source's complex over Q.1.  The choice of
ground (_relative_ends), the reduced basis, the composable chains and the
differential b come from algebras (_chain_basis and hochschild_columns),
which derived tensor products share; the Connes operator B is built here.

Cyclic homology comes from the first-quadrant (b, B)-bicomplex totalization
Tot_n = (+)_i C_{n-2i} with differential b + B; the periodicity operator S
drops the top component.  Periodic cyclic homology is reported as a stable
(even, odd) pair with an explicit certificate:

  CERTIFIED      finite global dimension g and truncation >= g + 3, so
                 Hochschild homology vanishes above g and the S tower is
                 permanently stable (Mittag-Leffler for free);
  WINDOW-STABLE  the images of iterated S stabilized inside the computed
                 window but no global-dimension certificate exists;
  NOT-STABILIZED no stabilization was observed in the window.
"""

import itertools
from fractions import Fraction
from math import factorial

from .errors import InvariantError, UncertifiedError
from .exactlin import (QMatrix, LinSubspace, matrix_rank, kernel_vectors,
                       vec_addmul)
from .homcore import ChainComplex, apply_cols
# _guard is re-exported: perfbench/tracer.py wraps hochschild._guard
from .algebras import (_chain_basis, _guard, _relative_ends, _word_code,
                       hochschild_columns, regular_bimodule,
                       global_dimension)

DEFAULT_CAP = 200000


# ---------------------------------------------------------------------------
# chain-level construction


def connes_columns(a, red, n, chains=None):
    """Columns of B_n : C_n(A) -> C_(n+1)(A) on normalized chains,

        B(a_0 (x) ... (x) a_n) =
            sum_i (-1)^(i n)  1 (x) a_i (x) ... (x) a_n (x) a_0 (x) ... (x) a_(i-1).

    With E = Q^{Q_0} (chains given, as for hochschild_columns) the column
    of a chain whose coefficient a_0 is a vertex idempotent is 0, since
    a_0 vanishes in Abar, and 1 (x)_{E^e} is e_v (x), v the source of the
    first slot after the rotation.
    """
    dbar = red.dbar
    pow_next = dbar ** (n + 1)
    if chains is not None:
        vertex = a.quiver.vertex_idx
        cols = []
        for c, word in chains.lists[n]:
            col = {}
            for s, cs in red.classes[c].items():
                seq = (s,) + word
                for i in range(n + 1):
                    rot = seq[i:] + seq[:i]
                    code = (vertex[red.ends[rot[0]][0]] * pow_next
                            + _word_code(rot, dbar))
                    val = col.get(code, 0) + (-cs if (i * n) % 2 else cs)
                    if val:
                        col[code] = val
                    else:
                        col.pop(code, None)
            cols.append(col)
        return chains.renumber(n + 1, cols)
    unit = a.unit
    cols = []
    for i0 in range(a.dim):
        red0 = red.classes[i0]
        for mid in itertools.product(range(dbar), repeat=n):
            col = {}
            seq = (None,) + mid      # position 0 carries a_0 via red0
            for i in range(n + 1):
                sgn = -1 if (i * n) % 2 else 1
                rot = seq[i:] + seq[:i]
                # code of the Abar part, with a placeholder at a_0's slot
                a0_slot = rot.index(None)
                base = 0
                for pos, t in enumerate(rot):
                    base = base * dbar + (0 if t is None else t)
                a0_shift = dbar ** (n - a0_slot)
                for r, cr in red0.items():
                    code_bar = base + r * a0_shift
                    for uk, cu in unit.items():
                        code = uk * pow_next + code_bar
                        val = col.get(code, 0) + sgn * cr * cu
                        if val:
                            col[code] = val
                        else:
                            col.pop(code, None)
            cols.append(col)
    return cols


def hochschild_complex(a, m=None, n_max=4, cap=DEFAULT_CAP, check=True):
    """Normalized Hochschild complex of A with coefficients in the
    (A, A)-bimodule m (the regular bimodule when omitted).

    Relative to E = Q^{Q_0} when A is a quiver algebra with more than one
    vertex and m's basis is vertex-adapted (algebras._vertex_ends); relative
    to E = Q.1 otherwise.  Both compute HH(A; M).
    """
    if n_max < 1:
        raise InvariantError("n_max must be >= 1")
    if m is None:
        m = regular_bimodule(a)
    elif m.A is not a or m.B is not a:
        raise InvariantError("the coefficients %s are not an (A, A)-bimodule "
                             "over %s" % (m.name, a.name))
    red, dims, chains = _chain_basis(m, n_max, _relative_ends(m), cap)
    diffs = [None] + [hochschild_columns(m, red, n, chains=chains)
                      for n in range(1, n_max + 1)]
    return ChainComplex(dims, diffs, check=check)


class HomologyTable:
    """Dimension table with its soundness certificate."""

    def __init__(self, kind, dims, n_max, certified_upto):
        self.kind = kind
        self.dims = list(dims)
        self.n_max = n_max
        self.certified_upto = certified_upto
        if any(d < 0 for d in self.dims):
            raise InvariantError("negative homology dimension (internal bug)")

    def __getitem__(self, n):
        return self.dims[n]

    def __len__(self):
        return len(self.dims)

    def __repr__(self):
        return "%s dims %s (exact for degrees 0..%d)" % (
            self.kind, self.dims, self.certified_upto)


def hochschild_homology(a, m=None, n_max=4, cap=DEFAULT_CAP):
    """dims of HH_n(A; M) for n <= n_max - 1, exact in that range."""
    cx = hochschild_complex(a, m, n_max, cap)
    dims = [cx.homology_dim(n) for n in range(n_max)]
    return HomologyTable("HH", dims, n_max, n_max - 1)


class TruncatedMixedComplex:
    """(C_*(A), b, B) for degrees 0..n_max, relations verified exactly.

    The chains are relative to E = Q^{Q_0} whenever hochschild_complex
    takes that ground for the regular bimodule, and to E = Q.1 otherwise
    (or when _absolute is set); both compute HC(A).  red is the reduced
    basis and chains the composable chains (None for E = Q.1).
    """

    def __init__(self, a, n_max, cap=DEFAULT_CAP, *, _absolute=False):
        if n_max < 2:
            raise InvariantError("a mixed complex needs n_max >= 2")
        self.n_max = n_max
        m = regular_bimodule(a)
        ends = None if _absolute else _relative_ends(m)
        self.red, self.dims, self.chains = _chain_basis(m, n_max, ends, cap)
        self.b = [None] + [hochschild_columns(m, self.red, n,
                                              chains=self.chains)
                           for n in range(1, n_max + 1)]
        self.B = [connes_columns(a, self.red, n, chains=self.chains)
                  for n in range(n_max)]
        self._verify_relations()

    def chain(self, n, pos):
        """(c, (t_1, ..., t_n)) of the degree-n chain at pos: c an index of
        A's basis, t_i positions in red.kept."""
        if self.chains is not None:
            return self.chains.lists[n][pos]
        word = []
        for _ in range(n):
            pos, t = divmod(pos, self.red.dbar)
            word.append(t)
        return pos, tuple(reversed(word))

    def project(self, n, codes):
        """The degree-n chain with the coordinates codes of red.expand.
        Relative to E = Q^{Q_0} this is the projection pi from the chains
        over Q, a map of mixed complexes: codes that are not composable
        chains vanish."""
        if self.chains is None:
            return codes
        index = self.chains.index[n]
        return {index[c]: v for c, v in codes.items() if c in index}

    def _verify_relations(self):
        # b^2 = 0
        for n in range(2, self.n_max + 1):
            lower = self.b[n - 1]
            for col in self.b[n]:
                if apply_cols(lower, col):
                    raise InvariantError("b^2 != 0 at degree %d" % n)
        # B^2 = 0
        for n in range(self.n_max - 1):
            upper = self.B[n + 1]
            for col in self.B[n]:
                if apply_cols(upper, col):
                    raise InvariantError("B^2 != 0 at degree %d" % n)
        # bB + Bb = 0
        for n in range(self.n_max):
            bB = self.B[n - 1] if n >= 1 else None
            for j, col in enumerate(self.B[n]):
                acc = apply_cols(self.b[n + 1], col)
                if n >= 1:
                    for k, c in self.b[n][j].items():
                        vec_addmul(acc, c, bB[k])
                if acc:
                    raise InvariantError("bB + Bb != 0 at degree %d" % n)

    def hochschild_chain_complex(self, check=False):
        return ChainComplex(self.dims, self.b, check=check)

    def tot_offsets(self, n):
        """Component degrees and offsets of Tot_n = (+)_i C_{n-2i}."""
        comps = []
        off = 0
        m = n
        while m >= 0:
            comps.append((m, off))
            off += self.dims[m]
            m -= 2
        return comps, off

    def tot_complex(self, check=False):
        """The (b, B) totalization as a chain complex in degrees 0..n_max."""
        dims = []
        diffs = [None]
        offsets = []
        for n in range(self.n_max + 1):
            comps, total = self.tot_offsets(n)
            offsets.append({m: off for m, off in comps})
            dims.append(total)
        for n in range(1, self.n_max + 1):
            comps, _ = self.tot_offsets(n)
            prev_off = offsets[n - 1]
            cols = []
            for m, off in comps:
                bcols = self.b[m] if m >= 1 else None
                Bcols = self.B[m] if m + 1 <= n - 1 else None
                for j in range(self.dims[m]):
                    col = {}
                    if bcols is not None:
                        base = prev_off[m - 1]
                        for r, v in bcols[j].items():
                            col[base + r] = v
                    if Bcols is not None:
                        base = prev_off[m + 1]
                        for r, v in Bcols[j].items():
                            col[base + r] = v
                    cols.append(col)
            diffs.append(cols)
        return ChainComplex(dims, diffs, check=check)


def mixed_complex(a, n_max=4, cap=DEFAULT_CAP):
    return TruncatedMixedComplex(a, n_max, cap)


# ---------------------------------------------------------------------------
# cached per-algebra homological data


class CyclicData:
    """Shared homological state for one algebra at one truncation."""

    def __init__(self, a, n_max, cap=DEFAULT_CAP, *, _absolute=False):
        self.n_max = n_max
        self.mixed = TruncatedMixedComplex(a, n_max, cap, _absolute=_absolute)
        self.hh = self.mixed.hochschild_chain_complex()
        self.tot = self.mixed.tot_complex()

    # certified homology dimensions -------------------------------------

    def hh_dims(self):
        return [self.hh.homology_dim(n) for n in range(self.n_max)]

    def hc_dims(self):
        return [self.tot.homology_dim(n) for n in range(self.n_max)]

    # homology spaces with cheap candidate generators --------------------

    def _unit_candidates(self, n):
        """Cycles of Tot_n supported in the C_0 component: x with B_0 x = 0."""
        if n % 2 or n > self.n_max:
            return []
        comps, _ = self.mixed.tot_offsets(n)
        base = dict(comps)[0]
        m = QMatrix(self.mixed.dims[1], self.mixed.dims[0],
                    {(r, j): v for j, col in enumerate(self.mixed.B[0])
                     for r, v in col.items()})
        return [{base + i: c for i, c in v.items()}
                for v in kernel_vectors(m)]

    def hh_space(self, n):
        return self.hh.homology_space(n)

    def hc_space(self, n):
        return self.tot.homology_space(n, candidates=self._unit_candidates(n))

    # the SBI maps on homology -------------------------------------------

    def map_I(self, n):
        """HH_n -> HC_n induced by including C_n as the top component."""
        reps, _ = self.hh_space(n)
        _, project = self.hc_space(n)
        cols = {}
        for j, z in enumerate(reps):
            for r, v in project(dict(z)).items():
                cols[(r, j)] = v
        hdim = len(self.hc_space(n)[0])
        return QMatrix(hdim, len(reps), cols)

    def map_S(self, n):
        """HC_n -> HC_(n-2): drop the top component of the totalization."""
        reps, _ = self.hc_space(n)
        _, project = self.hc_space(n - 2)
        top_dim = self.mixed.dims[n]
        cols = {}
        for j, z in enumerate(reps):
            dropped = {i - top_dim: v for i, v in z.items() if i >= top_dim}
            for r, v in project(dropped).items():
                cols[(r, j)] = v
        hdim = len(self.hc_space(n - 2)[0])
        return QMatrix(hdim, len(reps), cols)

    def map_Bconn(self, n):
        """HC_n -> HH_(n+1): the connecting map [z] -> [B(z_top)]."""
        reps, _ = self.hc_space(n)
        _, project = self.hh_space(n + 1)
        top_dim = self.mixed.dims[n]
        cols = {}
        for j, z in enumerate(reps):
            top = {i: v for i, v in z.items() if i < top_dim}
            img = apply_cols(self.mixed.B[n], top)
            for r, v in project(img).items():
                cols[(r, j)] = v
        hdim = len(self.hh_space(n + 1)[0])
        return QMatrix(hdim, len(reps), cols)


def cyclic_data(a, n_max, cap=DEFAULT_CAP):
    """The CyclicData of a, memoized on the algebra per (n_max, cap)."""
    key = (n_max, cap)
    if key not in a._cyclic:
        a._cyclic[key] = CyclicData(a, n_max, cap)
    return a._cyclic[key]


def _absolute_cyclic_data(a, n_max, cap):
    """The CyclicData of a relative to E = Q.1, memoized under its own key."""
    key = (n_max, cap, "Q.1")
    if key not in a._cyclic:
        a._cyclic[key] = CyclicData(a, n_max, cap, _absolute=True)
    return a._cyclic[key]


def cyclic_homology(a, n_max=4, cap=DEFAULT_CAP):
    """dims of HC_n for n <= n_max - 1 from the (b, B)-totalization."""
    if n_max < 2:
        raise InvariantError("cyclic homology needs n_max >= 2")
    data = cyclic_data(a, n_max, cap)
    return HomologyTable("HC", data.hc_dims(), n_max, n_max - 1)


# ---------------------------------------------------------------------------
# the SBI long exact sequence


class SBIReport:
    def __init__(self, algebra_name, n_max, hh, hc, entries, all_exact):
        self.algebra_name = algebra_name
        self.n_max = n_max
        self.hh = hh
        self.hc = hc
        self.entries = entries   # list of dicts: node, degree, ranks, exact
        self.all_exact = all_exact

    def __repr__(self):
        return "SBIReport(%s, n_max=%d, %s)" % (
            self.algebra_name, self.n_max,
            "exact" if self.all_exact else "NOT EXACT")


def sbi_check(a, n_max=6, cap=DEFAULT_CAP):
    """Verify exactness of ... -> HH_n -I-> HC_n -S-> HC_(n-2) -B-> HH_(n-1) -> ...

    at every node certified by the truncation, with full rank bookkeeping.
    The composite-zero identities (S I = I B = B S = 0) hold structurally for
    the maps as constructed; exactness additionally needs the rank sums to
    fill each node, which is what the report records.
    """
    data = cyclic_data(a, n_max, cap)
    N = n_max
    hh = data.hh_dims()
    hc = data.hc_dims()
    rank_I = {}
    rank_S = {}
    rank_B = {}
    for n in range(N):
        rank_I[n] = matrix_rank(data.map_I(n)) if hh[n] and hc[n] else 0
        if n >= 2:
            rank_S[n] = matrix_rank(data.map_S(n)) if hc[n] and hc[n - 2] else 0
        if n + 1 <= N - 1:
            rank_B[n] = matrix_rank(data.map_Bconn(n)) if hc[n] and hh[n + 1] else 0

    entries = []
    ok = True

    def node(kind, degree, lhs, rhs, detail):
        nonlocal ok
        exact = (lhs == rhs)
        ok = ok and exact
        entries.append({"node": kind, "degree": degree, "lhs": lhs,
                        "rhs": rhs, "detail": detail, "exact": exact})

    for n in range(N):
        # exactness at HC_n: im I_n = ker S_n  (S into HC_(n-2), zero if n<2)
        s_rank = rank_S.get(n, 0)
        node("HC", n, rank_I[n] + s_rank, hc[n],
             "rank I_%d + rank S_%d = dim HC_%d" % (n, n, n))
        # exactness at HH_n: im Bconn_(n-1) = ker I_n
        b_in = rank_B.get(n - 1, 0)
        node("HH", n, b_in + rank_I[n], hh[n],
             "rank B_%d + rank I_%d = dim HH_%d" % (n - 1, n, n))
        # exactness at HC_n as target of S_(n+2): im S = ker Bconn_n
        if n + 2 <= N - 1 and n in rank_B:
            node("HC-target", n, rank_S.get(n + 2, 0) + rank_B[n], hc[n],
                 "rank S_%d + rank B_%d = dim HC_%d" % (n + 2, n, n))

    # composite-zero spot checks on the homology-level matrices
    for n in range(2, N):
        if hh[n] and hc[n] and hc[n - 2]:
            if not (data.map_S(n) * data.map_I(n)).is_zero():
                ok = False
                entries.append({"node": "S.I", "degree": n, "exact": False,
                                "detail": "S o I != 0"})
    return SBIReport(a.name, n_max, hh, hc, entries, ok)


# ---------------------------------------------------------------------------
# periodic cyclic homology with stabilization certificates


class HPResult:
    """Stable (even, odd) dimensions of the S tower with a certificate."""

    def __init__(self, even, odd, r0, certificate, n_max, details=None):
        self.even = even
        self.odd = odd
        self.r0 = r0
        self.certificate = certificate
        self.n_max = n_max
        self.details = details or {}
        if even is not None and (even < 0 or odd < 0):
            raise InvariantError("negative stable dimension")

    @property
    def super_dims(self):
        return (self.even, self.odd)

    def __repr__(self):
        if self.even is None:
            return "HP(not stabilized in window, n_max=%d)" % self.n_max
        return "HP = (%d|%d), %s, r0=%d, n_max=%d" % (
            self.even, self.odd, self.certificate, self.r0, self.n_max)


def hp_nil_invariant(a):
    """(dim A / (rad A + [A, A]) | 0), the periodic cyclic homology of A.

    In characteristic 0 HP does not change under nilpotent extensions
    (Goodwillie), so HP(A) = HP(A / rad A), and a semisimple Q-algebra S is
    separable, with HP(S) = (dim S / [S, S] | 0).  periodic_cyclic checks
    every number it returns against this value.
    """
    gens = a.radical().basis()
    for i in range(a.dim):
        for j in range(i + 1, a.dim):
            comm = dict(a.mult_basis(i, j))
            vec_addmul(comm, -1, a.mult_basis(j, i))
            if comm:
                gens.append(comm)
    return a.dim - LinSubspace(a.dim, gens).dim, 0


def _checked(hp, a):
    """hp, after its value is compared with hp_nil_invariant(a)."""
    nil = hp_nil_invariant(a)
    if hp.super_dims != nil:
        raise InvariantError(
            "%s HP (%d|%d) disagrees with the nil-invariant value (%d|%d)"
            % ((hp.certificate,) + hp.super_dims + nil))
    return hp


def _gldim_certificate(a, n_max):
    if a.radical().dim == 0:
        return 0
    if a.quiver is not None:
        return global_dimension(a, bound=n_max)
    return None


def periodic_cyclic(a, n_max=6, cap=DEFAULT_CAP):
    """Stable even/odd dimensions of HC under the periodicity operator S.

    CERTIFIED when the algebra has finite global dimension g and
    n_max >= g + 3: then HH vanishes above g, the SBI sequence forces S to
    be an isomorphism from degree max(g-1, 0) on, and the window values are
    the honest periodic cyclic dimensions.  Otherwise the images of iterated
    S maps are compared inside the window (WINDOW-STABLE / NOT-STABILIZED).
    A CERTIFIED or WINDOW-STABLE value that differs from hp_nil_invariant
    raises InvariantError; the check upgrades no verdict.
    """
    if n_max < 4:
        raise InvariantError("periodic cyclic needs n_max >= 4")
    data = cyclic_data(a, n_max, cap)
    N = n_max
    hc = data.hc_dims()
    g = _gldim_certificate(a, n_max)

    if g is not None and n_max >= g + 3:
        r0 = max(g - 1, 0)
        hh = data.hh_dims()
        for n in range(g + 1, N):
            if hh[n] != 0:
                raise InvariantError(
                    "HH_%d != 0 contradicts global dimension %d" % (n, g))
        window = range(r0, N - 2)
        for n in window:
            if n + 2 <= N - 1 and hc[n + 2] != hc[n]:
                raise InvariantError(
                    "HC dimensions not stable in certified window at %d" % n)
        # smallish instances: verify the S isomorphisms literally
        verified_iso = False
        if data.tot.dims[min(N - 1, len(data.tot.dims) - 1)] <= 40000:
            for n in range(r0, N - 2):
                if n + 2 <= N - 1 and hc[n]:
                    if matrix_rank(data.map_S(n + 2)) != hc[n]:
                        raise InvariantError("S is not onto at degree %d "
                                             "despite certificate" % n)
            verified_iso = True
        n_even = max(n for n in range(r0, N - 2) if n % 2 == 0) \
            if any(n % 2 == 0 for n in range(r0, N - 2)) else 0
        n_odd = max(n for n in range(r0, N - 2) if n % 2 == 1)
        return _checked(HPResult(hc[n_even], hc[n_odd], r0, "CERTIFIED",
                                 n_max, details={"gldim": g,
                                                 "s_iso_verified":
                                                 verified_iso}), a)

    # window detection: stabilization of iterated S images
    towers = {}
    for n in range(0, N - 2):
        ranks = []
        k = 1
        composite = None
        while n + 2 * k <= N - 1:
            step = data.map_S(n + 2 * k)
            composite = step if composite is None else composite * step
            ranks.append(matrix_rank(composite))
            k += 1
        towers[n] = ranks
    stable = {}
    for parity in (0, 1):
        candidates = [n for n in sorted(towers) if n % 2 == parity
                      and len(towers[n]) >= 2]
        if not candidates:
            stable[parity] = None
            continue
        n = candidates[0]
        ranks = towers[n]
        if ranks[-1] == ranks[-2]:
            stable[parity] = (n, ranks[-1])
        else:
            stable[parity] = None
    details = {"gldim": g, "towers": towers, "hc_dims": hc}
    if stable[0] is None or stable[1] is None:
        return HPResult(None, None, None, "NOT-STABILIZED", n_max, details)
    # consistency along each parity chain where extra data exists
    for parity in (0, 1):
        n0, w = stable[parity]
        for n in range(n0 + 2, N - 2, 2):
            if len(towers[n]) >= 2 and towers[n][-1] == towers[n][-2] \
                    and towers[n][-1] != w:
                return HPResult(None, None, None, "NOT-STABILIZED", n_max,
                                details)
    r0 = max(stable[0][0], stable[1][0]) + 2
    return _checked(HPResult(stable[0][1], stable[1][1], r0,
                             "WINDOW-STABLE", n_max, details), a)


# ---------------------------------------------------------------------------
# functoriality along algebra homomorphisms


def check_homomorphism(f, a, b):
    """f: a QMatrix (dim b x dim a) giving a unital algebra map A -> B."""
    if f.rows != b.dim or f.cols != a.dim:
        raise InvariantError("homomorphism matrix has wrong shape")
    if f * a.unit != b.unit:
        raise InvariantError("homomorphism is not unital")
    fcols = f.columns()
    for i in range(a.dim):
        for j in range(a.dim):
            lhs = f * a.mult_basis(i, j)
            rhs = b.mult_vec(fcols[i], fcols[j])
            if lhs != rhs:
                raise InvariantError("not multiplicative at (%d, %d)" % (i, j))


def _chain_map_on_tot(f, a, b, data_a, data_b, n, vec):
    """Image in Tot_n(B) of a Tot_n(A) vector under the induced chain map

        a_0 (x) abar_1 (x) ... |-> f(a_0) (x) fbar(a_1) (x) ...

    followed by B's projection (TruncatedMixedComplex.project).  This is
    the map of mixed complexes induced by f when f carries A's ground
    algebra into B's, as hp_of_homomorphism arranges.
    """
    mixed_a, mixed_b = data_a.mixed, data_b.mixed
    fcols = f.columns()
    kept = mixed_a.red.kept
    off_b = dict(mixed_b.tot_offsets(n)[0])
    out = {}
    for m, off in mixed_a.tot_offsets(n)[0]:
        for code, val in vec.items():
            if not (off <= code < off + mixed_a.dims[m]):
                continue
            c, word = mixed_a.chain(m, code - off)
            slots = [fcols[c]] + [fcols[kept[t]] for t in word]
            image = mixed_b.project(m, mixed_b.red.expand(slots))
            vec_addmul(out, val, {off_b[m] + p: v for p, v in image.items()})
    return out


def _grounds_compatible(f, mixed_a, mixed_b):
    """Does f carry A's ground algebra E into B's?  E is spanned by the
    unit, which f keeps, and the basis elements of A whose class in Abar
    is 0 (relative to Q^{Q_0}, the vertex idempotents); f(x) lies in B's
    ground algebra iff its class in Bbar is 0."""
    fcols = f.columns()
    return not any(mixed_b.red.reduce(fcols[k])
                   for k, cls in mixed_a.red.classes.items() if not cls)


def hp_of_homomorphism(f, a, b, n_max=6, cap=DEFAULT_CAP):
    """Induced maps on the stable even/odd parts, from the chain level.

    Returns (even, odd) QMatrices in the canonical stable homology bases.
    Both sides must have CERTIFIED periodic cyclic homology.  When f does
    not carry the vertex idempotents of A into B's ground algebra (say
    Q x Q -> M_2(Q), e_i |-> e_ii), A's side is taken relative to Q.1.
    """
    check_homomorphism(f, a, b)
    hp_a = periodic_cyclic(a, n_max, cap)
    hp_b = periodic_cyclic(b, n_max, cap)
    if hp_a.certificate != "CERTIFIED" or hp_b.certificate != "CERTIFIED":
        raise UncertifiedError("hp_of_homomorphism needs CERTIFIED periodic "
                               "cyclic homology on both sides")
    data_a = cyclic_data(a, n_max, cap)
    data_b = cyclic_data(b, n_max, cap)
    if not _grounds_compatible(f, data_a.mixed, data_b.mixed):
        data_a = _absolute_cyclic_data(a, n_max, cap)
    r0 = max(hp_a.r0, hp_b.r0)
    window = [n for n in range(r0, n_max - 2)]
    n_even = max(n for n in window if n % 2 == 0)
    n_odd = max(n for n in window if n % 2 == 1)
    mats = {}
    for n in (n_even, n_odd):
        reps, _ = data_a.hc_space(n)
        _, project = data_b.hc_space(n)
        entries = {}
        for j, z in enumerate(reps):
            img = _chain_map_on_tot(f, a, b, data_a, data_b, n, z)
            for r, v in project(img).items():
                entries[(r, j)] = v
        mats[n] = QMatrix(len(data_b.hc_space(n)[0]), len(reps), entries)
    return mats[n_even], mats[n_odd]


# ---------------------------------------------------------------------------
# the Chern character of an idempotent


def _matrix_product_over_algebra(a, e, f):
    r = len(e)
    out = [[dict() for _ in range(r)] for _ in range(r)]
    for i in range(r):
        for j in range(r):
            acc = {}
            for k in range(r):
                vec_addmul_dict = a.mult_vec(e[i][k], f[k][j])
                for t, v in vec_addmul_dict.items():
                    s = acc.get(t, 0) + v
                    if s:
                        acc[t] = s
                    else:
                        acc.pop(t, None)
            out[i][j] = acc
    return out


def chern_character(e, a, n_max=6, cap=DEFAULT_CAP):
    """The (b, B)-bicomplex Chern cycle of an idempotent e in M_r(A).

    Components ch_0 = tr(e) and, for m >= 1,
        ch_(2m) = (-1)^m (2m)!/m! * tr((e - 1/2) (x) e^(x 2m))
    where tr is the generalized trace into the normalized chains, followed
    by the projection onto the chains of the mixed complex of A
    (TruncatedMixedComplex.project; relative to E = Q^{Q_0} it keeps the
    composable chains), so each component is sparse over the positions of
    that complex's chains.  The result is a cycle for b + B, verified
    exactly; its degree-0 component is the trace of e in A (whose class
    generates the pairing with HH_0).
    """
    r = len(e)
    for row in e:
        if len(row) != r:
            raise InvariantError("idempotent matrix must be square")
    if _matrix_product_over_algebra(a, e, e) != e:
        raise InvariantError("chern_character needs an exact idempotent")
    mixed = cyclic_data(a, n_max, cap).mixed
    half = Fraction(1, 2)
    # e - 1/2 as a matrix over A
    eh = [[dict(e[i][j]) for j in range(r)] for i in range(r)]
    for i in range(r):
        for k, c in a.unit.items():
            s = eh[i][i].get(k, 0) - half * c
            if s:
                eh[i][i][k] = s
            else:
                eh[i][i].pop(k, None)

    components = {}
    # degree 0: tr(e)
    ch0 = {}
    for i in range(r):
        for k, c in e[i][i].items():
            s = ch0.get(k, 0) + c
            if s:
                ch0[k] = s
            else:
                ch0.pop(k, None)
    components[0] = mixed.project(0, ch0)

    for m in range(1, n_max // 2 + 1):
        n = 2 * m
        coeff = Fraction(factorial(n), factorial(m)) * (-1) ** m
        comp = {}
        # generalized trace over index cycles i_0 -> i_1 -> ... -> i_n -> i_0
        for idx in itertools.product(range(r), repeat=n + 1):
            factors = [eh[idx[0]][idx[1]]]
            for p in range(1, n + 1):
                factors.append(e[idx[p]][idx[(p + 1) % (n + 1)]])
            for code, v in mixed.red.expand(factors).items():
                s = comp.get(code, 0) + coeff * v
                if s:
                    comp[code] = s
                else:
                    comp.pop(code, None)
        components[n] = mixed.project(n, comp)

    # verify (b + B) ch = 0 exactly within the truncation
    for m in range(0, n_max // 2):
        n = 2 * m
        acc = {}
        if n + 2 in components:
            acc = apply_cols(mixed.b[n + 2], components[n + 2])
        img = apply_cols(mixed.B[n], components[n])
        for k, v in img.items():
            s = acc.get(k, 0) + v
            if s:
                acc[k] = s
            else:
                acc.pop(k, None)
        if acc:
            raise InvariantError("Chern character is not a cycle at degree "
                                 "%d (internal bug)" % (n + 1))
    return components


def chern_class_in_hc(e, a, n_max=6, cap=DEFAULT_CAP):
    """Class of the truncated Chern cycle in the top certified even HC group.

    A compatible system of classes under S vanishes iff its top computed
    component does (lower components are S-images of it), so the kernel of
    the realization is read off at the largest certified even degree.
    """
    comps = chern_character(e, a, n_max, cap)
    data = cyclic_data(a, n_max, cap)
    hp = periodic_cyclic(a, n_max, cap)
    if hp.certificate == "NOT-STABILIZED":
        raise UncertifiedError("no stable even degree to evaluate the class")
    n_even = n_max - 1 if (n_max - 1) % 2 == 0 else n_max - 2
    offs, _ = data.mixed.tot_offsets(n_even)
    vec = {}
    for m, off in offs:
        comp = comps.get(m, {})
        for i, v in comp.items():
            vec[off + i] = v
    _, project = data.hc_space(n_even)
    return project(vec), n_even
