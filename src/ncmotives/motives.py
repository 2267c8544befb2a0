"""Correspondences, intersection numbers, and numerical equivalence.

A correspondence from A to B is a formal rational combination of
(A, B)-bimodules, modeling a class in the rationalized Grothendieck group of
A^op (x) B; composition is the derived tensor product with alternating
signs, the trace of an endo-correspondence is the Euler characteristic of
Hochschild homology with those coefficients, and the intersection pairing
<x . y> is the trace of the composite.  Its radical cuts out the numerical
quotient, whose endomorphism algebras are expected to be semisimple.  K_0
class vectors and enveloping projectivity come from the minimal projective
resolution of `algebras`, over the vertices that `algebras.presentation`
reads from the basis (the unit's terms, when they split the basis into
corners and the rest of the basis is radical), whatever the input format.

When both algebras have presentations and every term has a class vector (a
resolution that ends within the default bound), pairings and the products
of a span are computed in K_0: both are integer bilinear maps on class
vectors through the Cartan counts C(p, q) = dim e_p A e_q.  Otherwise the
pairing takes the Tor route, Tor bimodules and the Euler characteristics
of their Hochschild homology.  `compose` always returns Tor bimodules, so
the trace of a composite and the pairing are two independent routes.

Two instance checkers close the layer: `even_projector_in_span` asks whether
the even Kuenneth projector of the periodic realization is a combination of
declared correspondences, and `kernel_comparison` asks whether the homological
(Chern-character) and numerical kernels on K_0 coincide.  Both report spans
explicitly; failure inside a span never refutes anything.
"""

from fractions import Fraction
from types import SimpleNamespace

from .errors import InvariantError, UncertifiedError
from .exactlin import (Elimination, LinSubspace, combine_cols, compose_cols,
                       identity_cols, kernel, kernel_vectors, matrix_rank,
                       solve_columns)
from .algebras import (Algebra, regular_bimodule, corner_bimodule,
                       projective_pair_bimodule, derived_tensor,
                       minimal_resolution, presentation, _gldim_certificate)
from .hochschild import (hochschild_homology, periodic_cyclic,
                         chern_class_in_hc, DEFAULT_CAP)
from . import zoo as _zoo


class Correspondence:
    """A formal combination sum_i a_i [X_i] of (A, B)-bimodules."""

    def __init__(self, source, target, terms, name=None):
        self.source = source
        self.target = target
        clean = []
        for coeff, bim in terms:
            c = Fraction(coeff)
            if not c:
                continue
            if bim.A is not source or bim.B is not target:
                raise InvariantError("term is not an (A, B)-bimodule for the "
                                     "declared algebras")
            if bim.dim == 0:
                continue
            clean.append((c, bim))
        clean.sort(key=lambda t: t[1].content_key())
        self.terms = clean
        self.name = name or "corr"

    def scale(self, c):
        return Correspondence(self.source, self.target,
                              [(c * a, x) for a, x in self.terms])

    def __add__(self, other):
        if self.source is not other.source or self.target is not other.target:
            raise InvariantError("cannot add correspondences %s -> %s and "
                                 "%s -> %s" % (self.source.name,
                                               self.target.name,
                                               other.source.name,
                                               other.target.name))
        return Correspondence(self.source, self.target,
                              self.terms + other.terms)

    def __repr__(self):
        return "Correspondence(%s: %s -> %s, %d terms)" % (
            self.name, self.source.name, self.target.name, len(self.terms))


def unit_correspondence(a):
    reg = regular_bimodule(a)
    reg.is_regular_unit = True
    return Correspondence(a, a, [(1, reg)], name="[%s]" % a.name)


def _is_unit_bimodule(x):
    return getattr(x, "is_regular_unit", False)


def compose(x, y, cap=DEFAULT_CAP):
    """Composition A -> B -> C via the derived tensor with alternating signs;
    cap is the memory guard of each derived tensor."""
    if x.target is not y.source:
        raise InvariantError("correspondences are not composable")
    terms = []
    for a, xb in x.terms:
        for b, yb in y.terms:
            c = a * b
            if _is_unit_bimodule(yb):
                terms.append((c, xb))
                continue
            if _is_unit_bimodule(xb):
                terms.append((c, yb))
                continue
            tors = derived_tensor(xb, yb, cap=cap)
            for l, t in enumerate(tors):
                if t.dim:
                    terms.append((c * (-1) ** l, t))
    return Correspondence(x.source, y.target, terms)


# ---------------------------------------------------------------------------
# Euler characteristics and traces


def is_env_projective(m):
    """Is the bimodule projective over the enveloping algebra?

    Certified by a minimal resolution that ends at its first term; needs
    presentations to enumerate the indecomposable projective bimodules.
    """
    if presentation(m.A) is None or presentation(m.B) is None:
        return False
    return minimal_resolution(m, 0) is not None


def hh_euler_characteristic(a, bim, cap=DEFAULT_CAP):
    """chi(HH(A; M)) as an exact rational, with a vanishing certificate.

    Finite global dimension of A bounds the degrees for any coefficients;
    failing that, coefficients projective over the enveloping algebra have
    no higher Hochschild homology at all, so chi = dim HH_0.
    """
    if bim.dim == 0:
        return Fraction(0)
    g = _gldim_certificate(a)
    if g is None:
        if is_env_projective(bim):
            g = 0
        else:
            raise UncertifiedError(
                "Euler characteristic refused: %s has no finite "
                "global-dimension certificate and the coefficients are not "
                "projective over the enveloping algebra" % a.name)
    table = hochschild_homology(a, bim, n_max=g + 1, cap=cap)
    return Fraction(sum((-1) ** n * d for n, d in enumerate(table.dims)))


def categorical_trace(x, cap=DEFAULT_CAP):
    """tr(x) = chi(HH(A; x)) for an endo-correspondence, by linearity."""
    if x.source is not x.target:
        raise InvariantError("trace needs an endo-correspondence")
    total = Fraction(0)
    for c, bim in x.terms:
        total += c * hh_euler_characteristic(x.source, bim, cap)
    return total


def intersection_number(x, y):
    """<x . y> = sum_ij a_i b_j chi(HH(A; X_i (x)^L_B Y_j)) as an exact
    rational; equals the categorical trace of the composite.  It is the
    1 x 1 pairing_matrix, under the default memory guard."""
    return pairing_matrix([x], [y]).columns[0].get(0, Fraction(0))


def _tor_intersection_number(x, y, cap=DEFAULT_CAP):
    """<x . y> by Tor: the trace of the composite, the Euler characteristic
    of HH(A; -) on every Tor_l^B(X_i, Y_j), with the sign (-1)^l."""
    return categorical_trace(compose(x, y, cap), cap)


# ---------------------------------------------------------------------------
# K0 class vectors of bimodules over algebras with presentations


def cartan_counts(a):
    """C_A(p, q) = dim e_p A e_q for vertices p, q of a's presentation, as
    a dict over the pairs with a basis element."""
    return presentation(a).cartan


def bimodule_class_vector(m):
    """[M] in K_0 coordinates over the projective basis Ae_i (x) e_jB.

    The alternating sum over the terms of a minimal projective resolution
    over the enveloping algebra; it ends within gldim(A) + gldim(B) steps
    when both are finite, and at step zero for projective bimodules
    regardless.  Memoized on the bimodule object.
    """
    a, b = m.A, m.B
    if presentation(a) is None or presentation(b) is None:
        raise UncertifiedError("class vectors need quiver presentations on "
                               "both sides")
    if m._class_vector is None:
        ga = _gldim_certificate(a)
        gb = _gldim_certificate(b)
        bound = (ga + gb) if (ga is not None and gb is not None) else 0
        m._class_vector = (bound, _resolution_class_vector(m, bound))
    bound, coords = m._class_vector
    if coords is None:
        raise UncertifiedError("no finite projective resolution over the "
                               "enveloping algebra within bound %d" % bound)
    return dict(coords)


def _resolution_class_vector(m, bound):
    terms = minimal_resolution(m, bound)
    if terms is None:
        return None
    coords = {}
    for step, pairs in enumerate(terms):
        for key in pairs:
            coords[key] = coords.get(key, 0) + (-1) ** step
            if not coords[key]:
                del coords[key]
    return coords


def correspondence_class_vector(x):
    """K_0 coordinates of a correspondence: the a_i-weighted class vectors."""
    out = {}
    for c, bim in x.terms:
        for k, v in bimodule_class_vector(bim).items():
            s = out.get(k, 0) + c * v
            if s:
                out[k] = s
            else:
                out.pop(k, None)
    return out


def _class_vector_or_none(x):
    """The class vector of x, or None when an algebra has no presentation
    or a term has no finite resolution within the default bound."""
    if presentation(x.source) is None or presentation(x.target) is None:
        return None
    try:
        return correspondence_class_vector(x)
    except UncertifiedError:
        return None


def _euler_row(x, xv):
    """The Euler-form row of x: A -> B with class vector xv,
    w[(k, l)] = sum_ij x(i, j) C_B(j, k) C_A(l, i), so that <x . y> is
    sum_kl y(k, l) w[(k, l)] for every y: B -> A with a class vector.  That
    is the trace of the K_0 composite (_compose_classes),
    sum [x o y](i, l) C_A(l, i): the composite's P_il = Ae_i (x) e_lA has
    Hochschild homology e_lAe_i in degree 0."""
    succ, pred = {}, {}
    for (j, k), n in cartan_counts(x.target).items():
        succ.setdefault(j, []).append((k, n))
    for (l, i), n in cartan_counts(x.source).items():
        pred.setdefault(i, []).append((l, n))
    row = {}
    for (i, j), u in xv.items():
        for k, n in succ.get(j, ()):
            for l, m in pred.get(i, ()):
                row[(k, l)] = row.get((k, l), 0) + u * n * m
    return row


def _compose_classes(xv, yv, cb):
    """[x o y] from the class vectors of x: A -> B and y: B -> C, with cb
    the Cartan counts of B: P_ij (x)_B P'_kl is C_B(j, k) copies of
    Ae_i (x) e_lC, and the P are right projective, so no higher Tor."""
    out = {}
    for (i, j), u in xv.items():
        for (k, l), v in yv.items():
            n = cb.get((j, k))
            if n:
                s = out.get((i, l), 0) + u * v * n
                if s:
                    out[(i, l)] = s
                else:
                    out.pop((i, l), None)
    return out


# ---------------------------------------------------------------------------
# spanning sets


def canonical_span(a, b=None):
    """The automatic spanning set of correspondences A -> B for algebras
    with presentations: the projective classes Ae_i (x) e_jB."""
    b = b if b is not None else a
    pa, pb = presentation(a), presentation(b)
    if pa is None or pb is None:
        raise UncertifiedError("no canonical span without quiver "
                               "presentations; declare one explicitly")
    out = []
    for i in pa.vertices:
        for j in pb.vertices:
            if a is b:
                bim = corner_bimodule(a, i, j)
            else:
                bim = projective_pair_bimodule(a, b, i, j)
            out.append(Correspondence(a, b, [(1, bim)],
                                      name="[%s]" % bim.name))
    return out


def row_projective_correspondence(a, v):
    """e_v A as a correspondence from the ground field to A (a K_0 class)."""
    bim = projective_pair_bimodule(_zoo.get("Q"), a, "1", v)
    bim.name = "e_%sA" % v
    return Correspondence(bim.A, a, [(1, bim)], name="[P_%s]" % v)


def column_projective_correspondence(a, v):
    """A e_v as a correspondence from A to the ground field."""
    bim = projective_pair_bimodule(a, _zoo.get("Q"), v, "1")
    bim.name = "Ae_%s" % v
    return Correspondence(a, bim.B, [(1, bim)], name="[Ae_%s]" % v)


# ---------------------------------------------------------------------------
# numerical equivalence


class PairingMatrix:
    """Intersection numbers of one spanning set against another: columns[j]
    is the sparse column {i: <x_i . y_j>} of x in left_basis against y_j
    in right_basis."""

    def __init__(self, left_basis, right_basis, columns):
        self.left_basis = left_basis
        self.right_basis = right_basis
        self.columns = columns

    @property
    def matrix(self):
        """The same numbers as matrix.entries, keyed by (i, j): the form
        perfbench's session workload reads."""
        return SimpleNamespace(entries={(i, j): v for j, col
                                        in enumerate(self.columns)
                                        for i, v in col.items()})

    @property
    def rank(self):
        return matrix_rank(self.columns)

    def __repr__(self):
        return "PairingMatrix(%dx%d, rank %d)" % (
            len(self.left_basis), len(self.right_basis), self.rank)


def pairing_matrix(basis, dual_basis, cap=DEFAULT_CAP):
    """<x_i . y_j> for x_i in basis against y_j in dual_basis, refused at
    the first pair (in row-major order) that is refused.

    When both algebras have presentations and every term of x and y has a
    class vector, <x . y> is the trace of the K_0 composite, read off x's
    Euler-form row (_euler_row).  Each correspondence's class vector is
    read once and each x's row is built once, so such a pair costs one
    sparse dot product.  Any other pair is resolved through Tor and HH
    (_tor_intersection_number), each derived tensor under the memory guard
    cap.
    """
    vectors = {}

    def vector(y):
        if id(y) not in vectors:
            vectors[id(y)] = _class_vector_or_none(y)
        return vectors[id(y)]

    columns = [{} for _ in dual_basis]
    for i, x in enumerate(basis):
        row = None
        for j, y in enumerate(dual_basis):
            if x.target is not y.source or y.target is not x.source:
                raise InvariantError(
                    "pairing needs x: A -> B against y: B -> A")
            xv, yv = vector(x), vector(y)
            if xv is None or yv is None:
                v = _tor_intersection_number(x, y, cap)
            else:
                if row is None:
                    row = _euler_row(x, xv)
                v = sum((c * row.get(kl, 0) for kl, c in yv.items()),
                        Fraction(0))
            if v:
                columns[j][i] = v
    return PairingMatrix(basis, dual_basis, columns)


class NumericalQuotient:
    """Kernel of the pairing on a spanning set, and the quotient dimension."""

    def __init__(self, dim_before, kernel_space, pairing):
        self.dim_before = dim_before
        self.kernel = kernel_space
        self.dim_after = dim_before - kernel_space.dim
        self.pairing = pairing

    def __repr__(self):
        return "NumericalQuotient(%d -> %d)" % (self.dim_before,
                                                self.dim_after)


def numerical_kernel(a, b, basis, dual_basis=None, cap=DEFAULT_CAP):
    """The left radical of the pairing matrix on the given span.

    dual_basis defaults to the canonical span of B -> A correspondences.
    """
    if dual_basis is None:
        dual_basis = canonical_span(b, a)
    pm = pairing_matrix(basis, dual_basis, cap)
    # c with c^T P = 0: the kernel of the matrix whose columns are P's rows
    rows = [{} for _ in basis]
    for j, col in enumerate(pm.columns):
        for i, v in col.items():
            rows[i][j] = v
    return NumericalQuotient(len(basis), kernel(rows), pm)


# ---------------------------------------------------------------------------
# span arithmetic and the semisimplicity certificate


class SemisimplicityReport:
    def __init__(self, algebra_name, span_size, pairing_rank, kernel_dim,
                 quotient_dim, radical_dim, structure):
        self.algebra_name = algebra_name
        self.span_size = span_size
        self.pairing_rank = pairing_rank
        self.kernel_dim = kernel_dim
        self.quotient_dim = quotient_dim
        self.radical_dim = radical_dim
        self.structure = structure

    @property
    def semisimple(self):
        return self.radical_dim == 0

    def __repr__(self):
        return ("SemisimplicityReport(%s: span %d, quotient %d, radical %d)"
                % (self.algebra_name, self.span_size, self.quotient_dim,
                   self.radical_dim))


def _span_products(a, basis, cap):
    """(i, j, coefficients of basis[i] o basis[j] in the span, or None
    when the composite leaves it), in row-major order.

    Over an algebra with a presentation the composites are the composition
    law on the class vectors of the span, which must all exist; without one
    the Tor composites, each derived tensor under the memory guard cap, are
    matched term by term (spans of the unit etc.).
    """
    if presentation(a) is None:
        for i, x in enumerate(basis):
            for j, y in enumerate(basis):
                yield i, j, _syntactic_span_coeffs(compose(x, y, cap), basis)
        return
    vectors = [correspondence_class_vector(x) for x in basis]
    # one elimination of the span, its rows the vertex pairs of the classes
    elim = Elimination(track=True)
    for j, v in enumerate(vectors):
        elim.add_column(v, j)
    cb = cartan_counts(a)
    for i, xv in enumerate(vectors):
        for j, yv in enumerate(vectors):
            yield i, j, elim.solve(_compose_classes(xv, yv, cb))


def _span_structure_constants(a, basis, cap):
    """Multiplication table of the span in class-vector coordinates.

    Refuses when a composite leaves the span (the user must enlarge it).
    """
    table = {}
    for i, j, coeffs in _span_products(a, basis, cap):
        if coeffs is None:
            raise UncertifiedError(
                "span is not closed under composition at (%d, %d); "
                "enlarge the declared basis" % (i, j))
        table[(i, j)] = coeffs
    return table


def _syntactic_span_coeffs(z, basis):
    """Match a composite against the span term by term (unit spans etc.)."""
    out = {}
    rest = list(z.terms)
    for j, g in enumerate(basis):
        if len(g.terms) != 1:
            return None
        coeff_g, bim_g = g.terms[0]
        key = bim_g.content_key()
        matched = [t for t in rest if t[1].content_key() == key]
        if matched:
            # terms of equal content with opposite signs cancel: no entry
            total = sum(c for c, _ in matched)
            if total:
                out[j] = total / coeff_g
            rest = [t for t in rest if t[1].content_key() != key]
    return out if not rest else None


def semisimplicity_check(a, basis=None, cap=DEFAULT_CAP):
    """Build End of the numerical motive on the span and certify that its
    Jacobson radical vanishes."""
    if basis is None:
        basis = canonical_span(a) if presentation(a) is not None \
            else [unit_correspondence(a)]
    table = _span_structure_constants(a, basis, cap)
    nq = numerical_kernel(a, a, basis, basis, cap)
    ker = nq.kernel
    # quotient coordinates: complement of the kernel
    n = len(basis)
    kept = [i for i in range(n)
            if not any(min(row) == i for row in ker.rows)]
    if not kept:
        # the span is numerically trivial: the zero algebra is semisimple
        return SemisimplicityReport(a.name, n, nq.pairing.rank, ker.dim, 0,
                                    0, None)
    # structure constants on the quotient: the products carry no zero
    # coefficients, so their remainders mod the kernel lie on the kept
    # coordinates
    pos = {k: t for t, k in enumerate(kept)}
    quotient_table = {
        (pos[i], pos[j]): {pos[k]: v
                           for k, v in ker.reduce(table[(i, j)]).items()}
        for i in kept for j in kept}
    # unit of the quotient algebra: solve u . q_j = q_j for all j
    qdim = len(kept)
    lhs = [{} for _ in range(qdim)]
    for (u, j), prod in quotient_table.items():
        for k, v in prod.items():
            lhs[u][j * qdim + k] = v
    target = {j * qdim + j: Fraction(1) for j in range(qdim)}
    unit, = solve_columns(lhs, [target])
    if unit is None:
        raise UncertifiedError("numerical quotient has no unit inside the "
                               "span; enlarge the basis")
    quotient = Algebra("End/N(%s)" % a.name, ["q%d" % k for k in kept], unit,
                       quotient_table)
    rad = quotient.radical()
    return SemisimplicityReport(a.name, n, nq.pairing.rank, ker.dim, qdim,
                                rad.dim, quotient)


# ---------------------------------------------------------------------------
# instance checker: is the even projector algebraic over the declared span?


class EvenProjectorVerdict:
    def __init__(self, status, witness, span_names, note=""):
        self.status = status           # "WITNESS" | "UNDECIDED-IN-SPAN"
        self.witness = witness         # {generator index: coefficient},
                                       # in increasing index order
        self.span_names = span_names
        self.note = note

    @property
    def found(self):
        return self.status == "WITNESS"

    def __repr__(self):
        return "EvenProjectorVerdict(%s, span=%s)" % (self.status,
                                                      self.span_names)


def _flatten_realization(even, odd):
    """The entries of the square maps even and odd (column lists) as one
    vector: entry (r, c) of an n x n map at r * n + c, odd after even."""
    vec = {}
    base = 0
    for mat in (even, odd):
        n = len(mat)
        for c, col in enumerate(mat):
            for r, v in col.items():
                vec[base + r * n + c] = v
        base += n * n
    return vec


def even_projector_in_span(a, generators, cap=DEFAULT_CAP):
    """Search the declared span for the even projector of the periodic
    realization.

    generators: list of (Correspondence, (even, odd)), even and odd the
    columns of square maps on the even and odd parts of the realization,
    all of one shape; the realization data is verified multiplicative
    against the composition table of the span, then an exact linear system
    decides whether (identity, 0) lies in the span of the realizations.  A
    miss never refutes anything: the verdict says UNDECIDED-IN-SPAN.
    """
    if not generators:
        raise InvariantError("empty generator list")
    shapes = {(len(g[1][0]), len(g[1][1])) for g in generators}
    if len(shapes) != 1:
        raise InvariantError("realization matrices have mixed shapes")
    (de, do), = shapes
    if any(not 0 <= r < len(mat) for g in generators for mat in g[1]
           for col in mat for r in col):
        raise InvariantError("realization matrices are not square")
    corrs = [g[0] for g in generators]
    evens = [g[1][0] for g in generators]
    odds = [g[1][1] for g in generators]
    # multiplicativity of the realization data over the composition table
    for i, j, coeffs in _span_products(a, corrs, cap):
        if coeffs is None:
            raise InvariantError(
                "span not closed under composition at (%d, %d); cannot "
                "verify the realization data" % (i, j))
        for mats, dim in ((evens, de), (odds, do)):
            if (compose_cols(mats[i], mats[j])
                    != combine_cols(mats, coeffs, dim)):
                raise InvariantError(
                    "realization data is not multiplicative at (%d, %d)"
                    % (i, j))
    # solve sum c_i (E_i, O_i) = (id, 0)
    target = _flatten_realization(identity_cols(de), [{} for _ in range(do)])
    elim = Elimination(track=True)
    for j, g in enumerate(generators):
        elim.add_column(_flatten_realization(evens[j], odds[j]), j)
    names = [c.name for c in corrs]
    witness = elim.solve(target)
    if witness is None:
        return EvenProjectorVerdict(
            "UNDECIDED-IN-SPAN", None, names,
            note="failure inside a declared span refutes nothing")
    # sorted, so that its printed form does not depend on the basis of HC
    return EvenProjectorVerdict("WITNESS", dict(sorted(witness.items())),
                                names)


# ---------------------------------------------------------------------------
# instance checker: homological vs numerical kernels on K_0


class KernelComparisonVerdict:
    def __init__(self, status, ker_hom, ker_num, caveat, basis_names):
        self.status = status           # "EQUAL" | "DIFFER"
        self.ker_hom = ker_hom
        self.ker_num = ker_num
        self.caveat = caveat
        self.basis_names = basis_names

    def __repr__(self):
        return "KernelComparisonVerdict(%s%s)" % (
            self.status, ", " + self.caveat if self.caveat else "")


def kernel_comparison(a, n_max=6, cap=DEFAULT_CAP):
    """Compare the kernel of the Chern-character realization on K_0 with
    the kernel of the numerical intersection pairing, for an algebra with a
    presentation.

    Refuses without a stabilization certificate; a WINDOW-STABLE certificate
    is allowed but recorded as a truncation caveat.
    """
    pres = presentation(a)
    if pres is None:
        raise UncertifiedError("kernel comparison needs the K_0 basis of "
                               "vertex idempotents (quiver presentation)")
    hp = periodic_cyclic(a, n_max, cap)
    if hp.certificate == "NOT-STABILIZED":
        raise UncertifiedError("periodic realization did not stabilize; "
                               "refusing to compare kernels")
    caveat = "" if hp.certificate == "CERTIFIED" else \
        "WINDOW-STABLE only: kernels compared at the truncated window"
    vertices = pres.vertices
    # homological kernel: classes of the vertex idempotent Chern cycles
    cols = []
    for v in vertices:
        k = pres.index[v]
        e = [[{k: a.unit[k]}]]
        cls, _ = chern_class_in_hc(e, a, n_max, cap)
        cols.append(cls)
    ker_hom = LinSubspace(len(vertices), kernel_vectors(cols))
    # numerical kernel: the K_0-level intersection pairing of the row
    # projectives Q -> A against the column projectives A -> Q
    row_proj = [row_projective_correspondence(a, v) for v in vertices]
    col_proj = [column_projective_correspondence(a, w) for w in vertices]
    ker_num = numerical_kernel(_zoo.get("Q"), a, row_proj, col_proj,
                               cap).kernel
    status = "EQUAL" if ker_hom == ker_num else "DIFFER"
    return KernelComparisonVerdict(status, ker_hom, ker_num, caveat,
                                   ["[P_%s]" % v for v in vertices])
