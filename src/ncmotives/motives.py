"""Correspondences, intersection numbers, and numerical equivalence.

A correspondence from A to B is a formal rational combination of
(A, B)-bimodules, modeling a class in the rationalized Grothendieck group of
A^op (x) B; composition is the derived tensor product with alternating
signs, the trace of an endo-correspondence is the Euler characteristic of
Hochschild homology with those coefficients, and the intersection pairing
<x . y> is the trace of the composite.  Its radical cuts out the numerical
quotient, whose endomorphism algebras are expected to be semisimple.  K_0
class vectors and enveloping projectivity come from the minimal projective
resolution of `algebras`.

Two instance checkers close the layer: `even_projector_in_span` asks whether
the even Kuenneth projector of the periodic realization is a combination of
declared correspondences, and `kernel_comparison` asks whether the homological
(Chern-character) and numerical kernels on K_0 coincide.  Both report spans
explicitly; failure inside a span never refutes anything.
"""

from fractions import Fraction

from .errors import InvariantError, UncertifiedError
from .exactlin import QMatrix, Elimination, kernel, matrix_rank, vec_addmul
from .algebras import (regular_bimodule, corner_bimodule,
                       projective_pair_bimodule, derived_tensor,
                       global_dimension, minimal_resolution)
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

    def is_zero(self):
        return not self.terms

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


def compose(x, y, bound=None):
    """Composition A -> B -> C via the derived tensor with alternating signs."""
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
            tors = derived_tensor(xb, yb, bound=bound)
            for l, t in enumerate(tors):
                if t.dim:
                    terms.append((c * (-1) ** l, t))
    return Correspondence(x.source, y.target, terms)


# ---------------------------------------------------------------------------
# Euler characteristics and traces


def is_env_projective(m):
    """Is the bimodule projective over the enveloping algebra?

    Certified by a minimal resolution that ends at its first term; needs
    quiver presentations to enumerate the indecomposable projective
    bimodules.
    """
    if m.A.quiver is None or m.B.quiver is None:
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
    if a.radical().dim == 0:
        g = 0
    elif a.quiver is not None:
        g = global_dimension(a)
    else:
        g = None
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


def intersection_number(x, y, cap=DEFAULT_CAP):
    """<x . y> = sum_ij a_i b_j chi(HH(A; X_i (x)^L_B Y_j)) as an exact
    rational; equals the categorical trace of the composite."""
    if x.target is not y.source or y.target is not x.source:
        raise InvariantError("pairing needs x: A -> B against y: B -> A")
    total = Fraction(0)
    for a_c, xb in x.terms:
        for b_c, yb in y.terms:
            c = a_c * b_c
            if _is_unit_bimodule(yb):
                total += c * hh_euler_characteristic(x.source, xb, cap)
                continue
            if _is_unit_bimodule(xb):
                total += c * hh_euler_characteristic(x.source, yb, cap)
                continue
            for l, t in enumerate(derived_tensor(xb, yb)):
                if t.dim:
                    total += c * (-1) ** l * \
                        hh_euler_characteristic(x.source, t, cap)
    return total


# ---------------------------------------------------------------------------
# K0 class vectors of bimodules over quiver algebras


def bimodule_class_vector(m, bound=None):
    """[M] in K_0 coordinates over the projective basis Ae_i (x) e_jB.

    The alternating sum over the terms of a minimal projective resolution
    over the enveloping algebra; it ends within gldim(A) + gldim(B) steps
    when both are finite, and at step zero for projective bimodules
    regardless.
    """
    a, b = m.A, m.B
    if a.quiver is None or b.quiver is None:
        raise UncertifiedError("class vectors need quiver presentations on "
                               "both sides")
    if bound is None:
        ga = global_dimension(a)
        gb = global_dimension(b)
        bound = (ga + gb) if (ga is not None and gb is not None) else 0
    terms = minimal_resolution(m, bound)
    if terms is None:
        raise UncertifiedError("no finite projective resolution over the "
                               "enveloping algebra within bound %d" % bound)
    coords = {}
    for step, pairs in enumerate(terms):
        for key in pairs:
            coords[key] = coords.get(key, 0) + (-1) ** step
            if not coords[key]:
                del coords[key]
    return coords


def correspondence_class_vector(x, bound=None):
    """K_0 coordinates of a correspondence: the a_i-weighted class vectors."""
    out = {}
    for c, bim in x.terms:
        if _is_unit_bimodule(bim) and x.source.quiver is None:
            raise UncertifiedError("class vector of the unit needs a quiver")
        for k, v in bimodule_class_vector(bim, bound).items():
            s = out.get(k, 0) + c * v
            if s:
                out[k] = s
            else:
                out.pop(k, None)
    return out


# ---------------------------------------------------------------------------
# spanning sets


def canonical_span(a, b=None):
    """The automatic spanning set of correspondences A -> B for quiver
    algebras: the projective classes Ae_i (x) e_jB."""
    b = b if b is not None else a
    if a.quiver is None or b.quiver is None:
        raise UncertifiedError("no canonical span without quiver "
                               "presentations; declare one explicitly")
    out = []
    for i in a.quiver.vertices:
        for j in b.quiver.vertices:
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
    """Intersection numbers of one spanning set against another."""

    def __init__(self, left_basis, right_basis, matrix):
        self.left_basis = left_basis
        self.right_basis = right_basis
        self.matrix = matrix

    @property
    def rank(self):
        return matrix_rank(self.matrix)

    def __repr__(self):
        return "PairingMatrix(%dx%d, rank %d)" % (
            self.matrix.rows, self.matrix.cols, self.rank)


def pairing_matrix(basis, dual_basis, cap=DEFAULT_CAP):
    entries = {}
    for i, x in enumerate(basis):
        for j, y in enumerate(dual_basis):
            v = intersection_number(x, y, cap)
            if v:
                entries[(i, j)] = v
    m = QMatrix(len(basis), len(dual_basis), entries)
    return PairingMatrix(basis, dual_basis, m)


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
    # c with c^T P = 0: kernel of the transpose
    ker = kernel(pm.matrix.transpose())
    return NumericalQuotient(len(basis), ker, pm)


# ---------------------------------------------------------------------------
# span arithmetic and the semisimplicity certificate


def express_in_span(x, span_vectors, span_elim=None):
    """Coefficients writing the class vector x in the span, or None."""
    keys = sorted({k for v in span_vectors for k in v} |
                  set(x))
    pos = {k: i for i, k in enumerate(keys)}
    elim = Elimination(len(keys), track=True)
    for j, v in enumerate(span_vectors):
        elim.add_column({pos[k]: val for k, val in v.items()}, j)
    return elim.solve({pos[k]: val for k, val in x.items()})


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


def _span_structure_constants(a, basis, cap=DEFAULT_CAP):
    """Multiplication table of the span in class-vector coordinates.

    Refuses when a composite leaves the span (the user must enlarge it).
    """
    use_classes = a.quiver is not None
    if use_classes:
        vectors = [correspondence_class_vector(x) for x in basis]
    else:
        # syntactic fallback: spans of the unit correspondence only
        vectors = None
    table = {}
    for i, x in enumerate(basis):
        for j, y in enumerate(basis):
            z = compose(x, y)
            if use_classes:
                coeffs = express_in_span(correspondence_class_vector(z),
                                         vectors)
            else:
                coeffs = _syntactic_span_coeffs(z, basis)
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
            out[j] = sum(c for c, _ in matched) / coeff_g
            rest = [t for t in rest if t[1].content_key() != key]
    return out if not rest else None


def semisimplicity_check(a, basis=None, cap=DEFAULT_CAP):
    """Build End of the numerical motive on the span and certify that its
    Jacobson radical vanishes."""
    if basis is None:
        basis = canonical_span(a) if a.quiver is not None \
            else [unit_correspondence(a)]
    table = _span_structure_constants(a, basis, cap)
    pm = pairing_matrix(basis, basis, cap)
    gram = pm.matrix
    ker = kernel(gram.transpose())
    # quotient coordinates: complement of the kernel
    n = len(basis)
    kept = [i for i in range(n)
            if not any(min(row) == i for row in ker.rows)]
    # structure constants on the quotient: reduce products mod the kernel
    def reduce_mod_kernel(vec):
        v = dict(vec)
        for row in ker.rows:
            lead = min(row)
            if lead in v:
                c = v[lead]
                vec_addmul(v, -c, row)
        return v

    if not kept:
        # the span is numerically trivial: the zero algebra is semisimple
        return SemisimplicityReport(a.name, n, pm.rank, ker.dim, 0, 0, None)
    pos = {k: t for t, k in enumerate(kept)}
    products = []
    labels = ["q%d" % k for k in kept]
    for i in kept:
        for j in kept:
            prod = reduce_mod_kernel(table[(i, j)])
            products.append((labels[pos[i]], labels[pos[j]],
                             {labels[pos[k]]: v for k, v in prod.items()
                              if k in pos}))
    # unit of the quotient algebra: solve u . q_j = q_j for all j
    qdim = len(kept)
    rows = qdim * qdim
    entries = {}
    for u_idx, i in enumerate(kept):
        for j_idx, j in enumerate(kept):
            prod = reduce_mod_kernel(table[(i, j)])
            for k, v in prod.items():
                if k in pos:
                    entries[(j_idx * qdim + pos[k], u_idx)] = v
    lhs = QMatrix(rows, qdim, entries)
    target = {}
    for j_idx in range(qdim):
        target[j_idx * qdim + j_idx] = Fraction(1)
    elim = Elimination(rows, track=True)
    for j in range(qdim):
        elim.add_column(lhs.column(j), j)
    unit_coeffs = elim.solve(target)
    if unit_coeffs is None:
        raise UncertifiedError("numerical quotient has no unit inside the "
                               "span; enlarge the basis")
    from .algebras import structure_algebra
    unit_labelled = {labels[j]: c for j, c in unit_coeffs.items()}
    quotient = structure_algebra("End/N(%s)" % a.name, labels, unit_labelled,
                                 products)
    rad = quotient.radical()
    return SemisimplicityReport(a.name, n, pm.rank, ker.dim, qdim, rad.dim,
                                quotient)


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
    vec = {}
    base = 0
    for mat in (even, odd):
        for (r, c), v in mat.entries.items():
            vec[base + r * mat.cols + c] = v
        base += mat.rows * mat.cols
    return vec


def even_projector_in_span(a, generators, cap=DEFAULT_CAP):
    """Search the declared span for the even projector of the periodic
    realization.

    generators: list of (Correspondence, (even, odd) QMatrix pair); the
    realization data is verified multiplicative against the composition
    table of the span, then an exact linear system decides whether
    (identity, 0) lies in the span of the realizations.  A miss never
    refutes anything: the verdict says UNDECIDED-IN-SPAN.
    """
    if not generators:
        raise InvariantError("empty generator list")
    shapes = {(g[1][0].rows, g[1][1].rows) for g in generators}
    if len(shapes) != 1:
        raise InvariantError("realization matrices have mixed shapes")
    (de, do), = shapes
    corrs = [g[0] for g in generators]
    evens = [g[1][0] for g in generators]
    odds = [g[1][1] for g in generators]
    # multiplicativity of the realization data over the composition table
    use_classes = a.quiver is not None
    vectors = [correspondence_class_vector(x) for x in corrs] if use_classes \
        else None
    for i in range(len(corrs)):
        for j in range(len(corrs)):
            z = compose(corrs[i], corrs[j])
            if use_classes:
                coeffs = express_in_span(correspondence_class_vector(z),
                                         vectors)
            else:
                coeffs = _syntactic_span_coeffs(z, corrs)
            if coeffs is None:
                raise InvariantError(
                    "span not closed under composition at (%d, %d); cannot "
                    "verify the realization data" % (i, j))
            for mats in (evens, odds):
                lhs = mats[i] * mats[j]
                rhs = QMatrix.zero(lhs.rows, lhs.cols)
                for k, c in coeffs.items():
                    rhs = rhs + mats[k].scale(c)
                if lhs != rhs:
                    raise InvariantError(
                        "realization data is not multiplicative at (%d, %d)"
                        % (i, j))
    # solve sum c_i (E_i, O_i) = (id, 0)
    target = _flatten_realization(QMatrix.identity(de), QMatrix.zero(do, do))
    nent = de * de + do * do
    elim = Elimination(nent, track=True)
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

    @property
    def equal(self):
        return self.status == "EQUAL"

    def __repr__(self):
        return "KernelComparisonVerdict(%s%s)" % (
            self.status, ", " + self.caveat if self.caveat else "")


def kernel_comparison(a, n_max=6, cap=DEFAULT_CAP):
    """Compare the kernel of the Chern-character realization on K_0 with
    the kernel of the numerical intersection pairing, for a quiver algebra.

    Refuses without a stabilization certificate; a WINDOW-STABLE certificate
    is allowed but recorded as a truncation caveat.
    """
    if a.quiver is None:
        raise UncertifiedError("kernel comparison needs the K_0 basis of "
                               "vertex idempotents (quiver presentation)")
    hp = periodic_cyclic(a, n_max, cap)
    if hp.certificate == "NOT-STABILIZED":
        raise UncertifiedError("periodic realization did not stabilize; "
                               "refusing to compare kernels")
    caveat = "" if hp.certificate == "CERTIFIED" else \
        "WINDOW-STABLE only: kernels compared at the truncated window"
    vertices = a.quiver.vertices
    # homological kernel: classes of the vertex idempotent Chern cycles
    cols = []
    for v in vertices:
        e = [[{a.quiver.vertex_idx[v]: 1}]]
        cls, _ = chern_class_in_hc(e, a, n_max, cap)
        cols.append(cls)
    rows = 1 + max((r for col in cols for r in col), default=0)
    ch_matrix = QMatrix(rows, len(vertices),
                        {(r, j): v for j, col in enumerate(cols)
                         for r, v in col.items()})
    ker_hom = kernel(ch_matrix)
    # numerical kernel: the K_0-level intersection pairing
    pm_entries = {}
    for i, v in enumerate(vertices):
        x = row_projective_correspondence(a, v)
        for j, w in enumerate(vertices):
            y = column_projective_correspondence(a, w)
            val = intersection_number(x, y, cap)
            if val:
                pm_entries[(i, j)] = val
    pm = QMatrix(len(vertices), len(vertices), pm_entries)
    ker_num = kernel(pm.transpose())
    status = "EQUAL" if ker_hom == ker_num else "DIFFER"
    return KernelComparisonVerdict(status, ker_hom, ker_num, caveat,
                                   ["[P_%s]" % v for v in vertices])
