"""Finitely presented additive symmetric monoidal categories.

A presentation lists objects, hom-space dimensions with composition tables,
identities, a (possibly partial) tensor product on objects with its action
on morphisms, a unit object, and symmetry constraints.  Partiality of the
tensor tables is deliberate: a finite presentation cannot be closed under an
infinite-order invertible object, so entries outside the presented fragment
are simply absent and every axiom is verified over the defined region.

On top of the presentations: one subquotient construction, Hom'(k1, k2) =
e2 o Hom(x1, x2) o e1 / I(x1, x2), which gives both the Karoubi
(idempotent-splitting) envelope (objects (X, e), I = 0) and the quotient by
a compatible ideal (e = id); with the trace ideal N(X, Y) = {f | tr(g f) = 0
for all g} these are the two steps from NChow to NNum.  The Karoubi
objects come from a maximal orthogonal family of primitive idempotents of
each small End(X): a corner mod the radical is split by the spectral
idempotents of a candidate element, one per irreducible factor of its
minimal polynomial, each solved by one tracked Elimination, and a corner
that no candidate splits or shows to be a field is refused
(UncertifiedError), never returned as primitive.  Besides: the orbit
category of a tensor-invertible object with a declared boundedness
certificate, extension of coefficients along an irreducible rational
minimal polynomial, and the dagger twist, which flips the odd-odd sign of
the symmetry and the odd part of each declared trace.

Every constructor re-proves the axioms through `PresentedCategory.check`.
It verifies each distinct instance of a law once: an instance is keyed by
the contents of the tables it reads and the hom dimensions it ranges over,
and the graded presentations repeat a few tables many times over.  An
associativity or interchange instance builds both of its sides from stored
table entries, as dicts over basis tuples that hold only nonzero values,
and compares them, so an equation whose two sides are both 0 is never
formed.
"""

import itertools
import math
from collections import Counter
from fractions import Fraction

from .errors import InvariantError, CapExceededError, UncertifiedError
from .exactlin import (LinSubspace, Elimination, kernel, bilinear,
                       vec_addmul, vec_scale, vec_sub, jacobson_radical,
                       lift_idempotent)
from .algebras import structure_algebra


_EMPTY = {}     # the absent table entry or vector; never written to


class _TableIds:
    """Content ids of the tables PresentedCategory.check reads.

    A vector's id stands for its coefficients; a table's id for its
    entries together with the declared dimensions of the two Homs its
    indexes range over.  Equal ids mean equal contents (and, for tables,
    equal index ranges), whatever object or key holds them.  The maps give
    each table's id by the objects of its key, so that the walks read ids
    without building a key tuple per instance: comp[(x, y)][z] for the
    composition table on (x, y, z), ident[x], symmetry[x][y],
    tensor_mor[(x1, x2)][(y1, y2)] for the tensor table on (x1, y1, x2,
    y2), and the two families the hexagon reads, diagonal[(a, b)][z] for
    (a, b, z, z) and scalar[y][(c, d)] for (y, y, c, d).  Asking for an id
    also refuses a table key or a nonzero coordinate outside a declared hom
    dimension; check refuses every label that is not an object first, so
    each Hom asked about has one."""

    def __init__(self, hom):
        self.hom = hom
        self.vectors, self.tables = {}, {}
        self.comp, self.ident, self.symmetry = {}, {}, {}
        self.tensor_mor, self.diagonal, self.scalar = {}, {}, {}

    def vector(self, vec, out, kind, key):
        """The id of vec, a vector in Hom(out)."""
        dim = self.hom[out]
        if vec and (min(vec) < 0 or max(vec) >= dim) and \
                any(c and not 0 <= k < dim for k, c in vec.items()):
            raise _outside(kind, key)
        return self.vectors.setdefault(frozenset(vec.items()),
                                       len(self.vectors))

    def table(self, table, left, right, out, kind, key):
        """The id of a table {(i, j): vector in Hom(out)}, i indexing
        Hom(left) and j Hom(right)."""
        dl, dr = self.hom[left], self.hom[right]
        content = []
        for (i, j), vec in table.items():
            if not (0 <= i < dl and 0 <= j < dr):
                raise _outside(kind, key)
            content.append(((i, j), self.vector(vec, out, kind, key)))
        return self.tables.setdefault((frozenset(content), dl, dr),
                                      len(self.tables))


def _outside(kind, key):
    return InvariantError("%s at (%s) lies outside the declared hom "
                          "dimensions" % (kind, ",".join(map(str, key))))


def _contract(table, inner, post):
    """Each vector of the composition table `table` composed with each
    basis element of the far Hom of `inner`, a composition table through
    the Hom those vectors lie in: {(c, a, b): c o table[(a, b)]} when post
    (inner keyed (c, m)), else {(a, b, c): table[(a, b)] o c} (inner keyed
    (m, c)).  Only stored entries are read, and a composite that vanishes
    is left out."""
    by_middle = {}
    for (i, j), vec in inner.items():
        m, c = (j, i) if post else (i, j)
        by_middle.setdefault(m, []).append((c, vec))
    out = {}
    for (a, b), vec in table.items():
        for m, coeff in vec.items():
            for c, prod in by_middle.get(m, ()):
                vec_addmul(out.setdefault((c, a, b) if post else (a, b, c),
                                          {}), coeff, prod)
    return {key: vec for key, vec in out.items() if vec}


def _unknown_object_names(objects, sections):
    """The refusal of the first section that names a label outside
    objects, or None; sections are (field name, names) pairs."""
    known = set(objects)
    for field, names in sections:
        unknown = sorted(set(names) - known)
        if unknown:
            return "%s names unknown object(s): %s" % (
                field, ", ".join(map(str, unknown)))
    return None


def _label_sections(c):
    """The (field name, labels) pairs of the presentation c, in the order
    they are refused."""
    return [("unit", [c.unit]),
            ("hom", [o for key in c.hom for o in key]),
            ("composition", [o for key in c.comp for o in key]),
            ("identities", c.ident),
            ("tensor_objects", [o for key, z in c.tensor_obj.items()
                                for o in key + (z,)]),
            ("tensor_morphisms", [o for key in c.tensor_mor for o in key]),
            ("symmetry", [o for key in c.symmetry for o in key]),
            ("traces", c.traces),
            ("grading", c.grading)]


class PresentedCategory:
    """objects: labels; hom[(X, Y)]: dimension; comp[(X, Y, Z)]: table of
    g o f for f: X -> Y, g: Y -> Z as {(g_idx, f_idx): {k: coeff}};
    ident[X]: vector in End(X); tensor_obj[(X, Y)]: object (partial);
    tensor_mor[(X1, Y1, X2, Y2)]: {(f_idx, g_idx): vector} (partial);
    unit: object; symmetry[(X, Y)]: vector in Hom(X (x) Y, Y (x) X);
    traces[X]: linear functional on End(X) (optional); grading[X]: int
    (optional metadata)."""

    def __init__(self, objects, hom, comp, ident, unit, tensor_obj=None,
                 tensor_mor=None, symmetry=None, traces=None, grading=None,
                 name="category", check=True):
        self.objects = list(objects)
        self.hom = dict(hom)
        self.comp = comp
        self.ident = ident
        self.unit = unit
        self.tensor_obj = tensor_obj or {}
        self.tensor_mor = tensor_mor or {}
        self.symmetry = symmetry or {}
        self.traces = traces or {}
        self.grading = grading or {}
        self.name = name
        for x in self.objects:
            for y in self.objects:
                self.hom.setdefault((x, y), 0)
        if check:
            self.check()

    # -- basic operations -------------------------------------------------

    def compose(self, x, y, z, g, f):
        """g o f with f: x -> y, g: y -> z (sparse vectors)."""
        return bilinear(self.comp.get((x, y, z), {}), g, f)

    def tensor_objects(self, x, y):
        if (x, y) not in self.tensor_obj:
            raise CapExceededError("tensor %s (x) %s is outside the "
                                   "presented fragment" % (x, y))
        return self.tensor_obj[(x, y)]

    def tensor_defined(self, x, y):
        return (x, y) in self.tensor_obj

    def tensor_morphisms(self, x1, y1, x2, y2, f, g):
        table = self.tensor_mor.get((x1, y1, x2, y2))
        if table is None:
            raise CapExceededError("tensor of Hom(%s,%s) and Hom(%s,%s) is "
                                   "outside the presented fragment"
                                   % (x1, y1, x2, y2))
        return bilinear(table, f, g)

    def end_algebra(self, x):
        """End(x) as an honest Algebra (for radical/idempotent work)."""
        d = self.hom[(x, x)]
        labels = ["f%d" % i for i in range(d)]
        products = []
        table = self.comp.get((x, x, x), {})
        for i in range(d):
            for j in range(d):
                # product f_i . f_j in End means composition f_i o f_j
                vec = table.get((i, j), {})
                products.append((labels[i], labels[j],
                                 {labels[k]: v for k, v in vec.items()}))
        unit = {labels[k]: v for k, v in self.ident[x].items()}
        return structure_algebra("End(%s)" % x, labels, unit, products)

    def trace(self, x, f):
        if x not in self.traces:
            raise UncertifiedError("no trace functional declared on End(%s)"
                                   % x)
        t = self.traces[x]
        return sum((Fraction(c) * t.get(i, 0) for i, c in f.items()),
                   Fraction(0))

    # -- axioms ------------------------------------------------------------

    def check(self):
        """Verify the axioms over the presented fragment; the first failure
        raises InvariantError.

        It first refuses a unit, Hom, table key, tensor object, identity,
        trace or grading entry that names a label outside the objects, and
        a negative hom dimension, with the loader's wording.

        The associativity, interchange and hexagon walks key each instance
        by the content ids (`_TableIds`) of the tables it reads, and
        associativity also by the dimensions of its three Homs, and skip a
        key already verified.
        Each law is multilinear in those tables, and an instance's objects
        enter its equations only through them, so an equal key means
        identical equations.  The first failing instance raises at once, so
        every skipped instance repeats one that held: the walks meet the
        first failure, and raise its message, as they would verifying every
        instance.  The unit and id (x) id walks verify every instance: one
        or two products each, about what building a key costs.

        Inside an instance the two sides are dicts over basis tuples that
        hold only nonzero values, built from stored entries: associativity
        keys h o (g o f) and (h o g) o f by (h, g, f), each one composition
        table contracted into another through the middle index
        (`_contract`); interchange keys (h o f) (x) (k o g) and (h (x) k) o
        (f (x) g) by (h, k, f, g), each from the pairs of stored entries of
        two tables.  Equal dicts mean every basis equation holds, and an
        instance's message does not name its basis elements.

        Taking an id refuses a table key or a nonzero coordinate outside a
        declared hom dimension.  Each kind of table gets its ids where it is
        first needed: composition tables, identities and traces at the
        start; tensor tables once the object tensor is verified, refusing
        one on a pair whose object tensor is not presented; each symmetry
        after its fragment check.
        """
        message = _unknown_object_names(self.objects, _label_sections(self))
        if message:
            raise InvariantError(message)
        hom = self.hom
        for (x, y), d in hom.items():
            if d < 0:
                raise InvariantError("Hom(%s,%s) has negative dimension %d"
                                     % (x, y, d))
        missing = sorted(set(self.objects) - set(self.ident))
        if missing:
            raise InvariantError("no identity given for object(s): %s"
                                 % ", ".join(missing))
        for x in self.objects:
            if hom[(x, x)] < 1:
                raise InvariantError("End(%s) must contain an identity" % x)
        ids = _TableIds(hom)
        for key, table in self.comp.items():
            x, y, z = key
            ids.comp.setdefault((x, y), {})[z] = ids.table(
                table, (y, z), (x, y), (x, z), "composition", key)
        for x, vec in self.ident.items():
            ids.ident[x] = ids.vector(vec, (x, x), "identity", (x,))
        for x, vec in self.traces.items():
            ids.vector(vec, (x, x), "trace", (x,))
        # the indexes keep the order of self.objects, so the walks below
        # meet the defined tuples, and the first failure, in the order of
        # the full objects^k enumeration: successors[x] lists the (y,
        # hom(x, y)) with hom(x, y) > 0, tensor_of[x] maps y to x (x) y
        successors = {x: [(y, hom[(x, y)]) for y in self.objects
                          if hom[(x, y)]]
                      for x in self.objects}
        tensor_of = {x: {} for x in self.objects}
        for x in self.objects:
            for y in self.objects:
                if (x, y) in self.tensor_obj:
                    tensor_of[x][y] = self.tensor_obj[(x, y)]
        # identity and associativity
        for x in self.objects:
            for y, d in successors[x]:
                for i in range(d):
                    f = {i: 1}
                    if self.compose(x, y, y, self.ident[y], f) != f:
                        raise InvariantError("left unit law fails on "
                                             "Hom(%s,%s)" % (x, y))
                    if self.compose(x, x, y, f, self.ident[x]) != f:
                        raise InvariantError("right unit law fails on "
                                             "Hom(%s,%s)" % (x, y))
        seen = set()
        for w in self.objects:
            for x, dwx in successors[w]:
                ids_wx = ids.comp.get((w, x), _EMPTY)
                for y, dxy in successors[x]:
                    ids_xy = ids.comp.get((x, y), _EMPTY)
                    ids_wy = ids.comp.get((w, y), _EMPTY)
                    first = ids_wx.get(y)
                    for z, dyz in successors[y]:
                        key = (first, ids_xy.get(z), ids_wy.get(z),
                               ids_wx.get(z), dwx, dxy, dyz)
                        if key in seen:
                            continue
                        seen.add(key)
                        self._check_associativity(w, x, y, z)
        self._check_tensor(tensor_of, ids)
        self._check_symmetry(tensor_of, ids)

    def _check_associativity(self, w, x, y, z):
        """h o (g o f) = (h o g) o f for f: w -> x, g: x -> y, h: y -> z,
        both sides keyed (h, g, f) and built from stored entries."""
        comp = self.comp
        left = _contract(comp.get((w, x, y), _EMPTY),
                         comp.get((w, y, z), _EMPTY), True)
        right = _contract(comp.get((x, y, z), _EMPTY),
                          comp.get((w, x, z), _EMPTY), False)
        if left != right:
            raise InvariantError("composition not associative at "
                                 "(%s,%s,%s,%s)" % (w, x, y, z))

    def _check_tensor(self, tensor_of, ids):
        """tensor_of[x]: {y: x (x) y} over the y of self.objects, in order;
        ids: check's _TableIds, which gains the tensor maps."""
        tobj, tmor = self.tensor_obj, self.tensor_mor
        u = self.unit
        for x in self.objects:
            if (u, x) in tobj and tobj[(u, x)] != x:
                raise InvariantError("unit object is not strict on %s" % x)
            if (x, u) in tobj and tobj[(x, u)] != x:
                raise InvariantError("unit object is not strict on %s" % x)
        # associativity of the object table wherever both routes are defined
        for x in self.objects:
            for y, xy in tensor_of[x].items():
                for z, yz in tensor_of[y].items():
                    xy_z = tensor_of[xy].get(z)
                    if xy_z is not None:
                        x_yz = tensor_of[x].get(yz)
                        if x_yz is not None and xy_z != x_yz:
                            raise InvariantError(
                                "object tensor not associative at "
                                "(%s,%s,%s)" % (x, y, z))
        # the tensor tables, on the object table just verified; the maps
        # list each source pair's targets in the order of self.objects
        position = {}
        for i, z in enumerate(self.objects):
            position.setdefault(z, i)
        targets = {}
        for key, table in tmor.items():
            x1, y1, x2, y2 = key
            if (x1, x2) not in tobj or (y1, y2) not in tobj:
                raise InvariantError("tensor of morphisms declared outside "
                                     "the tensor fragment at (%s,%s,%s,%s)"
                                     % key)
            tid = ids.table(table, (x1, y1), (x2, y2),
                            (tobj[(x1, x2)], tobj[(y1, y2)]),
                            "tensor of morphisms", key)
            targets.setdefault((x1, x2), []).append(
                (position[y1], position[y2], (y1, y2), tid))
            if y1 == x1:
                ids.scalar.setdefault(x1, {})[(x2, y2)] = tid
            if y2 == x2:
                ids.diagonal.setdefault((x1, y1), {})[x2] = tid
        for pair, quads in targets.items():
            quads.sort()
            ids.tensor_mor[pair] = {yy: tid for _, _, yy, tid in quads}
        # interchange (bifunctoriality) wherever the four tensor tables
        # are defined
        seen = set()
        for (x1, y1, x2, y2) in tmor:
            from_x = ids.tensor_mor[(x1, x2)]
            outer = from_x[(y1, y2)]
            xx, yy = tensor_of[x1][x2], tensor_of[y1][y2]
            ids_1 = ids.comp.get((x1, y1), _EMPTY)
            ids_2 = ids.comp.get((x2, y2), _EMPTY)
            ids_xx = ids.comp.get((xx, yy), _EMPTY)
            for zs, inner in ids.tensor_mor.get((y1, y2), _EMPTY).items():
                across = from_x.get(zs)
                if across is None:
                    continue
                z1, z2 = zs
                zz = tensor_of[z1][z2]
                key = (outer, inner, across, ids_1.get(z1), ids_2.get(z2),
                       ids_xx.get(zz))
                if key in seen:
                    continue
                seen.add(key)
                self._check_interchange(x1, y1, z1, x2, y2, z2)
        # identities tensor to identities where defined
        for x in self.objects:
            for y, xy in tensor_of[x].items():
                if (x, x, y, y) in tmor:
                    if self.tensor_morphisms(x, x, y, y, self.ident[x],
                                             self.ident[y]) != self.ident[xy]:
                        raise InvariantError("id (x) id != id at (%s,%s)"
                                             % (x, y))

    def _check_interchange(self, x1, y1, z1, x2, y2, z2):
        """(h o f) (x) (k o g) = (h (x) k) o (f (x) g) for f: x1 -> y1,
        g: x2 -> y2, h: y1 -> z1, k: y2 -> z2, both sides keyed (h, k, f,
        g) and built from pairs of stored entries."""
        tobj = self.tensor_obj
        across = self.tensor_mor[(x1, z1, x2, z2)]
        after = self.comp.get((tobj[(x1, x2)], tobj[(y1, y2)],
                               tobj[(z1, z2)]), _EMPTY)
        left, right = {}, {}
        second = self.comp.get((x2, y2, z2), _EMPTY).items()
        for (h, f), hf in self.comp.get((x1, y1, z1), _EMPTY).items():
            for (k, g), kg in second:
                vec = bilinear(across, hf, kg)
                if vec:
                    left[(h, k, f, g)] = vec
        outer = self.tensor_mor[(x1, y1, x2, y2)].items()
        for hk, hk_vec in self.tensor_mor[(y1, z1, y2, z2)].items():
            for fg, fg_vec in outer:
                vec = bilinear(after, hk_vec, fg_vec)
                if vec:
                    right[hk + fg] = vec
        if left != right:
            raise InvariantError("tensor interchange fails at (%s,%s,%s,%s)"
                                 % (x1, y1, x2, y2))

    def _check_symmetry(self, tensor_of, ids):
        """tensor_of: as for _check_tensor; ids: check's _TableIds, which
        gains symmetry."""
        tobj = self.tensor_obj
        for (x, y), c in self.symmetry.items():
            if (x, y) not in tobj or (y, x) not in tobj:
                raise InvariantError("symmetry declared outside the tensor "
                                     "fragment")
            xy = tobj[(x, y)]
            yx = tobj[(y, x)]
            ids.symmetry.setdefault(x, {})[y] = ids.vector(
                c, (xy, yx), "symmetry", (x, y))
            cyx = self.symmetry.get((y, x))
            if cyx is None:
                raise InvariantError("missing inverse symmetry (%s,%s)"
                                     % (y, x))
            if self.compose(xy, yx, xy, cyx, c) != self.ident[xy]:
                raise InvariantError("c_{%s,%s} is not inverted by its swap"
                                     % (x, y))
        # hexagon (strict): c_{x, y(x)z} = (id_y (x) c_{x,z}) o (c_{x,y} (x) id_z)
        # over (x, y) in symmetry (so both tensors are defined, by the loop
        # above) and z with y (x) z defined; a tensor table on (xy, yx, z,
        # z) or (y, y, xz, zx) puts xy (x) z, yx (x) z, y (x) xz and y (x)
        # zx in the fragment, since _check_tensor refuses one outside it
        seen = set()
        for x in self.objects:
            sym_x = ids.symmetry.get(x, _EMPTY)
            for y in self.objects:
                if y not in sym_x:
                    continue
                xy, yx = tensor_of[x][y], tensor_of[y][x]
                step1_ids = ids.diagonal.get((xy, yx), _EMPTY)
                step2_ids = ids.scalar.get(y, _EMPTY)
                for z, yz in tensor_of[y].items():
                    if yz not in sym_x or z not in sym_x:
                        continue
                    xz, zx = tensor_of[x][z], tensor_of[z][x]
                    step1_id = step1_ids.get(z)
                    step2_id = step2_ids.get((xz, zx))
                    if step1_id is None or step2_id is None:
                        continue
                    xyz, mid = tensor_of[x][yz], tensor_of[yx][z]
                    tgt = tensor_of[y][zx]
                    key = (sym_x[yz], sym_x[y], sym_x[z], ids.ident[y],
                           ids.ident[z], step1_id, step2_id,
                           ids.comp.get((xyz, mid), _EMPTY).get(tgt))
                    if key in seen:
                        continue
                    seen.add(key)
                    lhs = self.symmetry[(x, yz)]
                    step1 = self.tensor_morphisms(xy, yx, z, z,
                                                  self.symmetry[(x, y)],
                                                  self.ident[z])
                    # rebracket strictly: (y (x) x) (x) z = y (x) (x (x) z)
                    step2 = self.tensor_morphisms(y, y, xz, zx,
                                                  self.ident[y],
                                                  self.symmetry[(x, z)])
                    rhs = self.compose(xyz, mid, tgt, step2, step1)
                    if lhs != rhs:
                        raise InvariantError("hexagon fails at (%s,%s,%s)"
                                             % (x, y, z))

    def __repr__(self):
        return "PresentedCategory(%s, %d objects)" % (self.name,
                                                      len(self.objects))


# ---------------------------------------------------------------------------
# rational polynomial helpers (Kronecker factorization, degree <= 6)


def poly_normalize(coeffs):
    """Monic rational polynomial from low-to-high coefficients."""
    c = [Fraction(v) for v in coeffs]
    while c and not c[-1]:
        c.pop()
    if not c:
        raise InvariantError("zero polynomial")
    lead = c[-1]
    return [v / lead for v in c]


def poly_eval(coeffs, x):
    out = Fraction(0)
    for c in reversed(coeffs):
        out = out * x + c
    return out


def poly_divmod(num, den):
    num = [Fraction(v) for v in num]
    den = [Fraction(v) for v in den]
    while den and not den[-1]:
        den.pop()
    if not den:
        raise InvariantError("polynomial division by zero")
    q = [Fraction(0)] * max(0, len(num) - len(den) + 1)
    while len(num) >= len(den) and any(num):
        while num and not num[-1]:
            num.pop()
        if len(num) < len(den):
            break
        factor = num[-1] / den[-1]
        shift = len(num) - len(den)
        q[shift] = factor
        for i, dv in enumerate(den):
            num[shift + i] -= factor * dv
    while num and not num[-1]:
        num.pop()
    return q, num


def _divisors(n):
    n = abs(n)
    out = set()
    d = 1
    while d * d <= n:
        if n % d == 0:
            out.add(d)
            out.add(n // d)
        d += 1
    return sorted(out | {-x for x in out})


def _interpolate(points, values):
    """The coefficients, lowest first, of the polynomial of degree <= k
    through (points[i], values[i]), the k + 1 points and the values
    integers, the points distinct: Newton's divided differences, expanded
    from the highest down.  They run on ints, the values scaled by D, the
    product of the differences of the points: a divided difference has
    for denominators products of distinct such differences, which divide
    D, so every division is exact and only the result is made Fractions."""
    k = len(points)
    scale = 1
    for b in range(k):
        for a in range(b):
            scale *= points[b] - points[a]
    diff = [y * scale for y in values]
    for j in range(1, k):
        for i in range(k - 1, j - 1, -1):
            diff[i] = (diff[i] - diff[i - 1]) // (points[i] - points[i - j])
    poly = [diff[-1]]
    for i in range(k - 2, -1, -1):
        # poly * (t - points[i]) + diff[i]
        poly = [s - points[i] * p for s, p in zip([0] + poly, poly + [0])]
        poly[0] += diff[i]
    return [Fraction(c, scale) for c in poly]


def _primitive(poly):
    """The primitive integer multiple, leading coefficient positive, of a
    nonzero rational polynomial (lowest first, trailing zeros dropped)."""
    poly = list(poly)
    while not poly[-1]:
        poly.pop()
    lcm = math.lcm(*(Fraction(v).denominator for v in poly))
    ints = [int(v * lcm) for v in poly]
    g = math.gcd(*ints) if ints[-1] > 0 else -math.gcd(*ints)
    return [v // g for v in ints]


def _divides(num, den):
    """Does den, a primitive integer polynomial, divide the integer
    polynomial num in Q[t]?  By Gauss's lemma the quotient then has integer
    coefficients, so trial division on ints decides it: a leading term that
    den's leading coefficient does not divide ends the trial."""
    num = list(num)
    lead, n = den[-1], len(den)
    for shift in range(len(num) - n, -1, -1):
        q, r = divmod(num[shift + n - 1], lead)
        if r:
            return False
        if q:
            for i, d in enumerate(den):
                num[shift + i] -= q * d
    return not any(num)


FACTOR_CAP = 6


def _proper_factor(p):
    """The first proper monic factor of the monic p found by Kronecker's
    search, or None when p is irreducible over Q.

    Any factorization has a factor of degree <= deg/2; its values at k+1
    integer points divide the polynomial's values there (Gauss), so trying
    every divisor combination and interpolating is complete.  A rational
    root among the points is a linear factor at once.  Each candidate is
    tried by dividing its primitive integer multiple into p's on ints
    (_divides).
    """
    deg = len(p) - 1
    lcm = math.lcm(*(v.denominator for v in p))
    ip = [int(v * lcm) for v in p]
    for k in range(1, deg // 2 + 1):
        points = []
        x = 0
        while len(points) < k + 1:
            val = poly_eval(ip, x)
            if val == 0:
                return [Fraction(-x), Fraction(1)]
            points.append((x, int(val)))
            x = -x + (0 if x > 0 else 1)
        for combo in itertools.product(*[_divisors(v) for _, v in points]):
            cand = _interpolate([pt for pt, _ in points], list(combo))
            if not any(cand[1:]):
                continue
            prim = _primitive(cand)
            if len(prim) < len(ip) and _divides(ip, prim):
                return poly_normalize(cand)
    return None


def is_irreducible_over_q(coeffs):
    """Exact irreducibility over Q by Kronecker's method (degree <=
    FACTOR_CAP)."""
    p = poly_normalize(coeffs)
    deg = len(p) - 1
    if deg > FACTOR_CAP:
        raise CapExceededError("factorization cap is degree %d" % FACTOR_CAP,
                               needed=deg, cap=FACTOR_CAP)
    return _proper_factor(p) is None


# ---------------------------------------------------------------------------
# idempotent enumeration inside small endomorphism algebras

IDEMPOTENT_CAP = 4


def _rational_factors(coeffs):
    """Irreducible monic factors, repeated by multiplicity, of a monic
    rational polynomial of degree <= 6, by recursive Kronecker splitting."""
    p = poly_normalize(coeffs)
    factor = _proper_factor(p)
    if factor is None:
        return [p]
    q, r = poly_divmod(p, factor)
    if r:
        raise InvariantError("t - %s does not divide a polynomial with root "
                             "%s" % (-factor[0], -factor[0]))
    return _rational_factors(factor) + _rational_factors(q)


def primitive_idempotents(alg):
    """A maximal orthogonal family of primitive idempotents of a small
    algebra: split the semisimple quotient by minimal polynomials, then lift
    through the radical keeping exact orthogonality.  An algebra above
    IDEMPOTENT_CAP dimensions raises CapExceededError.

    A corner e A e mod rad of dimension > 1 is tried with the elements of
    its basis and their pairwise differences, then, if none of those
    answers, their pairwise products and sums.  It is split by the first
    whose minimal polynomial has two distinct irreducible factors, and it
    is primitive once one generates it (a field: the degree of the minimal
    polynomial is the corner's dimension).  A corner that no candidate
    splits or generates, such as M2(Q) in a basis whose candidates all
    have minimal polynomials t^2 - a, or the quaternions, raises
    UncertifiedError."""
    if alg.dim > IDEMPOTENT_CAP:
        raise CapExceededError("idempotent enumeration cap is dimension %d; "
                               "%s has dimension %d"
                               % (IDEMPOTENT_CAP, alg.name, alg.dim),
                               needed=alg.dim, cap=IDEMPOTENT_CAP)
    rad = jacobson_radical(alg)
    # work in the quotient: a family of orthogonal idempotents mod rad,
    # refined until every corner is a field
    family = [dict(alg.unit)]
    changed = True
    while changed:
        changed = False
        refined = []
        for e in family:
            split = _split_corner(alg, e, rad)
            refined += split or [e]
            changed = changed or bool(split)
        family = refined
    # exact lift through the radical, sequentially orthogonal
    if rad.dim == 0:
        exact = family
    else:
        exact = []
        total = {}
        one = dict(alg.unit)
        for e in family:
            raw = lift_idempotent(e, alg, rad)
            comp = vec_sub(one, total)
            cornered = alg.mult_vec(alg.mult_vec(comp, raw), comp)
            lifted = lift_idempotent(cornered, alg, rad)
            exact.append(lifted)
            vec_addmul(total, 1, lifted)
        if total != one:
            raise InvariantError("orthogonal family does not sum to 1")
    for i, e in enumerate(exact):
        if alg.mult_vec(e, e) != e:
            raise InvariantError("lifted family member is not idempotent")
        for j in range(i):
            if alg.mult_vec(e, exact[j]) or alg.mult_vec(exact[j], e):
                raise InvariantError("idempotent family is not orthogonal")
    return exact


def _split_corner(alg, e, rad):
    """Orthogonal idempotents mod rad summing to e that split the corner
    e A e mod rad, or [] when the corner is shown to be a field (dimension
    1 included); UncertifiedError when neither is found."""
    corner_span = []
    for i in range(alg.dim):
        v = rad.reduce(alg.mult_vec(alg.mult_vec(e, {i: 1}), e))
        if v:
            corner_span.append(v)
    corner = LinSubspace(alg.dim, corner_span)
    if corner.dim <= 1:
        return []
    basis = [dict(b) for b in corner.basis()]
    pairs = [(x, y) for i, x in enumerate(basis) for y in basis[:i]]

    def plus(x, y):
        out = dict(x)
        vec_addmul(out, 1, y)
        return out
    # the products and sums are made only once the others have failed
    candidates = itertools.chain(
        basis, (vec_sub(x, y) for x, y in pairs),
        (alg.mult_vec(x, y) for x in basis for y in basis),
        (plus(x, y) for x, y in pairs))
    for x in candidates:
        x = alg.mult_vec(alg.mult_vec(e, x), e)
        mp = _min_poly_in_algebra_mod(alg, x, e, rad)
        if mp is None:
            continue
        split = _spectral_idempotents_mod(alg, x, mp, e, rad)
        if split:
            return split
        if len(mp) - 1 == corner.dim:
            return []
    raise UncertifiedError("no candidate splits or generates a corner of "
                           "dimension %d of %s modulo its radical"
                           % (corner.dim, alg.name))


def _min_poly_in_algebra_mod(alg, x, e, rad):
    """Minimal polynomial of x inside the corner eAe mod rad, with unit e."""
    if not x:
        return None
    elim = Elimination(track=True)
    elim.add_column(rad.reduce(e), 0)
    cur = dict(e)
    k = 1
    while True:
        cur = rad.reduce(alg.mult_vec(cur, x))
        if not elim.add_column(cur, k):
            expr = elim.kernel_expression()
            own = expr[k]
            coeffs = [Fraction(0)] * (k + 1)
            for j, c in expr.items():
                coeffs[j] = Fraction(c, own)
            return coeffs
        k += 1
        if k > alg.dim + 1:
            return None


def _spectral_idempotents_mod(alg, x, mp, e, rad):
    """The spectral idempotents of x in the corner with unit e, modulo rad,
    one per irreducible g of its minimal polynomial mp = prod g^k; [] when
    mp has a single irreducible factor.

    With r = mp / g^k, the unit e_g of the factor Q[t]/(g^k) is s r for
    any s with s r r = r, as r is a unit there and 0 on every other
    factor: one tracked elimination solves sum_j c_j (r x^j) r = r, and
    e_g = sum_j c_j r x^j."""
    powers = Counter(tuple(g) for g in _rational_factors(mp))
    if len(powers) < 2:
        return []
    out = []
    for g, k in powers.items():
        r = mp
        for _ in range(k):
            r = poly_divmod(r, g)[0]
        # r(x), with unit e
        rx, power = {}, dict(e)
        for c in r:
            vec_addmul(rx, c, power)
            power = rad.reduce(alg.mult_vec(power, x))
        rx = term = rad.reduce(rx)
        elim = Elimination(track=True)
        terms = []
        for j in range(len(mp) - 1):
            terms.append(term)
            elim.add_column(rad.reduce(alg.mult_vec(term, rx)), j)
            term = rad.reduce(alg.mult_vec(term, x))
        coeffs = elim.solve(rx)
        if coeffs is None:
            raise InvariantError("no unit in the ideal of a spectral factor")
        eg = {}
        for j, c in coeffs.items():
            vec_addmul(eg, c, terms[j])
        out.append(rad.reduce(eg))
    return out


def idempotent_representatives(alg):
    """All nonzero sums of a maximal orthogonal primitive family (the
    conjugacy-representative idempotents used for splitting)."""
    prim = primitive_idempotents(alg)
    out = []
    for r in range(1, len(prim) + 1):
        for combo in itertools.combinations(range(len(prim)), r):
            s = {}
            for i in combo:
                vec_addmul(s, 1, prim[i])
            out.append(s)
    return out


# ---------------------------------------------------------------------------
# subquotients: the Karoubi envelope and the quotient by an ideal


def _subquotient(c, objs, bases, ideal, tensor_obj, unit, grading, name):
    """The category on objs = [(label, x, e)], e an idempotent of End(x),
    with Hom(k1, k2) = e2 o Hom(x1, x2) o e1 / ideal[(x1, x2)].

    bases[(k1, k2)] lifts a basis of that Hom to Hom(x1, x2); ideal maps
    (x1, x2) to a LinSubspace, absent pairs being 0.  A vector's
    coordinates come from one tracked elimination per hom pair over the
    basis followed by the ideal's rows, whose coefficients are dropped.
    Every table of c passes through these coordinates; tensor_obj, unit
    and grading are the caller's, on the labels.
    """
    labels = [k for k, _, _ in objs]
    where = {k: (x, e) for k, x, e in objs}
    over = {}
    for k, x, _ in objs:
        over.setdefault(x, []).append(k)
    solvers = {}

    def coords(k1, k2, vec):
        if (k1, k2) not in solvers:
            x1, x2 = where[k1][0], where[k2][0]
            elim = Elimination(track=True)
            basis = bases[(k1, k2)]
            for j, b in enumerate(basis):
                elim.add_column(b, j)
            sub = ideal.get((x1, x2))
            for j, row in enumerate(sub.rows if sub else (), len(basis)):
                elim.add_column(row, j)
            solvers[(k1, k2)] = elim, len(basis)
        elim, kept = solvers[(k1, k2)]
        out = elim.solve(vec)
        if out is None:
            raise InvariantError("vector escapes the split hom subspace")
        return {j: v for j, v in out.items() if j < kept}

    hom = {(k1, k2): len(bases[(k1, k2)]) for k1 in labels for k2 in labels}
    ident = {k: coords(k, k, e) for k, _, e in objs}
    comp = {}
    for x1, x2, x3 in c.comp:
        for k1, k2, k3 in itertools.product(over.get(x1, ()),
                                            over.get(x2, ()),
                                            over.get(x3, ())):
            table = {}
            for gi, g in enumerate(bases[(k2, k3)]):
                for fi, f in enumerate(bases[(k1, k2)]):
                    cc = coords(k1, k3, c.compose(x1, x2, x3, g, f))
                    if cc:
                        table[(gi, fi)] = cc
            if table:
                comp[(k1, k2, k3)] = table
    tensor_mor = {}
    for x1, x2, x3, x4 in c.tensor_mor:
        for k1, k2, k3, k4 in itertools.product(
                over.get(x1, ()), over.get(x2, ()), over.get(x3, ()),
                over.get(x4, ())):
            src, tgt = tensor_obj.get((k1, k3)), tensor_obj.get((k2, k4))
            if src is None or tgt is None:
                continue
            table = {}
            for fi, f in enumerate(bases[(k1, k2)]):
                for gi, g in enumerate(bases[(k3, k4)]):
                    cc = coords(src, tgt, c.tensor_morphisms(x1, x2, x3, x4,
                                                             f, g))
                    if cc:
                        table[(fi, gi)] = cc
            if table:
                tensor_mor[(k1, k2, k3, k4)] = table
    symmetry = {}
    for (x1, x2), sym in c.symmetry.items():
        for k1, k2 in itertools.product(over.get(x1, ()), over.get(x2, ())):
            src, tgt = tensor_obj.get((k1, k2)), tensor_obj.get((k2, k1))
            if src is None or tgt is None:
                continue
            (y, e_src), (z, e_tgt) = where[src], where[tgt]
            vec = c.compose(y, z, z, e_tgt, c.compose(y, y, z, sym, e_src))
            symmetry[(k1, k2)] = coords(src, tgt, vec)
    traces = {}
    for k, x, _ in objs:
        # the trace descends iff it kills the ideal on End(x)
        sub = ideal.get((x, x))
        if x not in c.traces or sub and any(c.trace(x, f) for f in sub.rows):
            continue
        t = {j: c.trace(x, b) for j, b in enumerate(bases[(k, k)])}
        traces[k] = {j: v for j, v in t.items() if v}
    return PresentedCategory(labels, hom, comp, ident, unit, tensor_obj,
                             tensor_mor, symmetry, traces, grading, name=name)


def karoubi(c):
    """Split idempotents: objects (X, e), homs e' o Hom(X, Y) o e.  An End
    algebra above IDEMPOTENT_CAP dimensions raises CapExceededError."""
    objs = []
    for x in c.objects:
        for e in idempotent_representatives(c.end_algebra(x)):
            objs.append(("%s|e%d" % (x, len(objs)), x, e))
    # Hom((x1, e1), (x2, e2)): the independent projections e2 o b_i o e1
    bases = {}
    for k1, x1, e1 in objs:
        for k2, x2, e2 in objs:
            vecs = []
            span = Elimination()
            for i in range(c.hom[(x1, x2)]):
                img = c.compose(x1, x2, x2, e2,
                                c.compose(x1, x1, x2, {i: 1}, e1))
                if img and span.add_column(img):
                    vecs.append(img)
            bases[(k1, k2)] = vecs
    named = {}
    for k, x, e in objs:
        named.setdefault((x, tuple(sorted(e.items()))), k)
    tensor_obj = {}
    for k1, x1, e1 in objs:
        for k2, x2, e2 in objs:
            if not c.tensor_defined(x1, x2) or \
                    (x1, x1, x2, x2) not in c.tensor_mor:
                continue
            e12 = c.tensor_morphisms(x1, x1, x2, x2, e1, e2)
            k12 = named.get((c.tensor_objects(x1, x2),
                             tuple(sorted(e12.items()))))
            if k12 is not None:
                tensor_obj[(k1, k2)] = k12
    unit = next((k for k, x, e in objs
                 if x == c.unit and e == c.ident[c.unit]), c.unit)
    return _subquotient(c, objs, bases, {}, tensor_obj, unit, None,
                        "karoubi(%s)" % c.name)


# ---------------------------------------------------------------------------
# the orbit category of a tensor-invertible object


class TensorInvertible:
    """A tensor-invertible object with inverse witnesses and a boundedness
    certificate: Hom(X, Y (x) O^j) = 0 for |j| > bound, for X and Y among
    the objects the orbit category is built on (restrict_to; the rest of
    the presentation may exist purely as twist targets).  The vanishing is
    verified up to a safety margin of MARGIN twists wherever the twists
    are defined."""

    MARGIN = 2

    def __init__(self, c, obj, inv, bound, restrict_to=None):
        self.c = c
        self.obj = obj
        self.inv = inv
        self.bound = bound
        self.restrict_to = list(restrict_to) if restrict_to is not None \
            else list(c.objects)
        if not c.tensor_defined(obj, inv) or not c.tensor_defined(inv, obj):
            raise InvariantError("invertibility witnesses need O (x) O^-1 "
                                 "inside the fragment")
        if c.tensor_objects(obj, inv) != c.unit or \
                c.tensor_objects(inv, obj) != c.unit:
            raise InvariantError("the declared inverse is not strictly "
                                 "inverse in the object table")
        self._powers = {0: c.unit, 1: obj, -1: inv}
        if obj == c.unit:
            # twisting by the unit is the identity functor; the only honest
            # truncation keeps the j = 0 component, and there is no margin
            # to verify (all twists coincide)
            if bound != 0:
                raise InvariantError("the unit object only admits bound 0")
        else:
            self._verify_margin()

    def power(self, j):
        if j in self._powers:
            return self._powers[j]
        step = 1 if j > 0 else -1
        prev = self.power(j - step)
        base = self.obj if step > 0 else self.inv
        if not self.c.tensor_defined(prev, base):
            raise CapExceededError("O^%d is outside the presented fragment"
                                   % j)
        self._powers[j] = self.c.tensor_objects(prev, base)
        return self._powers[j]

    def twist(self, y, j):
        """Y (x) O^j, when presentable."""
        if j == 0:
            return y
        if not self.c.tensor_defined(y, self.power(j)):
            raise CapExceededError("%s (x) O^%d is outside the fragment"
                                   % (y, j))
        return self.c.tensor_objects(y, self.power(j))

    def _verify_margin(self):
        c = self.c
        for x in self.restrict_to:
            for y in self.restrict_to:
                for j in list(range(self.bound + 1, self.bound + self.MARGIN + 1)) + \
                        list(range(-self.bound - self.MARGIN,
                                   -self.bound)):
                    try:
                        tw = self.twist(y, j)
                    except CapExceededError:
                        continue
                    if c.hom[(x, tw)] != 0:
                        raise InvariantError(
                            "declared vanishing bound %d fails at "
                            "Hom(%s, %s (x) O^%d)" % (self.bound, x, y, j))


def orbit(c, o):
    """The orbit category: same objects, Hom = (+)_j Hom(X, Y (x) O^j).

    Composition twists the second factor: for f in the j = i component and
    g in the j = k component, g o f lands in the component i + k via
    (g (x) id_{O^i}) o f.  Returns the orbit category, a PresentedCategory
    with three attributes attached: orbit_parent, the category c;
    orbit_invertible, the TensorInvertible o; and orbit_encode(x, y, j,
    part), which places a morphism of Hom(X, Y (x) O^j) in its component of
    the orbit hom Hom(X, Y).  The canonical projection embeds each original
    hom as the j = 0 block, and id_{Y (x) O} viewed in the j = +1 component
    of Hom(Y (x) O, Y) realizes the natural identification of an object
    with its twist (invertible, inverse in the j = -1 component).
    """
    J = o.bound
    objects = o.restrict_to
    comps = {}           # (x, y) -> list of (j, dim, offset)
    hom = {}
    for x in objects:
        for y in objects:
            entries = []
            off = 0
            for j in range(-J, J + 1):
                try:
                    tw = o.twist(y, j)
                except CapExceededError:
                    continue
                d = c.hom[(x, tw)]
                if d:
                    entries.append((j, d, off))
                    off += d
            comps[(x, y)] = entries
            hom[(x, y)] = off

    def encode(x, y, j, part):
        for (jj, d, off) in comps[(x, y)]:
            if jj == j:
                return {off + i: v for i, v in part.items()}
        if part:
            raise InvariantError("component %d of Hom(%s,%s) should vanish "
                                 "by the declared bound" % (j, x, y))
        return {}

    comp = {}
    for x in objects:
        for y in objects:
            if not hom[(x, y)]:
                continue
            for z in objects:
                if not hom[(y, z)]:
                    continue
                table = {}
                for (i, di, offi) in comps[(x, y)]:
                    for (k, dk, offk) in comps[(y, z)]:
                        twi = o.twist(y, i)
                        twk = o.twist(z, k)
                        # g (x) id_{O^i}: need the tensor table entry
                        oi = o.power(i)
                        if i != 0:
                            key = (y, twk, oi, oi)
                            if key not in c.tensor_mor or \
                                    not c.tensor_defined(twk, oi):
                                raise CapExceededError(
                                    "orbit composition needs %s (x) O^%d "
                                    "in the fragment" % (twk, i))
                        for gi in range(dk):
                            g = {gi: 1}
                            if i == 0:
                                g_twisted = g
                                tgt = twk
                            else:
                                g_twisted = c.tensor_morphisms(
                                    y, twk, oi, oi, g, c.ident[oi])
                                tgt = c.tensor_objects(twk, oi)
                            # strictness: (Z (x) O^k) (x) O^i = Z (x) O^(k+i)
                            expected = o.twist(z, k + i) if abs(k + i) <= J \
                                else None
                            for fi in range(di):
                                f = {fi: 1}
                                prod = c.compose(x, twi, tgt, g_twisted, f)
                                if not prod:
                                    continue
                                if expected is None or tgt != expected:
                                    # lands beyond the bound: must vanish
                                    raise InvariantError(
                                        "nonzero composite beyond the "
                                        "declared orbit bound")
                                cc = encode(x, z, k + i,
                                            prod)
                                if cc:
                                    table[(offk + gi, offi + fi)] = cc
                # reindex: the table built above keyed composition source
                if table:
                    comp[(x, y, z)] = table
    ident = {}
    for x in objects:
        ident[x] = encode(x, x, 0, c.ident[x])
    out = PresentedCategory(list(objects), hom, comp, ident,
                            c.unit if c.unit in objects else objects[0],
                            tensor_obj=None, tensor_mor=None, symmetry=None,
                            traces=None, grading=None,
                            name="%s/orbit" % c.name)
    out.orbit_parent = c
    out.orbit_invertible = o
    out.orbit_encode = encode
    return out


def orbit_twist_identification(orb, y):
    """The invertible orbit morphism Y (x) O -> Y (the j = +1 component
    id), with its inverse in the j = -1 component."""
    c = orb.orbit_parent
    o = orb.orbit_invertible
    yo = o.twist(y, 1)
    fwd = orb.orbit_encode(yo, y, 1, c.ident[yo])
    bwd = orb.orbit_encode(y, yo, -1, c.ident[y])
    # mutually inverse in the orbit category
    if orb.compose(yo, y, yo, bwd, fwd) != orb.ident[yo]:
        raise InvariantError("twist identification is not invertible")
    if orb.compose(y, yo, y, fwd, bwd) != orb.ident[y]:
        raise InvariantError("twist identification is not invertible")
    return fwd, bwd


# ---------------------------------------------------------------------------
# change of coefficients along an irreducible minimal polynomial


def extend_coefficients(c, minpoly):
    """The category with the same objects and homs tensored up to
    K = Q[t]/(minpoly), modeled as Q-spaces of dimension dim * deg with the
    companion-matrix action; composition and tensor extend K-bilinearly."""
    mp = poly_normalize(minpoly)
    deg = len(mp) - 1
    if deg < 1:
        raise InvariantError("minimal polynomial must have degree >= 1")
    if not is_irreducible_over_q(mp):
        raise InvariantError("minimal polynomial is reducible over Q")
    if deg == 1:
        return PresentedCategory(
            list(c.objects), dict(c.hom), c.comp, c.ident, c.unit,
            c.tensor_obj, c.tensor_mor, c.symmetry, c.traces, c.grading,
            name=c.name, check=False)
    # powers of t modulo the minimal polynomial
    tpow = [poly_divmod([0] * m + [1], mp)[1] for m in range(2 * deg - 1)]

    def ext_index(i, p):
        return i * deg + p

    def extend_table(table):
        out = {}
        for (gi, fi), vec in table.items():
            for p in range(deg):
                for q in range(deg):
                    newvec = {}
                    for k, v in vec.items():
                        for r, tc in enumerate(tpow[p + q]):
                            if tc:
                                key = ext_index(k, r)
                                s = newvec.get(key, 0) + v * tc
                                if s:
                                    newvec[key] = s
                                else:
                                    newvec.pop(key, None)
                    if newvec:
                        out[(ext_index(gi, p), ext_index(fi, q))] = newvec
        return out

    hom = {k: d * deg for k, d in c.hom.items()}
    comp = {k: extend_table(t) for k, t in c.comp.items()}
    tensor_mor = {k: extend_table(t) for k, t in c.tensor_mor.items()}

    def extend_vec(vec):
        return {ext_index(k, 0): v for k, v in vec.items()}

    ident = {x: extend_vec(v) for x, v in c.ident.items()}
    symmetry = {k: extend_vec(v) for k, v in c.symmetry.items()}
    # the K/Q-transfer of the extended trace: tr(f t^p) picks up the trace
    # of multiplication by t^p on Q[t]/(mp), the sum over i of the t^i
    # coefficient of t^(i+p)
    tr = [sum((tpow[i + p][i] for i in range(deg) if i < len(tpow[i + p])),
              Fraction(0)) for p in range(deg)]
    traces = {x: {ext_index(k, p): Fraction(v) * tr[p]
                  for k, v in t.items() for p in range(deg)
                  if Fraction(v) * tr[p]}
              for x, t in c.traces.items()}
    return PresentedCategory(list(c.objects), hom, comp, ident, c.unit,
                             dict(c.tensor_obj), tensor_mor, symmetry, traces,
                             dict(c.grading),
                             name="%s (x) Q[t]/(deg %d)" % (c.name, deg))


# ---------------------------------------------------------------------------
# the trace ideal, quotients, and the dagger twist


def n_ideal(c):
    """N(X, Y) = {f | tr(g o f) = 0 for every g: Y -> X}, per hom pair.

    Requires trace functionals on the End spaces; the tensor-ideal property
    (closure under composition on both sides and under tensoring with
    identities) is verified.
    """
    out = {}
    for x in c.objects:
        if x not in c.traces:
            raise UncertifiedError("n_ideal needs a trace functional on "
                                   "End(%s)" % x)
    for x in c.objects:
        for y in c.objects:
            d = c.hom[(x, y)]
            if d == 0:
                out[(x, y)] = LinSubspace(0, [])
                continue
            # column fi holds tr(g_gi o f_fi) for every g_gi: Y -> X
            cols = [{} for _ in range(d)]
            for gi in range(c.hom[(y, x)]):
                for fi in range(d):
                    val = c.trace(x, c.compose(x, y, x, {gi: 1}, {fi: 1}))
                    if val:
                        cols[fi][gi] = val
            out[(x, y)] = kernel(cols)
    _check_ideal(c, out)
    return out


def _check_ideal(c, ideal):
    """Refuse an ideal that is not closed under composition on both sides,
    or under tensoring with identities wherever the tensor is presented:
    the quotient tables would be ill-defined."""
    gens = {key: sub.basis() for key, sub in ideal.items()}
    for x in c.objects:
        for y in c.objects:
            for f in gens[(x, y)]:
                for z in c.objects:
                    for hi in range(c.hom[(y, z)]):
                        prod = c.compose(x, y, z, {hi: 1}, f)
                        if prod and not ideal[(x, z)].contains(prod):
                            raise InvariantError("ideal not closed under "
                                                 "post-composition")
                    for hi in range(c.hom[(z, x)]):
                        prod = c.compose(z, x, y, f, {hi: 1})
                        if prod and not ideal[(z, y)].contains(prod):
                            raise InvariantError("ideal not closed under "
                                                 "pre-composition")
    for x1, y1, x2, y2 in c.tensor_mor:
        if not (c.tensor_defined(x1, x2) and c.tensor_defined(y1, y2)):
            continue
        prods = [c.tensor_morphisms(x1, y1, x2, y2, f, c.ident[x2])
                 for f in (gens.get((x1, y1), ()) if x2 == y2 else ())]
        prods += [c.tensor_morphisms(x1, y1, x2, y2, c.ident[x1], g)
                  for g in (gens.get((x2, y2), ()) if x1 == y1 else ())]
        if any(prods):
            target = ideal[(c.tensor_objects(x1, x2),
                            c.tensor_objects(y1, y2))]
            if not all(target.contains(t) for t in prods):
                raise InvariantError("ideal not closed under tensoring with "
                                     "identities")


def quotient_by_ideal(c, ideal):
    """The quotient category: homs modulo the ideal, tables induced.

    The ideal must be closed under composition (verified) and under
    tensoring with identities wherever the tensor is presented (verified);
    otherwise the quotient tables would be ill-defined.  Hom(x, y) keeps
    the basis vectors off the pivots of the ideal's reduced row echelon
    form.
    """
    _check_ideal(c, ideal)
    bases = {}
    for x in c.objects:
        for y in c.objects:
            leading = {min(r) for r in ideal[(x, y)].rows}
            bases[(x, y)] = [{i: 1} for i in range(c.hom[(x, y)])
                             if i not in leading]
    return _subquotient(c, [(x, x, c.ident[x]) for x in c.objects], bases,
                        ideal, dict(c.tensor_obj), c.unit, dict(c.grading),
                        "%s/N" % c.name)


def dagger_twist(c, plus_idempotents):
    """Twist the symmetry constraints and the declared traces by the parity
    sign of pi+, a natural family of idempotents (pi- = id - pi+):

        c_dagger = c o (id - 2 pi-_X (x) pi-_Y),
        t_dagger_X(f) = t_X(f o (pi+_X - pi-_X)).

    The symmetry flips its odd-odd sign and each trace its odd part, so
    tr(id_X) and tr(c_{X,X}) move together between d+ + d- and d+ - d-,
    and twisting twice gives back c.  Nothing else changes: Hom spaces,
    composition and tensor tables are c's, and the axioms are re-verified
    on the result.  pi+ is refused unless every object has one, each is
    idempotent and the family is natural (pi+_Y o f = f o pi+_X for every
    basis morphism f: X -> Y): otherwise the twisted symmetry would not be
    natural, nor the twisted functionals traces.
    """
    plus = plus_idempotents
    missing = [x for x in c.objects if x not in plus]
    if missing:
        raise InvariantError("missing even idempotent for %s"
                             % ", ".join(map(str, missing)))
    for x in c.objects:
        if c.compose(x, x, x, plus[x], plus[x]) != plus[x]:
            raise InvariantError("pi+ on %s is not idempotent" % x)
        for y in c.objects:
            for i in range(c.hom[(x, y)]):
                f = {i: 1}
                if c.compose(x, y, y, plus[y], f) != \
                        c.compose(x, x, y, f, plus[x]):
                    raise InvariantError("pi+ is not natural on Hom(%s,%s)"
                                         % (x, y))
    symmetry = {}
    for (x, y), cvec in c.symmetry.items():
        xy = c.tensor_objects(x, y)
        yx = c.tensor_objects(y, x)
        minus_x = vec_sub(c.ident[x], plus[x])
        minus_y = vec_sub(c.ident[y], plus[y])
        mm = c.tensor_morphisms(x, x, y, y, minus_x, minus_y)
        twist_op = vec_sub(c.ident[xy], vec_scale(2, mm))
        symmetry[(x, y)] = c.compose(xy, xy, yx, cvec, twist_op)
    traces = {}
    for x in c.objects:
        if x in c.traces:
            sign = vec_sub(vec_scale(2, plus[x]), c.ident[x])
            t = c.traces[x]
            row = {i: sum(t.get(k, 0) * v for k, v in
                          c.compose(x, x, x, {i: 1}, sign).items())
                   for i in range(c.hom[(x, x)])}
            traces[x] = {i: v for i, v in row.items() if v}
    return PresentedCategory(list(c.objects), dict(c.hom), c.comp, c.ident,
                             c.unit, dict(c.tensor_obj), c.tensor_mor,
                             symmetry, traces, dict(c.grading),
                             name="%s-dagger" % c.name)


# ---------------------------------------------------------------------------
# stock presentations used by the demos and tests


def graded_space_category(objects, window, name="graded spaces"):
    """Bounded Z-graded vector spaces on the given objects.

    objects: {label: sorted tuple of degrees} (a line per entry, so the
    object L_(2,2) has a 2-dimensional degree-2 part).  Morphisms are
    degree-preserving maps; tensor adds degrees and is defined only when
    everything stays within [-window, window].  Symmetry swaps the factors
    with no signs and the traces are the plain ones (the graded
    convention; dagger_twist by the identities on the even-degree slots
    gives the Koszul signs and the supertraces)."""
    objs = dict(objects)
    labels = list(objs)
    by_degrees = {}
    for x in labels:
        other = by_degrees.setdefault(tuple(objs[x]), x)
        if other != x:
            raise InvariantError("objects %s and %s share the degree list %s"
                                 % (other, x, list(objs[x])))
    hom = {}
    basis = {}          # (x, y) -> list of (slot_y, slot_x)
    index = {}          # (x, y) -> {(slot_y, slot_x): basis position}
    for x in labels:
        for y in labels:
            pairs = [(t, s) for t in range(len(objs[y]))
                     for s in range(len(objs[x]))
                     if objs[y][t] == objs[x][s]]
            basis[(x, y)] = pairs
            index[(x, y)] = {p: i for i, p in enumerate(pairs)}
            hom[(x, y)] = len(pairs)
    # the tables are built along nonzero Homs, in the order of labels, so
    # they come out as from the full walk over labels^3 and labels^4
    succ = {x: [y for y in labels if hom[(x, y)]] for x in labels}
    comp = {}
    for x in labels:
        for y in succ[x]:
            into = {}       # slot of y -> the (fi, slot of x) of f hitting it
            for fi, (ty, sx) in enumerate(basis[(x, y)]):
                into.setdefault(ty, []).append((fi, sx))
            for z in succ[y]:
                table = {}
                pos = index[(x, z)]
                for gi, (tz, sy) in enumerate(basis[(y, z)]):
                    for fi, sx in into.get(sy, ()):
                        table[(gi, fi)] = {pos[(tz, sx)]: 1}
                if table:
                    comp[(x, y, z)] = table
    ident = {}
    for x in labels:
        pos = index[(x, x)]
        ident[x] = {pos[(s, s)]: 1 for s in range(len(objs[x]))}
    # tensor: concatenation of degree lists, sorted, when inside the window
    tensor_obj = {}
    for x in labels:
        for y in labels:
            degs = tuple(sorted(a + b for a in objs[x] for b in objs[y]))
            if degs and max(abs(d) for d in degs) <= window and \
                    degs in by_degrees:
                tensor_obj[(x, y)] = by_degrees[degs]
    # slots[(x, y)][(i, j)]: the slot of x (x) y holding slot i of x times
    # slot j of y, in the order of the sorted concatenation
    slots = {}
    for x, y in tensor_obj:
        raw = sorted((a + b, i, j) for i, a in enumerate(objs[x])
                     for j, b in enumerate(objs[y]))
        slots[(x, y)] = {(i, j): k for k, (_, i, j) in enumerate(raw)}
    partners = {x: [y for y in labels if (x, y) in tensor_obj]
                for x in labels}
    tensor_mor = {}
    for x1 in labels:
        for y1 in succ[x1]:
            basis1 = basis[(x1, y1)]
            for x2 in partners[x1]:
                posxx = slots[(x1, x2)]
                xx = tensor_obj[(x1, x2)]
                for y2 in succ[x2]:
                    if (y1, y2) not in tensor_obj:
                        continue
                    basis2 = basis[(x2, y2)]
                    posyy = slots[(y1, y2)]
                    pos_out = index[(xx, tensor_obj[(y1, y2)])]
                    tensor_mor[(x1, y1, x2, y2)] = {
                        (fi, gi): {pos_out[(posyy[(t1, t2)],
                                            posxx[(s1, s2)])]: 1}
                        for fi, (t1, s1) in enumerate(basis1)
                        for gi, (t2, s2) in enumerate(basis2)}
    symmetry = {}
    for x in labels:
        for y in labels:
            if (x, y) not in tensor_obj or (y, x) not in tensor_obj:
                continue
            pos_f = slots[(x, y)]
            pos_b = slots[(y, x)]
            pos_hom = index[(tensor_obj[(x, y)], tensor_obj[(y, x)])]
            symmetry[(x, y)] = {pos_hom[(pos_b[(j, i)], pos_f[(i, j)])]: 1
                                for i in range(len(objs[x]))
                                for j in range(len(objs[y]))}
    # the unit object must be the degree-(0) line
    unit = by_degrees.get((0,))
    if unit is None:
        raise InvariantError("the presentation needs a degree-0 line as "
                             "its unit")
    traces = {x: {i: 1 for i, (t, s) in enumerate(basis[(x, x)]) if t == s}
              for x in labels}
    grading = {x: objs[x] for x in labels}
    return PresentedCategory(labels, hom, comp, ident, unit, tensor_obj,
                             tensor_mor, symmetry, traces, grading, name=name)


def graded_line_window(window):
    """Lines L_d for |d| <= window."""
    objects = {"L%d" % d: (d,) for d in range(-window, window + 1)}
    return graded_space_category(objects, window, name="graded lines")


def super_line_category():
    """The two-line super category: unit I and an odd line P with
    P (x) P = I and the Koszul symmetry c_{P,P} = -id."""
    labels = ["I", "P"]
    hom = {("I", "I"): 1, ("P", "P"): 1, ("I", "P"): 0, ("P", "I"): 0}
    comp = {("I", "I", "I"): {(0, 0): {0: 1}},
            ("P", "P", "P"): {(0, 0): {0: 1}}}
    ident = {"I": {0: 1}, "P": {0: 1}}
    tensor_obj = {("I", "I"): "I", ("I", "P"): "P", ("P", "I"): "P",
                  ("P", "P"): "I"}
    tensor_mor = {}
    for x1 in labels:
        for x2 in labels:
            tensor_mor[(x1, x1, x2, x2)] = {(0, 0): {0: 1}}
    symmetry = {("I", "I"): {0: 1}, ("I", "P"): {0: 1}, ("P", "I"): {0: 1},
                ("P", "P"): {0: -1}}
    traces = {"I": {0: 1}, "P": {0: -1}}   # supertrace of id_P is -1
    grading = {"I": 0, "P": 1}
    return PresentedCategory(labels, hom, comp, ident, "I", tensor_obj,
                             tensor_mor, symmetry, traces, grading,
                             name="super lines")


def two_block_object_category():
    """A unit and one object X with End(X) = Q x Q (an idempotent line
    pair), the stock Karoubi-splitting example."""
    labels = ["U", "X"]
    hom = {("U", "U"): 1, ("X", "X"): 2, ("U", "X"): 0, ("X", "U"): 0}
    # End(X) basis p, q: p^2 = p, q^2 = q, pq = qp = 0
    comp = {("U", "U", "U"): {(0, 0): {0: 1}},
            ("X", "X", "X"): {(0, 0): {0: 1}, (1, 1): {1: 1}}}
    ident = {"U": {0: 1}, "X": {0: 1, 1: 1}}
    tensor_obj = {("U", "U"): "U", ("U", "X"): "X", ("X", "U"): "X",
                  ("X", "X"): "X"}
    tensor_mor = {("U", "U", "U", "U"): {(0, 0): {0: 1}},
                  ("U", "U", "X", "X"): {(0, 0): {0: 1}, (0, 1): {1: 1}},
                  ("X", "X", "U", "U"): {(0, 0): {0: 1}, (1, 0): {1: 1}},
                  ("X", "X", "X", "X"): {(0, 0): {0: 1}, (1, 1): {1: 1}}}
    symmetry = {("U", "U"): {0: 1}, ("U", "X"): {0: 1, 1: 1},
                ("X", "U"): {0: 1, 1: 1}, ("X", "X"): {0: 1, 1: 1}}
    traces = {"U": {0: 1}, "X": {0: 1, 1: 1}}
    return PresentedCategory(labels, hom, comp, ident, "U", tensor_obj,
                             tensor_mor, symmetry, traces,
                             name="unit plus idempotent line pair")
