"""Finitely presented additive symmetric monoidal categories.

A presentation lists objects, hom-space dimensions with composition tables,
identities, a (possibly partial) tensor product on objects with its action
on morphisms, a unit object, and symmetry constraints.  Partiality of the
tensor tables is deliberate: a finite presentation cannot be closed under an
infinite-order invertible object, so entries outside the presented fragment
are simply absent and every axiom is verified over the defined region.

On top of the presentations: the Karoubi (idempotent-splitting) envelope,
the orbit category of a tensor-invertible object with a declared
boundedness certificate, extension of coefficients along an irreducible
rational minimal polynomial, the trace ideal N(X, Y) = {f | tr(g f) = 0 for
all g}, quotients by compatible ideals, and the dagger twist replacing the
symmetry by its odd-odd sign flip.
"""

import itertools
from fractions import Fraction

from .errors import InvariantError, CapExceededError, UncertifiedError
from .exactlin import (QMatrix, LinSubspace, Elimination, kernel,
                       vec_addmul, vec_scale, vec_sub, jacobson_radical,
                       lift_idempotent)
from .algebras import structure_algebra


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

    def hom_dim(self, x, y):
        return self.hom[(x, y)]

    def compose(self, x, y, z, g, f):
        """g o f with f: x -> y, g: y -> z (sparse vectors)."""
        table = self.comp.get((x, y, z), {})
        out = {}
        for gi, gc in g.items():
            for fi, fc in f.items():
                vec = table.get((gi, fi))
                if vec:
                    vec_addmul(out, gc * fc, vec)
        return out

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
        out = {}
        for fi, fc in f.items():
            for gi, gc in g.items():
                vec = table.get((fi, gi))
                if vec:
                    vec_addmul(out, fc * gc, vec)
        return out

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
        missing = sorted(set(self.objects) - set(self.ident))
        if missing:
            raise InvariantError("no identity given for object(s): %s"
                                 % ", ".join(missing))
        for x in self.objects:
            if self.hom[(x, x)] < 1:
                raise InvariantError("End(%s) must contain an identity" % x)
        # identity and associativity
        for x in self.objects:
            for y in self.objects:
                d = self.hom[(x, y)]
                for i in range(d):
                    f = {i: 1}
                    if self.compose(x, y, y, self.ident[y], f) != f:
                        raise InvariantError("left unit law fails on "
                                             "Hom(%s,%s)" % (x, y))
                    if self.compose(x, x, y, f, self.ident[x]) != f:
                        raise InvariantError("right unit law fails on "
                                             "Hom(%s,%s)" % (x, y))
        for w in self.objects:
            for x in self.objects:
                if not self.hom[(w, x)]:
                    continue
                for y in self.objects:
                    if not self.hom[(x, y)]:
                        continue
                    for z in self.objects:
                        if not self.hom[(y, z)]:
                            continue
                        for fi in range(self.hom[(w, x)]):
                            for gi in range(self.hom[(x, y)]):
                                for hi in range(self.hom[(y, z)]):
                                    f, g, h = {fi: 1}, {gi: 1}, {hi: 1}
                                    left = self.compose(
                                        w, y, z, h,
                                        self.compose(w, x, y, g, f))
                                    right = self.compose(
                                        w, x, z,
                                        self.compose(x, y, z, h, g), f)
                                    if left != right:
                                        raise InvariantError(
                                            "composition not associative at "
                                            "(%s,%s,%s,%s)" % (w, x, y, z))
        self._check_tensor()
        self._check_symmetry()

    def _check_tensor(self):
        if not self.tensor_obj:
            return
        u = self.unit
        for x in self.objects:
            if self.tensor_defined(u, x) and self.tensor_objects(u, x) != x:
                raise InvariantError("unit object is not strict on %s" % x)
            if self.tensor_defined(x, u) and self.tensor_objects(x, u) != x:
                raise InvariantError("unit object is not strict on %s" % x)
        # associativity of the object table wherever both routes are defined
        for x in self.objects:
            for y in self.objects:
                if not self.tensor_defined(x, y):
                    continue
                xy = self.tensor_objects(x, y)
                for z in self.objects:
                    if self.tensor_defined(xy, z) and self.tensor_defined(y, z):
                        yz = self.tensor_objects(y, z)
                        if self.tensor_defined(x, yz):
                            if self.tensor_objects(xy, z) != \
                                    self.tensor_objects(x, yz):
                                raise InvariantError(
                                    "object tensor not associative at "
                                    "(%s,%s,%s)" % (x, y, z))
        # interchange (bifunctoriality) on basis elements where defined
        for (x1, y1, x2, y2), table in self.tensor_mor.items():
            for z1 in self.objects:
                for z2 in self.objects:
                    if (y1, z1, y2, z2) not in self.tensor_mor:
                        continue
                    if (x1, z1, x2, z2) not in self.tensor_mor:
                        continue
                    if not (self.tensor_defined(x1, x2)
                            and self.tensor_defined(y1, y2)
                            and self.tensor_defined(z1, z2)):
                        continue
                    xx = self.tensor_objects(x1, x2)
                    yy = self.tensor_objects(y1, y2)
                    zz = self.tensor_objects(z1, z2)
                    for fi in range(self.hom[(x1, y1)]):
                        for gi in range(self.hom[(x2, y2)]):
                            for hi in range(self.hom[(y1, z1)]):
                                for ki in range(self.hom[(y2, z2)]):
                                    lhs = self.tensor_morphisms(
                                        x1, z1, x2, z2,
                                        self.compose(x1, y1, z1, {hi: 1},
                                                     {fi: 1}),
                                        self.compose(x2, y2, z2, {ki: 1},
                                                     {gi: 1}))
                                    rhs = self.compose(
                                        xx, yy, zz,
                                        self.tensor_morphisms(y1, z1, y2, z2,
                                                              {hi: 1},
                                                              {ki: 1}),
                                        self.tensor_morphisms(x1, y1, x2, y2,
                                                              {fi: 1},
                                                              {gi: 1}))
                                    if lhs != rhs:
                                        raise InvariantError(
                                            "tensor interchange fails at "
                                            "(%s,%s,%s,%s)" % (x1, y1, x2, y2))
        # identities tensor to identities where defined
        for x in self.objects:
            for y in self.objects:
                if (x, x, y, y) in self.tensor_mor and \
                        self.tensor_defined(x, y):
                    xy = self.tensor_objects(x, y)
                    if self.tensor_morphisms(x, x, y, y, self.ident[x],
                                             self.ident[y]) != self.ident[xy]:
                        raise InvariantError("id (x) id != id at (%s,%s)"
                                             % (x, y))

    def _check_symmetry(self):
        for (x, y), c in self.symmetry.items():
            if not self.tensor_defined(x, y) or not self.tensor_defined(y, x):
                raise InvariantError("symmetry declared outside the tensor "
                                     "fragment")
            xy = self.tensor_objects(x, y)
            yx = self.tensor_objects(y, x)
            cyx = self.symmetry.get((y, x))
            if cyx is None:
                raise InvariantError("missing inverse symmetry (%s,%s)"
                                     % (y, x))
            if self.compose(xy, yx, xy, cyx, c) != self.ident[xy]:
                raise InvariantError("c_{%s,%s} is not inverted by its swap"
                                     % (x, y))
        # hexagon (strict): c_{x, y(x)z} = (id_y (x) c_{x,z}) o (c_{x,y} (x) id_z)
        for x in self.objects:
            for y in self.objects:
                for z in self.objects:
                    needed = [(x, y), (y, z)]
                    if any(not self.tensor_defined(*p) for p in needed):
                        continue
                    yz = self.tensor_objects(y, z)
                    if not self.tensor_defined(x, yz):
                        continue
                    if (x, yz) not in self.symmetry or \
                            (x, y) not in self.symmetry or \
                            (x, z) not in self.symmetry:
                        continue
                    xy = self.tensor_objects(x, y)
                    if not (self.tensor_defined(xy, z)
                            and self.tensor_defined(y, x)):
                        continue
                    yx = self.tensor_objects(y, x)
                    if not self.tensor_defined(yx, z):
                        continue
                    if (xy, yx, z, z) not in self.tensor_mor:
                        continue
                    xz = self.tensor_objects(x, z)
                    zx = self.tensor_objects(z, x)
                    if not (self.tensor_defined(y, xz)
                            and self.tensor_defined(y, zx)):
                        continue
                    if (y, y, xz, zx) not in self.tensor_mor:
                        continue
                    lhs = self.symmetry[(x, yz)]
                    step1 = self.tensor_morphisms(xy, yx, z, z,
                                                  self.symmetry[(x, y)],
                                                  self.ident[z])
                    # rebracket strictly: (y (x) x) (x) z = y (x) (x (x) z)
                    step2 = self.tensor_morphisms(y, y, xz, zx,
                                                  self.ident[y],
                                                  self.symmetry[(x, z)])
                    xyz = self.tensor_objects(x, yz)
                    mid = self.tensor_objects(yx, z)
                    tgt = self.tensor_objects(y, zx)
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
    """The polynomial of degree <= k through (points[i], values[i])."""
    from .exactlin import solve_columns
    k = len(points) - 1
    m = QMatrix(k + 1, k + 1,
                {(r, c): Fraction(points[r]) ** c
                 for r in range(k + 1) for c in range(k + 1)})
    target = {r: Fraction(values[r]) for r in range(k + 1) if values[r]}
    sol = solve_columns(m, [target])[0]
    return [sol.get(i, Fraction(0)) for i in range(k + 1)]


def is_irreducible_over_q(coeffs, degree_cap=6):
    """Exact irreducibility over Q by Kronecker's method (degree <= cap).

    Any factorization has a factor of degree <= deg/2; its values at k+1
    integer points divide the polynomial's values there (Gauss), so trying
    every divisor combination and interpolating is complete.
    """
    p = poly_normalize(coeffs)
    deg = len(p) - 1
    if deg > degree_cap:
        raise CapExceededError("factorization cap is degree %d" % degree_cap,
                               needed=deg, cap=degree_cap)
    if deg <= 1:
        return True
    lcm = 1
    from math import gcd
    for v in p:
        lcm = lcm * v.denominator // gcd(lcm, v.denominator)
    ip = [int(v * lcm) for v in p]
    for k in range(1, deg // 2 + 1):
        points = []
        x = 0
        while len(points) < k + 1:
            val = poly_eval(ip, x)
            if val == 0:
                return False    # rational root: a linear factor
            points.append((x, int(val)))
            x = -x + (0 if x > 0 else 1)
        for combo in itertools.product(*[_divisors(v) for _, v in points]):
            cand = _interpolate([pt for pt, _ in points], list(combo))
            if not any(cand[1:]):
                continue
            q, r = poly_divmod([Fraction(v) for v in ip], cand)
            if not r and len(q) >= 2:
                return False
    return True


# ---------------------------------------------------------------------------
# idempotent enumeration inside small endomorphism algebras

IDEMPOTENT_CAP = 4


def _rational_factors(coeffs):
    """Irreducible monic factors (no multiplicity) of a squarefree monic
    rational polynomial of degree <= 6, by recursive Kronecker splitting."""
    p = poly_normalize(coeffs)
    deg = len(p) - 1
    if deg == 1:
        return [p]
    # find a factor by the same search as irreducibility, returning it
    lcm = 1
    for v in p:
        lcm = lcm * v.denominator // __import__("math").gcd(
            lcm, v.denominator)
    ip = [int(v * lcm) for v in p]
    for k in range(1, deg // 2 + 1):
        points = []
        x = 0
        while len(points) < k + 1:
            val = poly_eval(ip, x)
            if val == 0:
                root = Fraction(x)
                factor = [-root, Fraction(1)]
                q, r = poly_divmod(p, factor)
                assert not r
                return [factor] + _rational_factors(q)
            points.append((x, int(val)))
            x = -x + (0 if x > 0 else 1)
        for combo in itertools.product(*[_divisors(v) for _, v in points]):
            cand = _interpolate([pt for pt, _ in points], list(combo))
            if not any(cand[1:]):
                continue
            cand = poly_normalize(cand)
            q, r = poly_divmod(p, cand)
            if not r and len(q) >= 2:
                return _rational_factors(cand) + _rational_factors(q)
    return [p]


def _poly_mul(a, b):
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, av in enumerate(a):
        if av:
            for j, bv in enumerate(b):
                out[i + j] += av * bv
    return out


def _poly_product(fs):
    out = [Fraction(1)]
    for f in fs:
        out = _poly_mul(out, f)
    return out


def _poly_mod(a, m):
    _, r = poly_divmod(a, m)
    return r


def _poly_inverse_mod(a, m):
    """u with u a = 1 mod m, via extended Euclid in Q[t]."""
    r0, r1 = [Fraction(v) for v in m], _poly_mod(a, m)
    s0, s1 = [Fraction(0)], [Fraction(1)]
    while any(r1):
        q, r2 = poly_divmod(r0, r1)
        s2 = _poly_sub(s0, _poly_mul(q, s1))
        r0, r1 = r1, r2
        s0, s1 = s1, s2
    if len(r0) != 1:
        raise InvariantError("polynomials are not coprime")
    inv = [v / r0[0] for v in s0]
    return _poly_mod(inv, m)


def _poly_sub(a, b):
    out = [Fraction(0)] * max(len(a), len(b))
    for i, v in enumerate(a):
        out[i] += v
    for i, v in enumerate(b):
        out[i] -= v
    while out and not out[-1]:
        out.pop()
    return out or [Fraction(0)]


def primitive_idempotents(alg, cap=IDEMPOTENT_CAP):
    """A maximal orthogonal family of primitive idempotents of a small
    algebra: split the semisimple quotient by minimal polynomials, then lift
    through the radical keeping exact orthogonality."""
    if alg.dim > cap:
        raise CapExceededError("idempotent enumeration cap is dimension %d; "
                               "supply idempotents explicitly" % cap,
                               needed=alg.dim, cap=cap)
    rad = jacobson_radical(alg)

    def reduce_mod_rad(v):
        return rad.reduce(v)

    # work in the quotient: a family of orthogonal idempotents mod rad,
    # refined until every corner is a field
    family = [dict(alg.unit)]
    changed = True
    while changed:
        changed = False
        for idx, e in enumerate(list(family)):
            # corner algebra e A e modulo rad: probe basis elements
            corner_span = []
            for i in range(alg.dim):
                v = alg.mult_vec(alg.mult_vec(e, {i: 1}), e)
                v = reduce_mod_rad(v)
                if v:
                    corner_span.append(v)
            corner = LinSubspace(alg.dim, corner_span)
            if corner.dim <= 1:
                continue
            split = None
            candidates = [dict(b) for b in corner.basis()]
            candidates += [vec_sub(candidates[i], candidates[j])
                           for i in range(len(candidates))
                           for j in range(i)]
            for x in candidates:
                x = alg.mult_vec(alg.mult_vec(e, x), e)
                mp = _min_poly_in_algebra_mod(alg, x, e, rad)
                if mp is None:
                    continue
                factors = _rational_factors(mp)
                factors = [f for f in factors]
                if len(factors) >= 2:
                    split = _crt_idempotents_mod(alg, x, factors, e, rad)
                    break
                if len(mp) - 1 == corner.dim:
                    split = None
                    x = None
                    break
            if split:
                family[idx:idx + 1] = split
                changed = True
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


def _min_poly_in_algebra_mod(alg, x, e, rad):
    """Minimal polynomial of x inside the corner eAe mod rad, with unit e."""
    if not x:
        return None
    elim = Elimination(alg.dim, track=True)
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


def _crt_idempotents_mod(alg, x, factors, e, rad):
    """Spectral idempotents of x in the corner with unit e, modulo rad."""
    full = poly_normalize(_poly_product([list(f) for f in factors]))
    out = []
    for f in factors:
        rest, r = poly_divmod(full, f)
        assert not r
        u = _poly_inverse_mod(rest, f)
        e_poly = _poly_mod(_poly_mul(u, rest), full)
        # evaluate with unit e: powers of x inside the corner
        val = {}
        power = dict(e)
        for c in e_poly:
            if c:
                vec_addmul(val, c, power)
            power = rad.reduce(alg.mult_vec(power, x))
        out.append(rad.reduce(val))
    return out


def idempotent_representatives(alg, cap=IDEMPOTENT_CAP, supplied=None):
    """All nonzero sums of a maximal orthogonal primitive family (the
    conjugacy-representative idempotents used for splitting)."""
    if supplied is not None:
        for e in supplied:
            if alg.mult_vec(e, e) != e:
                raise InvariantError("supplied element is not idempotent")
        return list(supplied)
    prim = primitive_idempotents(alg, cap)
    out = []
    for r in range(1, len(prim) + 1):
        for combo in itertools.combinations(range(len(prim)), r):
            s = {}
            for i in combo:
                vec_addmul(s, 1, prim[i])
            out.append(s)
    return out


# ---------------------------------------------------------------------------
# the Karoubi envelope


def karoubi(c, cap=IDEMPOTENT_CAP, supplied=None, name=None):
    """Split idempotents: objects (X, e), homs e' o Hom(X, Y) o e.

    supplied: optional {object: [idempotent vectors]} overriding the
    enumeration (needed when some End has dimension above the cap).
    """
    supplied = supplied or {}
    objs = []             # (X, e) pairs
    for x in c.objects:
        alg = c.end_algebra(x)
        for e in idempotent_representatives(alg, cap, supplied.get(x)):
            objs.append((x, e))
    labels = {}
    for k, (x, e) in enumerate(objs):
        labels[k] = ("%s|e%d" % (x, k))
    # hom subspaces: basis of e' o Hom(x, y) o e inside Hom(x, y)
    sub_basis = {}        # (k1, k2) -> list of vectors in Hom(x1, x2)

    def project(x1, e1, x2, e2, f):
        return c.compose(x1, x2, x2, e2, c.compose(x1, x1, x2, f, e1))

    for k1, (x1, e1) in enumerate(objs):
        for k2, (x2, e2) in enumerate(objs):
            vecs = []
            span = Elimination(max(c.hom[(x1, x2)], 1))
            for i in range(c.hom[(x1, x2)]):
                img = project(x1, e1, x2, e2, {i: 1})
                if img and span.add_column(img):
                    vecs.append(img)
            sub_basis[(k1, k2)] = vecs

    hom = {}
    comp = {}
    ident = {}
    coords_cache = {}

    def coords(k1, k2, vec):
        """Coordinates of a hom vector in the chosen sub-basis."""
        key = (k1, k2)
        if key not in coords_cache:
            basis = sub_basis[key]
            elim = Elimination(max(c.hom[(objs[k1][0], objs[k2][0])], 1),
                               track=True)
            for j, b in enumerate(basis):
                elim.add_column(b, j)
            coords_cache[key] = elim
        out = coords_cache[key].solve(vec)
        if out is None:
            raise InvariantError("vector escapes the split hom subspace")
        return out

    names = []
    for k, (x, e) in enumerate(objs):
        names.append(labels[k])
    for k1, (x1, e1) in enumerate(objs):
        for k2, (x2, e2) in enumerate(objs):
            hom[(names[k1], names[k2])] = len(sub_basis[(k1, k2)])
    for k1, (x1, e1) in enumerate(objs):
        ident[names[k1]] = coords(k1, k1, e1)
        for k2, (x2, e2) in enumerate(objs):
            for k3, (x3, e3) in enumerate(objs):
                table = {}
                for gi, g in enumerate(sub_basis[(k2, k3)]):
                    for fi, f in enumerate(sub_basis[(k1, k2)]):
                        prod = c.compose(x1, x2, x3, g, f)
                        cc = coords(k1, k3, prod)
                        if cc:
                            table[(gi, fi)] = cc
                if table:
                    comp[(names[k1], names[k2], names[k3])] = table

    tensor_obj = {}
    tensor_mor = {}
    symmetry = {}
    obj_index = {}
    for k, (x, e) in enumerate(objs):
        obj_index.setdefault((x, tuple(sorted(e.items()))), k)

    def find_object(x, e):
        return obj_index.get((x, tuple(sorted(e.items()))))

    if c.tensor_obj:
        for k1, (x1, e1) in enumerate(objs):
            for k2, (x2, e2) in enumerate(objs):
                if not c.tensor_defined(x1, x2):
                    continue
                if (x1, x1, x2, x2) not in c.tensor_mor:
                    continue
                x12 = c.tensor_objects(x1, x2)
                e12 = c.tensor_morphisms(x1, x1, x2, x2, e1, e2)
                k12 = find_object(x12, e12)
                if k12 is None:
                    continue
                tensor_obj[(names[k1], names[k2])] = names[k12]
        for k1, (x1, e1) in enumerate(objs):
            for k2, (x2, e2) in enumerate(objs):
                for k3, (x3, e3) in enumerate(objs):
                    for k4, (x4, e4) in enumerate(objs):
                        if (names[k1], names[k3]) not in tensor_obj:
                            continue
                        if (names[k2], names[k4]) not in tensor_obj:
                            continue
                        if (x1, x2, x3, x4) not in c.tensor_mor:
                            continue
                        src = tensor_obj[(names[k1], names[k3])]
                        tgt = tensor_obj[(names[k2], names[k4])]
                        ksrc = names.index(src)
                        ktgt = names.index(tgt)
                        table = {}
                        for fi, f in enumerate(sub_basis[(k1, k2)]):
                            for gi, g in enumerate(sub_basis[(k3, k4)]):
                                prod = c.tensor_morphisms(x1, x2, x3, x4,
                                                          f, g)
                                cc = coords(ksrc, ktgt, prod)
                                if cc:
                                    table[(fi, gi)] = cc
                        if table:
                            tensor_mor[(names[k1], names[k2], names[k3],
                                        names[k4])] = table
        for k1, (x1, e1) in enumerate(objs):
            for k2, (x2, e2) in enumerate(objs):
                if (x1, x2) not in c.symmetry:
                    continue
                if (names[k1], names[k2]) not in tensor_obj:
                    continue
                if (names[k2], names[k1]) not in tensor_obj:
                    continue
                src = tensor_obj[(names[k1], names[k2])]
                tgt = tensor_obj[(names[k2], names[k1])]
                x12 = c.tensor_objects(x1, x2)
                x21 = c.tensor_objects(x2, x1)
                ksrc, ktgt = names.index(src), names.index(tgt)
                e_src = objs[ksrc][1]
                e_tgt = objs[ktgt][1]
                vec = c.compose(x12, x21, x21, e_tgt,
                                c.compose(x12, x12, x21,
                                          c.symmetry[(x1, x2)], e_src))
                symmetry[(names[k1], names[k2])] = coords(ksrc, ktgt, vec)

    unit = None
    for k, (x, e) in enumerate(objs):
        if x == c.unit and e == c.ident[c.unit]:
            unit = names[k]
            break
    traces = {}
    for k, (x, e) in enumerate(objs):
        if x in c.traces:
            t = {}
            for j, b in enumerate(sub_basis[(k, k)]):
                t[j] = c.trace(x, b)
            traces[names[k]] = t
    out = PresentedCategory(names, hom, comp, ident, unit or c.unit,
                            tensor_obj, tensor_mor, symmetry, traces,
                            name=name or "karoubi(%s)" % c.name)
    out.karoubi_objects = objs
    out.karoubi_parent = c
    return out


def is_idempotent_split(c, cap=IDEMPOTENT_CAP):
    """Does every idempotent endomorphism (up to the enumerated
    representatives) have an image object with a retraction?"""
    for x in c.objects:
        alg = c.end_algebra(x)
        if alg.dim > cap:
            continue
        for e in idempotent_representatives(alg, cap):
            found = False
            for y in c.objects:
                if found:
                    break
                dxy = c.hom[(x, y)]
                dyx = c.hom[(y, x)]
                if not dxy or not dyx:
                    continue
                # search r: x -> y, s: y -> x with s r = e and r s = id_y
                for r_vec in _hom_grid(c, x, y):
                    for s_vec in _hom_grid(c, y, x):
                        if c.compose(y, x, y, r_vec,
                                     s_vec) == c.ident[y] and \
                                c.compose(x, y, x, s_vec, r_vec) == e:
                            found = True
                            break
                    if found:
                        break
            if not found:
                return False
    return True


def _hom_grid(c, x, y, coeffs=(0, 1, -1, Fraction(1, 2), 2)):
    """A small deterministic grid of hom vectors (for witness searches)."""
    d = c.hom[(x, y)]
    if d == 0:
        return
    if d <= 2:
        for combo in itertools.product(coeffs, repeat=d):
            v = {i: Fraction(cc) for i, cc in enumerate(combo) if cc}
            if v:
                yield v
    else:
        for i in range(d):
            yield {i: 1}


def categories_equivalent(c1, c2, coeffs=(0, 1, -1)):
    """Search for an equivalence witness: a bijection-on-isoclasses check
    via mutually inverse morphisms (small categories only)."""

    def iso_classes(c):
        reps = []
        for x in c.objects:
            placed = False
            for rep in reps:
                if _isomorphic_in(c, x, rep[0]):
                    rep.append(x)
                    placed = True
                    break
            if not placed:
                reps.append([x])
        return reps

    def _isomorphic_in(c, x, y):
        if x == y:
            return True
        for u in _hom_grid(c, x, y):
            for v in _hom_grid(c, y, x):
                if c.compose(x, y, x, v, u) == c.ident[x] and \
                        c.compose(y, x, y, u, v) == c.ident[y]:
                    return True
        return False

    r1 = [xs[0] for xs in iso_classes(c1)]
    r2 = [xs[0] for xs in iso_classes(c2)]
    if len(r1) != len(r2):
        return False
    # search a bijection of class representatives preserving hom dimensions
    for perm in itertools.permutations(r2):
        if all(c1.hom[(x, y)] == c2.hom[(px, py)]
               for x, px in zip(r1, perm)
               for y, py in zip(r1, perm)):
            return True
    return False


# ---------------------------------------------------------------------------
# the orbit category of a tensor-invertible object


class TensorInvertible:
    """A tensor-invertible object with inverse witnesses and a boundedness
    certificate: Hom(X, Y (x) O^j) = 0 for |j| > bound, for X and Y among
    the objects the orbit category is built on (restrict_to; the rest of
    the presentation may exist purely as twist targets).  The vanishing is
    verified up to a safety margin of 2 wherever the twists are defined."""

    def __init__(self, c, obj, inv, bound, margin=2, restrict_to=None):
        self.c = c
        self.obj = obj
        self.inv = inv
        self.bound = bound
        self.margin = margin
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
                for j in list(range(self.bound + 1, self.bound + self.margin + 1)) + \
                        list(range(-self.bound - self.margin,
                                   -self.bound)):
                    try:
                        tw = self.twist(y, j)
                    except CapExceededError:
                        continue
                    if c.hom[(x, tw)] != 0:
                        raise InvariantError(
                            "declared vanishing bound %d fails at "
                            "Hom(%s, %s (x) O^%d)" % (self.bound, x, y, j))


def orbit(c, o, name=None):
    """The orbit category: same objects, Hom = (+)_j Hom(X, Y (x) O^j).

    Composition twists the second factor: for f in the j = i component and
    g in the j = k component, g o f lands in the component i + k via
    (g (x) id_{O^i}) o f.  Returns (category, tau_data) where tau_data maps
    component indices; the canonical projection embeds each original hom as
    the j = 0 block, and id_{Y (x) O} viewed in the j = +1 component of
    Hom(Y (x) O, Y) realizes the natural identification of an object with
    its twist (invertible, inverse in the j = -1 component).
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

    def decode(x, y, vec):
        """Split an orbit hom vector into original components per twist."""
        out = {}
        for (j, d, off) in comps[(x, y)]:
            part = {i - off: v for i, v in vec.items() if off <= i < off + d}
            if part:
                out[j] = part
        return out

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
                            name=name or "%s/orbit" % c.name)
    out.orbit_components = comps
    out.orbit_parent = c
    out.orbit_invertible = o
    out.orbit_encode = encode
    out.orbit_decode = decode
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


def extend_coefficients(c, minpoly, degree_cap=6, name=None):
    """The category with the same objects and homs tensored up to
    K = Q[t]/(minpoly), modeled as Q-spaces of dimension dim * deg with the
    companion-matrix action; composition and tensor extend K-bilinearly."""
    mp = poly_normalize(minpoly)
    deg = len(mp) - 1
    if deg < 1:
        raise InvariantError("minimal polynomial must have degree >= 1")
    if not is_irreducible_over_q(mp, degree_cap):
        raise InvariantError("minimal polynomial is reducible over Q")
    if deg == 1:
        return PresentedCategory(
            list(c.objects), dict(c.hom), c.comp, c.ident, c.unit,
            c.tensor_obj, c.tensor_mor, c.symmetry, c.traces, c.grading,
            name=name or c.name, check=False)
    # powers of t modulo the minimal polynomial
    tpow = {0: [Fraction(1)]}
    for m in range(1, 2 * deg - 1):
        prev = [Fraction(0)] + tpow[m - 1]
        while len(prev) > deg:
            lead = prev.pop()
            shift = len(prev) - deg
            for i in range(deg):
                prev[shift + i] -= lead * mp[i]
        tpow[m] = prev

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
    traces = {}
    for x, t in c.traces.items():
        # the K/Q-transfer of the extended trace: tr(f t^p) picks up the
        # trace of multiplication by t^p on Q[t]/(mp)
        traces[x] = {ext_index(k, p): Fraction(v) * _companion_trace(mp, p)
                     for k, v in t.items() for p in range(deg)
                     if Fraction(v) * _companion_trace(mp, p)}
    out = PresentedCategory(list(c.objects), hom, comp, ident, c.unit,
                            dict(c.tensor_obj), tensor_mor, symmetry, traces,
                            dict(c.grading),
                            name=name or "%s (x) Q[t]/(deg %d)" % (c.name, deg))
    out.extension_degree = deg
    return out


def _companion_trace(mp, p):
    """Trace of multiplication by t^p on Q[t]/(mp)."""
    deg = len(mp) - 1
    # power basis action: t^p shifts basis elements, reduced by mp
    total = Fraction(0)
    for i in range(deg):
        # t^(i+p) mod mp, coefficient of t^i
        coeffs = [Fraction(0)] * (i + p) + [Fraction(1)]
        while len(coeffs) > deg:
            lead = coeffs.pop()
            shift = len(coeffs) - deg
            for k in range(deg):
                coeffs[shift + k] -= lead * mp[k]
        if i < len(coeffs):
            total += coeffs[i]
    return total


# ---------------------------------------------------------------------------
# the trace ideal, quotients, and the dagger twist


def n_ideal(c):
    """N(X, Y) = {f | tr(g o f) = 0 for every g: Y -> X}, per hom pair.

    Requires trace functionals on the End spaces; the ideal property
    (closure under composition on both sides) is verified.
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
            dg = c.hom[(y, x)]
            rows = {}
            for gi in range(dg):
                for fi in range(d):
                    val = c.trace(x, c.compose(x, y, x, {gi: 1}, {fi: 1}))
                    if val:
                        rows[(gi, fi)] = val
            m = QMatrix(max(dg, 1), d, rows)
            out[(x, y)] = kernel(m)
    # ideal property on basis compositions
    for x in c.objects:
        for y in c.objects:
            for f in out[(x, y)].basis():
                for z in c.objects:
                    for hi in range(c.hom[(y, z)]):
                        prod = c.compose(x, y, z, {hi: 1}, f)
                        if prod and not out[(x, z)].contains(prod):
                            raise InvariantError("trace ideal is not a left "
                                                 "ideal (missing trace data?)")
                    for hi in range(c.hom[(z, x)]):
                        prod = c.compose(z, x, y, f, {hi: 1})
                        if prod and not out[(z, y)].contains(prod):
                            raise InvariantError("trace ideal is not a right "
                                                 "ideal (missing trace data?)")
    return out


def quotient_by_ideal(c, ideal, name=None):
    """The quotient category: homs modulo the ideal, tables induced.

    The ideal must be closed under composition (verified) and under
    tensoring with identities wherever the tensor is presented (verified);
    otherwise the quotient tables would be ill-defined.
    """
    # closure checks
    for x in c.objects:
        for y in c.objects:
            for f in ideal[(x, y)].basis():
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
                for (x1, y1, x2, y2), table in c.tensor_mor.items():
                    if not (c.tensor_defined(x1, x2)
                            and c.tensor_defined(y1, y2)):
                        continue
                    xx = c.tensor_objects(x1, x2)
                    yy = c.tensor_objects(y1, y2)
                    t = None
                    if (x1, y1) == (x, y) and x2 == y2:
                        t = c.tensor_morphisms(x1, y1, x2, y2, f,
                                               c.ident[x2])
                    elif (x2, y2) == (x, y) and x1 == y1:
                        t = c.tensor_morphisms(x1, y1, x2, y2,
                                               c.ident[x1], f)
                    if t and not ideal[(xx, yy)].contains(t):
                        raise InvariantError("ideal not closed under "
                                             "tensoring with identities")
    kept = {}
    reducers = {}
    for x in c.objects:
        for y in c.objects:
            sub = ideal[(x, y)]
            leading = {min(r) for r in sub.rows}
            kept[(x, y)] = [i for i in range(c.hom[(x, y)])
                            if i not in leading]
            reducers[(x, y)] = sub

    def project(x, y, vec):
        red = reducers[(x, y)].reduce(vec)
        pos = {k: t for t, k in enumerate(kept[(x, y)])}
        return {pos[k]: v for k, v in red.items()}

    hom = {k: len(v) for k, v in kept.items()}
    comp = {}
    for (x, y, z), table in c.comp.items():
        newt = {}
        posxy = {k: t for t, k in enumerate(kept[(x, y)])}
        posyz = {k: t for t, k in enumerate(kept[(y, z)])}
        for gi_old in kept[(y, z)]:
            for fi_old in kept[(x, y)]:
                vec = c.compose(x, y, z, {gi_old: 1}, {fi_old: 1})
                cc = project(x, z, vec)
                if cc:
                    newt[(posyz[gi_old], posxy[fi_old])] = cc
        if newt:
            comp[(x, y, z)] = newt
    ident = {x: project(x, x, c.ident[x]) for x in c.objects}
    tensor_mor = {}
    for (x1, y1, x2, y2), table in c.tensor_mor.items():
        if not (c.tensor_defined(x1, x2) and c.tensor_defined(y1, y2)):
            continue
        xx = c.tensor_objects(x1, x2)
        yy = c.tensor_objects(y1, y2)
        newt = {}
        pos1 = {k: t for t, k in enumerate(kept[(x1, y1)])}
        pos2 = {k: t for t, k in enumerate(kept[(x2, y2)])}
        for fi_old in kept[(x1, y1)]:
            for gi_old in kept[(x2, y2)]:
                vec = c.tensor_morphisms(x1, y1, x2, y2, {fi_old: 1},
                                         {gi_old: 1})
                cc = project(xx, yy, vec)
                if cc:
                    newt[(pos1[fi_old], pos2[gi_old])] = cc
        if newt:
            tensor_mor[(x1, y1, x2, y2)] = newt
    symmetry = {}
    for (x, y), vec in c.symmetry.items():
        xy = c.tensor_objects(x, y)
        yx = c.tensor_objects(y, x)
        symmetry[(x, y)] = project(xy, yx, vec)
    traces = {}
    for x, t in c.traces.items():
        # the trace descends iff it kills the ideal on End(x); verify
        tr = {}
        ok = True
        for f in ideal[(x, x)].basis():
            if c.trace(x, f):
                ok = False
                break
        if ok:
            pos = {k: i for i, k in enumerate(kept[(x, x)])}
            for k in kept[(x, x)]:
                val = t.get(k, 0)
                if val:
                    tr[pos[k]] = val
            traces[x] = tr
    return PresentedCategory(list(c.objects), hom, comp, ident, c.unit,
                             dict(c.tensor_obj), tensor_mor, symmetry,
                             traces, dict(c.grading),
                             name=name or "%s/N" % c.name)


def dagger_twist(c, plus_idempotents, name=None):
    """Replace each symmetry constraint by its odd-odd sign flip:

        c_dagger = c o (id - 2 pi-_X (x) pi-_Y),   pi- = id - pi+.

    Hom spaces, composition, and tensor tables are untouched; only the
    symmetry constraints change, and the symmetric-monoidal axioms are
    re-verified on the result.
    """
    for x, e in plus_idempotents.items():
        if c.compose(x, x, x, e, e) != e:
            raise InvariantError("pi+ on %s is not idempotent" % x)
    symmetry = {}
    for (x, y), cvec in c.symmetry.items():
        if x not in plus_idempotents or y not in plus_idempotents:
            raise InvariantError("missing even idempotent for %s or %s"
                                 % (x, y))
        xy = c.tensor_objects(x, y)
        yx = c.tensor_objects(y, x)
        minus_x = vec_sub(c.ident[x], plus_idempotents[x])
        minus_y = vec_sub(c.ident[y], plus_idempotents[y])
        mm = c.tensor_morphisms(x, x, y, y, minus_x, minus_y)
        twist_op = vec_sub(c.ident[xy], vec_scale(2, mm))
        symmetry[(x, y)] = c.compose(xy, xy, yx, cvec, twist_op)
    return PresentedCategory(list(c.objects), dict(c.hom), c.comp, c.ident,
                             c.unit, dict(c.tensor_obj), c.tensor_mor,
                             symmetry, dict(c.traces), dict(c.grading),
                             name=name or "%s-dagger" % c.name)


# ---------------------------------------------------------------------------
# stock presentations used by the demos and tests


def graded_space_category(objects, window, name="graded spaces"):
    """Bounded Z-graded vector spaces on the given objects.

    objects: {label: sorted tuple of degrees} (a line per entry, so the
    object L_(2,2) has a 2-dimensional degree-2 part).  Morphisms are
    degree-preserving maps; tensor adds degrees and is defined only when
    everything stays within [-window, window].  Symmetry swaps the factors
    with no signs (the plain graded convention; the super collapse is the
    realization functor, not this category)."""
    objs = dict(objects)
    labels = list(objs)
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
    comp = {}
    for x in labels:
        for y in labels:
            for z in labels:
                table = {}
                pos = index[(x, z)]
                for gi, (tz, sy) in enumerate(basis[(y, z)]):
                    for fi, (ty, sx) in enumerate(basis[(x, y)]):
                        if sy == ty:
                            table[(gi, fi)] = {pos[(tz, sx)]: 1}
                if table:
                    comp[(x, y, z)] = table
    ident = {}
    for x in labels:
        pos = index[(x, x)]
        ident[x] = {pos[(s, s)]: 1 for s in range(len(objs[x]))}
    # tensor: concatenation of degree lists, sorted, when inside the window
    tensor_obj = {}
    by_degrees = {tuple(objs[x]): x for x in labels}
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
        for y1 in labels:
            basis1 = basis[(x1, y1)]
            if not basis1:
                continue
            for x2 in partners[x1]:
                posxx = slots[(x1, x2)]
                xx = tensor_obj[(x1, x2)]
                for y2 in partners[y1]:
                    basis2 = basis[(x2, y2)]
                    if not basis2:
                        continue
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
    cat = PresentedCategory(labels, hom, comp, ident, unit, tensor_obj,
                            tensor_mor, symmetry, traces, grading, name=name)
    cat.degree_lists = objs
    return cat


def graded_line_window(window, extra_objects=(), name="graded lines"):
    """Lines L_d for |d| <= window (plus optional sum objects)."""
    objects = {"L%d" % d: (d,) for d in range(-window, window + 1)}
    for label, degs in extra_objects:
        objects[label] = tuple(sorted(degs))
    return graded_space_category(objects, window, name=name)


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
