"""The three workloads: seeded inputs, fixed request lists, answer checks.

``make_inputs`` runs in the parent process with the standard library only;
``build`` runs in the fresh worker after the package is imported.  One
request is one closed-loop call: the client sends the next only when the
previous answer is back.

Outcomes: OK (matches the reference; the same numbers with a stronger
certificate also count), REFUSED (exit status 3 or 4, or NOT-STABILIZED)
and FAILED (a different number, another exit status, or a stray
exception).
"""

import contextlib
import io
import itertools
import json
import os
import random
from fractions import Fraction

import gen
import reference as ref

OK, REFUSED, FAILED = "ok", "refused", "failed"


def _expect(ok, detail=""):
    return (OK, "") if ok else (FAILED, detail)


# Known defects at the commit that introduced this benchmark.  They stay in
# the request lists and count as FAILED; a FAILED outcome whose key is not
# listed here makes the run incorrect.  Which of these fail depends on the
# seed, so the failed count moves with the seed.
KNOWN_DEFECTS = {
    "session/sbi/A2-rational":
        "sbi_check on A2 in a rational basis reports 'all exact: NO' or "
        "raises a false InvariantError",
    "session/hp/A2-rational":
        "periodic_cyclic on A2 in a rational basis returns HP (0|0) "
        "WINDOW-STABLE (the true value is (2|0)) or raises a bare KeyError",
    "session/sbi/cubic-rational":
        "sbi_check on Q[x]/x^3 in a rational basis raises a false "
        "InvariantError or reports 'all exact: NO'",
}

WORKLOADS = ("cli_cyclic", "session", "categories")

# cli_cyclic: (shape, kind, [(command, degree, oracle)]) at degrees the
# default cap admits; the largest chain spaces have 10^4 - 10^5 elements.
CLI_CYCLIC = [
    ("A3", "quiver", [("describe", 4, False), ("hh", 6, False),
                      ("hh", 4, True), ("hc", 4, False), ("sbi", 4, False),
                      ("hp", 4, False)]),
    ("square", "quiver", [("describe", 4, False), ("hh", 4, False),
                          ("sbi", 4, False), ("hp", 4, False)]),
    ("cubic", "quiver", [("describe", 6, False), ("hh", 8, False),
                         ("hc", 8, False), ("sbi", 8, False),
                         ("hp", 8, False)]),
    ("dual", "quiver", [("describe", 6, False), ("hh", 8, False),
                        ("hc", 8, False), ("sbi", 8, False),
                        ("hp", 8, False)]),
    ("M2(Q)", "constants", [("describe", 4, False), ("hh", 7, False),
                            ("hh", 4, True), ("hc", 6, False),
                            ("sbi", 6, False), ("hp", 6, False)]),
    ("QxQxQ", "constants", [("describe", 4, False), ("hh", 8, False),
                            ("hc", 6, False), ("sbi", 6, False),
                            ("hp", 6, False)]),
]
HH_REACH_TOP = 8

SESSION_QUIVERS = ("A2", "A3", "square", "QxQxQ")
SESSION_RATIONAL = ("A2", "cubic")
SESSION_TRUNCATION = {"A2-rational": 8, "cubic-rational": 8, "square": 4}
SESSION_LIBRARY_SHAPES = ("A2", "A3", "QxQxQ")
SESSION_PAIRING_ONLY = ("square",)   # its other questions take seconds each
SESSION_CLI = ("pair", "numquot", "semisimple", "cnc", "dnc")
SESSION_CLI_DEGREE = 4      # cnc and dnc build HP at max(degree, 4)
TRACE_PAIRS_PER_ALGEBRA = 4

GRADED_WINDOW = 8
GRADED_GAP = 2
GRADED_SUMS = range(-5, 6)
DEMO_CATEGORIES = {
    # file -> sorted End dimensions of the Karoubi envelope's objects
    "graded_lines": [1] * 15,
    "super_lines": [1, 1],
    "two_block": [1, 1, 1, 2],
}
SUPER_DIMS = [(e, o) for e in range(3) for o in range(3)]
SCHUR_FINITE_DIMS = [(1, 0), (0, 1), (1, 1), (2, 0), (0, 2)]
CLI_SCHUR_DIMS = [(1, 1), (2, 0), (0, 2)]


def _partitions(n, maxpart=None):
    maxpart = n if maxpart is None else maxpart
    if n == 0:
        return [()]
    return [(p,) + rest for p in range(min(n, maxpart), 0, -1)
            for rest in _partitions(n - p, p)]


# ---------------------------------------------------------------------------
# inputs (parent process, standard library only)


def make_inputs(workload, seed, workdir, demos):
    """Write the seeded input files and return the manifest for ``build``;
    demos is the directory of the shipped category files."""
    rng = random.Random("%s/%d" % (workload, seed))
    docs = {}
    params = {}
    if workload == "cli_cyclic":
        for shape, kind, _ in CLI_CYCLIC:
            docs[shape] = gen.quiver_document(shape, rng)[0] \
                if kind == "quiver" else gen.constants_document(shape, rng)
    elif workload == "session":
        params["trace_pairs"] = {}
        for shape in SESSION_QUIVERS:
            docs[shape], vlabel = gen.quiver_document(shape, rng)
            params["trace_pairs"][shape] = _trace_pairs(rng, docs[shape],
                                                        vlabel)
        for shape in SESSION_RATIONAL:
            docs[shape + "-rational"] = gen.constants_document(
                shape, rng, rational=True)
    elif workload == "categories":
        params = _category_params(rng)
    else:
        raise ValueError("unknown workload %r" % workload)
    paths = {}
    for key, doc in docs.items():
        path = os.path.join(workdir, "%s-%s.json" % (
            workload, key.replace("(", "").replace(")", "")))
        with open(path, "w") as fh:
            json.dump(doc, fh)
        paths[key] = path
    return {"workload": workload, "seed": seed, "paths": paths,
            "docs": docs, "params": params, "demos": demos}


def _trace_pairs(rng, doc, vlabel):
    """Correspondence pairs (x, y), each a combination of two projective
    classes [Ae_i (x) e_jA] with seeded small rational coefficients.  The
    classes are fixed in the shape's own vertex names, so the cost does not
    depend on the seed; the result lists (span index, coefficient) pairs."""
    pairs = list(itertools.product(vlabel, repeat=2))
    span = list(itertools.product(doc["vertices"], repeat=2))

    def combo(k):
        return [[span.index((vlabel[i], vlabel[j])),
                 str(Fraction(rng.choice((1, -1)) * rng.randint(1, 5),
                              rng.randint(1, 3)))]
                for i, j in (pairs[k % len(pairs)],
                             pairs[(k + 1) % len(pairs)])]
    return [(combo(3 * k), combo(3 * k + 2))
            for k in range(TRACE_PAIRS_PER_ALGEBRA)]


def _category_params(rng):
    """A graded presentation with a fixed object count, the lines in the
    window and the sum objects V_j = (j, j + GRADED_GAP), under relabelling
    and reordering.  The seed also picks the degrees and sum objects of the
    small Karoubi presentation and the order of the Schur requests."""
    labels = iter(rng.sample(range(100, 1000), 64))
    objects = [("l%d" % next(labels), [d])
               for d in range(-GRADED_WINDOW, GRADED_WINDOW + 1)]
    sums = {}
    for j in GRADED_SUMS:
        sums[j] = "s%d" % next(labels)
        objects.append((sums[j], [j, j + GRADED_GAP]))
    rng.shuffle(objects)
    line = {degs[0]: name for name, degs in objects if len(degs) == 1}
    # the bound covers every degree difference inside the interest set, and
    # GRADED_SUMS holds every twist of the sum object that the orbit needs
    graded = {"objects": objects, "one": line[1], "inverse": line[-1],
              "interest": [line[-1], line[0], line[1], sums[0]],
              "bound": GRADED_GAP + 1}
    # Karoubi on a small presentation: four lines, two sums, one object with
    # a repeated degree (End = M_2(Q))
    # (the degree-0 line is the unit)
    k_degrees = [0] + rng.sample([-3, -2, -1, 1, 2, 3], 3)
    small = [("k%d" % next(labels), [d]) for d in k_degrees]
    sums = []
    while len(sums) < 2:    # one object per degree list keeps it strict
        j = rng.randint(-2, 1)
        degs = [j, j + rng.choice((1, 2))]
        if degs not in sums:
            sums.append(degs)
    small += [("k%d" % next(labels), degs) for degs in sums]
    d = rng.randint(-1, 1)
    small.append(("k%d" % next(labels), [d, d]))
    rng.shuffle(small)
    # c_lambda c_mu for every lambda = mu and for neighbours in the
    # partition order; the cost of a product depends on the pair, so the
    # seed only orders them
    products = []
    for n in range(1, 6):
        parts = _partitions(n)
        products += [(p, p) for p in parts] + list(zip(parts, parts[1:]))
    rng.shuffle(products)
    schur = [(p, dims) for dims in SUPER_DIMS for n in range(1, 5)
             for p in _partitions(n)]
    rng.shuffle(schur)
    return {"graded": graded, "small": small, "products": products,
            "schur": schur}


# ---------------------------------------------------------------------------
# requests (worker process, package imported)


class Request:
    def __init__(self, label, call, check, defect=None):
        self.label = label
        self.call = call
        self.check = check
        self.defect = defect if defect in KNOWN_DEFECTS else None


def _cli(argv):
    from ncmotives import cli
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(argv)
    return rc, out.getvalue(), err.getvalue()


def _table(payload, key):
    return [int(row[1]) for row in payload[key]["rows"]]


def _prefix_ok(got, want):
    return len(got) >= len(want) and got[:len(want)] == want


def check_cli(command, shape, degree, doc=None, oracle=False, expect=None):
    """Checker for one CLI answer against the reference table."""
    def check(result):
        rc, out, err = result
        if rc in (3, 4):
            return REFUSED, err.strip()
        if rc != 0:
            return FAILED, "exit status %s: %s" % (rc, err.strip())
        p = json.loads(out)
        if expect is not None:
            return expect(p)
        if command == "describe":
            g = ref.gldim(shape)
            want = {"dimension": ref.ALGEBRAS[shape][0],
                    "radical dimension": ref.ALGEBRAS[shape][1],
                    "global dimension": g if g is not None
                    else "exceeds-bound"}
            got = {k: p[k] for k in want}
            return _expect(got == want, "%s != %s" % (got, want))
        if command == "hh":
            got = _table(p, "HH dimensions")
            if not _prefix_ok(got, ref.hh_dims(shape, degree)):
                return FAILED, "HH %s" % got
            if oracle and not p["oracle"]["agree"]:
                return FAILED, "oracle disagrees"
            return OK, ""
        if command == "hc":
            got = _table(p, "HC dimensions")
            return _expect(_prefix_ok(got, ref.hc_dims(shape, degree)),
                           "HC %s" % got)
        if command == "sbi":
            hh, hc = _table(p, "HH"), _table(p, "HC")
            if not (_prefix_ok(hh, ref.hh_dims(shape, degree)) and
                    _prefix_ok(hc, ref.hc_dims(shape, degree))):
                return FAILED, "HH %s HC %s" % (hh, hc)
            return _expect(p["all exact"] is True, "all exact: NO")
        if command == "hp":
            if p["certificate"] == "NOT-STABILIZED":
                return REFUSED, "NOT-STABILIZED"
            got = (p["even dimension"], p["odd dimension"])
            return _expect(got == ref.hp_dims(shape), "HP %s" % (got,))
        n = len(doc["vertices"]) ** 2
        if command == "pair":
            rows = [[Fraction(v) for v in row]
                    for row in p["pairing matrix"]["rows"]]
            return _expect(rows == ref.pairing(doc) and p["rank"] == n,
                           "pairing matrix differs")
        if command == "numquot":
            got = (p["span size"], p["kernel dimension"],
                   p["quotient dimension"])
            return _expect(got == (n, 0, n), str(got))
        if command == "semisimple":
            got = (p["span size"], p["pairing rank"],
                   p["numerical kernel dimension"], p["quotient dimension"],
                   p["Jacobson radical dimension"], p["semisimple"])
            return _expect(got == (n, n, 0, n, 0, True), str(got))
        if command == "cnc":
            # HP_odd = 0 for every shape here, so [A] itself is the even
            # projector
            return _expect(
                p["verdict"] == "WITNESS" and p["witness"] == {"0": "1"},
                "%s %s" % (p["verdict"], p.get("witness")))
        if command == "dnc":
            got = (p["verdict"], p["homological kernel dimension"],
                   p["numerical kernel dimension"],
                   len(p["K0 basis"].split()))
            return _expect(got == ("EQUAL", 0, 0, len(doc["vertices"])),
                           str(got))
        raise ValueError("no check for %r" % command)
    return check


def build(manifest):
    """The request list of one worker pass.  For session this also loads
    the objects the requests reuse, which is part of set-up."""
    return {"cli_cyclic": _build_cli_cyclic, "session": _build_session,
            "categories": _build_categories}[manifest["workload"]](manifest)


def _build_cli_cyclic(m):
    reqs = []
    for shape, _, commands in CLI_CYCLIC:
        path = m["paths"][shape]
        for command, degree, oracle in commands:
            argv = [command, "--input", path, "--max-degree", str(degree),
                    "--format", "structured"] + (["--oracle"] if oracle
                                                 else [])
            reqs.append(Request(
                "%s %s n%d%s" % (command, shape, degree,
                                 " oracle" if oracle else ""),
                lambda argv=argv: _cli(argv),
                check_cli(command, shape, degree, oracle=oracle)))
    return reqs


def hh_reach(manifest):
    """Per shape, the highest n_max <= HH_REACH_TOP at which
    hochschild_homology completes under the default cap, probed downwards
    (a cap refusal is raised before any work).  Returns ({shape: n}, the
    shapes whose answer differed from the reference)."""
    from ncmotives.inputs import load_algebra
    from ncmotives.hochschild import hochschild_homology
    from ncmotives.errors import CapExceededError
    reach, wrong = {}, []
    for shape, _, _ in CLI_CYCLIC:
        a = load_algebra(manifest["paths"][shape])
        for n in range(HH_REACH_TOP, 0, -1):
            try:
                table = hochschild_homology(a, n_max=n)
            except CapExceededError:
                continue
            reach[shape] = n
            if table.dims != ref.hh_dims(shape, n):
                wrong.append(shape)
            break
        else:
            reach[shape] = 0
    return reach, wrong


def _build_session(m):
    from ncmotives import motives, hochschild
    from ncmotives.inputs import load_algebra
    alg = {key: load_algebra(path) for key, path in m["paths"].items()}
    spans = {shape: motives.canonical_span(alg[shape])
             for shape in SESSION_QUIVERS}
    docs = m["docs"]
    reqs = []
    for shape in SESSION_LIBRARY_SHAPES:
        a, span, doc = alg[shape], spans[shape], docs[shape]
        n = len(span)

        def check_numker(r, n=n):
            got = (r.kernel.dim, r.dim_after)
            return _expect(got == (0, n), str(got))

        def check_ss(r, n=n):
            got = (r.span_size, r.pairing_rank, r.kernel_dim,
                   r.quotient_dim, r.radical_dim, r.semisimple)
            return _expect(got == (n, n, 0, n, 0, True), str(got))

        reqs += [
            _pairing_request(motives, shape, span, doc),
            Request("numerical_kernel %s" % shape,
                    lambda a=a, span=span: motives.numerical_kernel(
                        a, a, span), check_numker),
            Request("semisimplicity_check %s" % shape,
                    lambda a=a: motives.semisimplicity_check(a), check_ss),
        ]
    for shape in SESSION_PAIRING_ONLY:
        reqs.append(_pairing_request(motives, shape, spans[shape],
                                     docs[shape]))
    for shape in SESSION_QUIVERS:
        span, pm = spans[shape], ref.pairing(docs[shape])
        for k, (xs, ys) in enumerate(m["params"]["trace_pairs"][shape]):
            x = _combination(span, xs)
            y = _combination(span, ys)
            want = sum(Fraction(c) * Fraction(d) * pm[i][j]
                       for i, c in xs for j, d in ys)

            def call(x=x, y=y):
                return (motives.intersection_number(x, y),
                        motives.categorical_trace(motives.compose(x, y)))

            reqs.append(Request(
                "trace identity %s #%d" % (shape, k), call,
                lambda r, want=want: _expect(
                    r[0] == r[1] == want, "%s, %s, want %s" % (
                        r[0], r[1], want))))
    for key, n in SESSION_TRUNCATION.items():
        a, shape = alg[key], key.split("-")[0]
        reqs += [
            Request("hc %s n%d" % (key, n),
                    lambda a=a, n=n: hochschild.cyclic_homology(a, n),
                    lambda r, s=shape, n=n: _expect(
                        _prefix_ok(r.dims, ref.hc_dims(s, n)), str(r.dims)),
                    "session/hc/" + key),
            Request("sbi %s n%d" % (key, n),
                    lambda a=a, n=n: hochschild.sbi_check(a, n),
                    lambda r, s=shape, n=n: _expect(
                        r.all_exact and _prefix_ok(r.hh, ref.hh_dims(s, n))
                        and _prefix_ok(r.hc, ref.hc_dims(s, n)),
                        "all exact %s HH %s HC %s" % (r.all_exact, r.hh,
                                                      r.hc)),
                    "session/sbi/" + key),
            Request("hp %s n%d" % (key, n),
                    lambda a=a, n=n: hochschild.periodic_cyclic(a, n),
                    lambda r, s=shape: (REFUSED, "NOT-STABILIZED")
                    if r.certificate == "NOT-STABILIZED" else _expect(
                        (r.even, r.odd) == ref.hp_dims(s),
                        "HP (%s|%s) %s" % (r.even, r.odd, r.certificate)),
                    "session/hp/" + key),
        ]
    for shape in SESSION_LIBRARY_SHAPES:
        for command in SESSION_CLI:
            argv = [command, "--input", m["paths"][shape], "--max-degree",
                    str(SESSION_CLI_DEGREE), "--format", "structured"]
            reqs.append(Request(
                "%s %s" % (command, shape), lambda argv=argv: _cli(argv),
                check_cli(command, shape, SESSION_CLI_DEGREE,
                          doc=docs[shape])))
    return reqs


def _pairing_request(motives, shape, span, doc):
    n, want = len(span), ref.pairing(doc)

    def check(r):
        got = [[r.matrix.entries.get((i, j), 0) for j in range(n)]
               for i in range(n)]
        return _expect(got == want, "pairing matrix differs")

    return Request("pairing_matrix %s" % shape,
                   lambda: motives.pairing_matrix(span, span), check)


def _combination(span, terms):
    out = None
    for i, c in terms:
        t = span[i].scale(Fraction(c))
        out = t if out is None else out + t
    return out


def _build_categories(m):
    from ncmotives import categories, schur, supers
    p = m["params"]
    small = {name: tuple(degs) for name, degs in p["small"]}
    reqs = _graded_requests(categories, p["graded"])
    want_split = ref.karoubi_end_dims(small)

    def karoubi():
        return categories.karoubi(categories.graded_space_category(
            small, GRADED_WINDOW))

    reqs.append(Request("karoubi %d objects" % len(small), karoubi,
                        lambda k: _expect(sorted(
                            k.hom[(o, o)] for o in k.objects) == want_split,
                            str(k.hom))))
    for lam, mu in p["products"]:
        def product(lam=lam, mu=mu):
            return (schur.central_idempotent(lam) *
                    schur.central_idempotent(mu),
                    schur.central_idempotent(lam))
        reqs.append(Request(
            "idempotent product %s %s" % (lam, mu), product,
            lambda r, same=(lam == mu): _expect(
                (r[0] == r[1]) if same else not r[0].coeffs,
                "c_lambda c_mu is not delta c_lambda")))
    for parts, (e, o) in p["schur"]:
        v = supers.SuperSpace(e, o)
        want = ref.schur_dimension(parts, e, o)

        def dims(parts=parts, v=v):
            return (schur.schur_dimension(parts, v),
                    schur.super_schur_value(parts, v))

        reqs.append(Request(
            "schur_dimension %s (%d|%d)" % (parts, e, o), dims,
            lambda r, want=want: _expect(
                r[0] == r[1] and (want is None or r[0] == want), str(r))))
    for e, o in SCHUR_FINITE_DIMS:
        reqs.append(Request(
            "is_schur_finite (%d|%d)" % (e, o),
            lambda v=supers.SuperSpace(e, o): schur.is_schur_finite(v),
            lambda lam, want=ref.annihilator(e, o): _expect(
                list(lam.parts) == want, str(lam.parts))))
    for e, o in CLI_SCHUR_DIMS:
        argv = ["schur", "--dims", "%d,%d" % (e, o), "--max-weight", "6",
                "--oracle", "--format", "structured"]
        want = ref.annihilator(e, o)
        reqs.append(Request(
            "cli schur (%d|%d)" % (e, o), lambda argv=argv: _cli(argv),
            check_cli("schur", None, 0, expect=lambda q, want=want: _expect(
                q["annihilating partition"] == want and
                q["weight"] == sum(want) and
                q["oracle agreement"] == {"matrix": 0, "hook": 0},
                str(q)))))
    for name, split in DEMO_CATEGORIES.items():
        path = os.path.join(m["demos"], "%s.json" % name)
        reqs.append(Request(
            "cli karoubi %s" % name,
            lambda path=path: _cli(["karoubi", "--input", path, "--format",
                                    "structured"]),
            check_cli("karoubi", None, 0, expect=lambda q, split=split:
                      _expect(sorted(int(r[1]) for r in q[
                          "split objects"]["rows"]) == split, str(q)))))
    path = os.path.join(m["demos"], "graded_lines.json")
    reqs.append(Request(
        "cli orbit graded_lines",
        lambda: _cli(["orbit", "--input", path, "--format", "structured"]),
        check_cli("orbit", None, 0, expect=_check_demo_orbit)))
    return reqs


def _graded_requests(categories, pres):
    objects = {name: tuple(degs) for name, degs in pres["objects"]}
    built = {}

    def graded():
        built["c"] = categories.graded_space_category(objects,
                                                      GRADED_WINDOW)
        return built["c"]

    def orbit():
        o = categories.TensorInvertible(built["c"], pres["one"],
                                        pres["inverse"], pres["bound"],
                                        restrict_to=pres["interest"])
        return categories.orbit(built["c"], o)

    want_hom = ref.graded_hom(objects)
    want_tensor = ref.graded_tensor(objects, GRADED_WINDOW)
    want_orbit = ref.orbit_hom(objects, pres["interest"])
    return [
        Request("graded_space_category", graded,
                lambda c: _expect(c.hom == want_hom and
                                  c.tensor_obj == want_tensor,
                                  "hom or tensor table differs")),
        Request("orbit", orbit,
                lambda orb: _expect(orb.hom == want_orbit, str(orb.hom))),
    ]


def _check_demo_orbit(q):
    # L1 over lines L-2 .. L2 with bound 4: every degree difference is
    # inside the bound, so each orbit hom is one line
    rows = q["orbit hom dimensions"]["rows"]
    lines = ["L%d" % d for d in range(-2, 3)]
    want = sorted([x, y, "1"] for x in lines for y in lines)
    return _expect(sorted(rows) == want, str(rows))
