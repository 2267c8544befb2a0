"""Batch front end.

    ncmotives <command> [--input FILE] [options]

Commands: describe, hh, hc, hp, sbi, pair, numquot, semisimple, schur,
cnc, dnc, karoubi, orbit.  Output is a deterministic aligned-text report
(--format structured switches to JSON with the same content).  Exit
statuses: 0 success, 1 parse or usage error, 2 invariant violation, 3 cap
exceeded, 4 uncertified refusal, 5 internal error (any other exception,
reported on one line without a traceback).
"""

import argparse
import json
import os
import sys
from fractions import Fraction

from .errors import (NCMotivesError, ParseInputError, InvariantError,
                     CapExceededError, UncertifiedError)
from .hochschild import (hochschild_homology, cyclic_homology, sbi_check,
                         periodic_cyclic, DEFAULT_CAP, HH_MIN_DEGREE,
                         MIXED_MIN_DEGREE)
from .algebras import global_dimension, presentation
from .homcore import ChainComplex
from .inputs import _int, load_algebra, load_category
from .exactlin import identity_cols


def fmt_q(x):
    x = Fraction(x)
    if x.denominator == 1:
        return str(x.numerator)
    return "%d/%d" % (x.numerator, x.denominator)


class Report:
    """Deterministic report: echoed command, rows of (key, value), and a
    structured payload mirroring the same content."""

    def __init__(self, command):
        self.command = command
        self.rows = []
        self.payload = {"command": command}

    def add(self, key, value, payload_value=None):
        self.rows.append((key, value))
        self.payload[key] = payload_value if payload_value is not None \
            else value

    def table(self, key, headers, rows):
        self.rows.append((key, None))
        widths = [max(len(str(h)), *(len(str(r[i])) for r in rows)) if rows
                  else len(str(h)) for i, h in enumerate(headers)]
        lines = ["  ".join(str(h).ljust(w) for h, w in zip(headers, widths))]
        for r in rows:
            lines.append("  ".join(str(v).ljust(w)
                                   for v, w in zip(r, widths)))
        self.rows[-1] = (key, "\n    " + "\n    ".join(lines))
        self.payload[key] = {"headers": list(headers),
                             "rows": [list(map(str, r)) for r in rows]}

    def render(self, fmt):
        if fmt == "structured":
            return json.dumps(self.payload, sort_keys=True, indent=1)
        out = ["# %s" % self.command]
        for key, value in self.rows:
            out.append("%s: %s" % (key, value))
        return "\n".join(out)


def _count(text):
    """An integer >= 0: a degree bound, a memory guard or a weight cap,
    read by the description files' rule (ASCII digits, with an optional
    leading minus that the bound then refuses)."""
    try:
        value = _int(text)
    except ValueError:
        raise argparse.ArgumentTypeError("invalid int value: %r" % text)
    if value < 0:
        raise argparse.ArgumentTypeError("must be >= 0, got %d" % value)
    return value


def _cap(args):
    if args.cap is not None:
        return args.cap
    env = os.environ.get("NCMOTIVES_CAP")
    if env:
        try:
            return _count(env)
        except argparse.ArgumentTypeError as exc:
            raise ParseInputError("NCMOTIVES_CAP: %s" % exc)
    return DEFAULT_CAP


def cmd_describe(args):
    a = load_algebra(args.input)
    rep = Report("describe")
    rep.add("algebra", a.name)
    rep.add("dimension", a.dim)
    rep.add("basis", " ".join(a.basis))
    rep.add("radical dimension", a.radical().dim)
    if presentation(a) is not None or a.radical().dim == 0:
        g = global_dimension(a, bound=args.max_degree)
        rep.add("global dimension",
                g if g is not None else "exceeds bound %d" % args.max_degree,
                payload_value=g if g is not None else "exceeds-bound")
    else:
        rep.add("global dimension", "unknown (no quiver presentation)",
                payload_value="unknown")
    return rep


def cmd_hh(args):
    a = load_algebra(args.input)
    table = hochschild_homology(a, n_max=args.max_degree, cap=_cap(args))
    rep = Report("hh")
    rep.add("algebra", a.name)
    rep.table("HH dimensions", ["degree", "dim"],
              [(n, d) for n, d in enumerate(table.dims)])
    rep.add("certificate", "exact for degrees 0..%d" % table.certified_upto,
            payload_value={"certified_upto": table.certified_upto})
    if args.oracle:
        oracle_upto = min(3, table.certified_upto)
        dims = _nonnormalized_hh(a, oracle_upto + 1, _cap(args))
        agree = dims == table.dims[:oracle_upto + 1]
        rep.add("oracle", "non-normalized complex agrees through degree %d: "
                          "%s" % (oracle_upto, "yes" if agree else "NO"),
                payload_value={"upto": oracle_upto, "agree": agree})
        if not agree:
            raise InvariantError("normalized and non-normalized Hochschild "
                                 "homology disagree")
    return rep


def _nonnormalized_hh(a, n_max, cap):
    """Slow oracle: homology of the non-normalized complex A (x) A^n.  The
    memory guard sees the total before any column is built."""
    dims = [a.dim ** (n + 1) for n in range(n_max + 1)]
    if sum(dims) > cap:
        raise CapExceededError("oracle complex exceeds the cap",
                               needed=sum(dims), cap=cap)
    diffs = [None] + [_nonnormalized_columns(a, n)
                      for n in range(1, n_max + 1)]
    cx = ChainComplex(dims, diffs)
    return [cx.homology_dim(n) for n in range(n_max)]


def _nonnormalized_columns(a, n):
    """Columns of b_n : A (x) A^n -> A (x) A^(n-1),

        b(a_0 (x) ... (x) a_n) = sum_i (-1)^i a_0 (x) ... (x) a_i a_(i+1)
            (x) ... (x) a_n + (-1)^n a_n a_0 (x) a_1 (x) ... (x) a_(n-1),

    on basis tensors.  Column c is the base-d code of a_0 ... a_n (d = dim A,
    a_0 the most significant digit), so the columns come in the order of
    itertools.product(range(d), repeat=n + 1).  Face i reads the product of
    digits i and i + 1 from a d^2-entry table at c div d^(n-1-i) mod d^2 and
    puts each term k at c mod d^(n-1-i) + (c div d^(n+1-i)) * d^(n-i)
    + k * d^(n-1-i); the last face reads the product of a_n and a_0 at
    (c mod d) * d + c div d^n and puts k at k * d^(n-1) + (c div d)
    mod d^(n-1).
    """
    d = a.dim
    dd = d * d
    table = [a.mult_basis(x, y) for x in range(d) for y in range(d)]
    negated = [{k: -v for k, v in p.items()} for p in table]
    # (weight of digit i + 1 in c and of the product in the target, d^(n+1-i)
    # that splits off the digits before i, their weight in the target,
    # signed products) for faces i = 0..n-1
    faces = [(d ** (n - 1 - i), d ** (n + 1 - i), d ** (n - i),
              negated if i % 2 else table) for i in range(n)]
    top, low = d ** n, d ** (n - 1)
    last = negated if n % 2 else table
    cols = []
    for c in range(top * d):
        col = {}
        for weight, head, shift, prods in faces:
            prod = prods[c // weight % dd]
            if prod:
                off = c % weight + c // head * shift
                for k, v in prod.items():
                    tgt = off + k * weight
                    val = col.get(tgt, 0) + v
                    if val:
                        col[tgt] = val
                    else:
                        col.pop(tgt, None)
        off = c // d % low
        for k, v in last[c % d * d + c // top].items():
            tgt = k * low + off
            val = col.get(tgt, 0) + v
            if val:
                col[tgt] = val
            else:
                col.pop(tgt, None)
        cols.append(col)
    return cols


def cmd_hc(args):
    a = load_algebra(args.input)
    table = cyclic_homology(a, n_max=args.max_degree, cap=_cap(args))
    rep = Report("hc")
    rep.add("algebra", a.name)
    rep.table("HC dimensions", ["degree", "dim"],
              [(n, d) for n, d in enumerate(table.dims)])
    rep.add("certificate", "exact for degrees 0..%d" % table.certified_upto,
            payload_value={"certified_upto": table.certified_upto})
    return rep


def cmd_hp(args):
    a = load_algebra(args.input)
    hp = periodic_cyclic(a, n_max=max(args.max_degree, 4), cap=_cap(args))
    rep = Report("hp")
    rep.add("algebra", a.name)
    if hp.even is None:
        rep.add("result", "not stabilized within the window")
    else:
        rep.add("even dimension", hp.even)
        rep.add("odd dimension", hp.odd)
        rep.add("stabilization degree", hp.r0)
    rep.add("certificate", hp.certificate)
    if hp.certificate == "WINDOW-STABLE":
        rep.add("caveat", "stable inside the computed window only; no "
                          "finite global-dimension certificate")
    return rep


def cmd_sbi(args):
    a = load_algebra(args.input)
    r = sbi_check(a, n_max=args.max_degree, cap=_cap(args))
    rep = Report("sbi")
    rep.add("algebra", a.name)
    rep.table("HH", ["degree", "dim"], list(enumerate(r.hh)))
    rep.table("HC", ["degree", "dim"], list(enumerate(r.hc)))
    rep.table("exactness", ["node", "degree", "lhs", "rhs", "exact"],
              [(e["node"], e["degree"], e.get("lhs", ""), e.get("rhs", ""),
                "pass" if e["exact"] else "FAIL") for e in r.entries])
    rep.add("all exact", "yes" if r.all_exact else "NO",
            payload_value=r.all_exact)
    return rep


def cmd_pair(args):
    from .motives import canonical_span, pairing_matrix
    a = load_algebra(args.input)
    span = canonical_span(a)
    pm = pairing_matrix(span, span, cap=_cap(args))
    rep = Report("pair")
    rep.add("algebra", a.name)
    rep.add("span", " ".join(x.name for x in span))
    rows = [[fmt_q(col.get(i, 0)) for col in pm.columns]
            for i in range(len(span))]
    rep.table("pairing matrix", list(range(len(span))), rows)
    rep.add("rank", pm.rank)
    rep.add("certificate", "exact rational arithmetic; Euler "
                           "characteristics certified by global dimension")
    return rep


def cmd_numquot(args):
    from .motives import canonical_span, numerical_kernel
    a = load_algebra(args.input)
    span = canonical_span(a)
    nq = numerical_kernel(a, a, span, cap=_cap(args))
    rep = Report("numquot")
    rep.add("algebra", a.name)
    rep.add("span size", nq.dim_before)
    rep.add("kernel dimension", nq.kernel.dim)
    rep.add("quotient dimension", nq.dim_after)
    rep.add("certificate", "kernel of the exact intersection pairing")
    return rep


def cmd_semisimple(args):
    from .motives import semisimplicity_check
    a = load_algebra(args.input)
    r = semisimplicity_check(a, cap=_cap(args))
    rep = Report("semisimple")
    rep.add("algebra", a.name)
    rep.add("span size", r.span_size)
    rep.add("pairing rank", r.pairing_rank)
    rep.add("numerical kernel dimension", r.kernel_dim)
    rep.add("quotient dimension", r.quotient_dim)
    rep.add("Jacobson radical dimension", r.radical_dim)
    rep.add("semisimple", "yes" if r.semisimple else "NO",
            payload_value=r.semisimple)
    return rep


def cmd_schur(args):
    from .schur import is_schur_finite, schur_dimension, super_schur_value
    from .supers import SuperSpace
    try:
        dplus, dminus = (_count(x) for x in args.dims.split(","))
    except (AttributeError, ValueError, argparse.ArgumentTypeError):
        raise ParseInputError("--dims expects 'd+,d-'")
    v = SuperSpace(dplus, dminus)
    lam = is_schur_finite(v, search_cap=args.max_weight)
    rep = Report("schur")
    rep.add("super dimensions", "(%d|%d)" % (dplus, dminus))
    rep.add("annihilating partition", str(lam.parts),
            payload_value=list(lam.parts))
    rep.add("weight", lam.weight)
    if args.oracle:
        forced = schur_dimension(lam, v, force_matrix=True)
        oracle = super_schur_value(lam, v)
        rep.add("oracle agreement",
                "matrix rank %d, hook value %d" % (forced, oracle),
                payload_value={"matrix": forced, "hook": oracle})
    rep.add("certificate", "vanishing verified by the exact trace of the "
            "idempotent, summed over conjugacy classes")
    return rep


def cmd_cnc(args):
    from .motives import unit_correspondence, even_projector_in_span
    a = load_algebra(args.input)
    hp = periodic_cyclic(a, n_max=max(args.max_degree, 4), cap=_cap(args))
    if hp.certificate != "CERTIFIED":
        raise UncertifiedError("even-projector search needs CERTIFIED "
                               "periodic realizations")
    de, do = hp.super_dims
    gens = [(unit_correspondence(a),
             (identity_cols(de), identity_cols(do)))]
    v = even_projector_in_span(a, gens, cap=_cap(args))
    rep = Report("cnc")
    rep.add("algebra", a.name)
    rep.add("span", " ".join(v.span_names))
    rep.add("verdict", v.status)
    if v.found:
        rep.add("witness", " + ".join("%s * %s" % (fmt_q(c), v.span_names[i])
                                      for i, c in sorted(v.witness.items())),
                payload_value={str(i): fmt_q(c)
                               for i, c in v.witness.items()})
    else:
        rep.add("note", v.note)
    return rep


def cmd_dnc(args):
    from .motives import kernel_comparison
    a = load_algebra(args.input)
    v = kernel_comparison(a, n_max=max(args.max_degree, 4), cap=_cap(args))
    rep = Report("dnc")
    rep.add("algebra", a.name)
    rep.add("K0 basis", " ".join(v.basis_names))
    rep.add("homological kernel dimension", v.ker_hom.dim)
    rep.add("numerical kernel dimension", v.ker_num.dim)
    rep.add("verdict", v.status)
    if v.caveat:
        rep.add("caveat", v.caveat)
    return rep


def cmd_karoubi(args):
    from .categories import karoubi
    cat, _ = load_category(args.input)
    k = karoubi(cat)
    rep = Report("karoubi")
    rep.add("category", cat.name)
    rep.add("objects before", len(cat.objects))
    rep.add("objects after", len(k.objects))
    rep.table("split objects", ["object", "end dimension"],
              [(o, k.hom[(o, o)]) for o in k.objects])
    return rep


def cmd_orbit(args):
    from .categories import orbit
    cat, inv = load_category(args.input)
    if inv is None:
        raise ParseInputError("orbit needs an 'invertible' declaration in "
                              "the category file")
    orb = orbit(cat, inv)
    rep = Report("orbit")
    rep.add("category", cat.name)
    rep.add("invertible object", inv.obj)
    rep.add("bound", inv.bound)
    rows = [(x, y, orb.hom[(x, y)]) for x in orb.objects for y in orb.objects
            if orb.hom[(x, y)]]
    rep.table("orbit hom dimensions", ["source", "target", "dim"], rows)
    return rep


COMMANDS = {
    "describe": cmd_describe,
    "hh": cmd_hh,
    "hc": cmd_hc,
    "hp": cmd_hp,
    "sbi": cmd_sbi,
    "pair": cmd_pair,
    "numquot": cmd_numquot,
    "semisimple": cmd_semisimple,
    "schur": cmd_schur,
    "cnc": cmd_cnc,
    "dnc": cmd_dnc,
    "karoubi": cmd_karoubi,
    "orbit": cmd_orbit,
}


# the least --max-degree each command's complex takes; hp, cnc and dnc raise
# the degree to 4 themselves
DEGREE_FLOORS = {"hh": HH_MIN_DEGREE, "hc": MIXED_MIN_DEGREE,
                 "sbi": MIXED_MIN_DEGREE}


class _Parser(argparse.ArgumentParser):
    """Usage errors are parse errors (exit status 1), not argparse's 2."""

    def error(self, message):
        self.print_usage(sys.stderr)
        raise ParseInputError(message)


def build_parser():
    p = _Parser(prog="ncmotives", description=__doc__)
    p.add_argument("command", choices=sorted(COMMANDS))
    p.add_argument("--input", help="description file (JSON)")
    p.add_argument("--max-degree", type=_count, default=6,
                   help="truncation degree (default 6)")
    p.add_argument("--cap", type=_count, default=None,
                   help="memory guard override (basis elements)")
    p.add_argument("--format", choices=("table", "structured"),
                   default="table")
    p.add_argument("--oracle", action="store_true",
                   help="run slow independent cross-check paths")
    p.add_argument("--dims", help="super dimensions 'd+,d-' (schur)")
    p.add_argument("--max-weight", type=_count, default=10,
                   help="partition weight cap (schur)")
    return p


def main(argv=None):
    try:
        parser = build_parser()
        args = parser.parse_args(argv)
        floor = DEGREE_FLOORS.get(args.command, 0)
        if args.max_degree < floor:
            parser.error("argument --max-degree: %s needs >= %d, got %d"
                         % (args.command, floor, args.max_degree))
        if args.command != "schur" and not args.input:
            print("error: --input is required for %r" % args.command,
                  file=sys.stderr)
            return 1
        rep = COMMANDS[args.command](args)
    except NCMotivesError as exc:
        print("%s: %s" % (exc.prefix, exc), file=sys.stderr)
        return exc.exit_status
    except Exception as exc:
        print("internal error: %s: %s" % (type(exc).__name__, exc),
              file=sys.stderr)
        return 5
    print(rep.render(args.format))
    return 0


if __name__ == "__main__":
    sys.exit(main())
