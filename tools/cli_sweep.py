"""Run the ncmotives CLI over the shipped demo inputs, one line per run:

    <argv> | <exit status> | <sha256 of stdout> | <sha256 of stderr>

Every algebra command runs on every file in demos/algebras at
--max-degree 4, 5 and the default, in both formats, and so does hh --oracle
(the non-normalized complex beside the normalized one) at --max-degree 4;
karoubi and orbit run on every file in demos/categories in both formats,
and schur on a few super dimensions with and without --oracle.  The runs call
ncmotives.cli.main in this process, from the src directory next to this
script, so two checkouts compare with diff:

    python tools/cli_sweep.py > new.txt
    python ../other-checkout/tools/cli_sweep.py > old.txt
    diff old.txt new.txt

Given FILE arguments (algebra or category description files), only those
files are swept, and schur is left out.  With --cap N every algebra command
also gets --cap N, so a diff between checkouts lists the runs whose memory
guard refusals (exit status 3) changed.
"""

import argparse
import contextlib
import hashlib
import io
import json
import os
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent

ALGEBRA_COMMANDS = ("describe", "hh", "hc", "hp", "sbi", "pair", "numquot",
                    "semisimple", "cnc", "dnc")
CATEGORY_COMMANDS = ("karoubi", "orbit")
DEGREES = (["--max-degree", "4"], ["--max-degree", "5"], [])
FORMATS = ("table", "structured")
SCHUR_DIMS = ("1,1", "2,0", "0,2", "2,1")


def sweep_argvs(files, schur, cap=None):
    """The argument lists of the sweep, in a fixed order; files are paths
    relative to the repository root."""
    capped = [] if cap is None else ["--cap", str(cap)]
    for path in files:
        with open(REPO / path) as fh:
            kind = json.load(fh).get("kind")
        if kind == "category_presentation":
            for command in CATEGORY_COMMANDS:
                for fmt in FORMATS:
                    yield [command, "--input", path, "--format", fmt]
            continue
        for command in ALGEBRA_COMMANDS:
            for degree in DEGREES:
                for fmt in FORMATS:
                    yield ([command, "--input", path] + degree + capped
                           + ["--format", fmt])
        for fmt in FORMATS:
            yield (["hh", "--input", path, "--oracle", "--max-degree", "4"]
                   + capped + ["--format", fmt])
    if schur:
        for dims in SCHUR_DIMS:
            for oracle in ([], ["--oracle"]):
                for fmt in FORMATS:
                    yield (["schur", "--dims", dims, "--max-weight", "6"]
                           + oracle + ["--format", fmt])


def run(main, argv):
    """(exit status, stdout, stderr) of one in-process CLI run."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        status = main(argv)
    return status, out.getvalue(), err.getvalue()


def digest(text):
    return hashlib.sha256(text.encode()).hexdigest()


def main(argv=None):
    parser = argparse.ArgumentParser(
        description="Hash the CLI's output over the demo inputs.")
    parser.add_argument("files", nargs="*",
                        help="algebra or category files to sweep instead "
                             "of the shipped demos (schur is then skipped)")
    parser.add_argument("--cap", type=int, metavar="N",
                        help="pass --cap N to every algebra command")
    args = parser.parse_args(argv)
    if args.files:
        files = [os.path.relpath(Path(f).resolve(), REPO) for f in args.files]
    else:
        files = [str(p.relative_to(REPO)) for sub in ("algebras", "categories")
                 for p in sorted((REPO / "demos" / sub).glob("*.json"))]
    # paths in argv, and so in any message that names them, are relative
    # to the repository root, whichever checkout runs the sweep
    os.chdir(REPO)
    sys.path.insert(0, str(REPO / "src"))
    from ncmotives.cli import main as cli_main
    for cmd in sweep_argvs(files, schur=not args.files, cap=args.cap):
        status, out, err = run(cli_main, cmd)
        print("%s | %d | %s | %s" % (" ".join(cmd), status, digest(out),
                                     digest(err)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
