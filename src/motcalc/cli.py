"""Command line front end.

Three subcommands over motive description files:

* ``motcalc analyze <file>`` runs the full radical computation and
  prints a report.
* ``motcalc dual <file>`` emits the Cartier-dual document, itself a
  valid input file.
* ``motcalc gr <file>`` prints the graded-pieces summary.

Exit codes: 0 on success, 1 when ``--check-invariants`` finds a
violation, 2 when the input cannot be read or decoded (a parse error
comes with line and column), 3 on a validation error (with the JSON
path), 4 on an unsupported model.

A call that names a subcommand first is parsed by that subcommand's own
parser, and anything else, or anything that parser leaves over, by the
full one, so both give the same messages and exit codes.
"""

import argparse
import json
import sys

from .document import (
    build_report,
    check_invariants,
    dual_document,
    gr_summary,
    gr_text,
    load_input,
    report_text,
    serialize_document,
)
from .errors import UnreadableInputError, UnsupportedModelError, ValidationError

EXIT_CHECK_FAILED = 1
EXIT_PARSE = 2
EXIT_VALIDATION = 3
EXIT_UNSUPPORTED = 4


def _build_parser():
    """The full parser and its subcommand parsers by name."""
    parser = argparse.ArgumentParser(
        prog="motcalc",
        description="Exact calculator for the motivic Galois group "
                    "of a 1-motive.")
    sub = parser.add_subparsers(dest="command", required=True)

    analyze = sub.add_parser(
        "analyze", help="compute the unipotent radical report")
    analyze.add_argument("file", help="input document (JSON)")
    analyze.add_argument("--format", choices=("json", "text"),
                         default="text", help="output format")
    analyze.add_argument("--check-invariants", action="store_true",
                         help="also run the property suite on the input")
    analyze.add_argument("--reductive-dim", type=int, default=None,
                         metavar="N",
                         help="dimension of Lie G_mot of the graded part")

    dual = sub.add_parser(
        "dual", help="emit the Cartier-dual document")
    dual.add_argument("file", help="input document (JSON)")

    grcmd = sub.add_parser(
        "gr", help="print the graded pieces of each motive")
    grcmd.add_argument("file", help="input document (JSON)")
    grcmd.add_argument("--format", choices=("json", "text"),
                       default="text", help="output format")
    return parser, {"analyze": analyze, "dual": dual, "gr": grcmd}


# parse_args leaves the parser as it found it, so one serves every call
_PARSER, _COMMANDS = _build_parser()


def _parse(argv):
    """The arguments of one call: one pass of the subcommand's parser when
    argv starts with a subcommand and that parser leaves nothing over (it
    is the parser the full one hands the rest to), else the full parser."""
    if argv is None:
        argv = sys.argv[1:]
    sub = _COMMANDS.get(argv[0]) if argv else None
    if sub is not None:
        args, rest = sub.parse_known_args(argv[1:])
        if not rest:
            args.command = argv[0]
            return args
    return _PARSER.parse_args(argv)


def main(argv=None):
    args = _parse(argv)
    try:
        doc = load_input(args.file)
        if args.command == "analyze":
            report = build_report(doc, reductive_dim=args.reductive_dim)
            if args.format == "json":
                sys.stdout.write(serialize_document(report))
            else:
                sys.stdout.write(report_text(report))
            if args.check_invariants:
                failures = check_invariants(doc)
                if failures:
                    for failure in failures:
                        print("invariant violated: %s" % (failure,),
                              file=sys.stderr)
                    return EXIT_CHECK_FAILED
        elif args.command == "dual":
            sys.stdout.write(serialize_document(dual_document(doc)))
        elif args.command == "gr":
            summary = gr_summary(doc)
            if args.format == "json":
                sys.stdout.write(serialize_document(summary))
            else:
                sys.stdout.write(gr_text(summary))
    except json.JSONDecodeError as exc:
        print("parse error at line %d, column %d: %s"
              % (exc.lineno, exc.colno, exc.msg), file=sys.stderr)
        return EXIT_PARSE
    except (OSError, UnreadableInputError) as exc:
        print("cannot read input: %s" % (exc,), file=sys.stderr)
        return EXIT_PARSE
    except UnsupportedModelError as exc:
        print("unsupported model: %s" % (exc,), file=sys.stderr)
        return EXIT_UNSUPPORTED
    except ValidationError as exc:
        print("validation error: %s" % (exc,), file=sys.stderr)
        return EXIT_VALIDATION
    return 0


if __name__ == "__main__":
    sys.exit(main())
