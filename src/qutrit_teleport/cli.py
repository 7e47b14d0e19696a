"""Command-line interface.

Subcommands: basis, derive, verify, compare, analyze, simulate, export,
import; each one's parser carries its `_cmd_*` handler as the default
``handler``, which `main` calls.  Exit codes: 0 success, 1 usage error
or stdout closed by its reader before the output was written, 2 a
verification subcommand found a violated invariant or mismatch.  Output
is written to stdout unless --out is given, as UTF-8 in both cases,
whatever the locale; identical invocations produce byte-identical output.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Optional

from . import analysis, engine
from . import __version__
from .basis import expand_product, gram_matrix, projector_sum, reconstruct_product
from .exact import ONE
from .linalg import Operator3

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VIOLATION = 2


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse variant that reports usage problems with exit code 1."""

    def error(self, message):
        raise _UsageError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="qutrit-teleport")
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {__version__}"
    )
    sub = parser.add_subparsers(dest="command", metavar="command")

    def add(name, help_text, handler):
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(handler=handler)
        if name != "import":  # import reports a verdict, never a document
            p.add_argument("--out", metavar="PATH", help="write output to PATH")
        return p

    p = add("basis", "print the nine entangled states and their Gram matrix", _cmd_basis)
    p.add_argument("--format", choices=("text", "json", "latex"), default="text")

    p = add("derive", "derive pre-measurement states and measurement gates", _cmd_derive)
    p.add_argument("--channel", type=int, choices=range(9), metavar="I")
    p.add_argument("--outcome", type=int, choices=range(9), metavar="K")
    p.add_argument("--format", choices=("json", "latex", "text"), default="text")
    p.add_argument("--roman", action="store_true", help="also show channel numerals")

    add("verify", "run the full exact identity suite", _cmd_verify)

    p = add("compare", "diff the transcribed tables against the derivation", _cmd_compare)
    p.add_argument("--format", choices=("json", "markdown", "latex"), default="markdown")
    p.add_argument("--fail-on-mismatch", action="store_true")
    p.add_argument("--roman", action="store_true")

    p = add("analyze", "per-gate non-unitarity profile and completeness verdicts", _cmd_analyze)
    p.add_argument("--channel", type=int, choices=range(9), metavar="I")
    p.add_argument("--format", choices=("json", "markdown"), default="markdown")
    p.add_argument("--roman", action="store_true")

    p = add("simulate", "run the seeded three-party protocol simulation", _cmd_simulate)
    p.add_argument("--channel", type=int, choices=range(9), required=True, metavar="I")
    p.add_argument("--trials", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    group = p.add_mutually_exclusive_group()
    group.add_argument(
        "--state",
        metavar="c0r,c0i,c1r,c1i,c2r,c2i",
        help="input state as six comma-separated components (default |0>)",
    )
    group.add_argument("--haar", action="store_true", help="draw inputs uniformly")
    p.add_argument("--use-paper-gates", action="store_true")
    p.add_argument("--format", choices=("json", "csv"), default="json")

    add("export", "write the full 81-gate oracle table as JSON", _cmd_export)

    p = add("import", "read a gate table and check it against the derivation", _cmd_import)
    p.add_argument("path", metavar="PATH")

    return parser


def _emit(text, out: Optional[str]) -> None:
    """Write `text`, a string or an iterable of string pieces."""
    pieces = (text,) if isinstance(text, str) else text
    if out is not None:
        try:
            with open(out, "w", encoding="utf-8") as fh:
                fh.writelines(pieces)
        except OSError as exc:
            raise _UsageError(f"cannot write {out}: {exc.strerror or exc}")
    else:
        sys.stdout.writelines(pieces)


def _parse_state(raw: Optional[str]):
    if raw is None:
        return (1.0, 0.0, 0.0)
    parts = raw.split(",")
    if len(parts) != 6:
        raise _UsageError("--state needs six comma-separated numbers")
    try:
        vals = [float(x) for x in parts]
    except ValueError:
        raise _UsageError("--state components must be numbers")
    return (
        complex(vals[0], vals[1]),
        complex(vals[2], vals[3]),
        complex(vals[4], vals[5]),
    )


# -- subcommand handlers ---------------------------------------------------------
#
# A handler imports the output modules (`render`, `serialize`) and the
# transcription (`published`) only on the branch that uses them, so a cold
# process loads no more than its subcommand's output needs.


def _cmd_basis(args) -> int:
    if args.format == "json":
        from . import serialize

        text = serialize.basis_dumps()
    else:
        from . import render

        text = render.basis_text() if args.format == "text" else render.basis_latex()
    _emit(text, args.out)
    return EXIT_OK


def _selected(args):
    return [args.channel] if args.channel is not None else list(range(9))


def _cmd_derive(args) -> int:
    channels = _selected(args)
    outcomes = range(9) if args.outcome is None else (args.outcome,)
    if args.format == "json":
        from . import serialize

        gates = {(i, k): engine.derive_gate(i, k) for i in channels for k in outcomes}
        text = serialize.gate_table_dumps(gates)
    else:
        from . import render

        if args.format == "latex":
            text = render.derive_latex(channels, args.roman, outcomes)
        elif args.channel is not None and args.outcome is not None:
            text = render.derive_entry_text(args.channel, args.outcome, args.roman)
        else:
            text = render.derive_text(channels, args.roman, outcomes)
    _emit(text, args.out)
    return EXIT_OK


def _first_failure(residuals):
    """``"<where> entry [r][c] = value"`` for the first nonzero entry of the
    first residual that has one, else None.  `residuals` yields (where,
    grid rows) pairs and is read lazily: nothing after the failure is
    computed."""
    for where, rows in residuals:
        for r, row in enumerate(rows):
            for c, x in enumerate(row):
                if not x.is_zero():
                    return f"{where} entry [{r}][{c}] = {x}"
    return None


def _minus_identity(grid) -> tuple:
    return tuple(
        tuple(x - ONE if r == c else x for c, x in enumerate(row))
        for r, row in enumerate(grid)
    )


def _verify_checks():
    """(name, check) pairs.  A check returns None when it holds and
    otherwise one witness line: where it first fails, and a nonzero value
    there.  Six checks are residuals that must vanish, scanned by
    `_first_failure`; non-unitarity is the one check that must not."""
    identity = Operator3.identity()

    def orthonormal():
        yield "Gram matrix - identity", _minus_identity(gram_matrix())

    def basis_complete():
        yield "projector sum - identity", _minus_identity(projector_sum())

    def inversion_roundtrip():
        for a2 in range(3):
            for b in range(3):
                diff = reconstruct_product(expand_product(a2, b)) - Operator3.unit(a2, b)
                yield f"(a2, b) = ({a2}, {b}): reconstruction - unit", diff.rows

    def gate_residuals():
        for i in range(9):
            for k in range(9):
                residual = engine.delta_qt(i, k, engine.derive_gate(i, k))
                yield f"(channel, outcome) = ({i}, {k}): residual", residual.rows

    def channel_reconstruction():
        for i in range(9):
            yield f"channel {i}: residual", engine.reconstruction_residual(i)

    def measurement_completeness():
        for i in range(9):
            diff = analysis.completeness(i) - identity
            yield f"channel {i}: sum of G^T G - identity", diff.rows

    def non_unitarity():
        for i in range(9):
            for k in range(9):
                g = engine.derive_gate(i, k)
                if g.dagger() @ g == identity:
                    return f"(channel, outcome) = ({i}, {k}): G^T G = identity"
        return None

    def scan(residuals):
        return lambda: _first_failure(residuals())

    return (
        ("orthonormality of the entangled basis", scan(orthonormal)),
        ("completeness of the entangled basis", scan(basis_complete)),
        ("product-state inversion round-trip", scan(inversion_roundtrip)),
        ("teleportation residual zero for all 81 gates", scan(gate_residuals)),
        ("composite-state reconstruction per channel", scan(channel_reconstruction)),
        ("measurement completeness per channel", scan(measurement_completeness)),
        ("non-unitarity of all 81 gates", non_unitarity),
    )


def _cmd_verify(args) -> int:
    failures = 0
    lines = []
    for name, check in _verify_checks():
        witness = check()
        if witness is None:
            lines.append(f"ok   {name}")
        else:
            lines += [f"FAIL {name}", f"     first failure: {witness}"]
            failures += 1
    lines.append(
        "all checks passed" if failures == 0 else f"{failures} check(s) failed"
    )
    _emit("\n".join(lines) + "\n", args.out)
    return EXIT_OK if failures == 0 else EXIT_VIOLATION


def _cmd_compare(args) -> int:
    from . import published

    report = published.compare_tables()
    if args.format == "json":
        from . import serialize

        text = serialize.errata_dumps(report)
    else:
        from . import render

        if args.format == "latex":
            text = render.errata_latex(report)
        else:
            text = render.errata_markdown(report, args.roman)
    _emit(text, args.out)
    if args.fail_on_mismatch and report.mismatches():
        return EXIT_VIOLATION
    return EXIT_OK


def _cmd_analyze(args) -> int:
    channels = _selected(args)
    if args.format == "json":
        from . import serialize

        text = serialize.analysis_dumps(channels)
    else:
        from . import render

        text = render.analysis_markdown(channels, args.roman)
    _emit(text, args.out)
    return EXIT_OK


def _cmd_simulate(args) -> int:
    # the only subcommand that needs numpy; the others never import it
    from . import serialize, simulate

    if args.trials < 1:
        raise _UsageError("--trials must be at least 1")
    if args.seed < 0:
        raise _UsageError("--seed must be non-negative")
    state = None if args.haar else _parse_state(args.state)
    try:
        summary, columns = simulate.run_batch_columns(
            args.channel,
            args.trials,
            args.seed,
            input_state=state,
            haar=args.haar,
            use_paper_gates=args.use_paper_gates,
        )
        pieces = serialize.simulation_pieces(
            summary,
            columns,
            master_seed=args.seed,
            mode="haar" if args.haar else "fixed",
            use_paper_gates=args.use_paper_gates,
            fmt=args.format,
        )
    except ValueError as exc:
        raise _UsageError(str(exc))
    _emit(pieces, args.out)
    return EXIT_OK


def _cmd_export(args) -> int:
    from . import serialize

    gates = {(i, k): engine.derive_gate(i, k) for i in range(9) for k in range(9)}
    _emit(serialize.gate_table_dumps(gates), args.out)
    return EXIT_OK


def _cmd_import(args) -> int:
    from . import serialize

    try:
        with open(args.path, "rb") as fh:
            data = fh.read()
    except OSError as exc:
        raise _UsageError(f"cannot read {args.path}: {exc.strerror or exc}")
    try:
        gates = serialize.gate_table_loads(data.decode("utf-8"))
    except (ValueError, KeyError, RecursionError) as exc:
        sys.stderr.write(f"malformed gate table: {exc}\n")
        return EXIT_VIOLATION
    mismatched = [
        key for key, g in sorted(gates.items()) if g != engine.derive_gate(*key)
    ]
    if mismatched:
        first = _first_failure(
            (
                f"(channel, outcome) = ({i}, {k}): file - derivation",
                (gates[i, k] - engine.derive_gate(i, k)).rows,
            )
            for i, k in mismatched
        )
        sys.stdout.write(
            f"{len(mismatched)} of {len(gates)} gates differ from the derivation: "
            + ", ".join(str(k) for k in mismatched[:8])
            + ("..." if len(mismatched) > 8 else "")
            + f"\nfirst difference: {first}\n"
        )
        return EXIT_VIOLATION
    sys.stdout.write(f"{len(gates)} gates match the derivation exactly\n")
    return EXIT_OK


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command is None:
            parser.print_usage(sys.stderr)
            return EXIT_USAGE
        code = args.handler(args)
        sys.stdout.flush()
        return code
    except _UsageError as exc:
        sys.stderr.write(f"usage error: {exc}\n")
        return EXIT_USAGE
    except SystemExit as exc:
        # -h, --help and --version print and then exit through argparse;
        # its usage errors come back as _UsageError instead
        return exc.code
    except OSError as exc:
        # Every file a handler opens reports its own OSError, so writing
        # stdout failed.  A reader that closed it (as `| head` does) ends the
        # run silently; anything else (a full disk, say) gets one line.
        # Python's SIGPIPE recipe: point stdout at devnull, so the
        # interpreter's final flush of what is still buffered cannot fail a
        # second time.
        if not isinstance(exc, BrokenPipeError):
            sys.stderr.write(f"cannot write output: {exc.strerror or exc}\n")
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_USAGE
    except MemoryError:
        sys.stderr.write("out of memory\n")
        return EXIT_USAGE


def entrypoint() -> None:
    # stdout carries the bytes --out writes, UTF-8, whatever the locale
    sys.stdout.reconfigure(encoding="utf-8")
    raise SystemExit(main())


if __name__ == "__main__":
    entrypoint()
