"""Command-line interface.

One command per process; every command emits a single JSON document
(stdout, or ``--out`` file) while ``table`` prints a fixed-width text view
to stdout and reserves JSON for ``--out``.  Exit status: 0 success,
2 usage error, 3 capacity or budget exhausted (bounds-only document),
4 verification found violations (document carries the evidence).  Each
error is one stderr line of at most MAX_STDERR_LINE bytes.
"""

from __future__ import annotations

import argparse
import math
import sys

from .bounds import agreement_bounds
from .errors import (
    CapacityError,
    FormatError,
    GroupAxiomError,
    ParameterError,
    ScopeError,
)
from .groups import (_INT_TOKEN, _int_list, _read_text, _shown, build_group,
                     canonical_spec, catalog_up_to)
from .jk import (
    DEFAULT_SAMPLES,
    SigmaMap,
    jk_group,
    singer_sigma,
    verify_affapp_one,
    verify_enapp_zero,
)
from .reporting import (
    bounds_document,
    cache_get,
    cache_put,
    compute_document,
    document_bytes,
    metric_label,
    parse_metric_label,
    partition_document,
    table_document,
    table_row,
    table_text,
    verify_document,
    witness_document,
    write_document,
)
from .search import (
    DEFAULT_BUDGET,
    METRICS,
    approximability,
    bounds_certificate,
    worst_case_value,
)
from .witnesses import (
    build_avoiding_permutation,
    cyclic_enapp_witness,
    prime_square_witness,
    rem_quot_witness,
    small_group_witnesses,
)

__all__ = ["main"]

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_CAPACITY = 3
EXIT_VIOLATION = 4
# the longest line the CLI writes to stderr, in bytes with its newline
MAX_STDERR_LINE = 200
# the most points partition-avoid lays out; its document lists each twice
MAX_PARTITION_POINTS = 1 << 20


def _stderr_line(text: str) -> None:
    """Write text as one stderr line of at most MAX_STDERR_LINE bytes, cut
    with "...": the one writer of every CLI error, whatever a user typed."""
    raw = text.encode("utf-8", "backslashreplace")
    if len(raw) >= MAX_STDERR_LINE:
        text = raw[: MAX_STDERR_LINE - 4].decode("utf-8", "ignore") + "..."
    print(text, file=sys.stderr)


class _Parser(argparse.ArgumentParser):
    """argparse, its usage errors raised (after the usage text) to main."""

    def error(self, message):
        self.print_usage(sys.stderr)
        raise ParameterError(f"{self.prog}: {message}")


def _int_option(raw: str) -> int:
    """An integer option in the syntax of every integer a user types
    (``_INT_TOKEN``), with no digit cap: ``bounds`` refuses an overlong
    value by its own cap, with exit 3."""
    if _INT_TOKEN.fullmatch(raw) is None:
        raise argparse.ArgumentTypeError(f"expects an integer, got {_shown(raw)}")
    try:
        return int(raw)
    except ValueError:  # more digits than Python's int() reads (4,300 by default)
        raise argparse.ArgumentTypeError(f"{_shown(raw)} has too many digits") from None


def _build_parser() -> argparse.ArgumentParser:
    ap = _Parser(
        prog="groupapprox",
        description="Worst-case approximability of functions on finite "
        "groups by endomorphisms and affine maps.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("compute", help="worst-case value for one group")
    p.add_argument("--group", required=True, metavar="SPEC",
                   help="e.g. cyclic(6), product(cyclic(2),cyclic(3)), "
                        "sym(3), jk(3,0,1), file(PATH)")
    p.add_argument("--metric", required=True, choices=tuple(map(metric_label, METRICS)))
    p.add_argument("--bounds-only", action="store_true",
                   help="emit certificate bounds without searching")
    p.add_argument("--budget", type=_int_option, default=DEFAULT_BUDGET,
                   help="search node budget (default %(default)s)")
    p.add_argument("--no-cache", action="store_true")

    p = sub.add_parser("table", help="catalog table of worst-case values")
    p.add_argument("--max-order", type=_int_option, required=True)
    p.add_argument("--budget", type=_int_option, default=DEFAULT_BUDGET)

    p = sub.add_parser("verify-jk", help="scan the order-p^8 constructions")
    p.add_argument("--p", type=_int_option, required=True)
    p.add_argument("--lambda", dest="lam", required=True, metavar="L1,L2")
    # the scan options default to None, so that a check or mode that never
    # reads one can refuse it when given (_cmd_verify_jk)
    p.add_argument("--mode", choices=("full", "sampled"),
                   help="affine check only (default full)")
    p.add_argument("--check", choices=("affine", "endo"), default="affine",
                   help="affine: no affine map agrees twice; endo: the "
                        "dodging witness meets no endomorphism")
    p.add_argument("--sigma", metavar="singer|FILE",
                   help="fixed-point-free twist of the affine check: 'singer' "
                        "(default) or a file of 16 matrix entries")
    p.add_argument("--samples", type=_int_option,
                   help=f"pairs of a sampled scan (default {DEFAULT_SAMPLES})")
    p.add_argument("--seed", type=_int_option,
                   help="seed of a sampled scan (default 0)")
    p.add_argument("--allow-large", action="store_true",
                   help="permit primes beyond 3 (sampled checks only)")

    p = sub.add_parser("bounds", help="two-sided agreement bounds")
    p.add_argument("--m1", type=_int_option, required=True)
    p.add_argument("--m2", type=_int_option, required=True)
    p.add_argument("--f", required=True, metavar="log2|NUM|FILE",
                   help="family-size exponent: 'log2' for log2(m1), a "
                        "number, or a file containing one")

    p = sub.add_parser("partition-avoid",
                       help="permutation avoiding every partition class")
    p.add_argument("--classes", required=True, metavar="a,b,c,...",
                   help="comma-separated class sizes")

    p = sub.add_parser("witness", help="emit a named witness function")
    p.add_argument("--name", required=True,
                   metavar="cyclic-enapp:N|prime-square:P|rem-quot:P,K|"
                           "z6-swap|klein|sym3")
    for p in sub.choices.values():
        p.add_argument("--out", metavar="PATH")
    return ap


def _emit(doc: dict, out: str | None, *, stdout: bool = True) -> None:
    if out:
        try:
            write_document(doc, out)
        except OSError as exc:
            raise ParameterError(f"--out {_shown(out)}: {exc.strerror}") from None
    elif stdout:
        sys.stdout.write(document_bytes(doc).decode("utf-8"))


def _cmd_compute(args) -> int:
    spec = canonical_spec(args.group)
    metric = parse_metric_label(args.metric)
    if args.budget < 0:  # refused as the search refuses it, cache or not
        raise ParameterError(f"the search budget must be >= 0, got {args.budget}")
    if not args.no_cache:
        doc = cache_get(spec, metric)
        if doc is not None:
            doc["cached"] = True
            _emit(doc, args.out)
            return EXIT_OK
    g = build_group(spec)
    status = EXIT_OK
    if args.bounds_only:
        cert = bounds_certificate(g, metric)
    else:
        try:
            cert = worst_case_value(g, metric, budget=args.budget)
        except CapacityError as exc:
            _stderr_line(f"warning: {exc}; reporting bounds only")
            cert = bounds_certificate(g, metric)
            status = EXIT_CAPACITY
        else:
            if not cert.exact:
                status = EXIT_CAPACITY
    doc = compute_document(spec, cert)
    if status == EXIT_OK and not args.bounds_only and not args.no_cache:
        cache_put(spec, metric, doc)
    _emit(doc, args.out)
    return status


def _cmd_table(args) -> int:
    groups = catalog_up_to(args.max_order)
    rows = []
    status = EXIT_OK
    for g in groups:
        # one certificate per metric, in METRICS order: endo, then affine
        certs = [worst_case_value(g, metric, budget=args.budget) for metric in METRICS]
        if not all(cert.exact for cert in certs):
            status = EXIT_CAPACITY
        rows.append(table_row(g.name, g.name, g.order, *certs))
    doc = table_document(args.max_order, rows)
    sys.stdout.write(table_text(doc))
    _emit(doc, args.out, stdout=False)
    return status


def _load_sigma(arg: str, p: int):
    if arg == "singer":
        return singer_sigma(p)
    entries = _int_list(f"sigma file {_shown(arg)}", _read_text(arg), 16, sep=None)
    rows = tuple(
        tuple(v % p for v in entries[i * 4:(i + 1) * 4]) for i in range(4)
    )
    # built without the fixed-point-free gate on purpose: a degenerate
    # sigma should surface as scan violations (exit 4), not a usage error
    return SigmaMap(p, rows)


def _cmd_verify_jk(args) -> int:
    given = {"--sigma": args.sigma, "--mode": args.mode,
             "--samples": args.samples, "--seed": args.seed}
    mode = args.mode or "full"
    for option, value in given.items():
        if value is None:
            continue
        if args.check == "endo":
            raise ParameterError(f"{option} is not read by --check endo")
        if mode == "full" and option in ("--samples", "--seed"):
            raise ParameterError(f"{option} is read only by --mode sampled")
    lam1, lam2 = _int_list("--lambda", args.lam, 2)
    g = jk_group(args.p, lam1, lam2, allow_large=args.allow_large)
    if args.check == "endo":
        report = verify_enapp_zero(g)
    else:
        sigma = _load_sigma("singer" if args.sigma is None else args.sigma, g.p)
        samples = DEFAULT_SAMPLES if args.samples is None else args.samples
        report = verify_affapp_one(
            g, sigma, mode=mode, samples=samples, seed=args.seed or 0
        )
    doc = verify_document(report)
    _emit(doc, args.out)
    return EXIT_OK if report.passed else EXIT_VIOLATION


def _parse_fval(arg: str, m1: int) -> float:
    if arg == "log2":
        if m1 < 1:
            raise ParameterError(f"--f log2 needs m1 >= 1, got {m1}")
        return math.log2(m1)
    try:
        return float(arg)
    except ValueError:
        pass
    try:
        (token,) = _read_text(arg).split()  # exactly one number
        return float(token)
    except (FormatError, ValueError):
        raise ParameterError(
            f"--f must be 'log2', a number, or a file containing one; "
            f"got {_shown(arg)}"
        ) from None


def _cmd_bounds(args) -> int:
    fval = _parse_fval(args.f, args.m1)
    report = agreement_bounds(args.m1, args.m2, fval)
    _emit(bounds_document(report), args.out)
    return EXIT_OK


def _cmd_partition_avoid(args) -> int:
    sizes = _int_list("--classes", args.classes)
    if any(s < 1 for s in sizes):
        raise ParameterError("class sizes must be positive")
    if sum(sizes) > MAX_PARTITION_POINTS:
        raise CapacityError(f"--classes: {sum(sizes)} points > {MAX_PARTITION_POINTS}")
    classes = []
    start = 0
    for s in sizes:
        classes.append(list(range(start, start + s)))
        start += s
    perm = build_avoiding_permutation(classes)
    _emit(partition_document(classes, perm), args.out)
    return EXIT_OK


def _cmd_witness(args) -> int:
    name = args.name
    head, colon, rest = name.partition(":")
    builders = {  # name -> (builder, number of integers after the colon, metric)
        "cyclic-enapp": (cyclic_enapp_witness, 1, "endo"),
        "prime-square": (prime_square_witness, 1, "affine"),
        "rem-quot": (rem_quot_witness, 2, "affine"),
    }
    if colon and head in builders:
        builder, count, metric = builders[head]
        fn = builder(*_int_list(head, rest, count))
    elif name in ("z6-swap", "klein", "sym3"):
        fn = small_group_witnesses()[name]
        # the klein table dodges endomorphisms; the other two dodge affine maps
        metric = "endo" if name == "klein" else "affine"
    else:
        raise ParameterError(f"unknown witness name {_shown(name)}")
    agreement, _ = approximability(fn, metric)
    doc = witness_document(name, fn.group.name, fn, metric, agreement)
    _emit(doc, args.out)
    return EXIT_OK


_COMMANDS = {
    "compute": _cmd_compute,
    "table": _cmd_table,
    "verify-jk": _cmd_verify_jk,
    "bounds": _cmd_bounds,
    "partition-avoid": _cmd_partition_avoid,
    "witness": _cmd_witness,
}


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        # argparse drops an attached value '--' (as in --f=--), leaving []
        if any(isinstance(value, list) for value in vars(args).values()):
            raise ParameterError("an option's value may not be '--'")
        return _COMMANDS[args.command](args)
    except SystemExit as exc:  # --help
        return int(exc.code or 0)
    except (ParameterError, FormatError, GroupAxiomError, ScopeError,
            CapacityError) as exc:
        _stderr_line(f"error: {exc}")
        return EXIT_CAPACITY if isinstance(exc, CapacityError) else EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
