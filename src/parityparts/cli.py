"""Command line front end.

Every subcommand prints plain text or CSV to stdout and reserves stderr
for errors.  Exit status: 0 on success (and on verify runs with no
failures), 1 on domain errors or verify failures, 2 on usage errors.

A malformed token, such as an unknown family or a number that is not an
integer, is a usage error.  Every out-of-range value is the library's
refusal: a ``ValueError`` raised before any output, printed as one
``error:`` line.  The CLI adds only the range-wide refusals that the
library cannot make before its per-weight loop: ``check_enumerable(hi,
cutoff)`` with the ``--cutoff`` of exhaustive mode, ``check_samplable(hi)``,
and the ``MAX_SAMPLED_WEIGHTS`` and ``MAX_DRAWS`` bounds on a sampled
range.  It also refuses a ``--cutoff`` given to any other mode.  All of
these are made before any weight is verified.
"""

from __future__ import annotations

import argparse
import random
import sys

from .casemap import backward, classify_image, classify_source, forward, witness
from .core import format_partition, parse_partition, render_ferrers
from .families import (
    ENUMERATION_CUTOFF,
    MAX_DRAWS,
    MAX_SAMPLED_WEIGHTS,
    Family,
    FamilySampler,
    check_draws,
    check_enumerable,
    check_range,
    check_samplable,
    count_family,
    counts_csv,
    enumerate_family,
)
from .series import diff_series, series_p_eu_od, series_p_od_eu
from .verify import (
    INEQUALITY_METHODS,
    verify_exhaustive,
    verify_inequality,
    verify_sampled,
    verify_witnesses,
)

__all__ = ["build_parser", "run", "main"]


def _family(token: str) -> Family:
    try:
        return Family.from_token(token)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _families(text: str) -> list[Family]:
    if text == "all":
        return list(Family)
    return [_family(token.strip()) for token in text.split(",")]


_SIDES = {"source": classify_source, "image": classify_image}
_SERIES = {"eu_od": series_p_eu_od, "od_eu": series_p_od_eu, "diff": diff_series}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="parityparts",
        description="Count, enumerate, sample, map, and verify partitions"
        " whose even and odd parts occupy separate blocks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    count = sub.add_parser("count", help="count family members of one weight")
    count.add_argument("--family", type=_family, required=True)
    count.add_argument("--n", type=int, required=True)

    table = sub.add_parser("table", help="CSV of family counts over a weight range")
    table.add_argument("--from", dest="lo", type=int, required=True)
    table.add_argument("--to", dest="hi", type=int, required=True)
    table.add_argument(
        "--families",
        type=_families,
        default="all",
        help="comma separated family tokens, or 'all' (default)",
    )

    enum = sub.add_parser("enumerate", help="list every member of one weight")
    enum.add_argument("--family", type=_family, required=True)
    enum.add_argument("--n", type=int, required=True)

    sample = sub.add_parser("sample", help="draw members uniformly at random")
    sample.add_argument("--family", type=_family, required=True)
    sample.add_argument("--n", type=int, required=True)
    sample.add_argument("--count", type=int, default=1)
    sample.add_argument("--seed", type=int, default=0)

    mapper = sub.add_parser("map", help="apply the case map, or invert it")
    mapper.add_argument("--input", required=True, help="partition, e.g. '8,8,8,7,5,3'")
    mapper.add_argument("--inverse", action="store_true")
    mapper.add_argument("--ferrers", action="store_true", help="append Ferrers diagrams")

    classify = sub.add_parser("classify", help="report which case a partition falls in")
    classify.add_argument("--input", required=True)
    classify.add_argument(
        "--side",
        choices=list(_SIDES),
        default="source",
        help="classify as a map source (default) or against image signatures",
    )

    series = sub.add_parser("series", help="print counting series coefficients as CSV")
    series.add_argument("--target", choices=list(_SERIES), required=True)
    series.add_argument("--order", type=int, default=1000)

    wit = sub.add_parser("witness", help="print the unmatched image member at one weight")
    wit.add_argument("--n", type=int, required=True)

    verify = sub.add_parser("verify", help="run one of the verification drivers")
    verify.add_argument(
        "--mode",
        choices=["exhaustive", "sampled", "inequality", "witnesses"],
        required=True,
    )
    verify.add_argument("--from", dest="lo", type=int, required=True)
    verify.add_argument("--to", dest="hi", type=int, required=True)
    verify.add_argument("--samples", type=int, default=1000)
    verify.add_argument("--seed", type=int, default=0)
    verify.add_argument("--method", choices=list(INEQUALITY_METHODS), default="both")
    verify.add_argument(
        "--cutoff",
        type=int,
        help=f"exhaustive mode only: the enumeration cutoff (default {ENUMERATION_CUTOFF})",
    )
    verify.add_argument("--format", choices=["text", "json"], default="text")
    return parser


def _cmd_count(args) -> int:
    print(count_family(args.family, args.n))
    return 0


def _cmd_table(args) -> int:
    print(counts_csv(args.lo, args.hi, args.families))
    return 0


def _cmd_enumerate(args) -> int:
    for member in enumerate_family(args.family, args.n):
        print(format_partition(member))
    return 0


def _cmd_sample(args) -> int:
    check_draws(args.count)
    sampler = FamilySampler(args.family, args.n)
    rng = random.Random(args.seed)
    for _ in range(args.count):
        print(format_partition(sampler.sample(rng)))
    return 0


def _cmd_map(args) -> int:
    p = parse_partition(args.input)
    # the map keeps the weight, so drawing the input checks both diagrams
    # against the glyph bound before anything is mapped or printed
    drawing = render_ferrers(p) if args.ferrers else None
    if args.inverse:
        other = backward(p)
        case = classify_image(p)
        line = f"case={case} source={format_partition(other)}"
    else:
        case = classify_source(p)
        other = forward(p)
        line = f"case={case} image={format_partition(other)}"
    print(line)
    if drawing is not None:
        print(drawing)
        print("->")
        print(render_ferrers(other))
    return 0


def _cmd_classify(args) -> int:
    case = _SIDES[args.side](parse_partition(args.input))
    print(f"case={case if case is not None else 'none'}")
    return 0


def _cmd_series(args) -> int:
    coeffs = _SERIES[args.target](args.order)
    print("k,coefficient")
    for k in range(args.order + 1):
        print(f"{k},{coeffs[k]}")
    return 0


def _cmd_witness(args) -> int:
    print(format_partition(witness(args.n)))
    return 0


def _cmd_verify(args) -> int:
    check_range(args.lo, args.hi)
    if args.cutoff is not None and args.mode != "exhaustive":
        raise ValueError(f"--cutoff applies to exhaustive mode only, not {args.mode}")
    # refuse a range ending above a cutoff before verifying the weights below it
    if args.mode == "exhaustive":
        cutoff = ENUMERATION_CUTOFF if args.cutoff is None else args.cutoff
        check_enumerable(args.hi, cutoff)
        reports = [verify_exhaustive(n, cutoff=cutoff) for n in range(args.lo, args.hi + 1)]
    elif args.mode == "sampled":
        check_samplable(args.hi)
        weights = args.hi - args.lo + 1
        if weights > MAX_SAMPLED_WEIGHTS:
            raise ValueError(f"{weights} sampled weights exceed the cutoff {MAX_SAMPLED_WEIGHTS}")
        if weights * args.samples > MAX_DRAWS:
            raise ValueError(f"{weights * args.samples} draws in all exceed the cutoff {MAX_DRAWS}")
        reports = [
            verify_sampled(n, args.samples, args.seed) for n in range(args.lo, args.hi + 1)
        ]
    elif args.mode == "inequality":
        reports = [verify_inequality(args.lo, args.hi, args.method)]
    else:
        reports = [verify_witnesses(args.lo, args.hi)]
    if args.format == "json":
        # each report's chunks go out as they come, so no report's whole
        # JSON text is ever held at once
        out = sys.stdout
        out.write("[")
        for index, report in enumerate(reports):
            if index:
                out.write(",\n")
            out.writelines(report.json_chunks())
        out.write("]\n")
    else:
        for report in reports:
            for line in report.text_lines():
                print(line)
    return 0 if all(report.ok for report in reports) else 1


_COMMANDS = {
    "count": _cmd_count,
    "table": _cmd_table,
    "enumerate": _cmd_enumerate,
    "sample": _cmd_sample,
    "map": _cmd_map,
    "classify": _cmd_classify,
    "series": _cmd_series,
    "witness": _cmd_witness,
    "verify": _cmd_verify,
}


def run(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 0 for --help, 2 for usage errors; keep either
        return int(exc.code or 0)
    try:
        return _COMMANDS[args.command](args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
