"""Verification drivers with replayable reports.

Four modes: exhaustive structural checks over a whole weight, the same
checks over uniform samples at weights too large to enumerate, count
inequality scans between the two mapped families, and witness scans that
confirm non-surjectivity.  Every reported failure carries the partition
in canonical text form plus the check name, so it can be replayed by
hand through the library.

The per-member checks run on a member's even and odd blocks: exhaustive
mode walks the source family as blocks (``families.member_blocks``) and
the image family first by segments of blocks
(``families.member_segments``), and sampled draws arrive as blocks
(``FamilySampler.sample_blocks``).  Rewrite
outputs and witnesses are split once by ``core.parity_split``, except the
source side's backward rewrite: it is sorted and compared with the
source's parts, and split only when it fails, to show it.  A
``Partition`` and its text form are built only when a failure is filed.

``_check_source_member`` classifies a source member and keeps its tally,
then files the first failed check that ``_source_fault`` returns.  The
image side keeps nothing per member: ``verify_exhaustive`` classifies and
counts each image member, and runs ``_image_fault`` on the members of a
case only when that case's count does not prove them (see there).
Each driver that classifies makes one ``casemap.Classifier`` per call and
shares it with every check it runs, the witness check included.
"""

from __future__ import annotations

import json
import random
from collections import Counter, namedtuple
from collections.abc import Iterable, Iterator

from .casemap import (
    CASES,
    IMAGE_FAMILY,
    SOURCE_FAMILY,
    WITNESS_CUTOFF,
    WITNESS_MIN_WEIGHT,
    Classifier,
    from_parts,
    witness,
)
from .core import Block, format_partition, parity_split
from .families import (
    ENUMERATION_CUTOFF,
    CountTable,
    FamilySampler,
    blocks_in_family,
    check_draws,
    check_range,
    member_blocks,
    member_segments,
)
from .series import series_p_eu_od, series_p_od_eu

__all__ = [
    "CaseTally",
    "Failure",
    "InequalityRecord",
    "VerificationReport",
    "verify_exhaustive",
    "verify_sampled",
    "verify_inequality",
    "verify_witnesses",
]

INEQUALITY_METHODS = ("series", "dp", "both")

# a member as its even and odd blocks
Blocks = tuple[Block, Block]


class CaseTally:
    """Member checks attempted, passed, and skipped for one case.

    Members below the case's minimum weight are counted as skipped; they
    are never silently passed.
    """

    __slots__ = ("tested", "passed", "skipped")

    def __init__(self, tested: int = 0, passed: int = 0, skipped: int = 0) -> None:
        self.tested = tested
        self.passed = passed
        self.skipped = skipped


Failure = namedtuple("Failure", "n partition check detail")
InequalityRecord = namedtuple("InequalityRecord", "n count_eu_od count_od_eu strict")


class VerificationReport:
    """Outcome of one verification run.

    ``per_case`` tallies source members by their case; in exhaustive
    mode a case's ``passed`` tally, set against its image-signature
    matches, decides whether those matches get the image-side checks.
    ``case_counts`` (exhaustive mode) maps each case to the pair (source
    members, image-signature matches) at this weight.  ``inequalities``
    (inequality mode) records the two counts per weight.  ``ok`` is true
    exactly when no check failed.
    """

    __slots__ = ("mode", "n_lo", "n_hi", "per_case", "failures", "case_counts", "inequalities")

    def __init__(self, mode: str, n_lo: int, n_hi: int) -> None:
        self.mode, self.n_lo, self.n_hi = mode, n_lo, n_hi
        self.per_case: dict[int, CaseTally] = {}
        self.failures: list[Failure] = []
        self.case_counts: dict[int, tuple[int, int]] | None = None
        self.inequalities: list[InequalityRecord] | None = None

    @property
    def ok(self) -> bool:
        return not self.failures

    def tally(self, case: int) -> CaseTally:
        tally = self.per_case.get(case)
        if tally is None:
            tally = self.per_case[case] = CaseTally()
        return tally

    def record_failure(self, n: int, partition: str, check: str, detail: str) -> None:
        self.failures.append(Failure(n=n, partition=partition, check=check, detail=detail))

    def finish(self) -> "VerificationReport":
        """Sort the failures and tallies so equal runs serialize identically;
        ``case_counts`` is built in case order."""
        self.failures.sort(key=lambda f: (f.n, f.check, f.partition, f.detail))
        self.per_case = dict(sorted(self.per_case.items()))
        return self

    def _head(self) -> dict:
        return {"mode": self.mode, "n_lo": self.n_lo, "n_hi": self.n_hi, "ok": self.ok}

    def to_dict(self) -> dict:
        """The report's fields as plain data, in slot order with ``ok``
        after ``n_hi``: the JSON of ``to_json`` states no key of its own."""
        return self._head() | _plain(self)

    def json_chunks(self) -> Iterator[str]:
        """The text of ``json.dumps(self.to_dict(), indent=2)`` in chunks:
        one per record, written straight from the record's fields, and
        one for each run of text between the records.

        With an indent the stdlib encodes in pure Python, through a dict
        per record and a list of every piece of the text; an inequality
        scan over 50..3000 peaked 3.1 MiB higher in ``to_json`` than in
        the scan itself.  Here a record costs one string, and the CLI
        writes each as it comes.
        """
        head = "".join(f'  "{key}": {_scalar(value)},\n' for key, value in self._head().items())
        tallies = ((case, (t.tested, t.passed, t.skipped)) for case, t in self.per_case.items())
        yield "{\n" + head + '  "per_case": '
        yield from _block("{}", (f'"{case}": {_fill(_TALLY, counts)}' for case, counts in tallies))
        yield ',\n  "failures": '
        yield from _block("[]", (_fill(_FAILURE, failure) for failure in self.failures))
        yield ',\n  "case_counts": '
        if self.case_counts is None:
            yield "null"
        else:
            yield from _block(
                "{}", (f'"{case}": {_fill(_PAIR, pair)}' for case, pair in self.case_counts.items())
            )
        yield ',\n  "inequalities": '
        if self.inequalities is None:
            yield "null"
        else:
            yield from _block("[]", (_fill(_INEQUALITY, record) for record in self.inequalities))
        yield "\n}"

    def to_json(self) -> str:
        return "".join(self.json_chunks())

    def text_lines(self) -> list[str]:
        lines = [f"mode={self.mode} range={self.n_lo}..{self.n_hi} ok={'yes' if self.ok else 'NO'}"]
        for case, tally in self.per_case.items():
            lines.append(
                f"  case {case}: tested={tally.tested} passed={tally.passed} skipped={tally.skipped}"
            )
        if self.case_counts:
            pairs = " ".join(
                f"{case}:{source}/{image}" for case, (source, image) in self.case_counts.items()
            )
            lines.append(f"  source/image counts per case: {pairs}")
        if self.inequalities is not None:
            strict = sum(1 for record in self.inequalities if record.strict)
            lines.append(f"  strict at {strict} of {len(self.inequalities)} weights")
        for failure in self.failures:
            lines.append(
                f"  FAIL n={failure.n} check={failure.check}"
                f" partition={failure.partition or '-'} {failure.detail}"
            )
        return lines


def _plain(value):
    """Report data as JSON-ready data: a slotted record becomes the dict of
    its slots, and a list of namedtuples a list of their ``_asdict()``."""
    if isinstance(value, list):
        return [record._asdict() for record in value]
    if isinstance(value, dict):
        return {key: _plain(item) for key, item in value.items()}
    if hasattr(value, "__slots__"):
        return {name: _plain(getattr(value, name)) for name in value.__slots__}
    return value


# The JSON text of a report, as ``json.dumps(report.to_dict(), indent=2)``
# lays it out: the report is an object at depth 0, each of its lists and
# dicts a block at depth 1, and each record in them a block at depth 2.


def _block(brackets: str, members: Iterable[str], depth: int = 1) -> Iterator[str]:
    """The JSON array or object with these member texts at this depth, one
    chunk per member; with no members it is the bare brackets."""
    inner = "\n" + "  " * (depth + 1)
    lead, tail = brackets[0] + inner, brackets
    for text in members:
        yield lead + text
        lead, tail = "," + inner, "\n" + "  " * depth + brackets[1]
    yield tail


def _template(names: Iterable[str]) -> str:
    """A ``%`` template of a record's block at depth 2, with a ``%s`` for
    the JSON text of each named value."""
    return "".join(_block("{}", (f'"{name}": %s' for name in names), 2))


_TALLY = _template(CaseTally.__slots__)
_FAILURE = _template(Failure._fields)
_INEQUALITY = _template(InequalityRecord._fields)
_PAIR = "".join(_block("[]", ("%s", "%s"), 2))


def _scalar(value) -> str:
    """The JSON text of a report's int, bool, str or None, as ``json``
    writes it."""
    if isinstance(value, str):
        return json.dumps(value)
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)


def _fill(template: str, values: Iterable) -> str:
    return template % tuple(map(_scalar, values))


def _shown(blocks: Blocks) -> str:
    """The text form of the partition with these even and odd blocks."""
    evens, odds = blocks
    return format_partition(from_parts(evens + odds))


def _check_source_member(
    source: Blocks, n: int, report: VerificationReport, classifier: Classifier
) -> None:
    """Classify one source member, given as its even and odd blocks, keep
    its case's tally and file its first fault; shared by both modes."""
    matches = classifier.source(*source)
    if len(matches) != 1:
        report.record_failure(
            n,
            _shown(source),
            "classify",
            f"source conditions matched {list(matches) or 'nothing'}, expected exactly one",
        )
        return
    case = matches[0]
    tally = report.tally(case)
    tally.tested += 1
    if n < CASES[case].min_weight:
        tally.skipped += 1
        return
    fault = _source_fault(source, case, n, classifier)
    if fault is None:
        tally.passed += 1
        return
    check, detail = fault
    report.record_failure(n, _shown(source), check, f"case {case}: {detail}")


def _source_fault(
    source: Blocks, case: int, n: int, classifier: Classifier
) -> tuple[str, str] | None:
    """The first check that a source member of this case fails, as
    (check, detail), or None when it passes them all."""
    row = CASES[case]
    ev, od = source
    try:
        image = parity_split(row.forward(ev, od))
    except ValueError as exc:
        return "forward", str(exc)
    e, o = image
    weight = sum(e) + sum(o)
    if weight != n:
        return "weight", f"image {_shown(image)} weighs {weight}"
    if not blocks_in_family(e, o, IMAGE_FAMILY):
        return "membership", f"image {_shown(image)} is outside {IMAGE_FAMILY.value}"
    image_matches = classifier.image(e, o)
    if image_matches != (case,):
        matched = list(image_matches) or "nothing"
        return "image-signature", f"image {_shown(image)} matched {matched}"
    # the source's evens lie above its odds, so [*ev, *od] is its parts in
    # decreasing order; only a mismatch is split, for the detail
    try:
        recovered = row.backward(e, o)
        if sorted(recovered, reverse=True) != [*ev, *od]:
            recovered = parity_split(recovered)
            return "roundtrip", f"image {_shown(image)} inverted to {_shown(recovered)}"
    except ValueError as exc:
        return "roundtrip", f"image {_shown(image)} inverts to no partition: {exc}"
    return None


def _image_fault(
    member: Blocks, case: int, classifier: Classifier
) -> tuple[str, str] | None:
    """The first check that an image member matching this case's signature
    fails, inverse or inverse roundtrip, as (check, detail), or None."""
    row = CASES[case]
    e, o = member
    try:
        recovered = parity_split(row.backward(e, o))
    except ValueError as exc:
        return "inverse", str(exc)
    ev, od = recovered
    try:
        if (
            blocks_in_family(ev, od, SOURCE_FAMILY)
            and classifier.source(ev, od) == (case,)
            and parity_split(row.forward(ev, od)) == member
        ):
            return None
        error = ""
    except ValueError as exc:
        error = f", which maps to no partition: {exc}"
    return "inverse-roundtrip", f"inverted to {_shown(recovered)}{error}"


def _check_witness(n: int, report: VerificationReport, classifier: Classifier) -> None:
    unmatched = witness(n)
    e, o = parity_split(unmatched)
    if unmatched.weight != n:
        fault = "witness-weight", f"weighs {unmatched.weight}"
    elif not blocks_in_family(e, o, IMAGE_FAMILY):
        fault = "witness-membership", f"outside {IMAGE_FAMILY.value}"
    elif matches := classifier.image(e, o):
        fault = "witness-unmatched", f"matched signatures {list(matches)}"
    else:
        return
    report.record_failure(n, format_partition(unmatched), *fault)


def verify_exhaustive(n: int, *, cutoff: int = ENUMERATION_CUTOFF) -> VerificationReport:
    """Check every structural claim over both full families at weight n.

    Source side: unique classification and, at or above each case's
    minimum weight, weight preservation, image membership, image
    signature agreement and inverse roundtrip.  Image side: at most one
    signature per member, signature-matched members invert into the
    matching source case and map back to themselves, and per-case member
    counts agree on both sides wherever the map is defined.  Each walk
    classifies each member once.

    The image side first only classifies and counts; the per-member image
    checks run where counting leaves them open.  A passing source of case
    c lands on a member with signature c, from which ``backward``
    recovers the source, so distinct passing sources have distinct
    images: two passing sources with one image would both equal its
    sorted backward rewrite, which is why no distinctness check exists.
    When case c's passed tally equals its count of signature-c members,
    those images are all the signature-c members, and each passes every
    image check: ``backward`` gives its source, a case-c member of the
    source family whose ``forward`` is that image.  Otherwise a second
    walk runs ``_image_fault`` on every signature-c member; images of
    passing sources pass it, so it files exactly the faults of the other
    members.  The argument needs each walk to yield each member exactly
    once.

    The first image walk reads the family by segments
    (``families.member_segments``): one odd block with a list of even
    blocks, handed whole to ``casemap.Classifier.count_images``, which
    counts the members with one signature and returns the overlaps, each
    filed as ``signature-overlap``.  Over 55..60 that is 7 582 segments
    for the 42 447 image members.

    The walks and both per-member checks share one ``Classifier``, made
    on each call and freed when it returns, so it holds one weight's keys
    at a time and a row of ``CASES`` changed between calls shows in the
    next.
    """
    report = VerificationReport(mode="exhaustive", n_lo=n, n_hi=n)
    classifier = Classifier()
    for member in member_blocks(SOURCE_FAMILY, n, cutoff=cutoff):
        _check_source_member(member, n, report, classifier)
    image_counts: Counter[int] = Counter()
    # the image family's upper block is its odd one, so a segment is one
    # odd block with a list of even blocks
    for odds, evens in member_segments(IMAGE_FAMILY, n, cutoff=cutoff):
        for member_evens, matches in classifier.count_images(evens, odds, image_counts):
            report.record_failure(
                n,
                _shown((member_evens, odds)),
                "signature-overlap",
                f"signatures {list(matches)} all matched",
            )
    # one verdict per case met on either side; per_case is read directly,
    # as report.tally would add empty tallies to it
    report.case_counts = {}
    unproven = set()
    for case in sorted(set(report.per_case) | set(image_counts)):
        tally = report.per_case.get(case, CaseTally())
        image_total = image_counts[case]
        report.case_counts[case] = (tally.tested, image_total)
        if n < CASES[case].min_weight:
            continue
        if tally.passed != image_total:
            unproven.add(case)
        if tally.tested != image_total:
            report.record_failure(
                n,
                f"case {case}",
                "count-equality",
                f"{tally.tested} source members but {image_total} signature matches",
            )
    if unproven:
        for member in member_blocks(IMAGE_FAMILY, n, cutoff=cutoff):
            matches = classifier.image(*member)
            if len(matches) == 1 and matches[0] in unproven:
                fault = _image_fault(member, matches[0], classifier)
                if fault is not None:
                    check, detail = fault
                    report.record_failure(
                        n, _shown(member), check, f"case {matches[0]}: {detail}"
                    )
    return report.finish()


def verify_sampled(n: int, samples: int, seed: int) -> VerificationReport:
    """Run the per-member checks on uniform draws from the source family.

    Deterministic for a fixed (n, samples, seed).  At weights from
    ``WITNESS_MIN_WEIGHT`` up the witness at n is checked as well.  More
    than ``families.MAX_DRAWS`` samples are refused with ValueError.
    """
    check_draws(samples)
    report = VerificationReport(mode="sampled", n_lo=n, n_hi=n)
    sampler = FamilySampler(SOURCE_FAMILY, n)
    rng = random.Random(seed)
    classifier = Classifier()
    for _ in range(samples):
        _check_source_member(sampler.sample_blocks(rng), n, report, classifier)
    if n >= WITNESS_MIN_WEIGHT:
        _check_witness(n, report, classifier)
    return report.finish()


def verify_inequality(lo: int, hi: int, method: str = "both") -> VerificationReport:
    """Record both family counts per weight and fail wherever the image
    family is not strictly larger.

    ``method`` selects the counting route: "series", "dp", or "both",
    where "both" also fails on any disagreement between the two routes.
    """
    if method not in INEQUALITY_METHODS:
        raise ValueError(f"method must be one of {INEQUALITY_METHODS}, got {method!r}")
    check_range(lo, hi)
    report = VerificationReport(mode="inequality", n_lo=lo, n_hi=hi)
    report.inequalities = []
    # each route as its image and source counts over lo..hi, series first;
    # the loop pairs them per weight as it goes
    routes = []
    if method in ("series", "both"):
        routes.append((series_p_eu_od(hi).coeffs[lo:], series_p_od_eu(hi).coeffs[lo:]))
    if method in ("dp", "both"):
        image_table = CountTable.build(IMAGE_FAMILY, hi)
        source_table = CountTable.build(SOURCE_FAMILY, hi)
        routes.append((image_table.counts[lo:], source_table.counts[lo:]))
    for n, counts, other in zip(range(lo, hi + 1), zip(*routes[0]), zip(*routes[-1])):
        if counts != other:
            report.record_failure(
                n, "-", "count-mismatch", f"series gives {counts}, dynamic program gives {other}"
            )
        image_count, source_count = counts
        strict = image_count > source_count
        report.inequalities.append(InequalityRecord(n, image_count, source_count, strict))
        if not strict:
            report.record_failure(
                n,
                "-",
                "inequality",
                f"count_eu_od={image_count} is not above count_od_eu={source_count}",
            )
    return report.finish()


def verify_witnesses(lo: int, hi: int) -> VerificationReport:
    """Check the witness at every weight in lo..hi; lo must be at least 373
    and hi at most ``casemap.WITNESS_CUTOFF``."""
    check_range(lo, hi)
    if hi > WITNESS_CUTOFF:
        raise ValueError(f"witness scan to n={hi} exceeds the cutoff {WITNESS_CUTOFF}")
    report = VerificationReport(mode="witnesses", n_lo=lo, n_hi=hi)
    classifier = Classifier()
    for n in range(lo, hi + 1):
        _check_witness(n, report, classifier)
    return report.finish()
