"""Verification drivers with replayable reports.

Four modes: exhaustive structural checks over a whole weight, the same
checks over uniform samples at weights too large to enumerate, count
inequality scans between the two mapped families, and witness scans that
confirm non-surjectivity.  Every reported failure carries the partition
in canonical text form plus the check name, so it can be replayed by
hand through the library.

The per-member checks run on a member's even and odd blocks: exhaustive
mode walks both families as blocks (``families.member_blocks``), and
sampled draws arrive as blocks (``FamilySampler.sample_blocks``).  Rewrite
outputs and witnesses are split once by ``core.parity_split``, except the
source side's backward rewrite: it is sorted and compared with the
source's parts, and split only when it fails, to show it.  A
``Partition`` and its text form are built only when a failure is filed.

``_check_source_member`` classifies a source member and keeps its tally,
then files the first failed check that ``_source_fault`` returns.  The
image side keeps nothing per member: ``verify_exhaustive`` classifies and
counts each image member, and runs ``_image_fault`` on the members of a
case only when that case's count does not prove them (see there).
The exhaustive and sampled drivers classify through one
``casemap.Classifier`` per call.
"""

from __future__ import annotations

import json
import random
from collections import Counter
from dataclasses import asdict, dataclass, field

from .casemap import (
    CASES,
    IMAGE_FAMILY,
    SOURCE_FAMILY,
    WITNESS_CUTOFF,
    WITNESS_MIN_WEIGHT,
    Classifier,
    from_parts,
    image_cases,
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


@dataclass
class CaseTally:
    """Member checks attempted, passed, and skipped for one case.

    Members below the case's minimum weight are counted as skipped; they
    are never silently passed.
    """

    tested: int = 0
    passed: int = 0
    skipped: int = 0


@dataclass(frozen=True)
class Failure:
    n: int
    partition: str
    check: str
    detail: str


@dataclass(frozen=True)
class InequalityRecord:
    n: int
    count_eu_od: int
    count_od_eu: int

    @property
    def strict(self) -> bool:
        return self.count_eu_od > self.count_od_eu


@dataclass
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

    mode: str
    n_lo: int
    n_hi: int
    per_case: dict[int, CaseTally] = field(default_factory=dict)
    failures: list[Failure] = field(default_factory=list)
    case_counts: dict[int, tuple[int, int]] | None = None
    inequalities: list[InequalityRecord] | None = None

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
        """Sort everything so equal runs serialize identically."""
        self.failures.sort(key=lambda f: (f.n, f.check, f.partition, f.detail))
        self.per_case = dict(sorted(self.per_case.items()))
        if self.case_counts is not None:
            self.case_counts = dict(sorted(self.case_counts.items()))
        return self

    def to_dict(self) -> dict:
        data = {
            "mode": self.mode,
            "n_lo": self.n_lo,
            "n_hi": self.n_hi,
            "ok": self.ok,
            "per_case": {str(case): asdict(tally) for case, tally in self.per_case.items()},
            "failures": [asdict(failure) for failure in self.failures],
            "case_counts": None
            if self.case_counts is None
            else {str(case): list(pair) for case, pair in self.case_counts.items()},
            "inequalities": None
            if self.inequalities is None
            else [
                {
                    "n": record.n,
                    "count_eu_od": record.count_eu_od,
                    "count_od_eu": record.count_od_eu,
                    "strict": record.strict,
                }
                for record in self.inequalities
            ],
        }
        return data

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)

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


def _check_witness(n: int, report: VerificationReport) -> None:
    unmatched = witness(n)
    shown = format_partition(unmatched)
    if unmatched.weight != n:
        report.record_failure(n, shown, "witness-weight", f"weighs {unmatched.weight}")
        return
    e, o = parity_split(unmatched)
    if not blocks_in_family(e, o, IMAGE_FAMILY):
        report.record_failure(n, shown, "witness-membership", f"outside {IMAGE_FAMILY.value}")
        return
    matches = image_cases(e, o)
    if matches:
        report.record_failure(
            n, shown, "witness-unmatched", f"matched signatures {list(matches)}"
        )


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
    members.  The argument needs ``member_blocks`` to yield each member
    exactly once.

    Both walks and both per-member checks share one ``Classifier``, made
    on each call and freed when it returns, so it holds one weight's keys
    at a time and a row of ``CASES`` changed between calls shows in the
    next.
    """
    report = VerificationReport(mode="exhaustive", n_lo=n, n_hi=n)
    classifier = Classifier()
    for member in member_blocks(SOURCE_FAMILY, n, cutoff=cutoff):
        _check_source_member(member, n, report, classifier)
    image_counts: Counter[int] = Counter()
    for member in member_blocks(IMAGE_FAMILY, n, cutoff=cutoff):
        matches = classifier.image(*member)
        if len(matches) > 1:
            report.record_failure(
                n, _shown(member), "signature-overlap", f"signatures {list(matches)} all matched"
            )
        elif matches:
            image_counts[matches[0]] += 1
    # per_case is read directly: report.tally would add empty tallies to it
    unproven = {
        case
        for case in CASES
        if n >= CASES[case].min_weight
        and report.per_case.get(case, CaseTally()).passed != image_counts[case]
    }
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
    # every source member with exactly one case is tallied as tested
    source_counts = {case: tally.tested for case, tally in report.per_case.items()}
    report.case_counts = {
        case: (source_counts.get(case, 0), image_counts.get(case, 0))
        for case in sorted(set(source_counts) | set(image_counts))
    }
    for case, (source_total, image_total) in report.case_counts.items():
        if n >= CASES[case].min_weight and source_total != image_total:
            report.record_failure(
                n,
                f"case {case}",
                "count-equality",
                f"{source_total} source members but {image_total} signature matches",
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
        _check_witness(n, report)
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
    series_counts = None
    if method in ("series", "both"):
        upper = series_p_eu_od(hi)
        lower = series_p_od_eu(hi)
        series_counts = [(upper[n], lower[n]) for n in range(lo, hi + 1)]
    dp_counts = None
    if method in ("dp", "both"):
        image_table = CountTable.build(IMAGE_FAMILY, hi)
        source_table = CountTable.build(SOURCE_FAMILY, hi)
        dp_counts = [(image_table[n], source_table[n]) for n in range(lo, hi + 1)]
    if series_counts is not None and dp_counts is not None:
        for offset, (from_series, from_dp) in enumerate(zip(series_counts, dp_counts)):
            if from_series != from_dp:
                report.record_failure(
                    lo + offset,
                    "-",
                    "count-mismatch",
                    f"series gives {from_series}, dynamic program gives {from_dp}",
                )
    chosen = series_counts if series_counts is not None else dp_counts
    for offset, (image_count, source_count) in enumerate(chosen):
        record = InequalityRecord(
            n=lo + offset, count_eu_od=image_count, count_od_eu=source_count
        )
        report.inequalities.append(record)
        if not record.strict:
            report.record_failure(
                record.n,
                "-",
                "inequality",
                f"count_eu_od={image_count} is not above count_od_eu={source_count}",
            )
    return report.finish()


def verify_witnesses(lo: int, hi: int) -> VerificationReport:
    """Check the witness at every weight in lo..hi; lo must be at least 373
    and hi at most ``casemap.WITNESS_CUTOFF``."""
    if lo < WITNESS_MIN_WEIGHT:
        raise ValueError(f"witness range starts at {WITNESS_MIN_WEIGHT}, got {lo}")
    check_range(lo, hi)
    if hi > WITNESS_CUTOFF:
        raise ValueError(f"witness scan to n={hi} exceeds the cutoff {WITNESS_CUTOFF}")
    report = VerificationReport(mode="witnesses", n_lo=lo, n_hi=hi)
    for n in range(lo, hi + 1):
        _check_witness(n, report)
    return report.finish()
