"""Tests for the verification drivers."""

import hashlib
import json
from collections import Counter
from pathlib import Path

import pytest

import parityparts.verify as verify_module
from parityparts import casemap
from parityparts.casemap import CASES, IMAGE_FAMILY, SOURCE_FAMILY, WITNESS_CUTOFF
from parityparts.cli import run
from parityparts.core import Partition, parse_partition
from parityparts.families import (
    COUNT_CUTOFF,
    MAX_DRAWS,
    CountTable,
    member_blocks,
    member_segments,
)
from parityparts.series import Series
from parityparts.verify import (
    CaseTally,
    VerificationReport,
    verify_exhaustive,
    verify_inequality,
    verify_sampled,
    verify_witnesses,
)

from fresh_python import PRINT_PEAK, run_fresh

PINNED_BENCHMARK = Path(__file__).resolve().parents[1] / "perfbench" / "pinned.json"


class TestExhaustive:
    def test_weight_zero_has_only_the_empty_partition(self):
        report = verify_exhaustive(0)
        assert report.ok
        assert set(report.per_case) == {1}
        # the empty partition sits below the fixed-point case's minimum of 1
        assert report.per_case[1].tested == 1
        assert report.per_case[1].skipped == 1
        assert report.case_counts == {1: (1, 1)}

    @pytest.mark.parametrize("n,populated_case", [(26, 3), (39, 2)])
    def test_clean_at_mid_weights(self, n, populated_case):
        # weight 26 contains the case 3 member (6,6,6,4,3,1); weight 39
        # contains the case 2 member (8,8,8,7,5,3)
        report = verify_exhaustive(n)
        assert report.ok, [f.detail for f in report.failures]
        assert report.per_case[populated_case].tested >= 1
        assert report.per_case[populated_case].passed >= 1
        for case, (source_total, image_total) in report.case_counts.items():
            if n >= CASES[case].min_weight:
                assert source_total == image_total

    def test_low_weight_members_are_skipped_not_failed(self):
        # at weight 3 the case-2 member (2, 1) is far below that case's minimum
        report = verify_exhaustive(3)
        assert report.ok
        tallies = report.per_case.values()
        assert sum(t.skipped for t in tallies) >= 1
        assert all(t.passed + t.skipped == t.tested for t in tallies)


    @pytest.mark.parametrize(
        "side,checks",
        [("forward", {"forward", "inverse-roundtrip"}), ("backward", {"roundtrip", "inverse"})],
        ids=["forward", "backward"],
    )
    def test_rewrite_emitting_a_zero_part_is_recorded(self, monkeypatch, capsys, side, checks):
        # weight 5 holds the case 5 source member 4,1 and image member 3,2
        row = casemap.CASES[5]
        rewrite = getattr(row, side)
        broken = row._replace(**{side: lambda even, odd: [*rewrite(even, odd), 0]})
        monkeypatch.setitem(casemap.CASES, 5, broken)
        report = verify_exhaustive(5)
        assert {f.check for f in report.failures} == checks
        assert all(f.partition in ("4,1", "3,2") for f in report.failures)
        code = run(["verify", "--mode", "exhaustive", "--from", "5", "--to", "5", "--format", "json"])
        assert code == 1
        [data] = json.loads(capsys.readouterr().out)
        assert {f["check"] for f in data["failures"]} == checks

    def test_image_outside_the_family_is_recorded(self, monkeypatch):
        # case 1's forward sends each of its 4 members at weight 6 to 1^6,
        # whose repeated odd parts put it outside eu_od; no source passes,
        # so the image side walks again, and each of the 4 signature-1
        # members fails to come back from its source
        row = casemap.CASES[1]
        ones = row._replace(forward=lambda ev, od: [1] * (sum(ev) + sum(od)))
        monkeypatch.setitem(casemap.CASES, 1, ones)
        report = verify_exhaustive(6)
        assert Counter(f.check for f in report.failures) == {
            "membership": 4,
            "inverse-roundtrip": 4,
        }
        assert {f.detail for f in report.failures if f.check == "membership"} == {
            "case 1: image 1,1,1,1,1,1 is outside eu_od"
        }

    def test_image_side_reuse_hides_no_failure(self, monkeypatch):
        # with case 11's image signature narrowed to u >= 3, its sources whose
        # images have two even parts fail image-signature and are not tallied
        # as passed, so case 11's passed tally falls short of its signature
        # count, the image side walks again with the full checks on every
        # signature-11 member, and the case counts disagree
        row = casemap.CASES[11]
        narrowed = row._replace(image=lambda e, o, u, v, f2: u >= 3 and v == 1)
        monkeypatch.setitem(casemap.CASES, 11, narrowed)
        checks = Counter(
            failure.check for n in range(31) for failure in verify_exhaustive(n).failures
        )
        assert checks == {"image-signature": 83, "count-equality": 12}

    @staticmethod
    def _collapse_case_11(monkeypatch):
        # send every case-11 source at weight 21 to the image of the first one
        row = casemap.CASES[11]
        first = next(
            m
            for m in member_blocks(SOURCE_FAMILY, 21)
            if casemap.Classifier().source(*m) == (11,)
        )
        image = row.forward(*first)
        collapsed = row._replace(forward=lambda ev, od: list(image))
        monkeypatch.setitem(casemap.CASES, 11, collapsed)

    def test_non_injective_forward_fails_without_a_distinctness_check(self, monkeypatch):
        # the other 35 sources fail their backward roundtrip, and the other
        # 35 signature-11 members fail theirs on the image side; report
        # frozen from the verifier that kept every verified image in a dict
        self._collapse_case_11(monkeypatch)
        report = verify_exhaustive(21)
        assert Counter(f.check for f in report.failures) == {
            "roundtrip": 35,
            "inverse-roundtrip": 35,
        }
        assert (report.per_case[11].tested, report.per_case[11].passed) == (36, 1)
        digest = hashlib.sha256(report.to_json().encode()).hexdigest()
        assert digest == "0e5b695f237b737b89180399d209ec61d8b241f77f7818bd591887a1f25277c3"

    @pytest.mark.parametrize(
        "n,collapse,walks",
        [(40, False, 1), (21, True, 2), (3, False, 1)],
        ids=["clean", "non-injective", "below-min-weight"],
    )
    def test_image_family_is_walked_again_only_for_unproven_cases(
        self, monkeypatch, n, collapse, walks
    ):
        # weight 3 holds only members below their cases' minimum weights
        if collapse:
            self._collapse_case_11(monkeypatch)
        # the first image walk reads segments (member_segments), the source
        # walk and a second image walk read members (member_blocks)
        counted = Counter()

        def counting(walk):
            def counting_walk(family, weight, **kwargs):
                counted[family] += 1
                return walk(family, weight, **kwargs)

            return counting_walk

        monkeypatch.setattr(verify_module, "member_blocks", counting(member_blocks))
        monkeypatch.setattr(verify_module, "member_segments", counting(member_segments))
        verify_exhaustive(n)
        assert counted == {SOURCE_FAMILY: 1, IMAGE_FAMILY: walks}

    # A widened condition or gate, as a row of CASES and as the same
    # widening of the signature as one function, with the failures per
    # check and the sha256 of the JSON list of verify_exhaustive(n).to_dict()
    # for n in 0..40 (indent 2), frozen from the verifier that ran all 17
    # conditions and signatures on every member.  Case 5's source condition
    # with gap >= 1 overlaps cases 6-9; case 11's gate with u >= 1 overlaps
    # case 5.
    WIDENED = {
        "case-5-source": (
            5,
            {"source": (("a", "==", 1), ("b", ">=", 1), ("gap", ">=", 1))},
            {"classify": 94, "count-equality": 18, "inverse-roundtrip": 32},
            "a17736f3a3e8e9ad7379d4d6d6d1e07bccc374af4ecbd7f5a15daffa0689650a",
        ),
        "case-11-gate": (
            11,
            {"gate": (("u", ">=", 1), ("v", "==", 1))},
            {"count-equality": 18, "image-signature": 90, "signature-overlap": 90},
            "49d3a68fcb5eae536c6fb68d3deb2b877821bf40aa287e70b5d795e5fbe9ae46",
        ),
    }
    # A signature moved across the rest / no-rest line, so that the keys
    # of its gate change between matches fixed per key and a scan of the
    # rests per member, in the same form, frozen from the verifier that
    # scanned the gated rows for every image member.  Case 2 without its
    # rest overlaps case 9; case 11 with a rest leaves members unmatched.
    REST_MOVED = {
        "case-2-no-rest": (
            2,
            {"image": None},
            {"count-equality": 19, "inverse-roundtrip": 67, "image-signature": 5,
             "signature-overlap": 5},
            "d69da8463074f263b593dbecb251bcab2d657dfe08ea299b39fe848a8da0a072",
        ),
        "case-11-rest": (
            11,
            {"image": lambda e, o, u, v, f2: o[0] >= 5},
            {"count-equality": 17, "image-signature": 17},
            "52a3ad95b4e3f5b34544e13a407c1d576d93f596de16c2c3af9e5688a1764a25",
        ),
    }
    MUTATED = WIDENED | REST_MOVED

    @pytest.mark.parametrize("widened", MUTATED)
    def test_shape_memo_hides_no_overlap(self, monkeypatch, widened):
        case, fields, checks, digest = self.MUTATED[widened]
        monkeypatch.setitem(casemap.CASES, case, casemap.CASES[case]._replace(**fields))
        reports = [verify_exhaustive(n).to_dict() for n in range(41)]
        assert Counter(f["check"] for r in reports for f in r["failures"]) == checks
        text = json.dumps(reports, indent=2)
        assert hashlib.sha256(text.encode()).hexdigest() == digest

    @pytest.mark.parametrize("widened", MUTATED)
    def test_no_shape_memo_survives_a_call(self, monkeypatch, widened):
        # a row mutated after a first call at the same weight shows in the
        # next call, and the row restored shows in the one after
        case, fields, _, _ = self.MUTATED[widened]
        assert verify_exhaustive(39).ok
        monkeypatch.setitem(casemap.CASES, case, casemap.CASES[case]._replace(**fields))
        mutated = verify_exhaustive(39)
        monkeypatch.undo()
        assert not mutated.ok
        assert verify_exhaustive(39).ok

    @staticmethod
    def _image_oracle(n):
        """The image side classified member by member, with ``image``: the
        members per case that match only that case's signature, and the
        (partition, detail) of each signature-overlap failure."""
        classifier = casemap.Classifier()
        counts, overlaps = Counter(), []
        for member in member_blocks(IMAGE_FAMILY, n):
            matches = classifier.image(*member)
            if len(matches) > 1:
                shown = verify_module._shown(member)
                overlaps.append((shown, f"signatures {list(matches)} all matched"))
            elif matches:
                counts[matches[0]] += 1
        return counts, sorted(overlaps)

    @pytest.mark.parametrize("widened", [None, "case-11-gate"])
    def test_segment_tally_matches_a_per_member_oracle(self, monkeypatch, widened):
        # the widened gate overlaps case 5, so the overlap path runs too
        if widened is not None:
            case, fields, _, _ = self.WIDENED[widened]
            monkeypatch.setitem(casemap.CASES, case, casemap.CASES[case]._replace(**fields))
        overlapped = 0
        for n in range(71):
            report = verify_exhaustive(n)
            counts, overlaps = self._image_oracle(n)
            assert {case: image for case, (_, image) in report.case_counts.items() if image} == counts
            filed = [
                (failure.partition, failure.detail)
                for failure in report.failures
                if failure.check == "signature-overlap"
            ]
            assert sorted(filed) == overlaps, n
            overlapped += len(overlaps)
        assert (overlapped > 0) == (widened is not None)

    # the member each mutated row gives two matches, or none, the
    # Partition-level functions of that side that refuse it, and the
    # refusal they raise
    REFUSALS = {
        "case-5-source": (
            "2,1",
            (casemap.classify_source, casemap.forward),
            "2,1 matched source cases [5, 9], expected exactly one",
        ),
        "case-11-gate": (
            "3,2",
            (casemap.classify_image, casemap.backward),
            "3,2 matched image signatures [5, 11], expected at most one",
        ),
        "case-2-no-rest": (
            "9,5,3,2,2,2",
            (casemap.classify_image, casemap.backward),
            "9,5,3,2,2,2 matched image signatures [2, 9], expected at most one",
        ),
        "case-11-rest": (
            "3,2,2",
            (casemap.backward,),
            "3,2,2 matches none of the 17 image signatures",
        ),
    }

    @pytest.mark.parametrize("widened", MUTATED)
    def test_widened_row_is_refused_by_classify_and_its_rewrite(self, monkeypatch, widened):
        case, fields, _, _ = self.MUTATED[widened]
        text, functions, message = self.REFUSALS[widened]
        monkeypatch.setitem(casemap.CASES, case, casemap.CASES[case]._replace(**fields))
        for function in functions:
            with pytest.raises(ValueError) as refused:
                function(parse_partition(text))
            assert str(refused.value) == message

    # (failures, sha256) of the JSON list of verify_exhaustive(n).to_dict()
    # for n in 0..29 (indent 2) with case C's backward rewrite mutated,
    # frozen from the verifier that split every rewrite output before
    # comparing it; half of the failures are on each side
    BROKEN_BACKWARD = {
        (2, "wrong"): (110, "b9b285c7dc2ab1ae6ce2deaf7caa669c91ff7f6b0fe10080727e2fb0c5f67d9d"),
        (2, "zero"): (110, "d602076389659e42b3b3c306bdeba4a7ed808368ea49abfd04268004e63b8784"),
        (2, "minus3"): (110, "28ef2d1a4b7d989632c0d2a7e42d28890c8ef4ff99cdea63118b87ceb2464a46"),
        (5, "wrong"): (262, "81b0f6432b59778aca91f8281600f458f828e1834fdd90c77d40a761abcbe89c"),
        (5, "zero"): (262, "d95b58198f9ec06bdc9251ba9891b23f561e5e056e83f4e071ee665ab1342fbd"),
        (5, "minus3"): (262, "6d07bcd3abfbfcf7d80f8dc8da4afb553af9dc52f9d276bde55a0edb4f05a9db"),
        (11, "wrong"): (888, "d6014ac6af16a1718f4d68e8448cc8c71165d173cabc96a20b204129b081c774"),
        (11, "zero"): (888, "ff7aaba7ff9fd2fcc5026d373db8ef3133d3833144ed57e87b21a46de13003b4"),
        (11, "minus3"): (888, "525632a9c0a28f2844e981464f77065a6b6344a3022b4b50e682120408787df1"),
    }

    @pytest.mark.parametrize("case,mutation", BROKEN_BACKWARD)
    def test_broken_backward_rewrite_reports_are_frozen(self, monkeypatch, case, mutation):
        # a wrong part, an extra 0 and an extra -3 in the rewrite's output
        mutate = {
            "wrong": lambda parts: [parts[0] + 2, *parts[1:]],
            "zero": lambda parts: [*parts, 0],
            "minus3": lambda parts: [*parts, -3],
        }[mutation]
        row = casemap.CASES[case]
        broken = row._replace(backward=lambda e, o: mutate(row.backward(e, o)))
        monkeypatch.setitem(casemap.CASES, case, broken)
        reports = [verify_exhaustive(n).to_dict() for n in range(30)]
        failures, digest = self.BROKEN_BACKWARD[case, mutation]
        assert sum(len(report["failures"]) for report in reports) == failures
        text = json.dumps(reports, indent=2)
        assert hashlib.sha256(text.encode()).hexdigest() == digest


# weight: sha256 of verify_exhaustive(n, cutoff=n).to_json(), past the
# enumeration cutoff.  At 120 one run takes about 10 s and 71 MiB peak RSS.
DEEP_EXHAUSTIVE_REPORTS = {
    105: "8480185a51074d457728263d26ada9b0d4fccaf3f4320921f70530f5d5b998dd",
    120: "fad06e522971ea12615f1e0f50c2df213190fecb9c26aed3ca3f63fb63e3340f",
}


@pytest.mark.slow
@pytest.mark.parametrize("n", sorted(DEEP_EXHAUSTIVE_REPORTS))
def test_deep_exhaustive_reports_are_frozen(n):
    report = verify_exhaustive(n, cutoff=n)
    assert report.ok
    assert hashlib.sha256(report.to_json().encode()).hexdigest() == DEEP_EXHAUSTIVE_REPORTS[n]


# Per side, the distinct source cells and image keys each driver call
# classifies through, summed over the calls: every one costs one read of
# that side's 17 records (``casemap.record_cases``), once.  Over 55..60 the
# 34 905 source members fall in 533 cells; the image keys stay raw, so a
# switch to image cells shows here.
RECORDS_READ = {
    "source": {"exhaustive-55-60": 533, "sampled-373": 17},
    "gate": {"exhaustive-55-60": 2274, "sampled-373": 537},
}


def test_source_cells_met_are_frozen(monkeypatch):
    read = Counter()
    record_cases = casemap.record_cases

    def counted(field, *args):
        read[field] += 1
        return record_cases(field, *args)

    monkeypatch.setattr(casemap, "record_cases", counted)
    for n in range(55, 61):
        verify_exhaustive(n)
    exhaustive = read.copy()
    verify_sampled(373, 1000, 0)
    assert {
        field: {"exhaustive-55-60": exhaustive[field], "sampled-373": read[field] - exhaustive[field]}
        for field in read
    } == RECORDS_READ


# a fresh interpreter verifies weight 120 and prints its own peak RSS
DEEP_PEAK_RSS = """
import sys
sys.path.insert(0, sys.argv[1])
from parityparts.verify import verify_exhaustive
assert verify_exhaustive(120, cutoff=120).ok
""" + PRINT_PEAK


@pytest.mark.slow
def test_exhaustive_at_120_peaks_below_120_mib():
    """The walk's memos keep only lower blocks of weight at most 2n/3 and
    upper tails of weight at most n/3: the whole process peaks at about
    71 MiB, where a memo of every lower block took 334 MiB."""
    peak = int(run_fresh(DEEP_PEAK_RSS))
    assert peak < 120 * 1024, f"peak RSS {peak} KiB"


def test_fresh_peak_is_the_childs_own():
    """The peak that a snippet prints leaves out the memory the test
    process has held: after this process touches 64 MiB, a bare
    interpreter still reports well under 32 MiB."""
    touched = bytearray(b"\x01") * (64 * 2**20)
    del touched
    peak = int(run_fresh(PRINT_PEAK))
    assert peak < 32 * 1024, f"peak RSS {peak} KiB"


class TestSampled:
    def test_deterministic_for_fixed_seed(self):
        first = verify_sampled(120, 80, seed=7)
        second = verify_sampled(120, 80, seed=7)
        assert first.to_json() == second.to_json()

    def test_clean_at_moderate_weight(self):
        report = verify_sampled(90, 200, seed=3)
        assert report.ok
        assert sum(t.tested for t in report.per_case.values()) == 200

    def test_draws_build_no_partition(self, monkeypatch):
        # draws reach the checks as blocks; only the witness is a Partition
        built = Counter()
        new = Partition.__new__

        def counting_new(cls, *args):
            built["partitions"] += 1
            return new(cls, *args)

        monkeypatch.setattr(Partition, "__new__", staticmethod(counting_new))
        report = verify_sampled(373, 200, 0)
        assert report.ok
        assert sum(t.tested for t in report.per_case.values()) == 200
        assert built["partitions"] <= 1

    def test_below_threshold_draws_are_skipped(self):
        report = verify_sampled(10, 50, seed=1)
        assert report.ok
        tallies = report.per_case.values()
        assert sum(t.tested for t in tallies) == 50
        assert all(t.passed + t.skipped == t.tested for t in tallies)

    @pytest.mark.parametrize(
        ("n", "samples", "tested"),
        [
            (373, 1000, {3: 10, 11: 905, 15: 2, 16: 38, 17: 45}),
            (374, 1000, {1: 924, 3: 75, 4: 1}),
            (375, 1000, {3: 16, 4: 2, 5: 1, 11: 887, 15: 1, 16: 34, 17: 59}),
            (2000, 100, {1: 98, 3: 2}),
        ],
    )
    def test_tallies_are_frozen(self, n, samples, tested):
        # seed 0 draws the same members whatever the sampler's table layout,
        # so the per-case tallies of these runs never move
        report = verify_sampled(n, samples, seed=0)
        assert report.ok
        assert {case: tally.tested for case, tally in report.per_case.items()} == tested
        assert all(tally.passed == tally.tested for tally in report.per_case.values())

    def test_witness_is_checked_at_large_weights(self):
        report = verify_sampled(373, 5, seed=0)
        assert report.ok
        assert report.mode == "sampled"

    def test_rejects_nonpositive_sample_count(self):
        with pytest.raises(ValueError):
            verify_sampled(50, 0, seed=0)

    def test_rejects_sample_count_above_cutoff(self):
        with pytest.raises(ValueError, match="cutoff"):
            verify_sampled(5, MAX_DRAWS + 1, seed=0)


class TestInequality:
    def test_small_weights_fail_wherever_not_strict(self):
        # below 18 the image family never outcounts the source family
        report = verify_inequality(3, 17, method="series")
        failing = sorted(f.n for f in report.failures if f.check == "inequality")
        assert failing == list(range(3, 18))
        assert not report.ok

    def test_odd_weights_under_fifty_are_still_ties_or_worse(self):
        report = verify_inequality(18, 49, method="series")
        failing = sorted(f.n for f in report.failures if f.check == "inequality")
        assert failing == list(range(19, 50, 2))

    def test_equality_at_zero_is_not_strict(self):
        report = verify_inequality(0, 0, method="dp")
        assert len(report.inequalities) == 1
        record = report.inequalities[0]
        assert record.count_eu_od == record.count_od_eu == 1
        assert not record.strict
        assert [f.check for f in report.failures] == ["inequality"]

    def test_methods_agree_and_cross_check_is_silent(self):
        report = verify_inequality(50, 90, method="both")
        assert report.ok
        assert all(record.strict for record in report.inequalities)
        assert not [f for f in report.failures if f.check == "count-mismatch"]

    def test_strict_everywhere_from_fifty_up(self):
        report = verify_inequality(50, 130, method="dp")
        assert report.ok

    def test_routes_agree_on_the_pinned_counts_to_3000(self):
        """Both routes over the perfbench ``counting`` range give the count
        records whose digest perfbench pins."""
        report = verify_inequality(50, 3000, "both")
        assert report.ok
        lines = "".join(f"{r.n},{r.count_eu_od},{r.count_od_eu}\n" for r in report.inequalities)
        pinned = json.loads(PINNED_BENCHMARK.read_text())["counting"]["sha256"]
        assert hashlib.sha256(lines.encode()).hexdigest() == pinned

    @pytest.mark.slow
    def test_strict_everywhere_to_the_count_cutoff(self):
        assert verify_inequality(50, COUNT_CUTOFF, "both").ok

    @pytest.mark.parametrize("method", ["dp", "both"])
    def test_dp_route_builds_each_table_once_at_hi(self, monkeypatch, method):
        build = CountTable.build.__func__
        built = []

        def recording_build(cls, family, max_n):
            table = build(cls, family, max_n)
            built.append((family, table.max_n))
            return table

        monkeypatch.setattr(CountTable, "build", classmethod(recording_build))
        assert verify_inequality(50, 400, method).ok
        assert sorted(fam.value for fam, _ in built) == ["eu_od", "od_eu"]
        assert [max_n for _, max_n in built] == [400, 400]

    def test_routes_that_disagree_are_recorded_once(self, monkeypatch):
        # one more od_eu member at 60 by the series route; the records
        # come from the series route, where 60 is still strict; the hash is
        # frozen from the verifier that read the two routes in two loops
        counted = verify_module.series_p_od_eu

        def bumped(order):
            coeffs = list(counted(order).coeffs)
            coeffs[60] += 1
            return Series(coeffs)

        monkeypatch.setattr(verify_module, "series_p_od_eu", bumped)
        report = verify_inequality(50, 70)
        assert [(f.n, f.check, f.detail) for f in report.failures] == [
            (60, "count-mismatch", "series gives (10401, 7599), dynamic program gives (10401, 7598)")
        ]
        assert report.inequalities[10].count_od_eu == 7599
        digest = hashlib.sha256(report.to_json().encode()).hexdigest()
        assert digest == "b8cb3e320d002b76b560e2a03b6020b6a7cb8a3e872798135929b0473ffcdbdb"

    def test_rejects_unknown_method(self):
        with pytest.raises(ValueError):
            verify_inequality(0, 10, method="magic")

    def test_rejects_reversed_range(self):
        with pytest.raises(ValueError):
            verify_inequality(10, 3)


class TestWitnesses:
    def test_clean_on_a_small_range(self):
        report = verify_witnesses(373, 420)
        assert report.ok

    @pytest.mark.parametrize(
        "unmatched,check,partition,detail",
        [
            (lambda n: casemap.witness(n + 2), "witness-weight", "127,125,119,2,2", "weighs 375"),
            (lambda n: parse_partition("125,125,123"), "witness-membership", "125,125,123",
             "outside eu_od"),
            (lambda n: parse_partition("189,184"), "witness-unmatched", "189,184",
             "matched signatures [5]"),
        ],
        ids=["weight", "membership", "unmatched"],
    )
    def test_broken_witness_is_recorded(self, monkeypatch, unmatched, check, partition, detail):
        monkeypatch.setattr(verify_module, "witness", unmatched)
        report = verify_witnesses(373, 373)
        assert [(f.n, f.partition, f.check, f.detail) for f in report.failures] == [
            (373, partition, check, detail)
        ]

    def test_rejects_starts_below_373(self):
        # the refusal is witness's own, at the first weight of the range
        with pytest.raises(ValueError, match="^witness construction starts at weight 373, got 100"):
            verify_witnesses(100, 400)

    def test_rejects_reversed_range(self):
        with pytest.raises(ValueError):
            verify_witnesses(400, 380)

    def test_cutoff_is_the_last_weight_scanned(self):
        assert verify_witnesses(WITNESS_CUTOFF - 1, WITNESS_CUTOFF).ok
        with pytest.raises(ValueError, match="cutoff"):
            verify_witnesses(WITNESS_CUTOFF, WITNESS_CUTOFF + 1)


def _widened_case_11_gate(monkeypatch):
    case, fields, _, _ = TestExhaustive.WIDENED["case-11-gate"]
    monkeypatch.setitem(casemap.CASES, case, casemap.CASES[case]._replace(**fields))
    return [verify_exhaustive(n) for n in range(41)]


def _filed_by_hand(monkeypatch):
    report = VerificationReport(mode="exhaustive", n_lo=7, n_hi=7)
    report.tally(3).tested = 2
    report.case_counts = {3: (2, 1)}
    report.record_failure(7, 'a"b\\c', "tab\t", "\u00e9 \u2603 [1, 2] 'quoted' \"twice\"\n")
    return [report.finish()]


# reports of every mode, failing ones included: inequality below 50, and
# exhaustive under the widened case-11 gate, whose details hold brackets;
# the failure filed by hand holds quotes, a backslash, control characters
# and non-ASCII text
JSON_ORACLE_REPORTS = {
    "exhaustive": lambda monkeypatch: [verify_exhaustive(n) for n in range(41)],
    "case-11-gate": _widened_case_11_gate,
    "sampled": lambda monkeypatch: [verify_sampled(373, 100, seed=0)],
    "inequality-series": lambda monkeypatch: [verify_inequality(0, 300, "series")],
    "inequality-dp": lambda monkeypatch: [verify_inequality(0, 300, "dp")],
    "inequality-both": lambda monkeypatch: [verify_inequality(0, 300, "both")],
    "witnesses": lambda monkeypatch: [verify_witnesses(373, 400)],
    "filed-by-hand": _filed_by_hand,
}


class TestReportShape:
    @pytest.mark.parametrize("reports", JSON_ORACLE_REPORTS)
    def test_json_is_the_indented_dump_of_the_data_view(self, monkeypatch, reports):
        for report in JSON_ORACLE_REPORTS[reports](monkeypatch):
            assert report.to_json() == json.dumps(report.to_dict(), indent=2)

    @pytest.mark.parametrize("reports", ["case-11-gate", "inequality-both", "filed-by-hand"])
    def test_json_oracle_covers_failing_reports(self, monkeypatch, reports):
        assert not all(report.ok for report in JSON_ORACLE_REPORTS[reports](monkeypatch))

    def test_json_schema_keys(self):
        report = verify_exhaustive(20)
        data = json.loads(report.to_json())
        assert set(data) == {
            "mode",
            "n_lo",
            "n_hi",
            "ok",
            "per_case",
            "failures",
            "case_counts",
            "inequalities",
        }
        assert data["mode"] == "exhaustive"
        assert data["ok"] is True
        assert data["inequalities"] is None
        for tally in data["per_case"].values():
            assert set(tally) == {"tested", "passed", "skipped"}
        for pair in data["case_counts"].values():
            assert len(pair) == 2

    def test_inequality_json_rows(self):
        data = json.loads(verify_inequality(5, 8, method="dp").to_json())
        assert data["case_counts"] is None
        rows = data["inequalities"]
        assert [row["n"] for row in rows] == [5, 6, 7, 8]
        assert all(set(row) == {"n", "count_eu_od", "count_od_eu", "strict"} for row in rows)

    def test_text_lines_mention_failures(self):
        report = verify_inequality(3, 3, method="series")
        lines = report.text_lines()
        assert lines[0].startswith("mode=inequality")
        assert any("FAIL" in line and "inequality" in line for line in lines)

    def test_records_are_immutable(self):
        report = verify_inequality(3, 3, method="series")
        for record in (report.failures[0], report.inequalities[0]):
            with pytest.raises(AttributeError):
                record.n = 4

    def test_a_new_tally_starts_at_zero(self):
        tally = CaseTally()
        assert (tally.tested, tally.passed, tally.skipped) == (0, 0, 0)

    def test_tallies_are_consistent(self):
        report = verify_exhaustive(30)
        for tally in report.per_case.values():
            assert tally.passed + tally.skipped == tally.tested
