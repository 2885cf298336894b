"""Tests for the verification drivers."""

import json
from collections import Counter

import pytest

from parityparts import casemap
from parityparts.casemap import WITNESS_CUTOFF, case_min_weight
from parityparts.cli import run
from parityparts.families import MAX_DRAWS, CountTable
from parityparts.verify import (
    verify_exhaustive,
    verify_inequality,
    verify_sampled,
    verify_witnesses,
)


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
            if n >= case_min_weight(case):
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

    def test_image_side_reuse_hides_no_failure(self, monkeypatch):
        # with case 11's image signature narrowed to u >= 3, its images with two
        # even parts fail on the source side and are never stored as verified,
        # so the image side recounts them and the case counts disagree
        row = casemap.CASES[11]
        narrowed = row._replace(image=lambda e, o, u, v, f2: u >= 3 and v == 1)
        monkeypatch.setitem(casemap.CASES, 11, narrowed)
        checks = Counter(
            failure.check for n in range(31) for failure in verify_exhaustive(n).failures
        )
        assert checks == {"image-signature": 83, "count-equality": 12}


class TestSampled:
    def test_deterministic_for_fixed_seed(self):
        first = verify_sampled(120, 80, seed=7)
        second = verify_sampled(120, 80, seed=7)
        assert first.to_json() == second.to_json()

    def test_clean_at_moderate_weight(self):
        report = verify_sampled(90, 200, seed=3)
        assert report.ok
        assert sum(t.tested for t in report.per_case.values()) == 200

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

    def test_rejects_starts_below_373(self):
        with pytest.raises(ValueError):
            verify_witnesses(100, 400)

    def test_rejects_reversed_range(self):
        with pytest.raises(ValueError):
            verify_witnesses(400, 380)

    def test_cutoff_is_the_last_weight_scanned(self):
        assert verify_witnesses(WITNESS_CUTOFF - 1, WITNESS_CUTOFF).ok
        with pytest.raises(ValueError, match="cutoff"):
            verify_witnesses(WITNESS_CUTOFF, WITNESS_CUTOFF + 1)


class TestReportShape:
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

    def test_tallies_are_consistent(self):
        report = verify_exhaustive(30)
        for tally in report.per_case.values():
            assert tally.passed + tally.skipped == tally.tested
