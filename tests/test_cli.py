"""End to end tests of the command line interface.

Everything goes through run(argv) so exit codes and output are checked
exactly as a shell user would see them.
"""

import contextlib
import hashlib
import io
import json
import os
import runpy
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from parityparts import cli, verify
from parityparts.casemap import WITNESS_CUTOFF, WITNESS_MIN_WEIGHT
from parityparts.cli import run
from parityparts.core import MAX_GLYPHS, MAX_PARTS, format_partition, parse_partition
from parityparts.families import (
    ENUMERATION_CUTOFF,
    MAX_DRAWS,
    MAX_ENUMERATION_CUTOFF,
    MAX_SAMPLED_WEIGHTS,
    SAMPLE_CUTOFF,
    Family,
    enumerate_family,
)
from fresh_python import run_fresh
from test_casemap import KNOWN_PAIRS


def invoke(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCount:
    def test_count_od_eu_5(self, capsys):
        code, out, err = invoke(capsys, "count", "--family", "od_eu", "--n", "5")
        assert code == 0
        assert out == "3\n"
        assert err == ""

    def test_count_eu_od_5(self, capsys):
        code, out, _ = invoke(capsys, "count", "--family", "eu_od", "--n", "5")
        assert code == 0
        assert out == "2\n"

    def test_unknown_family_is_a_usage_error(self, capsys):
        code, _, err = invoke(capsys, "count", "--family", "xx_yy", "--n", "5")
        assert code == 2
        assert "unknown family" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["count", "--family", "od_eu", "--n"],
        ["table", "--from", "0", "--to"],
        ["series", "--target", "diff", "--order"],
        ["verify", "--mode", "inequality", "--from", "50", "--to"],
        ["verify", "--mode", "inequality", "--method", "dp", "--from", "50", "--to"],
    ],
    ids=["count", "table", "series", "verify-inequality", "verify-inequality-dp"],
)
def test_counting_input_above_cutoff_fails(capsys, argv):
    # only the rejection is tested: nothing of this size is allocated
    code, out, err = invoke(capsys, *argv, str(10**12))
    assert code == 1 and out == ""
    assert err.count("\n") == 1 and "cutoff" in err


# each refusal names what it refuses, a draw count or a series order;
# ENTRY_POINT_RUNS has a weight's
@pytest.mark.parametrize(
    "argv,err",
    [
        (["sample", "--family", "od_eu", "--n", "5", "--count", "0"],
         "error: draw count must be positive, got 0\n"),
        (["verify", "--mode", "sampled", "--from", "5", "--to", "5", "--samples", "0"],
         "error: draw count must be positive, got 0\n"),
        (["series", "--target", "diff", "--order", "-1"],
         "error: order must be nonnegative, got -1\n"),
    ],
    ids=["sample-count", "verify-samples", "series-order"],
)
def test_refusal_names_the_refused_quantity(capsys, argv, err):
    assert invoke(capsys, *argv) == (1, "", err)


class TestTable:
    def test_header_and_shape(self, capsys):
        code, out, _ = invoke(capsys, "table", "--from", "0", "--to", "6")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "n,p_ed_od,p_od_ed,p_od_eu,p_eu_od,p_ed_ou,p_eu_ou,p_ou_ed,p_ou_eu"
        assert len(lines) == 8
        row5 = lines[6].split(",")
        assert row5[0] == "5"
        assert row5[3] == "3"  # od_eu
        assert row5[4] == "2"  # eu_od

    def test_family_subset(self, capsys):
        code, out, _ = invoke(
            capsys, "table", "--from", "5", "--to", "5", "--families", "od_eu,eu_od"
        )
        assert code == 0
        assert out == "n,p_od_eu,p_eu_od\n5,3,2\n"

    def test_reversed_range_fails(self, capsys):
        code, _, err = invoke(capsys, "table", "--from", "9", "--to", "2")
        assert code == 1
        assert "bad weight range" in err

    @pytest.mark.parametrize("tokens", ["xx_yy", "od_eu,xx"])
    def test_unknown_family_is_a_usage_error(self, capsys, tokens):
        # as for --family: an unknown token is refused by the parser
        code, out, err = invoke(capsys, "table", "--from", "0", "--to", "2", "--families", tokens)
        assert code == 2
        assert out == ""
        assert "unknown family" in err


class TestEnumerate:
    def test_od_eu_5(self, capsys):
        code, out, _ = invoke(capsys, "enumerate", "--family", "od_eu", "--n", "5")
        assert code == 0
        assert out.splitlines() == ["5", "4,1", "2,2,1"]

    def test_eu_od_5(self, capsys):
        code, out, _ = invoke(capsys, "enumerate", "--family", "eu_od", "--n", "5")
        assert code == 0
        assert out.splitlines() == ["5", "3,2"]

    def test_cutoff_guard(self, capsys):
        code, _, err = invoke(capsys, "enumerate", "--family", "od_eu", "--n", "80")
        assert code == 1
        assert "cutoff" in err

    def test_cutoff_flag_is_a_usage_error(self, capsys):
        # the guard is families.check_enumerable's alone; no flag moves it
        code, out, _ = invoke(
            capsys, "enumerate", "--family", "ou_eu", "--n", "5",
            "--cutoff", str(ENUMERATION_CUTOFF),
        )
        assert code == 2
        assert out == ""


# The first three draws of ``sample --count 3 --seed 3`` per family, at an
# even and an odd weight; a change to the sampler's tables that moves any
# draw shows here.
FROZEN_DRAWS = {
    600: {
        "ed_od": (
            "115,99,95,69,61,53,29,25,21,17,9,5,2",
            "171,123,95,49,43,37,28,18,16,10,6,4",
            "73,69,61,55,53,49,47,43,41,35,23,19,17,7,6,2",
        ),
        "od_ed": (
            "86,58,54,52,50,49,45,41,31,29,23,21,19,15,11,9,7",
            "158,110,103,91,53,21,17,15,13,11,5,3",
            "106,80,66,60,56,46,40,36,32,26,20,16,13,3",
        ),
        "od_eu": (
            "106,74,72,44^2,26^2,22,16,14,12^3,8^2,6^5,4^12,2^13",
            "60,54^2,50,42^2,36,32,30,26,24,22^2,20,18,14,12,10^2,4^2,2^7",
            "60^2,54^2,36,32,18^5,16^2,14,10^9,8^3,6^6,4^2,2^5",
        ),
        "eu_od": (
            "66,62,56,30^3,26,20^4,16,14^4,10^4,8,6^10,4^6,2^8",
            "116,78,52,40,34,26,24^3,18^2,10^2,6^15,2^18",
            "77,61,50,48,34,30,26^2,24,22^2,20,18,10,6^5,4^3,2^45",
        ),
        "ed_ou": (
            "71,67,53,47,45,43,35,27,21,17,9,7^16,5^5,3^6,1^10",
            "117,67,53,31,29,27,25^3,19,11^3,9^3,7^6,5^2,3^4,1^58",
            "81,31,27,23^2,21^6,17^2,13^3,11^9,7^7,5^5,3^5,1^28",
        ),
        "eu_ou": (
            "73,57,47^2,41,25,23,19^3,18,16^3,14,12^3,8^3,6^4,4,2^31",
            "117,71,57,25^2,19,15^2,13,11^9,9^2,8^6,6^4,4^6,2^15",
            "37,33,29^2,27,25^6,21,17^6,15,13,11^2,9^4,5^6,3^4,2^22",
        ),
        "ou_ed": (
            "108,48,46,29,21,19^4,17,15^5,9^2,7^11,5^3,3^20,1^10",
            "62,47^2,43,33,31^2,27^2,25^2,21^3,19,17^2,11^3,5,3^4,1^36",
            "62,56,54,44,34,30,29^2,27^2,23,19^5,17^2,11^2,9^2,3,1^13",
        ),
        "ou_eu": (
            "50,48^2,42,38^2,36,22,20^4,12^7,10,8^2,6^8,5^4,3^5,1^5",
            "106,66,56,43,37,21,15,13^5,11,9^6,7^6,5,3^11,1^46",
            "66,46,36,34^2,30^3,14,12,10,9^11,7^10,5^15,3^2,1^8",
        ),
    },
    601: {
        "ed_od": (
            "113,105,69,51,49,47,39,37,25,21,19,11,9,4,2",
            "171,80,72,68,48,38,26,24,20,18,16,10,8,2",
            "123,115,65,55,43,40,38,36,26,24,14,10,6,4,2",
        ),
        "od_ed": (
            "88,86,84,80,62,40,38,34,24,20,18,17,9,1",
            "160,76,68,52,50,44,40,36,22,20,18,15",
            "107,93,89,71,53,49,47,45,27,11,5,3,1",
        ),
        "od_eu": (
            "106,80,42,38,34,32,24,22^2,14^2,12^2,10^7,8,6^5,4^5,2^10,1",
            "60,58,46,44^2,30^2,26^2,24,20^3,16^2,12,8^2,6^14,5,3,1",
            "62,42^4,40,28^2,24,22,18^4,10^3,8^13,6,4,2^6,1",
        ),
        "eu_od": (
            "53,50^2,40,34,32,24^3,22,20^2,16,14^3,12^7,10^2,8,6,4^7,2^2",
            "113,63,55,45,37,36^2,34,28,24,22^2,14,12,10,8^2,2^17",
            "71,53,51,44,38^2,28^5,26,24,18^3,12,8,6^7",
        ),
        "ed_ou": (
            "73,63,31^2,29,25,19,17^7,15,13^6,9^4,5^3,3^17,1^16",
            "117,111,37^2,31,27,25,23,21,19,17^4,9^3,7,5,3^5,1^31",
            "37,35,25^3,23^3,19,15^2,13^5,9^4,7^6,5^20,3,1^90",
        ),
        "eu_ou": (
            "73,59,33,27^2,25,23,21^4,19^3,17^2,15,12^4,8^5,6^5,4,2^11",
            "117,73,57,55^3,17^3,15^3,11,9,7^5,5^5,3^3,1^4",
            "37,33,31^2,27,25^3,21^2,15^9,14^8,10^3,8^2,6^2,4^3,2^4",
        ),
        "ou_ed": (
            "108,84,67,65,35,33,19^3,9^2,7^7,5^9,3^4,1^28",
            "64,56,42,41,33,23^5,13^9,11,9^5,7,5^8,3^9,1^3",
            "64,62,54,52,42,35,23^2,19^5,15,11^4,9^3,7^5,5^4,3^3,1",
        ),
        "ou_eu": (
            "54,44,42,34,30,20^2,18,14^3,12^2,10,8^3,7^15,5^12,3^6,1^56",
            "106,96,76,47,41,37,35,27,19,15^3,13^2,9^2,7^3,3,1^4",
            "66^2,42,32,30^2,24,22^2,14,12^2,10^4,8^8,6^3,4^7,2^17,1^45",
        ),
    },
}


class TestSample:
    def test_deterministic_and_in_family(self, capsys):
        argv = ["sample", "--family", "od_eu", "--n", "30", "--count", "5", "--seed", "11"]
        code, first, _ = invoke(capsys, *argv)
        assert code == 0
        code, second, _ = invoke(capsys, *argv)
        assert first == second
        assert len(first.splitlines()) == 5

    @pytest.mark.parametrize(
        ("n", "family"), [(n, family) for n, draws in FROZEN_DRAWS.items() for family in draws]
    )
    def test_draws_are_frozen(self, capsys, n, family):
        code, out, err = invoke(
            capsys, "sample", "--family", family, "--n", str(n), "--count", "3", "--seed", "3"
        )
        assert code == 0
        assert err == ""
        frozen = [format_partition(parse_partition(text)) for text in FROZEN_DRAWS[n][family]]
        assert out.splitlines() == frozen

    def test_weight_above_cutoff_fails(self, capsys):
        n = str(SAMPLE_CUTOFF + 1)
        code, out, err = invoke(capsys, "sample", "--family", "od_eu", "--n", n)
        assert code == 1
        assert out == ""
        assert err.count("\n") == 1 and "cutoff" in err

    def test_negative_weight_fails(self, capsys):
        code, out, err = invoke(capsys, "sample", "--family", "od_eu", "--n", "-1")
        assert (code, out, err) == (1, "", "error: weight must be nonnegative, got -1\n")

    def test_count_above_cutoff_fails_before_drawing(self, capsys):
        code, out, err = invoke(
            capsys, "sample", "--family", "od_eu", "--n", "5", "--count", str(MAX_DRAWS + 1)
        )
        assert code == 1
        assert out == ""
        assert err.count("\n") == 1 and "cutoff" in err


class TestMap:
    def test_forward_example(self, capsys):
        code, out, _ = invoke(capsys, "map", "--input", "8,8,8,7,5,3")
        assert code == 0
        assert out == "case=2 image=11,9,7,4,4,4\n"

    def test_inverse_example(self, capsys):
        code, out, _ = invoke(capsys, "map", "--input", "11,9,7,4,4,4", "--inverse")
        assert code == 0
        assert out == "case=2 source=8,8,8,7,5,3\n"

    @pytest.mark.parametrize("case,source,image", KNOWN_PAIRS)
    def test_roundtrip_over_known_pairs(self, capsys, case, source, image):
        code, out, _ = invoke(capsys, "map", "--input", source)
        assert code == 0
        produced = out.split("image=")[1].strip()
        code, out, _ = invoke(capsys, "map", "--input", produced, "--inverse")
        assert code == 0
        # source strings may use the caret form; compare canonically
        expanded = format_partition(parse_partition(source))
        assert out == f"case={case} source={expanded}\n"

    def test_ferrers_flag_draws_both_shapes(self, capsys):
        code, out, _ = invoke(capsys, "map", "--input", "6,3,1", "--ferrers")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "case=5 image=5,3,2"
        assert lines[1] == "######"
        assert "->" in lines

    @pytest.mark.parametrize("flags", [(), ("--inverse",)])
    def test_ferrers_above_the_glyph_bound_fails_before_printing(self, capsys, flags):
        # a one-part input maps to itself in both directions (case 1); only
        # the refusal is tested, no diagram is drawn
        code, out, err = invoke(capsys, "map", "--input", "1000000000", "--ferrers", *flags)
        assert code == 1
        assert out == ""
        assert err.count("\n") == 1
        assert err.startswith("error: a Ferrers diagram of weight 1000000000 exceeds")

    def test_input_above_the_map_cutoff_fails_before_mapping(self, capsys):
        # a case-6 input whose image would hold 10**10 parts 2
        code, out, err = invoke(capsys, "map", "--input", "20000000000,19999999999,7,5,3,1")
        assert code == 1
        assert out == ""
        assert err.count("\n") == 1
        assert err.startswith("error: weight 40000000015 exceeds the map cutoff")

    def test_nonmember_input_fails(self, capsys):
        code, _, err = invoke(capsys, "map", "--input", "3,1,1")
        assert code == 1
        assert "not in family" in err

    def test_oversized_repetition_fails(self, capsys):
        # refused by the parser before the parts are built
        code, out, err = invoke(capsys, "map", "--input", "2^10000000000")
        assert code == 1
        assert out == ""
        assert err.count("\n") == 1 and "parts" in err

    def test_witness_cannot_be_inverted(self, capsys):
        code, _, err = invoke(capsys, "map", "--input", "127,125,117,2,2", "--inverse")
        assert code == 1
        assert "matches none" in err


class TestClassify:
    def test_source_side(self, capsys):
        code, out, _ = invoke(capsys, "classify", "--input", "10,9,3")
        assert code == 0
        assert out == "case=8\n"

    def test_image_side_none(self, capsys):
        code, out, _ = invoke(
            capsys, "classify", "--input", "127,125,117,2,2", "--side", "image"
        )
        assert code == 0
        assert out == "case=none\n"

    def test_image_side_match(self, capsys):
        code, out, _ = invoke(capsys, "classify", "--input", "5,3,2", "--side", "image")
        assert code == 0
        assert out == "case=5\n"


class TestSeries:
    def test_diff_head_and_tail_rows(self, capsys):
        code, out, _ = invoke(capsys, "series", "--target", "diff", "--order", "51")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "k,coefficient"
        assert lines[1] == "0,0"
        assert lines[4] == "3,-1"
        assert lines[-2] == "50,816"
        assert lines[-1] == "51,18"

    def test_eu_od_matches_count(self, capsys):
        code, out, _ = invoke(capsys, "series", "--target", "eu_od", "--order", "5")
        assert code == 0
        assert out.splitlines()[-1] == "5,2"


class TestWitness:
    def test_frozen_witnesses(self, capsys):
        code, out, _ = invoke(capsys, "witness", "--n", "373")
        assert code == 0
        assert out == "127,125,117,2,2\n"
        code, out, _ = invoke(capsys, "witness", "--n", "374")
        assert out == "125,123,119,3,2,2\n"

    def test_below_373_fails(self, capsys):
        code, _, err = invoke(capsys, "witness", "--n", "100")
        assert code == 1
        assert err


class TestVerify:
    def test_exhaustive_clean_range(self, capsys):
        code, out, _ = invoke(
            capsys, "verify", "--mode", "exhaustive", "--from", "20", "--to", "24"
        )
        assert code == 0
        assert out.count("ok=yes") == 5

    def test_sampled_json(self, capsys):
        code, out, _ = invoke(
            capsys,
            "verify",
            "--mode",
            "sampled",
            "--from",
            "60",
            "--to",
            "60",
            "--samples",
            "40",
            "--seed",
            "5",
            "--format",
            "json",
        )
        assert code == 0
        reports = json.loads(out)
        assert len(reports) == 1
        assert reports[0]["ok"] is True

    def test_sampled_above_cutoff_fails_before_sampling(self, capsys):
        # the range is refused as a whole, so no weight below the cutoff is sampled
        code, out, err = invoke(
            capsys, "verify", "--mode", "sampled", "--from", "373",
            "--to", str(SAMPLE_CUTOFF + 1), "--samples", "1",
        )
        assert code == 1
        assert out == ""
        assert err.count("\n") == 1 and "cutoff" in err

    @pytest.mark.parametrize("lo", [0, SAMPLE_CUTOFF - MAX_SAMPLED_WEIGHTS])
    def test_sampled_range_above_weight_bound_fails_before_sampling(self, capsys, monkeypatch, lo):
        # every weight is legal, but the run would build one sampler per
        # weight, so a range longer than the bound is refused before any
        calls = []
        monkeypatch.setattr(cli, "verify_sampled", lambda *args: calls.append(args))
        code, out, err = invoke(
            capsys, "verify", "--mode", "sampled", "--from", str(lo),
            "--to", str(SAMPLE_CUTOFF), "--samples", "1",
        )
        assert code == 1
        assert out == ""
        assert err.count("\n") == 1 and "cutoff" in err
        assert calls == []

    @pytest.mark.parametrize("samples", [MAX_DRAWS // MAX_SAMPLED_WEIGHTS + 1, MAX_DRAWS])
    def test_sampled_draws_above_the_run_bound_fail_before_sampling(
        self, capsys, monkeypatch, samples
    ):
        # the weights and the per-weight count are each legal, but the run's
        # draws in all exceed MAX_DRAWS, so no sampler is built
        def no_sampler(*args):
            raise AssertionError(f"sampler built for {args}")

        monkeypatch.setattr(verify, "FamilySampler", no_sampler)
        lo = SAMPLE_CUTOFF - MAX_SAMPLED_WEIGHTS + 1
        code, out, err = invoke(
            capsys, "verify", "--mode", "sampled", "--from", str(lo),
            "--to", str(SAMPLE_CUTOFF), "--samples", str(samples),
        )
        assert code == 1
        assert out == ""
        total = MAX_SAMPLED_WEIGHTS * samples
        assert err == f"error: {total} draws in all exceed the cutoff {MAX_DRAWS}\n"

    def test_exhaustive_above_cutoff_fails_before_verifying(self, capsys, monkeypatch):
        # the range is refused as a whole, so no weight below the cutoff is verified
        calls = []
        monkeypatch.setattr(cli, "verify_exhaustive", lambda n, **kwargs: calls.append(n))
        code, out, err = invoke(
            capsys, "verify", "--mode", "exhaustive", "--from", str(ENUMERATION_CUTOFF - 2),
            "--to", str(ENUMERATION_CUTOFF + 1),
        )
        assert code == 1
        assert out == ""
        assert err.count("\n") == 1 and "cutoff" in err
        assert calls == []

    @pytest.mark.parametrize(
        "mode,cutoff,message",
        [
            ("exhaustive", MAX_ENUMERATION_CUTOFF + 1, "enumeration cutoff 122 exceeds the maximum 121"),
            ("exhaustive", -1, "enumeration cutoff must be nonnegative, got -1"),
        ]
        + [
            (mode, ENUMERATION_CUTOFF, f"--cutoff applies to exhaustive mode only, not {mode}")
            for mode in ("sampled", "inequality", "witnesses")
        ],
    )
    def test_cutoff_is_refused_before_verifying(self, capsys, monkeypatch, mode, cutoff, message):
        calls = []
        for name in ("verify_exhaustive", "verify_sampled", "verify_inequality", "verify_witnesses"):
            monkeypatch.setattr(cli, name, lambda *args, **kwargs: calls.append(args))
        code, out, err = invoke(
            capsys, "verify", "--mode", mode, "--from", "373", "--to", "373",
            "--cutoff", str(cutoff),
        )
        assert (code, out, err) == (1, "", f"error: {message}\n")
        assert calls == []

    def test_exhaustive_past_the_default_cutoff_with_cutoff(self, capsys):
        code, out, _ = invoke(
            capsys, "verify", "--mode", "exhaustive", "--from", "71", "--to", "71",
            "--cutoff", "71", "--format", "json",
        )
        assert code == 0
        assert out == f"[{verify.verify_exhaustive(71, cutoff=71).to_json()}]\n"

    @pytest.mark.parametrize(
        "mode,lo,hi,build",
        [
            ("exhaustive", 20, 23, verify.verify_exhaustive),
            ("sampled", 373, 375, lambda n: verify.verify_sampled(n, 1000, 0)),
        ],
        ids=["exhaustive", "sampled"],
    )
    def test_json_streams_each_report_in_turn(self, capsys, mode, lo, hi, build):
        code, out, _ = invoke(
            capsys, "verify", "--mode", mode, "--from", str(lo), "--to", str(hi),
            "--format", "json",
        )
        assert code == 0
        assert out == "[" + ",\n".join(build(n).to_json() for n in range(lo, hi + 1)) + "]\n"

    def test_inequality_json_peaks_below_2_5_mib(self):
        """The CLI writes each report record by record: over 50..3000 the
        run's traced peak is about 1.5 MiB, where the indented encoder's
        dict per record and list of pieces took it to about 4 MiB."""
        out = io.StringIO()
        tracemalloc.start()
        try:
            with contextlib.redirect_stdout(out):
                code = run(
                    ["verify", "--mode", "inequality", "--from", "50", "--to", "3000",
                     "--format", "json"]
                )
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0
        assert peak < 2.5 * 2**20, f"traced peak {peak} bytes"

    def test_inequality_failure_sets_exit_code(self, capsys):
        code, out, _ = invoke(
            capsys, "verify", "--mode", "inequality", "--from", "3", "--to", "3"
        )
        assert code == 1
        assert "FAIL" in out

    def test_inequality_clean(self, capsys):
        code, out, _ = invoke(
            capsys, "verify", "--mode", "inequality", "--from", "50", "--to", "60",
            "--method", "dp",
        )
        assert code == 0
        assert "strict at 11 of 11 weights" in out

    def test_inequality_full_range_exits_zero(self, capsys):
        code, out, _ = invoke(
            capsys, "verify", "--mode", "inequality", "--from", "50", "--to", "400"
        )
        assert code == 0
        assert "strict at 351 of 351 weights" in out

    @pytest.mark.parametrize(
        "argv",
        [
            ["--mode", "sampled", "--from", "5", "--to", "5", "--samples", str(MAX_DRAWS + 1)],
            ["--mode", "witnesses", "--from", str(WITNESS_CUTOFF), "--to", str(WITNESS_CUTOFF + 1)],
        ],
        ids=["samples", "witnesses"],
    )
    def test_size_above_cutoff_fails_before_verifying(self, capsys, argv):
        code, out, err = invoke(capsys, "verify", *argv)
        assert code == 1
        assert out == ""
        assert err.count("\n") == 1 and "cutoff" in err

    def test_witnesses_mode(self, capsys):
        code, out, _ = invoke(
            capsys, "verify", "--mode", "witnesses", "--from", "373", "--to", "380"
        )
        assert code == 0
        assert "ok=yes" in out

    def test_missing_mode_is_usage_error(self, capsys):
        code, _, err = invoke(capsys, "verify", "--from", "1", "--to", "2")
        assert code == 2
        assert "usage" in err


def _verify_argv(mode, lo, hi, *options):
    return ["verify", "--mode", mode, "--from", str(lo), "--to", str(hi), *options]


JSON = ("--format", "json")
# name: (command lines, exit code of each, sha256 of their stdout joined),
# frozen from clean runs so that a refactor keeps every byte; the draws
# cover both sampler table layouts at both parities of n
FROZEN_OUTPUTS = {
    "exhaustive-0-60-json": (
        [_verify_argv("exhaustive", 0, 60, *JSON)],
        0,
        "19a11ffdb61314f2f2010d5eeefb11aab683c27d15126ced73e1706cef425f32",
    ),
    "sampled-373-375-json": (
        [_verify_argv("sampled", 373, 375, "--samples", "1000", "--seed", "0", *JSON)],
        0,
        "8e5beb0a246a4f13f30bbee023fe3ef3ffcccd767d1eacfe503b18e2a04b323d",
    ),
    "sampled-2000-json": (
        [_verify_argv("sampled", 2000, 2000, "--samples", "100", "--seed", "0", *JSON)],
        0,
        "eb5c16192fd9b5c8bfe58bd7621e4543c6f3d650099741bb7a2a38b3347ced9e",
    ),
    "inequality-50-3000-json": (
        [_verify_argv("inequality", 50, 3000, *JSON)],
        0,
        "93ad978e53281028dab9634d2654d7c1868a49710b1f5bb65fc04c7b06e50be8",
    ),
    "inequality-0-300-series-json": (
        [_verify_argv("inequality", 0, 300, "--method", "series", *JSON)],
        1,
        "f6dd7e0f4eaac5a13a526f04468508d87e631c1d6eb545690fe7a4983861e533",
    ),
    "inequality-0-300-dp-json": (
        [_verify_argv("inequality", 0, 300, "--method", "dp", *JSON)],
        1,
        "f6dd7e0f4eaac5a13a526f04468508d87e631c1d6eb545690fe7a4983861e533",
    ),
    "witnesses-373-400-json": (
        [_verify_argv("witnesses", 373, 400, *JSON)],
        0,
        "9277de80c1f7be57caedb3fc19aa1798809d8fa88d1537b1f7900b08df3e62d7",
    ),
    "exhaustive-0-30-text": (
        [_verify_argv("exhaustive", 0, 30)],
        0,
        "cccd2faa033216ab8bba80157ea904cfcd655f9b7262e90227da81e8c931bd4e",
    ),
    "inequality-0-60-text": (
        [_verify_argv("inequality", 0, 60)],
        1,
        "35423b355dbe180466709308ad0e010afedfc250c3715b2e5c74ca7615c11658",
    ),
    "draws-373-374": (
        [
            ["sample", "--family", fam.value, "--n", str(n), "--count", "50", "--seed", "3"]
            for fam in Family
            for n in (373, 374)
        ],
        0,
        "02bbcced39037180596cd946dc0d0942212884e68a302eeefd8312e3926a8ce7",
    ),
}


@pytest.mark.parametrize("name", FROZEN_OUTPUTS)
def test_clean_outputs_are_frozen(capsys, name):
    runs, code, digest = FROZEN_OUTPUTS[name]
    stdout = hashlib.sha256()
    for argv in runs:
        exit_code, out, _ = invoke(capsys, *argv)
        assert exit_code == code, argv
        stdout.update(out.encode())
    assert stdout.hexdigest() == digest


def test_help_exits_zero(capsys):
    code, out, _ = invoke(capsys, "--help")
    assert code == 0
    assert "subcommand" in out or "count" in out


ENTRY_POINT_RUNS = [
    (["count", "--family", "od_eu", "--n", "5"], 0, "3\n", ""),
    (["count", "--family", "od_eu", "--n", "-1"], 1, "", "error: weight must be nonnegative, got -1\n"),
]


def run_module(argv):
    """(exit code, stdout, stderr) of ``python -m parityparts.cli`` in a child,
    where any warning is an error."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))
    proc = subprocess.run(
        [sys.executable, "-W", "error", "-m", "parityparts.cli", *argv],
        capture_output=True, text=True, env=env, timeout=60,
    )
    return proc.returncode, proc.stdout, proc.stderr


def test_module_entry_point_runs_the_command():
    argv, *result = ENTRY_POINT_RUNS[0]
    assert run_module(argv) == tuple(result)


def test_module_entry_point_refuses_with_one_error_line():
    argv, *result = ENTRY_POINT_RUNS[1]
    assert run_module(argv) == tuple(result)


@pytest.mark.parametrize("argv,code,out,err", ENTRY_POINT_RUNS, ids=["count", "refusal"])
def test_module_entry_point_in_process(monkeypatch, capsys, argv, code, out, err):
    # the same runs through main() and the __main__ guard in this process,
    # where a line trace of the test run sees them
    monkeypatch.setattr(sys, "argv", ["parityparts.cli", *argv])
    with warnings.catch_warnings():
        # runpy warns that this process has imported the module already
        warnings.simplefilter("ignore", RuntimeWarning)
        with pytest.raises(SystemExit) as exited:
            runpy.run_module("parityparts.cli", run_name="__main__")
    assert exited.value.code == code
    assert capsys.readouterr() == (out, err)


# a fresh interpreter runs the CLI in a child of its own, the arguments
# after sys.argv[2] with stdout to the file sys.argv[2], and prints the
# child's exit status and peak RSS in KiB.  The child's peak starts from
# this small interpreter's, not from the test process's (see
# fresh_python), and ``-c`` stands in for ``-m``, which under ``-I`` would
# not find the checkout's ``src``
CLI_PEAK_RSS = """
import resource, subprocess, sys
cli = "import sys; sys.path.insert(0, sys.argv.pop(1)); from parityparts.cli import main; main()"
with open(sys.argv[2], "w") as out:
    argv = [sys.executable, "-I", "-S", "-c", cli, sys.argv[1], *sys.argv[3:]]
    status = subprocess.run(argv, stdout=out).returncode
print(status, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
"""

# sha256 of the JSON of verify --mode inequality over 0..10000, frozen
# from the CLI that printed its reports through json.dumps(..., indent=2)
INEQUALITY_10000_JSON = "f532b565d9d950ac2e927635950fde037df0993a4cffe94f6b26efe41f820ebb"


@pytest.mark.slow
def test_inequality_json_to_10000_peaks_below_20_mib(tmp_path):
    """The whole CLI process peaks at about 16.4 MiB, where printing the
    joined indented JSON of the 10 001 records took it to 27.3 MiB.  It
    exits 1, as weights below 50 are not all strict."""
    path = tmp_path / "inequality.json"
    status, peak = run_fresh(
        CLI_PEAK_RSS, str(path),
        "verify", "--mode", "inequality", "--from", "0", "--to", "10000", "--format", "json",
    ).split()
    assert status == "1"
    assert int(peak) < 20 * 1024, f"peak RSS {peak} KiB"
    assert hashlib.sha256(path.read_bytes()).hexdigest() == INEQUALITY_10000_JSON


# Fuzzed refusals: every input ends in exit 0, 1 or 2 without an exception,
# and an exit 1 is one "error: " line.  Part values are small, or above the
# map cutoff so that forward refuses them at once; repetition counts are
# below 10^4, or above MAX_PARTS so that the parser refuses them before
# building a part.
FAMILY_TOKENS = [fam.value for fam in Family]
family_token = st.one_of(
    st.sampled_from(FAMILY_TOKENS),
    st.sampled_from(["all", " od_eu ", "OD_EU", "od-eu", ""]),
    st.text(max_size=8),
)
family_text = st.one_of(family_token, st.lists(family_token, min_size=2, max_size=4).map(",".join))
part_value = st.one_of(st.integers(-2, 60), st.integers(10**7, 10**40))
repetition = st.one_of(st.integers(-1, 9999), st.integers(MAX_PARTS + 1, 10**15))
partition_token = st.one_of(
    part_value.map(str),
    st.tuples(part_value, repetition).map(lambda pair: f"{pair[0]}^{pair[1]}"),
    st.text(max_size=6),
)
partition_text = st.one_of(
    st.lists(partition_token, max_size=8).map(",".join), st.text(max_size=20)
)


def run_quietly(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(argv)
    return code, out.getvalue(), err.getvalue()


def assert_clean_exit(code, out, err):
    assert code in (0, 1, 2)
    if code == 1:
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1 and err.endswith("\n")


class TestRefusalFuzz:
    @settings(max_examples=100, deadline=None)
    @given(text=family_text)
    def test_family_tokens_are_usage_errors(self, text):
        code, out, err = run_quietly(["count", "--n", "3", f"--family={text}"])
        assert_clean_exit(code, out, err)
        assert code == (0 if text in FAMILY_TOKENS else 2)

        code, out, err = run_quietly(["table", "--from", "0", "--to", "3", f"--families={text}"])
        assert_clean_exit(code, out, err)
        valid = text == "all" or all(token.strip() in FAMILY_TOKENS for token in text.split(","))
        assert code == (0 if valid else 2)

    @settings(max_examples=100, deadline=None)
    @given(text=partition_text)
    def test_partition_texts_end_in_a_clean_exit(self, text):
        for argv in (
            ["map", f"--input={text}"],
            ["map", "--inverse", f"--input={text}"],
            ["classify", f"--input={text}", "--side", "source"],
            ["classify", f"--input={text}", "--side", "image"],
        ):
            assert_clean_exit(*run_quietly(argv))


# Fuzzed numeric options: a value is a small negative, 0, a small positive
# or a huge integer.  Accepted runs stay cheap (weights up to 12, witness
# weights up to 380, at most 5 draws).  A huge weight or draw count is
# refused before anything of its size is allocated; only `witness --n`,
# whose member has at most six parts at any weight, and `--samples` outside
# sampled mode, which is ignored, accept one.
HUGE = 10**7
negative = st.integers(-5, -1)
huge = st.integers(HUGE, 10**30)


def numbers(*accepted):
    return st.one_of(negative, st.just(0), *accepted, huge)


weight = numbers(st.integers(1, 12))
draws = numbers(st.integers(1, 5))
witness_weight = numbers(st.integers(1, 12), st.integers(373, 380))
# below 50 the inequality fails by design, so accepted ranges start there
inequality_weight = st.one_of(negative, st.integers(50, 62), huge)


def in_reach(*values):
    return all(0 <= value < HUGE for value in values)


def assert_outcome(argv, accepted):
    code, out, err = run_quietly(argv)
    assert_clean_exit(code, out, err)
    assert code == (0 if accepted else 1), (argv, err)


def not_an_integer(text):
    try:
        int(text)
    except ValueError:
        return True
    return False


# every numeric option of every subcommand, with {} for its value
NUMERIC_OPTIONS = [
    ["count", "--family", "od_eu", "--n={}"],
    ["table", "--from={}", "--to=3"],
    ["table", "--from=0", "--to={}"],
    ["enumerate", "--family", "od_eu", "--n={}"],
    ["sample", "--family", "od_eu", "--n={}"],
    ["sample", "--family", "od_eu", "--n=3", "--count={}"],
    ["series", "--target", "diff", "--order={}"],
    ["witness", "--n={}"],
    ["verify", "--mode", "exhaustive", "--from={}", "--to=3"],
    ["verify", "--mode", "exhaustive", "--from=0", "--to={}"],
    ["verify", "--mode", "exhaustive", "--from=0", "--to=3", "--cutoff={}"],
    ["verify", "--mode", "sampled", "--from=3", "--to=3", "--samples={}"],
]


class TestNumericFuzz:
    @settings(max_examples=60, deadline=None)
    @given(n=weight, count=draws, seed=st.integers(0, 3))
    def test_weights(self, n, count, seed):
        assert_outcome(["count", "--family", "od_eu", f"--n={n}"], in_reach(n))
        assert_outcome(["enumerate", "--family", "eu_od", f"--n={n}"], in_reach(n))
        assert_outcome(["series", "--target", "diff", f"--order={n}"], in_reach(n))
        assert_outcome(
            ["sample", "--family", "ou_eu", f"--n={n}", f"--count={count}", f"--seed={seed}"],
            in_reach(n, count) and count > 0,
        )

    @settings(max_examples=60, deadline=None)
    @given(n=witness_weight)
    def test_witness_weight(self, n):
        assert_outcome(["witness", f"--n={n}"], n >= WITNESS_MIN_WEIGHT)

    @settings(max_examples=60, deadline=None)
    @given(lo=weight, hi=weight, count=draws, cutoff=weight)
    def test_weight_ranges(self, lo, hi, count, cutoff):
        in_range = in_reach(lo, hi) and lo <= hi
        bounds = [f"--from={lo}", f"--to={hi}"]
        assert_outcome(["table", *bounds], in_range)
        # --samples only counts in sampled mode
        assert_outcome(["verify", "--mode", "exhaustive", *bounds, f"--samples={count}"], in_range)
        assert_outcome(
            ["verify", "--mode", "exhaustive", *bounds, f"--cutoff={cutoff}"],
            in_range and hi <= cutoff <= MAX_ENUMERATION_CUTOFF,
        )
        assert_outcome(
            ["verify", "--mode", "sampled", *bounds, f"--samples={count}"],
            in_range and in_reach(count) and count > 0,
        )

    @settings(max_examples=30, deadline=None)
    @given(lo=inequality_weight, hi=inequality_weight)
    def test_inequality_ranges(self, lo, hi):
        assert_outcome(
            ["verify", "--mode", "inequality", f"--from={lo}", f"--to={hi}"],
            in_reach(lo, hi) and lo <= hi,
        )

    @settings(max_examples=60, deadline=None)
    @given(lo=witness_weight, hi=witness_weight)
    def test_witness_ranges(self, lo, hi):
        assert_outcome(
            ["verify", "--mode", "witnesses", f"--from={lo}", f"--to={hi}"],
            WITNESS_MIN_WEIGHT <= lo <= hi < HUGE,
        )

    @settings(max_examples=60, deadline=None)
    @given(
        text=st.one_of(
            st.text(max_size=6),
            st.floats().map(str),
            st.sampled_from(["", "1.5", "1e3", "0x10", "-", "five"]),
        ).filter(not_an_integer)
    )
    def test_non_integer_text_is_a_usage_error(self, text):
        for template in NUMERIC_OPTIONS:
            argv = [arg.format(text) for arg in template]
            code, out, err = run_quietly(argv)
            assert_clean_exit(code, out, err)
            assert code == 2 and out == "", argv


# Fuzzed Ferrers drawing: small partition texts, and members of the side a
# direction maps from, draw both diagrams or are refused with one error
# line; a weight above MAX_GLYPHS is only ever refused, before anything is
# drawn or mapped.
small_parts = st.lists(st.integers(1, 30), max_size=8)
direction = st.sampled_from([[], ["--inverse"]])
member_and_direction = st.sampled_from(
    [
        (list(member), flags)
        for family, flags in ((Family.OD_EU, []), (Family.EU_OD, ["--inverse"]))
        for n in range(21)
        for member in enumerate_family(family, n)
    ]
)


class TestFerrersFuzz:
    @settings(max_examples=100, deadline=None)
    @given(drawn=st.one_of(st.tuples(small_parts, direction), member_and_direction))
    def test_small_partitions_draw_or_are_refused(self, drawn):
        parts, flags = drawn
        argv = ["map", f"--input={','.join(map(str, parts))}", "--ferrers", *flags]
        code, out, err = run_quietly(argv)
        assert_clean_exit(code, out, err)
        assert code in (0, 1), (argv, err)
        if code == 0:
            lines = out.splitlines()
            drawn = sorted(parts, reverse=True)
            assert lines[1 : 1 + len(drawn)] == ["#" * part for part in drawn]
            # the map keeps the weight, so the two diagrams hold equal glyphs
            assert out.count("#") == 2 * sum(parts)

    @settings(max_examples=60, deadline=None)
    @given(top=st.integers(MAX_GLYPHS + 1, 10**30), parts=small_parts, flags=direction)
    def test_huge_weights_are_refused(self, top, parts, flags):
        text = ",".join(map(str, [top, *parts]))
        code, out, err = run_quietly(["map", f"--input={text}", "--ferrers", *flags])
        assert_clean_exit(code, out, err)
        assert code == 1
        assert err.startswith("error: a Ferrers diagram of weight")
