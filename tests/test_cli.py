"""End to end tests of the command line interface.

Everything goes through run(argv) so exit codes and output are checked
exactly as a shell user would see them.
"""

import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from parityparts import cli
from parityparts.casemap import WITNESS_CUTOFF
from parityparts.cli import run
from parityparts.core import MAX_PARTS, format_partition, parse_partition
from parityparts.families import (
    ENUMERATION_CUTOFF,
    MAX_DRAWS,
    MAX_SAMPLED_WEIGHTS,
    SAMPLE_CUTOFF,
    Family,
)
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

    def test_exhaustive_above_cutoff_fails_before_verifying(self, capsys, monkeypatch):
        # the range is refused as a whole, so no weight below the cutoff is verified
        calls = []
        monkeypatch.setattr(cli, "verify_exhaustive", lambda n: calls.append(n))
        code, out, err = invoke(
            capsys, "verify", "--mode", "exhaustive", "--from", str(ENUMERATION_CUTOFF - 2),
            "--to", str(ENUMERATION_CUTOFF + 1),
        )
        assert code == 1
        assert out == ""
        assert err.count("\n") == 1 and "cutoff" in err
        assert calls == []

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


def test_help_exits_zero(capsys):
    code, out, _ = invoke(capsys, "--help")
    assert code == 0
    assert "subcommand" in out or "count" in out


def test_module_entry_point_runs_the_command():
    src = str(Path(__file__).resolve().parent.parent / "src")
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))
    proc = subprocess.run(
        [sys.executable, "-m", "parityparts.cli", "count", "--family", "od_eu", "--n", "5"],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == 0
    assert proc.stdout == "3\n"


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
