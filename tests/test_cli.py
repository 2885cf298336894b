"""End to end tests of the command line interface.

Everything goes through run(argv) so exit codes and output are checked
exactly as a shell user would see them.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from parityparts import cli
from parityparts.cli import run
from parityparts.core import format_partition, parse_partition
from parityparts.families import ENUMERATION_CUTOFF, SAMPLE_CUTOFF
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
        code, _, err = invoke(
            capsys, "enumerate", "--family", "od_eu", "--n", "80", "--cutoff", "70"
        )
        assert code == 1
        assert "cutoff" in err


class TestSample:
    def test_deterministic_and_in_family(self, capsys):
        argv = ["sample", "--family", "od_eu", "--n", "30", "--count", "5", "--seed", "11"]
        code, first, _ = invoke(capsys, *argv)
        assert code == 0
        code, second, _ = invoke(capsys, *argv)
        assert first == second
        assert len(first.splitlines()) == 5

    def test_weight_above_cutoff_fails(self, capsys):
        n = str(SAMPLE_CUTOFF + 1)
        code, out, err = invoke(capsys, "sample", "--family", "od_eu", "--n", n)
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
