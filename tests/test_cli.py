import argparse
import hashlib
import itertools
import json
import random
import sys
import types
from fractions import Fraction

import pytest

from horadam import bench, catalog, cli, theorems
from horadam.errors import HoradamError, NonInvertible
from horadam.sequences import PRESETS, HoradamParams, fast_uv
from horadam.cli import main

GOLDEN_EVAL = (
    '{"command":"eval","kind":"u","method":"iterative","n":10,'
    '"params":{"a":"0","b":"1","p":"1","q":"-1"},"schema_version":1,"value":"55"}\n'
)
GOLDEN_VERIFY = (
    '{"command":"verify","params":{"a":"0","b":"1","p":"1","q":"-1"},'
    '"report":{"assignment":{"m":3,"n":1,"r":2,"s":0},"equal":true,"error":null,'
    '"identity":"H","lhs":"3","rhs":"3"},"schema_version":1}\n'
)
GOLDEN_FUZZ = (
    '{"all_passed":true,"bound":9,"command":"fuzz",'
    '"identities":[{"counterexample":null,"identity":"H","passes":3,"trials":3},'
    '{"counterexample":null,"identity":"mul.16","passes":3,"trials":3}],'
    '"max_index":5,"schema_version":1,"seed":7,"trials":3}\n'
)
GOLDEN_FUZZ_FAILING = (
    '{"all_passed":false,"bound":9,"command":"fuzz","identities":['
    '{"counterexample":null,"identity":"H","passes":3,"trials":3},'
    '{"counterexample":{"assignment":{"n":-3},"equal":false,"error":null,'
    '"identity":"broken","lhs":"3708/343","rhs":"4051/343"},'
    '"identity":"broken","passes":0,"trials":3}],'
    '"max_index":5,"schema_version":1,"seed":2,"trials":3}\n'
)
GOLDEN_SUM = (
    '{"command":"sum","params":{"a":"0","b":"1","p":"1","q":"-1"},'
    '"report":{"assignment":{"k":1,"m":2,"n":9,"r":1,"s":0},"closed_form":"123",'
    '"direct_sum":"123","equal":true,"kind":"w","lemma_engine":"123","notes":[],'
    '"theorem":5,"variant":1},"schema_version":1}\n'
)

# sha256 of `horadam fuzz --json` stdout by seed, as the fuzzer printed it
# before its trials were compiled into chunks: every registry entry, and a
# short list out of registry order with a failing and a raising entry
FUZZ_ALL_SHA256 = {
    0: "cee61b6d76899451828cf5f39ad42ec86bda200cbe8095222b2b00f57dada6e2",
    1: "c0822b48e7bbf46dab6711af9efcb2ee13f4ed404b981d298643747d1a6b6769",
    2: "b70a12dd4f509822e2b5a622a20ad3d006a5d9c7eccd675e7bacccfd5f5ae9f0",
    3: "9e3e1bc838eb01f919904cd90c871b0f7f1bc4b956fe78349d47e74895d1991d",
    7: "f8b6c8ce1dd697fa84c33ab0c464afb598352e1ecfa0311cf92e10a714442c74",
}
FUZZ_SHORT_IDS = "cor2.75,raising,H,neg.20,broken,lin.9,spec.26,mul.16"
FUZZ_SHORT_SHA256 = {
    0: "1839398069b3a5bb6b4371cc1d71714fb147ade4d757d2c9e12efdab0766fa72",
    1: "9e7d9746621bbc5a5563669819698ee1ad9bc70f68a9b8060a829edbd77ef486",
    2: "301ae7f930150154a70ba79da220d6999c96c8fa93d26b821fe87993eff096e6",
    3: "45137d726ac3a647ffc3ce57ce7fa1acf279fa5ee0482be4aa16260499e3347c",
    7: "8a5595a2ca1847ec09065cf43c1aac80d5b28ce3c387b89520692e33b274da4d",
}

# `horadam sum --json` over every (theorem, variant, kind) selector, each on
# a cycled parameter set and assignment (rational and negative values), then
# one guard exit (6) and one singular exit (5)
SUM_PARAMS = [("3/2", "-5/7", "1/3", "-2"), ("-2", "3", "-1/2", "5/4"),
              ("1", "-1", "2", "1"), ("-4/3", "-2/9", "7", "-3/5")]
SUM_ASSIGNMENTS = ["n=4,m=-2,r=3,s=-1,k=2", "n=-4,m=5,r=-2,s=1,k=3",
                   "n=2,m=3,r=1,s=-2,k=1", "n=-5,m=-1,r=2,s=4,k=0"]
SUM_ARGVS = [
    ["sum", "--theorem", str(theorem), "--variant", str(variant), "--kind", kind,
     *(f"--{x}={value}" for x, value in zip("pqab", SUM_PARAMS[i % 4])),
     "--assign", SUM_ASSIGNMENTS[i // 3 % 4], "--json"]
    for i, (theorem, variant, kind) in enumerate(
        (theorem, variant, kind) for theorem, count in sorted(theorems.VARIANT_COUNT.items())
        for variant in range(1, count + 1) for kind in "uvw")
] + [["sum", "--theorem", "4", "--variant", "1", "--preset", "pell",
      "--assign", "n=3,m=2,r=1,s=1,k=2", "--json"],
     ["sum", "--theorem", "5", "--variant", "1", "--preset", "fibonacci",
      "--assign", "n=2,m=2,r=1,s=0,k=2", "--json"]]
# sha256 of each SUM_ARGVS run as "<exit code>\n<stdout>", concatenated
SUM_SHA256 = "b87fc1fb6fb6d0cd3b99f58ece9bf346b0bf3f8b80115a4a352f4d9c937e8732"

# `horadam sum --scan --json` over every selector at three assignments: one
# on rational parameters, one with r == s (every selector's guard then reads
# u(r-s) = u(0) = 0, so the scan exits 6 as the sum does) and one whose
# windows cross u(0) = 0
SCAN_ASSIGNMENTS = [
    ["--p=3/2", "--q=-5/7", "--a=1/3", "--b=-2", "--assign", "n=4,m=-2,r=3,s=-1,k=2"],
    ["--preset", "fibonacci", "--assign", "n=5,m=2,r=1,s=1,k=2"],
    ["--preset", "fibonacci", "--assign", "n=2,m=2,r=1,s=0,k=2"],
]
SCAN_ARGVS = [
    ["sum", "--theorem", str(theorem), "--variant", str(variant), "--kind", kind,
     *assignment, "--scan", "--json"]
    for theorem, count in sorted(theorems.VARIANT_COUNT.items())
    for variant in range(1, count + 1) for kind in "uvw" for assignment in SCAN_ASSIGNMENTS
]
# sha256 of each SCAN_ARGVS run as "<exit code>\n<stdout>", concatenated, as
# computed when the scan first ran the sum's admission
SCAN_SHA256 = "43064a82467a91304c6438a420d754054268f66670e6836fd1dd49846d41e497"

# `horadam eval` over the three methods and kinds at both signs of n, the
# `--opt=value` and `--opt value` forms, presets and --p/--q/--a/--b, and
# repeated options; then usage errors, argparse's and the library's
EVAL_PARAMS = [["--preset", "fibonacci"], ["--preset=pell", "--a=-3/2", "--b", "5/7"],
               ["--p", "3/4", "--q=-5/6", "--a", "9/4", "--b=-7/6"],
               ["--p=1/2", "--q=-3/7", "--a=2", "--b=-5/3"]]
EVAL_ARGVS = [
    ["eval", *EVAL_PARAMS[i % 4], "--kind", kind,
     *([f"--n={n}"] if i % 2 else ["--n", str(n)]), f"--method={method}",
     *(["--json"] if i % 3 else [])]
    for i, (method, kind, n) in enumerate(itertools.product(
        ("iterative", "doubling", "binet"), "uvw", (37, -37)))
] + [
    ["eval", "--p=5", "--p", "1/2", "--q=-3/7", "--kind", "u", "--kind=w", "--n", "9", "--json"],
    ["eval", "--preset", "lucas", "--meth", "binet", "--kind", "v", "--n", "12"],
    ["eval", "--preset", "fibonacci", "--kind", "x", "--n", "5"],
    ["eval", "--preset", "fibonacci", "--kind", "u", "--method=fast", "--n", "5"],
    ["eval", "--preset", "fibonacci", "--kind", "u"],
    ["eval", "--preset", "fibonacci", "--kind", "u", "--n", "5", "--json=1"],
    ["eval", "--p", "-3/4", "--q", "1", "--kind", "u", "--n", "5"],
    ["eval", "--pre", "fibonacci", "--kind", "u", "--n", "5"],
    ["eval", "--preset", "fibonacci", "--kind", "u", "--n=x"],
    ["eval", "--p=", "--q=1", "--kind", "u", "--n", "5"],
    ["eval", "--p", "2", "--q", "1", "--kind", "u", "--n", "5", "--method", "binet"],
]
# sha256 of each EVAL_ARGVS run as "<exit code>\n<stdout>\n<stderr>", concatenated
EVAL_SHA256 = "de0d95ba9b4207a65645aec4a4c01b82b1864bcd4a0451eb2d30f5e6d93d5d24"

BROKEN = catalog._I("broken", "n", "u(n) = u(n) + 1")


def run(capsys, argv, entry=main):
    code = entry(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestGolden:
    def test_eval_bytes(self, capsys):
        code, out, err = run(capsys, ["eval", "--preset", "fibonacci",
                                      "--kind", "u", "--n", "10", "--json"])
        assert (code, err) == (0, "")
        assert out == GOLDEN_EVAL

    def test_verify_bytes(self, capsys):
        code, out, err = run(capsys, ["verify", "--id", "H", "--preset", "fibonacci",
                                      "--assign", "n=1,m=3,r=2,s=0", "--json"])
        assert (code, err) == (0, "")
        assert out == GOLDEN_VERIFY

    def test_fuzz_bytes(self, capsys):
        argv = ["fuzz", "--ids", "H,mul.16", "--trials", "3", "--seed", "7",
                "--max-index", "5", "--json"]
        code, out, err = run(capsys, argv)
        assert (code, err) == (0, "")
        assert out == GOLDEN_FUZZ

    def test_failing_fuzz_bytes(self, capsys, monkeypatch):
        monkeypatch.setattr(catalog, "REGISTRY", dict(catalog.REGISTRY, broken=BROKEN))
        argv = ["fuzz", "--ids", "H,broken", "--trials", "3", "--seed", "2",
                "--max-index", "5", "--json"]
        code, out, err = run(capsys, argv)
        assert (code, err) == (4, "")
        assert out == GOLDEN_FUZZ_FAILING

    @pytest.mark.parametrize("seed", sorted(FUZZ_ALL_SHA256))
    def test_fuzz_all_bytes_are_pinned(self, capsys, seed):
        argv = ["fuzz", "--ids", "all", "--trials", "3", "--seed", str(seed), "--json"]
        code, out, err = run(capsys, argv)
        assert (code, err) == (0, "")
        assert hashlib.sha256(out.encode()).hexdigest() == FUZZ_ALL_SHA256[seed]

    @pytest.mark.parametrize("seed", sorted(FUZZ_SHORT_SHA256))
    def test_fuzz_short_list_bytes_are_pinned(self, capsys, monkeypatch, seed):
        # the raising entry's side raises NegativeK at n < 0
        monkeypatch.setattr(catalog, "REGISTRY", dict(
            catalog.REGISTRY, broken=catalog._I("broken", "n", "u(n) = u(n) + 1"),
            raising=catalog._I("raising", "n", "u(n) = C(n,0)*u(n)")))
        argv = ["fuzz", "--ids", FUZZ_SHORT_IDS, "--trials", "5", "--seed", str(seed), "--json"]
        code, out, err = run(capsys, argv)
        assert (code, err) == (4, "")
        assert hashlib.sha256(out.encode()).hexdigest() == FUZZ_SHORT_SHA256[seed]

    def test_sum_bytes(self, capsys):
        argv = ["sum", "--theorem", "5", "--variant", "1", "--preset", "fibonacci",
                "--assign", "n=9,m=2,r=1,s=0,k=1", "--json"]
        code, out, err = run(capsys, argv)
        assert (code, err) == (0, "")
        assert out == GOLDEN_SUM

    def test_sum_bytes_are_pinned(self, capsys):
        digest = hashlib.sha256()
        codes = []
        for argv in SUM_ARGVS:
            code, out, _ = run(capsys, argv)
            codes.append(code)
            digest.update(f"{code}\n{out}".encode())
        assert codes == [0] * 66 + [6, 5]
        assert digest.hexdigest() == SUM_SHA256

    def test_sum_scan_bytes_are_pinned(self, capsys):
        digest = hashlib.sha256()
        flagged = scanned = guarded = 0
        for argv in SCAN_ARGVS:
            code, out, err = run(capsys, argv)
            if code == 6:
                # only the r == s assignment, whose guard reads u(0)
                assert SCAN_ASSIGNMENTS[1][-1] in argv, argv
                assert out == "" and err.startswith("error: guard violated: "), argv
                guarded += 1
            else:
                assert (code, err) == (0, ""), argv
                scan = json.loads(out)["scan"]
                scanned += bool(scan)
                flagged += any(entry["zero"] for entry in scan)
            digest.update(f"{code}\n{out}".encode())
        assert (len(SCAN_ARGVS), scanned, flagged, guarded) == (198, 48, 24, 66)
        assert digest.hexdigest() == SCAN_SHA256

    def test_eval_bytes_are_pinned(self, capsys):
        digest = hashlib.sha256()
        codes = []
        for argv in EVAL_ARGVS:
            code, out, err = run(capsys, argv)
            codes.append(code)
            digest.update(f"{code}\n{out}\n{err}".encode())
        assert codes == [0] * 20 + [2] * 8 + [3]
        assert digest.hexdigest() == EVAL_SHA256

    def test_repeat_runs_byte_identical(self, capsys):
        argv = ["fuzz", "--ids", "all", "--trials", "2", "--seed", "123", "--json"]
        _, first, _ = run(capsys, argv)
        _, second, _ = run(capsys, argv)
        assert first == second
        assert json.loads(first)["all_passed"] is True


class TestEval:
    def test_plain_value(self, capsys):
        code, out, _ = run(capsys, ["eval", "--preset", "fibonacci",
                                    "--kind", "u", "--n", "10"])
        assert code == 0 and out == "55\n"

    def test_lucas_v0(self, capsys):
        code, out, _ = run(capsys, ["eval", "--preset", "fibonacci",
                                    "--kind", "v", "--n", "0"])
        assert code == 0 and out == "2\n"

    def test_methods_agree(self, capsys):
        # Pell has L = lcm(den p, den q) = 1; the second set has L = 12, so a
        # wrong power of L in the doubling scale shows
        cases = [(["--preset", "pell", "--a=-3/2", "--b", "5/7"], (12, 1, 0, -1, -12)),
                 (["--p", "3/4", "--q=-5/6", "--a", "9/4", "--b=-7/6"], (1500, -1500))]
        for params, ns in cases:
            for kind in "uvw":
                for n in ns:
                    values = {}
                    for method in ("iterative", "doubling", "binet"):
                        code, out, _ = run(capsys, ["eval", *params, "--kind", kind,
                                                    "--n", str(n), "--method", method])
                        assert code == 0
                        values[method] = out
                    assert len(set(values.values())) == 1, (params, kind, n, values)

    def test_doubling_never_iterates(self, capsys, monkeypatch):
        def no_term(*args):
            raise AssertionError("term called")
        monkeypatch.setattr(cli, "term", no_term)
        for kind, n in (("w", 9), ("u", -9), ("v", -9), ("w", -9)):
            code, _, err = run(capsys, ["eval", "--p", "1/2", "--q=-3/7", "--a", "2",
                                        "--b=-5/3", "--kind", kind, "--n", str(n),
                                        "--method", "doubling"])
            assert code == 0 and err == ""

    def test_term_past_int_str_digit_limit(self, capsys):
        code, out, _ = run(capsys, ["eval", "--preset", "fibonacci", "--kind", "u",
                                    "--n", "21000", "--method", "doubling", "--json"])
        assert code == 0
        value = json.loads(out)["value"]
        u, _ = fast_uv(PRESETS["fibonacci"], 21000)
        assert len(value) == 4389 and 10 ** 4388 <= u < 10 ** 4389
        assert int(value[-18:]) == u % 10 ** 18 and int(value[:18]) == u // 10 ** 4371

    def test_negative_rational_flags(self, capsys):
        code, out, _ = run(capsys, ["eval", "--p", "1/2", "--q=-3/7", "--a", "2",
                                    "--b=-5/3", "--kind", "w", "--n", "-4"])
        assert code == 0 and out == "29645/486\n"


class TestExitCodes:
    def test_degenerate_root_is_3(self, capsys):
        code, _, err = run(capsys, ["eval", "--p", "2", "--q", "1", "--kind", "u",
                                    "--n", "5", "--method", "binet"])
        assert code == 3 and "p^2 - 4q" in err

    def test_unknown_identity_is_2(self, capsys):
        code, _, err = run(capsys, ["verify", "--id", "nosuch",
                                    "--preset", "fibonacci", "--assign", "n=1"])
        assert code == 2 and "nosuch" in err

    def test_singular_summand_is_5(self, capsys):
        code, _, err = run(capsys, ["sum", "--theorem", "5", "--variant", "1",
                                    "--preset", "fibonacci",
                                    "--assign", "n=2,m=2,r=1,s=0,k=2"])
        assert code == 5 and "denominator" in err

    def test_guard_violation_is_6(self, capsys):
        code, _, err = run(capsys, ["sum", "--theorem", "2", "--variant", "1",
                                    "--preset", "fibonacci",
                                    "--assign", "n=4,m=2,r=1,s=1,k=2"])
        assert code == 6 and "guard" in err

    def test_composite_modulus_is_2(self, capsys):
        code, _, err = run(capsys, ["bench", "--n", "100", "--mod", "10"])
        assert code == 2 and "not prime" in err

    def test_bench_index_below_one_is_2(self, capsys):
        assert run(capsys, ["bench", "--n", "0"]) == (2, "", "error: bench needs n >= 1, got 0\n")

    def test_parameter_without_residue_is_2(self, capsys):
        code, _, err = run(capsys, ["bench", "--n", "5", "--p", "1/7", "--mod", "7"])
        assert code == 2 and "no residue mod 7" in err
        with pytest.raises(NonInvertible):
            bench.run_bench(Fraction(1, 7), Fraction(-1), 5, 7)

    def test_bad_arguments_are_2(self, capsys):
        assert run(capsys, ["eval", "--kind", "u", "--n", "1"])[0] == 2  # no params
        assert run(capsys, ["eval", "--preset", "fibonacci", "--p", "1", "--q", "1",
                            "--kind", "u", "--n", "1"])[0] == 2  # two sources
        assert run(capsys, ["eval", "--preset", "nosuch",
                            "--kind", "u", "--n", "1"])[0] == 2
        assert run(capsys, ["nosuchcommand"])[0] == 2

    def test_repeated_assignment_key_is_2(self, capsys):
        code, out, err = run(capsys, ["verify", "--id", "H", "--preset", "fibonacci",
                                      "--assign", "n=1,m=3,r=2,s=0,n=5"])
        assert (code, out) == (2, "") and "'n' twice" in err

    def test_non_integer_assignment_value_is_2(self, capsys):
        code, out, err = run(capsys, ["verify", "--id", "H", "--preset", "fibonacci",
                                      "--assign", "n=x,m=3,r=2,s=0"])
        assert (code, out) == (2, "")
        assert err == ("error: bad assignment entry 'n=x': the value of 'n' is not "
                       "an integer; expected var=int\n")

    def test_empty_assignment_piece_is_skipped(self, capsys):
        argv = ["verify", "--id", "H", "--preset", "fibonacci", "--assign"]
        spaced = run(capsys, [*argv, "n=1,,m=2,r=1,s=0"])
        assert spaced[0] == 0 and spaced == run(capsys, [*argv, "n=1,m=2,r=1,s=0"])

    def test_assignment_entry_without_value_is_2(self, capsys):
        assert run(capsys, ["verify", "--id", "H", "--preset", "fibonacci",
                            "--assign", "n=1,m,r=1,s=0"]) == (
            2, "", "error: bad assignment entry 'm'; expected var=int\n")

    def test_sum_without_k_is_2(self, capsys):
        assert run(capsys, ["sum", "--theorem", "2", "--variant", "1", "--preset", "fibonacci",
                            "--assign", "n=3,m=2,r=1,s=0"]) == (
            2, "", "error: sum needs assignment of exactly ['k', 'm', 'n', 'r', 's']\n")

    def test_usage_error_leaves_the_next_parse_untouched(self, capsys):
        # the parser is built once per process and reused by every call
        valid = ["eval", "--p=3/4", "--q=-5/6", "--a=1/2", "--b=2", "--kind", "w",
                 "--n=-7", "--json"]
        alone = run(capsys, valid)
        assert alone[0] == 0 and '"method":"iterative"' in alone[1]
        code, out, err = run(capsys, ["eval", "--preset", "fibonacci", "--method", "binet",
                                      "--kind", "x", "--n", "3"])
        assert (code, out) == (2, "") and "invalid choice" in err
        assert run(capsys, valid) == alone
        assert cli.build_parser() is cli.build_parser()

    def test_verify_inequality_is_4(self, capsys, monkeypatch):
        monkeypatch.setattr(catalog, "REGISTRY", dict(catalog.REGISTRY, broken=BROKEN))
        code, out, _ = run(capsys, ["verify", "--id", "broken",
                                    "--preset", "fibonacci", "--assign", "n=2"])
        assert code == 4
        code, out, _ = run(capsys, ["fuzz", "--ids", "broken", "--trials", "2",
                                    "--seed", "1", "--json"])
        assert code == 4
        assert json.loads(out)["all_passed"] is False

    def test_fuzz_text_names_the_counterexample(self, capsys, monkeypatch):
        monkeypatch.setattr(catalog, "REGISTRY", dict(catalog.REGISTRY, broken=BROKEN))
        assert run(capsys, ["fuzz", "--ids", "H,broken", "--trials", "3", "--seed", "2",
                            "--max-index", "5"]) == (4, (
            "ok   H: 3/3\n"
            "FAIL broken: 0/3\n"
            "     counterexample: {'identity': 'broken', 'assignment': {'n': -3}, "
            "'lhs': '3708/343', 'rhs': '4051/343', 'equal': False, 'error': None}\n"
            "all passed: False\n"), "")

    @pytest.mark.parametrize("flags,message", [
        (["--ids", "H,H", "--seed", "1", "--json"],
         "error: fuzz needs one or more distinct identity ids, got ['H', 'H']\n"),
        (["--ids", ",,"], "error: fuzz needs one or more distinct identity ids, got []\n"),
        (["--ids", "H", "--max-index", "-1"], "error: max_index must be >= 0, got -1\n"),
        (["--ids", "H", "--max-numden", "0"], "error: bound must be >= 1, got 0\n"),
    ], ids=["repeated-id", "no-ids", "negative-max-index", "zero-bound"])
    def test_bad_fuzz_arguments_are_2(self, capsys, flags, message):
        assert run(capsys, ["fuzz", "--trials", "2", *flags]) == (2, "", message)

    def test_success_paths_keep_stderr_clean(self, capsys):
        for argv in (
            ["eval", "--preset", "fibonacci", "--kind", "u", "--n", "5"],
            ["verify", "--id", "H", "--preset", "fibonacci",
             "--assign", "n=1,m=3,r=2,s=0"],
            ["fuzz", "--ids", "H", "--trials", "1", "--seed", "1"],
            ["bench", "--n", "64", "--mod", "97"],
        ):
            _, _, err = run(capsys, argv)
            assert err == ""


class TestSumCommand:
    def test_guarded_k0_note_present(self, capsys):
        code, out, _ = run(capsys, ["sum", "--theorem", "2", "--variant", "1",
                                    "--preset", "fibonacci", "--a", "3", "--b", "2",
                                    "--assign", "n=4,m=2,r=1,s=0,k=0", "--json"])
        assert code == 0
        notes = json.loads(out)["report"]["notes"]
        assert notes and "outside the stated hypothesis" in notes[0]

    def test_scan_mode(self, capsys):
        code, out, _ = run(capsys, ["sum", "--theorem", "5", "--variant", "1",
                                    "--preset", "fibonacci",
                                    "--assign", "n=2,m=2,r=1,s=0,k=2", "--scan",
                                    "--json"])
        assert code == 0  # scanning is diagnostic, not an error
        doc = json.loads(out)
        assert doc["safe"] is False
        assert any(e["zero"] and e["index"] == 0 for e in doc["scan"])

    def test_guarded_k0_note_in_text_mode(self, capsys):
        code, out, _ = run(capsys, ["sum", "--theorem", "2", "--variant", "1",
                                    "--preset", "fibonacci", "--a", "3", "--b", "2",
                                    "--assign", "n=4,m=2,r=1,s=0,k=0"])
        assert code == 0
        assert out.splitlines()[-2:] == [
            "  note: k=0 is outside the stated hypothesis (positive k); the sum still evaluates",
            "  equal: True"]

    def test_scan_mode_in_text(self, capsys):
        assert run(capsys, ["sum", "--theorem", "5", "--variant", "1", "--preset", "fibonacci",
                            "--assign", "n=3,m=2,r=1,s=0,k=2", "--scan"]) == (0, (
            "j=0 index=0 zero=True\n"
            "j=0 index=1 zero=False\n"
            "j=1 index=2 zero=False\n"
            "j=2 index=3 zero=False\n"
            "safe: False\n"), "")

    @pytest.mark.parametrize("assign", ["n=5,m=2,r=1,s=1,k=2", "n=7,m=3,r=1,s=1,k=2"])
    @pytest.mark.parametrize("json_flag", [[], ["--json"]], ids=["text", "json"])
    def test_scan_and_sum_both_exit_6_at_a_zero_stride(self, capsys, assign, json_flag):
        # at r == s theorem 6's third form would sum on a relation with
        # d == c; the guard on h = u(r-s) = u(0) stops it first, and the
        # scan runs the same guard: both exit 6 with the same error
        argv = ["sum", "--theorem", "6", "--variant", "3", "--preset", "fibonacci",
                "--assign", assign, *json_flag]
        code, out, err = run(capsys, argv)
        assert (code, out) == (6, "") and err.startswith("error: guard violated: u(0) = 0")
        assert run(capsys, [*argv, "--scan"]) == (code, out, err)

    def test_text_output_shows_the_evaluated_formula(self, capsys):
        argv = ["sum", "--theorem", "4", "--variant", "1", "--preset", "fibonacci",
                "--a", "3", "--b", "2", "--assign", "n=5,m=3,r=2,s=0,k=2"]
        code, out, _ = run(capsys, argv)
        first = out.splitlines()[0]
        assert code == 0
        assert first == f"theorem 4 variant 1 (w-form): {theorems._BASES[4][0][0]}"
        assert "(r, s) -> (-s, -r)" not in out

    def test_text_output_names_the_swap_and_the_kind(self, capsys):
        argv = ["sum", "--theorem", "2", "--variant", "5", "--kind", "v",
                "--preset", "fibonacci", "--assign", "n=4,m=2,r=1,s=0,k=2"]
        code, out, _ = run(capsys, argv)
        lines = out.splitlines()
        assert code == 0
        assert lines[0].startswith("theorem 2 variant 5 (v-form): sum_{j=0}^{k} ")
        assert lines[0].endswith(theorems.TheoremSelector(2, 5).formula.replace("w(", "v("))
        assert "misprint corrected" in lines[0]
        assert lines[1] == "  evaluated at (r, s) -> (-s, -r)"

    def test_kind_specialization(self, capsys):
        argv = ["sum", "--theorem", "4", "--variant", "3", "--kind", "u",
                "--preset", "pell", "--assign", "n=5,m=3,r=2,s=1,k=2", "--json"]
        code, out, _ = run(capsys, argv)
        assert code == 0 and json.loads(out)["report"]["equal"] is True


class TestPresets:
    def test_preset_file(self, tmp_path, capsys):
        preset = tmp_path / "custom.preset"
        preset.write_text("# golden-ratio-free example\np=3\nq=2\na=1\nb=4\n")
        code, out, _ = run(capsys, ["eval", "--preset-file", str(preset),
                                    "--kind", "w", "--n", "5"])
        assert code == 0
        # w follows w_n = 3 w_{n-1} - 2 w_{n-2} from (1, 4)
        w = [1, 4]
        for _ in range(4):
            w.append(3 * w[-1] - 2 * w[-2])
        assert out.strip() == str(w[5])

    def test_preset_dir_env(self, tmp_path, capsys, monkeypatch):
        (tmp_path / "mine.preset").write_text("p=1\nq=-1\na=3\nb=2\n")
        monkeypatch.setenv("HORADAM_PRESETS", str(tmp_path))
        code, out, _ = run(capsys, ["eval", "--preset", "mine",
                                    "--kind", "w", "--n", "4"])
        assert code == 0 and out == "12\n"

    def test_ab_override(self, capsys):
        code, out, _ = run(capsys, ["eval", "--preset", "fibonacci", "--a", "3",
                                    "--b", "2", "--kind", "w", "--n", "4"])
        assert code == 0 and out == "12\n"

    def test_bad_preset_file(self, tmp_path, capsys):
        bad = tmp_path / "bad.preset"
        bad.write_text("p=1\n")  # q missing
        code, _, err = run(capsys, ["eval", "--preset-file", str(bad),
                                    "--kind", "u", "--n", "1"])
        assert code == 2 and "missing" in err

    @pytest.mark.parametrize("text,message", [
        ("p=1\nq=-1\nA=3\nb=2\n", "key 'A' unknown"),
        ("p=1\nq=-1\na=3\nb=2\nb=5\n", "key 'b' given twice"),
    ])
    def test_preset_file_rejects_unknown_and_repeated_keys(self, tmp_path, capsys,
                                                           text, message):
        bad = tmp_path / "bad.preset"
        bad.write_text(text)
        code, out, err = run(capsys, ["eval", "--preset-file", str(bad),
                                      "--kind", "w", "--n", "4"])
        assert (code, out) == (2, "") and message in err

    @pytest.mark.parametrize("flags,built", [
        (["--p=3/4", "--q=-5/6", "--a=1/2", "--b=2"], 1),
        (["--p=3/4", "--q=-5/6"], 1),
        (["--preset", "fibonacci"], 0),
        (["--preset", "fibonacci", "--a", "3"], 1),
    ], ids=["p-q-a-b", "p-q", "preset", "preset-a"])
    def test_one_parameter_set_per_call(self, capsys, monkeypatch, flags, built):
        calls = []
        post_init = HoradamParams.__post_init__

        def counting(self):
            calls.append(self)
            post_init(self)

        monkeypatch.setattr(HoradamParams, "__post_init__", counting)
        code, _, err = run(capsys, ["eval", *flags, "--kind", "w", "--n", "37",
                                    "--method", "doubling", "--json"])
        assert (code, err, len(calls)) == (0, "", built)

    @pytest.mark.parametrize("flags,message", [
        (["--p=0", "--q=1", "--a=x"], "p must be nonzero"),
        (["--p=1", "--q=0", "--b=1/0"], "q must be nonzero"),
        (["--p=1", "--q=2", "--a=x"], "not a rational literal: 'x'"),
    ])
    def test_p_and_q_are_checked_before_the_overrides(self, capsys, flags, message):
        code, out, err = run(capsys, ["eval", *flags, "--kind", "u", "--n", "1"])
        assert (code, out) == (2, "") and message in err

    def test_builtin_presets(self, capsys):
        for name, expect in (("fibonacci", "55"), ("lucas", "123"), ("pell", "2378")):
            code, out, _ = run(capsys, ["eval", "--preset", name,
                                        "--kind", "w", "--n", "10"])
            assert code == 0 and out.strip() == expect


class TestBench:
    def test_modular_bench_matches(self, capsys):
        code, out, _ = run(capsys, ["bench", "--p", "1", "--q", "-1", "--n", "5000",
                                    "--mod", "1000000007", "--json"])
        assert code == 0
        doc = json.loads(out)
        assert doc["results_match"] is True
        assert doc["doubling_steps"] < doc["iterative_steps"]

    def test_exact_bench_small_n(self, capsys):
        code, out, _ = run(capsys, ["bench", "--n", "1", "--json"])
        assert code == 0
        doc = json.loads(out)
        assert doc["results_match"] is True and doc["u"] == "1"

    def test_bench_value_cross_check(self, capsys):
        # modular result must reduce the exact value
        code, out, _ = run(capsys, ["bench", "--n", "200", "--mod", "97", "--json"])
        doc = json.loads(out)
        from horadam.sequences import PRESETS, SequenceKind, term
        exact = term(PRESETS["fibonacci"], SequenceKind.U, 200)
        assert int(doc["u"]) == exact.numerator % 97


def two_pass_main(argv=None):
    """`main` with the top-level parser in front of every argv: `parse_args`
    classifies all arguments, then hands them to the command's parser; a
    value it stores as a list (`--opt=--`) is rejected as `main` rejects it."""
    try:
        args = cli.build_parser().parse_args(argv)
        cli._require_one_value(args)
    except SystemExit as exc:
        return exc.code if exc.code is not None else cli.EXIT_USAGE
    try:
        return args.func(args)
    except (HoradamError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return cli._EXIT_CODES.get(type(exc), cli.EXIT_USAGE)


FIB = ["--preset", "fibonacci"]


# one well-formed argv per command: exact long options, no separate value
# starting with "-"
WELL_FORMED = {
    "eval": ["eval", *FIB, "--kind", "w", "--n=-7", "--method", "doubling", "--json"],
    "verify": ["verify", "--id", "H", *FIB, "--assign", "n=1,m=3,r=2,s=0", "--json"],
    "fuzz": ["fuzz", "--ids", "H", "--trials", "1", "--json"],
    "sum": ["sum", "--theorem", "5", "--variant", "1", *FIB,
            "--assign", "n=9,m=2,r=1,s=0,k=1", "--json"],
    "bench": ["bench", "--n", "64", "--mod", "97", "--json"],
}
# the eval argv with `--n -7` as a separate token: argparse alone knows
# that `-7` is a value there, not an option
SEPARATE_NEGATIVE = ["eval", *FIB, "--kind", "w", "--n", "-7", "--method", "doubling", "--json"]


def _value(action):
    """A value the action accepts."""
    return str(action.choices[0]) if action.choices else "3" if action.type is int else "x"


def _required(command):
    """The command's required options, each with a value it accepts."""
    return [arg for action in command._actions if action.required
            for arg in (action.option_strings[0], _value(action))]


def _corpus(rng, command, size):
    """Random argvs over the command parser's own option strings, prefixes
    and junk tokens, with values that convert, fail to convert or look like
    options."""
    options = sorted(command._option_string_actions)
    junk = ["--pre", "--", "--bogus", "extra"]
    pool = ["0", "1", "3", "-7", "2/3", "-3/4", "", "--", "-", "x", "=", "n=1", "H",
            "fibonacci", "u", "w", "doubling", "5"]
    required = _required(command)
    for _ in range(size):
        argv = list(required) if rng.random() < 0.6 else []
        for _ in range(rng.randint(0, 5)):
            option = rng.choice(junk if rng.random() < 0.05 else options)
            action = command._option_string_actions.get(option)
            value = _value(action) if action and rng.random() < 0.5 else rng.choice(pool)
            shape = rng.random()
            if shape < 0.4:
                argv.append(f"{option}={value}")
            elif shape < 0.8:
                argv += [option, value]
            else:
                argv.append(option)
        yield argv


@pytest.fixture
def fixed_clock(monkeypatch):
    """`bench` times each path as one tick, so its report is deterministic."""
    monkeypatch.setattr(bench, "time", types.SimpleNamespace(
        perf_counter=itertools.count().__next__))


class TestArgvParsing:
    @pytest.mark.parametrize("argv,parses", [
        *((argv, []) for argv in WELL_FORMED.values()),
        (SEPARATE_NEGATIVE, ["horadam", "horadam eval"]),
    ], ids=[*WELL_FORMED, "eval-separate-negative-n"])
    def test_one_parse_per_call(self, capsys, monkeypatch, argv, parses):
        # a well-formed argv is read once, off the command parser's actions,
        # into the Namespace its parse_known_args builds; the separate
        # negative value goes to parse_args, which runs the top-level parser
        # and then the command's. No call builds a JSON encoder: the report
        # is written by the one the module holds
        command = cli._command_parsers()[argv[0]]
        direct = cli._direct_parse(command, argv[1:])
        if parses:
            assert direct is None
        else:
            assert command.parse_known_args(argv[1:]) == (direct, [])
        calls = []
        parse_known_args = argparse.ArgumentParser.parse_known_args

        def counting(self, *args, **kwargs):
            calls.append(self.prog)
            return parse_known_args(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "parse_known_args", counting)
        encoders = []
        encoder_init = json.JSONEncoder.__init__

        def counting_encoder(self, *args, **kwargs):
            encoders.append(kwargs)
            encoder_init(self, *args, **kwargs)

        monkeypatch.setattr(json.JSONEncoder, "__init__", counting_encoder)
        code, _, err = run(capsys, argv)
        assert (code, err) == (0, "")
        assert calls == parses
        assert encoders == []

    def test_each_direct_parse_builds_its_own_namespace(self):
        command = cli._command_parsers()["eval"]
        first, second = (cli._direct_parse(command, WELL_FORMED["eval"][1:]) for _ in range(2))
        assert first is not second and first == second

    def test_a_changed_namespace_leaves_the_defaults(self):
        # the defaults are derived once per parser; what a caller does to one
        # Namespace reaches no later parse
        command = cli._command_parsers()["eval"]
        argv = [*FIB, "--kind", "u", "--n=3"]
        changed = cli._direct_parse(command, argv)
        changed.method, changed.json, changed.extra = "binet", True, 1
        fresh = cli._direct_parse(command, argv)
        assert (fresh.method, fresh.json, hasattr(fresh, "extra")) == ("iterative", False, False)
        assert command.parse_known_args(argv) == (fresh, [])

    def test_every_action_is_read_directly_or_left_to_argparse(self):
        # each option of the five commands is a plain store action or a
        # store_true flag, which the direct parse reads as parse_known_args
        # does; the help flag alone goes to argparse
        for name, command in cli._command_parsers().items():
            required = _required(command)
            for action in command._actions:
                option = action.option_strings[-1]
                if type(action) is argparse._HelpAction:
                    assert cli._direct_parse(command, [*required, option]) is None
                    continue
                assert type(action) in (argparse._StoreAction, argparse._StoreTrueAction)
                # argparse would pass a string default through the action's
                # type; with no such default, the direct parse converts none
                assert not (isinstance(action.default, str) and action.type is not None), (
                    name, option)
                assert action.nargs in (None, 0), (name, option)
                assert all(o[:2] == "--" for o in action.option_strings), (name, option)
                given = [option] if action.nargs == 0 else [option, _value(action)]
                argv = [*required, *given]
                assert (cli._direct_parse(command, argv), []) == command.parse_known_args(argv)

    @pytest.mark.parametrize("name", sorted(WELL_FORMED))
    def test_direct_parse_matches_parse_known_args(self, capsys, fixed_clock, name):
        # on random argvs over each command's options, every Namespace the
        # direct parse returns is parse_known_args's, and main's bytes are
        # the two-pass parse's
        command = cli._command_parsers()[name]
        rng = random.Random(f"argv:{name}")
        direct = 0
        for argv in _corpus(rng, command, 200):
            namespace = cli._direct_parse(command, argv)
            if namespace is not None:
                direct += 1
                assert command.parse_known_args(argv) == (namespace, []), argv
            full = [name, *argv]
            assert run(capsys, full) == run(capsys, full, entry=two_pass_main), full
        assert direct >= 25

    @pytest.mark.parametrize("argv,option", [
        (["eval", "--p=--", "--q=1", "--kind", "u", "--n", "5"], "--p"),
        (["eval", *FIB, "--kind", "u", "--n=--"], "--n"),
        (["eval", *FIB, "--kind=--", "--n", "5"], "--kind"),
        (["verify", "--id=--", *FIB, "--assign", "n=1"], "--id"),
        (["fuzz", "--trials", "1", "--ids=--"], "--ids"),
        (["sum", "--theorem", "5", "--variant", "1", *FIB, "--assign=--"], "--assign"),
        (["bench", "--n", "5", "--p=--"], "--p"),
    ], ids=["eval-p", "eval-n", "eval-kind", "verify-id", "fuzz-ids", "sum-assign",
            "bench-p"])
    def test_explicit_double_dash_value_is_a_usage_error(self, capsys, argv, option):
        # argparse stores `--opt=--` as []; main reports it as argparse
        # reports `--opt --`, with the command's usage and exit 2
        code, out, err = run(capsys, argv)
        assert (code, out) == (2, "")
        assert err.startswith(f"usage: horadam {argv[0]} ")
        assert err.endswith(f"horadam {argv[0]}: error: argument {option}: "
                            "expected one argument\n")
        separate = [token for arg in argv
                    for token in ([option, "--"] if arg == f"{option}=--" else [arg])]
        assert run(capsys, separate) == (code, out, err)

    @pytest.mark.parametrize("argv", [
        [], ["-h"], ["--help"], ["-h", "eval"], ["nosuch"], ["--bogus"],
        ["eval", "-h"], ["bench", "-h"],
        ["eval", *FIB, "--kind", "u", "--n", "5", "extra"],
        ["eval", *FIB, "--kind", "u", "--n", "5", "--bogus", "x"],
        ["eval", *FIB, "--kind", "x", "--n", "5"],
        ["eval", *FIB, "--kind", "u"],
        ["eval", "--pre", "fibonacci", "--kind", "u", "--n", "5"],
        ["eval", "--", "--preset", "fibonacci"],
        ["fuzz", "--ids", "H", "--trials", "1", "--max-i", "3"],
        SEPARATE_NEGATIVE,
        ["eval", "--p=", "--q=1", "--kind", "u", "--n", "5"],
        ["eval", *FIB, "--kind", "u", "--n", "5", "--json=1"],
        ["eval", *FIB, "--kind=x", "--n", "5"],
        ["eval", "--preset", "--json", "--kind", "u", "--n", "5"],
        ["eval", "--p=1", "--q=-1", "--a", "3", "--a=-1/2", "--kind", "w", "--n", "6"],
        *WELL_FORMED.values(),
    ], ids=["empty", "-h", "--help", "-h-eval", "unknown-command", "top-level-option",
            "eval-h", "bench-h", "trailing-positional", "unknown-option", "bad-choice",
            "missing-n", "ambiguous-prefix", "double-dash", "abbreviated-option",
            "separate-negative-n", "empty-p", "flag-with-value", "bad-choice-explicit",
            "preset-then-flag", "repeated-a", *(f"well-formed-{name}" for name in WELL_FORMED)])
    def test_usage_paths_match_the_two_pass_parse(self, capsys, fixed_clock, argv):
        assert run(capsys, argv) == run(capsys, argv, entry=two_pass_main)

    @pytest.mark.parametrize("tail,code", [
        (["eval", *FIB, "--kind", "v", "--n", "4", "--json"], 0), (["eval"], 2), ([], 2),
    ], ids=["valid", "missing-flags", "empty"])
    def test_default_argv_is_sys_argv(self, capsys, monkeypatch, tail, code):
        monkeypatch.setattr(sys, "argv", ["horadam", *tail])
        got = run(capsys, None)
        assert got[0] == code
        assert got == run(capsys, None, entry=two_pass_main)
