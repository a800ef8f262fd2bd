import argparse
import hashlib
import json
import sys
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
    classifies all arguments, then hands them to the command's parser."""
    try:
        args = cli.build_parser().parse_args(argv)
    except SystemExit as exc:
        return exc.code if exc.code is not None else cli.EXIT_USAGE
    try:
        return args.func(args)
    except (HoradamError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return cli._EXIT_CODES.get(type(exc), cli.EXIT_USAGE)


FIB = ["--preset", "fibonacci"]


class TestArgvParsing:
    @pytest.mark.parametrize("argv", [
        ["eval", *FIB, "--kind", "w", "--n", "-7", "--method", "doubling", "--json"],
        ["verify", "--id", "H", *FIB, "--assign", "n=1,m=3,r=2,s=0", "--json"],
        ["fuzz", "--ids", "H", "--trials", "1", "--json"],
        ["sum", "--theorem", "5", "--variant", "1", *FIB,
         "--assign", "n=9,m=2,r=1,s=0,k=1", "--json"],
        ["bench", "--n", "64", "--mod", "97", "--json"],
    ], ids=["eval", "verify", "fuzz", "sum", "bench"])
    def test_one_parse_per_call(self, capsys, monkeypatch, argv):
        # the command's parser alone reads the arguments, once
        calls = []
        parse_known_args = argparse.ArgumentParser.parse_known_args

        def counting(self, *args, **kwargs):
            calls.append(self.prog)
            return parse_known_args(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "parse_known_args", counting)
        code, _, err = run(capsys, argv)
        assert (code, err) == (0, "")
        assert calls == [f"horadam {argv[0]}"]

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
    ], ids=["empty", "-h", "--help", "-h-eval", "unknown-command", "top-level-option",
            "eval-h", "bench-h", "trailing-positional", "unknown-option", "bad-choice",
            "missing-n", "ambiguous-prefix", "double-dash", "abbreviated-option"])
    def test_usage_paths_match_the_two_pass_parse(self, capsys, argv):
        assert run(capsys, argv) == run(capsys, argv, entry=two_pass_main)

    @pytest.mark.parametrize("tail,code", [
        (["eval", *FIB, "--kind", "v", "--n", "4", "--json"], 0), (["eval"], 2), ([], 2),
    ], ids=["valid", "missing-flags", "empty"])
    def test_default_argv_is_sys_argv(self, capsys, monkeypatch, tail, code):
        monkeypatch.setattr(sys, "argv", ["horadam", *tail])
        got = run(capsys, None)
        assert got[0] == code
        assert got == run(capsys, None, entry=two_pass_main)
