import argparse
import io
import json
import os
import shlex
import subprocess
import sys
import time
from pathlib import Path

import pytest

import charp.valuation
from charp import cli, errors
from charp.cli import build_parser, main
from charp.parser import POWER_BUDGET
from charp.poly import MultiPoly
from charp.series import Budget
from charp.valuation import WALK_BUDGET

ROOT = Path(__file__).resolve().parent.parent
README = ROOT / "README.md"

GOLDEN = [
    ("decompose --p 2 --vars 2 --e 1 'x^2+y^2+x'",
     '{"1":"x+y","x":"1"}'),
    ("val --p 2 --stream lacunary 'x'",
     '{"value":1,"precision_certified":16}'),
    ("val --p 2 --stream lacunary 'y - x - x^2'",
     '{"value":6,"precision_certified":16}'),
    ("val --p 2 --stream lacunary 'x^3/(y - x - x^2)'",
     '{"value":-3,"precision_certified":16}'),
    ("dvr distinguish --p 2 --stream-a lacunary --stream-b lacunary+t^3",
     '{"i":3,"fraction":"x^3/(y-x-x^2)","in_ring_a":false,"in_ring_b":true}'),
    ("cartier apply --p 2 --vars 2 --e 1 -g '1' 'x*y'",
     '{"result":"1"}'),
    ("cartier split-check --p 2 --vars 2 --e 1 -g 'x*y+x'",
     '{"is_splitting":true}'),
    ("cartier compose --p 2 --vars 2 --e 1 -g 'x*y' --e2 1 --g2 'x*y'",
     '{"e":2,"multiplier":"x^3*y^3"}'),
    ("cartier compat --p 2 --vars 1 --e 1 -g 'x' -J 'x'",
     '{"compatible":true}'),
    ("cartier compat --p 2 --vars 1 --e 1 -g '1' -J 'x^2'",
     '{"compatible":false}'),
    ("cartier compat --p 2 --vars 1 --e-max 2 -g 'x^3' -J 'x^2'",
     '{"compatible":false,"checked":2,"failures":[{"e":2,"g":"x^3"}]}'),
    # extension fields: u-polynomial coefficients, m > 1 series kernels
    ("dvr distinguish --p 3 --m 2 --stream-a 'from-seed(7)' "
     "--stream-b 'from-seed(7)+t^5'",
     '{"i":5,"fraction":"x^5/(y-(2*u+2)*x-x^2-(u+1)*x^3-(u+1)*x^4-'
     '(2*u+2)*x^5)","in_ring_a":false,"in_ring_b":true}'),
    ("report dvr --p 5 --m 3 --vars 3 --stream lacunary "
     "--stream 'from-seed(11)' --samples 4 --seed 2",
     ('{"subject":{"kind":"embedding-dvr","function_field":"F_5^3(x,y,'
      'z)","streams":["t","lacunary","from-seed(11)"],'
      '"precision_cap":4096,"samples":4,"seed":2},'
      '"evidence":[{"claim":"x generates the maximal ideal: v(x) = 1",'
      '"witness":{"value":1,"precision_certified":16},'
      '"by":"computation"},{"claim":"residue field equals the '
      'coefficient field (transcendence degree 0)",'
      '"witness":{"samples":4,"in_field":4,'
      '"examples":[{"element":"((4*u^2+u+4)*x*y^2*z^2+(2*u^2+4*u+3)'
      '*y*z^3)/x^4","residue":"3*u^2+3*u+1"},'
      '{"element":"((4*u^2+u+4)*x^2*y^3*z^3+(3*u^2+2*u)*x^3*y^2+(u^'
      '2+4*u+4)*x*y*z^2+(2*u^2+u)*x*y*z)/x^3","residue":"3*u^2+u+4"},'
      '{"element":"((4*u^2+4*u+2)*x^2*y^3*z^3+(3*u^2+2*u+3)*x^3*y^3'
      '*z+(u^2+3*u+2)*x^3*y^2*z^2)/x^7","residue":"2*u^2+2*u+2"},'
      '{"element":"((4*u^2+4*u+4)*x^3*y^2*z^2+(2*u^2+4*u+3)*x^3*y^2'
      '*z+(2*u^2+4*u+1)*x^3*y*z^2)/x^6","residue":"u^2+4*u+2"}]},'
      '"by":"computation"},{"claim":"function field has transcendence '
      'degree 3, so a divisorial ring would need residue transcendence '
      'degree 2","witness":{"n":3,"required":2,"observed":0},'
      '"by":"divisorial-residue"}],"assumptions":[{"claim":"stream '
      '\'lacunary\' is transcendental over the rational functions in t",'
      '"provenance":"builtin stream catalog"},{"claim":"stream '
      "'from-seed(11)' is transcendental over the rational functions in "
      't","provenance":"builtin stream catalog"}],'
      '"verdicts":[{"claim":"V is not divisorial",'
      '"by":"divisorial-residue","premise":"residue field has '
      'transcendence degree 0, below n-1"},{"claim":"V is not excellent",'
      '"by":"dvr-trichotomy","premise":"V is not divisorial"},'
      '{"claim":"V is not F-finite","by":"excellent-iff-f-finite",'
      '"premise":"V is not excellent"},{"claim":"V is not Frobenius '
      'split","by":"dvr-trichotomy","premise":"V is not F-finite"},'
      '{"claim":"Hom(F^e_* V, V) = 0 for every e >= 1",'
      '"by":"solidity-criterion","premise":"V is not Frobenius split"}]}')),
    ("report dvr --p 1048573 --m 2 --stream 'lacunary-shift(1)' "
     "--samples 3 --seed 3",
     ('{"subject":{"kind":"embedding-dvr",'
      '"function_field":"F_1048573^2(x,y)","streams":["t",'
      '"lacunary-shift(1)"],"precision_cap":4096,"samples":3,"seed":3},'
      '"evidence":[{"claim":"x generates the maximal ideal: v(x) = 1",'
      '"witness":{"value":1,"precision_certified":16},'
      '"by":"computation"},{"claim":"residue field equals the '
      'coefficient field (transcendence degree 0)",'
      '"witness":{"samples":3,"in_field":3,'
      '"examples":[{"element":"((633256*u+960437)*x*y^2)/x^5",'
      '"residue":"633256*u+960437"},'
      '{"element":"((245713*u+577539)*x^3*y^2+(877093*u+567252)*x*y'
      '^3+(878149*u+952965))/1","residue":"878149*u+952965"},'
      '{"element":"((902847*u+670111)*x^3*y^3+(814989*u+704025)*x^3'
      '+(158987*u+665699)*x*y+(1004008*u+795062)*y)/x^2",'
      '"residue":"1004008*u+795062"}]},"by":"computation"},'
      '{"claim":"function field has transcendence degree 2, so a '
      'divisorial ring would need residue transcendence degree 1",'
      '"witness":{"n":2,"required":1,"observed":0},'
      '"by":"divisorial-residue"}],"assumptions":[{"claim":"stream '
      "'lacunary-shift(1)' is transcendental over the rational functions "
      'in t","provenance":"builtin stream catalog"}],'
      '"verdicts":[{"claim":"V is not divisorial",'
      '"by":"divisorial-residue","premise":"residue field has '
      'transcendence degree 0, below n-1"},{"claim":"V is not excellent",'
      '"by":"dvr-trichotomy","premise":"V is not divisorial"},'
      '{"claim":"V is not F-finite","by":"excellent-iff-f-finite",'
      '"premise":"V is not excellent"},{"claim":"V is not Frobenius '
      'split","by":"dvr-trichotomy","premise":"V is not F-finite"},'
      '{"claim":"Hom(F^e_* V, V) = 0 for every e >= 1",'
      '"by":"solidity-criterion","premise":"V is not Frobenius split"}]}')),
]


def run_cli(capsys, cmdline):
    code = main(shlex.split(cmdline))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestGolden:
    @pytest.mark.parametrize("cmdline,expected", GOLDEN,
                             ids=[g[0][:40] for g in GOLDEN])
    def test_byte_identical_output(self, capsys, cmdline,
                                   expected):
        code, out, _ = run_cli(capsys, cmdline)
        assert code == 0
        assert out == expected + "\n"

    def test_readme_examples_are_live(self, capsys):
        """Every `$ charp ...` block in the README must reproduce its
        documented output byte for byte."""
        text = README.read_text()
        lines = text.splitlines()
        examples = []
        i = 0
        while i < len(lines):
            line = lines[i].strip()
            if line.startswith("$ charp "):
                cmd = line[len("$ charp "):]
                out_lines = []
                j = i + 1
                while j < len(lines):
                    nxt = lines[j]
                    if (nxt.strip().startswith("$") or
                            nxt.strip().startswith("```") or
                            not nxt.strip()):
                        break
                    out_lines.append(nxt)
                    j += 1
                examples.append((cmd, "\n".join(out_lines)))
                i = j
            else:
                i += 1
        assert examples, "README documents no runnable examples"
        for cmd, expected in examples:
            code = main(shlex.split(cmd))
            captured = capsys.readouterr()
            assert code == 0, f"README example failed: charp {cmd}"
            assert captured.out == expected + "\n", \
                f"README output drifted for: charp {cmd}"


class TestBlasThreads:
    @pytest.mark.parametrize("cmdline", [
        "val --p 3 --m 2 --stream 'geometric-gap(5)' '(y-x^5)^3/(x*y+x^2)'",
        "dvr distinguish --p 5 --m 2 --stream-a 'from-seed(3)' "
        "--stream-b 'from-seed(3)+2*t^40'",
        "report dvr --p 2 --stream lacunary --versus lacunary+t^3 "
        "--samples 5",
    ])
    def test_output_does_not_depend_on_blas_threads(self, cmdline):
        """The CLI runs OpenBLAS on one thread unless told otherwise; two
        threads print the same bytes."""
        outputs = []
        for threads in (None, "2"):
            env = {k: v for k, v in os.environ.items()
                   if k != "OPENBLAS_NUM_THREADS"}
            env["PYTHONPATH"] = os.pathsep.join(
                filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
            if threads is not None:
                env["OPENBLAS_NUM_THREADS"] = threads
            proc = subprocess.run(
                [sys.executable, "-m", "charp.cli", *shlex.split(cmdline)],
                env=env, capture_output=True, timeout=120, check=True)
            outputs.append(proc.stdout)
        assert outputs[0] and outputs[0] == outputs[1]


class TestExitCodes:
    def test_usage_error_on_composite_characteristic(self, capsys):
        code, _, err = run_cli(capsys, "decompose --p 4 --vars 1 --e 1 'x'")
        assert code == 2
        assert "NotPrime" in err

    def test_usage_error_on_syntax(self, capsys):
        code, _, err = run_cli(capsys, "decompose --p 2 --vars 1 --e 1 'x+'")
        assert code == 2
        assert "PolySyntaxError" in err

    def test_usage_error_on_unknown_variable(self, capsys):
        code, _, err = run_cli(capsys, "decompose --p 2 --vars 2 --e 1 'z'")
        assert code == 2

    def test_usage_error_on_level_zero(self, capsys):
        code, _, _ = run_cli(capsys, "decompose --p 2 --vars 1 --e 0 'x'")
        assert code == 2

    def test_usage_error_on_missing_flags(self, capsys):
        code, _, _ = run_cli(capsys, "decompose 'x'")
        assert code == 2

    def test_usage_error_on_unknown_stream(self, capsys):
        code, _, err = run_cli(capsys, "val --p 2 --stream nope 'x'")
        assert code == 2

    def test_usage_error_on_stream_count(self, capsys):
        code, _, err = run_cli(
            capsys, "val --p 2 --vars 3 --stream lacunary 'x'")
        assert code == 2

    def test_usage_error_on_nonmonomial_ideal(self, capsys):
        code, _, _ = run_cli(
            capsys, "cartier compat --p 2 --vars 2 --e 1 -g '1' -J 'x+y'")
        assert code == 2

    def test_compat_needs_one_level_form(self, capsys):
        code, _, _ = run_cli(
            capsys, "cartier compat --p 2 --vars 1 -g 'x' -J 'x'")
        assert code == 2
        code, _, _ = run_cli(
            capsys,
            "cartier compat --p 2 --vars 1 --e 1 --e-max 2 -g 'x' -J 'x'")
        assert code == 2

    def test_math_error_streams_agree(self, capsys):
        code, out, err = run_cli(
            capsys,
            "dvr distinguish --p 2 --stream-a lacunary --stream-b lacunary "
            "--precision-cap 128")
        assert code == 1
        assert "StreamsAgree" in err
        assert out == ""

    def test_math_error_precision_exhausted(self, capsys):
        code, _, err = run_cli(
            capsys,
            "val --p 2 --stream t --precision-cap 64 'y - x'")
        assert code == 1
        assert "PrecisionExhausted" in err

    def test_errors_are_json(self, capsys):
        _, _, err = run_cli(capsys, "decompose --p 4 --vars 1 --e 1 'x'")
        payload = json.loads(err)
        assert payload["error"] == "NotPrime"

    def test_closed_stdout_exits_141_without_traceback(self):
        """The reader of stdout is gone before charp writes: no traceback,
        and the exit code a shell gives a process SIGPIPE ends."""
        read_end, write_end = os.pipe()
        os.close(read_end)
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "charp.cli", "report", "dvr", "--p",
                 "2", "--stream", "lacunary", "--samples", "3"],
                env=env, stdout=write_end, stderr=subprocess.PIPE,
                timeout=120)
        finally:
            os.close(write_end)
        assert proc.returncode == cli.EXIT_BROKEN_PIPE == 141
        assert proc.stderr == b""

    def test_dense_many_term_power_ends_cleanly(self, capsys):
        """(y-x^3)^500 (501 terms, value 4500) vanishes through the dense
        ladder to the cap and is then refused on the walk's budget."""
        code, out, err = run_cli(
            capsys, "val --p 1048573 --stream 'geometric-gap(3)' "
            "'(y-x^3)^500'")
        assert (code, out) == (1, "")
        f = cli.parse_poly("(y-x^3)^500", cli.make_context(1048573), 2)
        assert err == cli._json({
            "error": "PrecisionExhausted",
            "message": f"image of {f} vanishes modulo t^4096; certifying "
                       f"further takes more than {WALK_BUDGET} term "
                       "products"}) + "\n"


def leaf_commands(parser, path=()):
    """(argv prefix, parser) for every runnable subcommand."""
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, child in action.choices.items():
                yield from leaf_commands(child, path + (name,))
            return
    yield path, parser


# documented exit code of every error class main reports
EXIT_CODES = [
    (errors.CharpError, 1), (errors.NotPrime, 2), (errors.DegreeTooLarge, 2),
    (errors.ContextMismatch, 2), (errors.PolySyntaxError, 2),
    (errors.ExponentOverflow, 1), (errors.SizeBound, 1),
    (errors.PrecisionMismatch, 2), (errors.PrecisionExhausted, 1),
    (errors.NotInRing, 1), (errors.StreamsAgree, 1), (errors.NotSolid, 1),
    (ValueError, 2),
]


class TestSharedContract:
    @pytest.mark.parametrize("flag,value", [
        ("--vars", "-1"), ("--precision-cap", "0"), ("--e", "0")])
    def test_out_of_range_flag_is_a_usage_error(self, capsys, flag, value):
        """Every subcommand taking the flag refuses the value in argparse."""
        takers = [path for path, parser in leaf_commands(build_parser())
                  if flag in parser._option_string_actions]
        assert takers
        for path in takers:
            code = main([*path, flag, value])
            err = capsys.readouterr().err
            assert code == 2, path
            assert f"argument {flag}: must be >= " in err, path

    @pytest.mark.parametrize("flag,bound", [
        ("--vars", cli.MAX_VARS), ("--precision-cap", cli.MAX_PRECISION),
        ("--e-max", cli.MAX_COUNT), ("--trials", cli.MAX_COUNT),
        ("--samples", cli.MAX_COUNT)])
    def test_flag_past_its_bound_is_a_usage_error(self, capsys, flag, bound):
        """Every subcommand taking the flag accepts the bound and refuses
        bound + 1 in argparse."""
        takers = [(path, parser) for path, parser
                  in leaf_commands(build_parser())
                  if flag in parser._option_string_actions]
        assert takers
        for path, parser in takers:
            assert parser._option_string_actions[flag].type(str(bound)) == \
                bound, path
            code = main([*path, flag, str(bound + 1)])
            err = capsys.readouterr().err
            assert code == 2, path
            assert f"argument {flag}: must be <= {bound}, got {bound + 1}" \
                in err, path

    def test_every_error_class_has_an_exit_code(self):
        declared = {obj for obj in vars(errors).values()
                    if isinstance(obj, type) and issubclass(obj, Exception)}
        assert {cls for cls, _ in EXIT_CODES} == declared | {ValueError}

    @pytest.mark.parametrize("cls,expected", EXIT_CODES,
                             ids=[cls.__name__ for cls, _ in EXIT_CODES])
    def test_error_from_a_handler(self, capsys, monkeypatch, cls, expected):
        extra = {errors.PolySyntaxError: (3,),
                 errors.PrecisionExhausted: (64,)}.get(cls, ())
        exc = cls("stub failure", *extra)

        def stub(args, ctx):
            raise exc

        monkeypatch.setattr(cli, "_decompose", stub)
        code, out, err = run_cli(capsys, "decompose --p 2 --vars 1 --e 1 x")
        assert code == expected
        assert out == ""
        (line,) = err.splitlines()
        assert json.loads(line) == {"error": cls.__name__,
                                    "message": str(exc)}


class TestArgvFuzz:
    def test_random_argv_never_crashes(self, capsys):
        """Invalid flag soup must be rejected cleanly (exit 2) or, when it
        happens to validate, run to a clean 0/1; never a traceback."""
        rng = __import__("random").Random(4242)
        pool = ["decompose", "cartier", "apply", "val", "dvr", "report",
                "selftest", "--p", "--m", "--vars", "--e", "-g", "-J",
                "--stream", "--pretty", "2", "3", "0", "-1", "x", "x+y",
                "lacunary", "nope", "x^2+y^2+x", "--seed", "distinguish"]
        for _ in range(200):
            argv = [rng.choice(pool) for _ in range(rng.randint(1, 7))]
            code = main(argv)
            capsys.readouterr()
            assert code in (0, 1, 2), argv


class TestBehaviors:
    def test_stdin_input(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO("x^2+y^2+x"))
        code = main(shlex.split("decompose --p 2 --vars 2 --e 1 -"))
        out = capsys.readouterr().out
        assert code == 0
        assert out == '{"1":"x+y","x":"1"}\n'

    def test_pretty_output(self, capsys):
        code, out, _ = run_cli(
            capsys, "decompose --p 2 --vars 2 --e 1 --pretty 'x^2+y^2+x'")
        assert code == 0
        assert "1" in out and "x+y" in out
        with pytest.raises(json.JSONDecodeError):
            json.loads(out)

    def test_extension_field_flags(self, capsys):
        code, out, _ = run_cli(
            capsys, "decompose --p 2 --m 2 --vars 1 --e 1 'u*x^2'")
        assert code == 0
        # u has square root u+1 in F_4, so the component at 1 is (u+1)*x
        assert json.loads(out) == {"1": "(u+1)*x"}

    def test_report_poly_ring_json(self, capsys):
        code, out, _ = run_cli(capsys, "report poly-ring --p 2 --vars 2 --e 1")
        assert code == 0
        payload = json.loads(out)
        assert payload["evidence"][0]["witness"]["rank"] == 4
        assert [v["claim"] for v in payload["verdicts"]][1] == \
            "R is excellent"

    def test_report_dvr_json(self, capsys):
        code, out, _ = run_cli(
            capsys, "report dvr --p 2 --stream lacunary --samples 5")
        assert code == 0
        payload = json.loads(out)
        assert len(payload["verdicts"]) == 5
        assert payload["verdicts"][0]["claim"] == "V is not divisorial"

    def test_report_dvr_versus(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "report dvr --p 2 --stream lacunary --versus lacunary+t^3 "
            "--samples 3")
        assert code == 0
        payload = json.loads(out)
        fractions = [item["witness"].get("fraction")
                     for item in payload["evidence"]
                     if "separated" in item["claim"]]
        assert fractions == ["x^3/(y-x-x^2)"]

    @pytest.mark.parametrize("samples", ["0", "-3"])
    def test_report_dvr_needs_a_sample(self, capsys, samples):
        code, out, err = run_cli(
            capsys, f"report dvr --p 2 --stream lacunary --samples {samples}")
        assert code == 2
        assert out == ""
        assert json.loads(err)["error"] == "ValueError"

    @pytest.mark.parametrize("cmdline", [
        "report dvr --p 2 --vars 1",
        "report dvr --p 2 --stream t+t^2",
        "report dvr --p 2 --vars 3 --stream lacunary --stream t",
    ])
    def test_report_dvr_refuses_where_the_chain_does_not_apply(
            self, capsys, cmdline):
        code, out, err = run_cli(capsys, cmdline)
        assert code == 2
        assert out == ""
        assert json.loads(err)["error"] == "ValueError"

    def test_val_one_variable_needs_no_stream(self, capsys):
        code, out, _ = run_cli(capsys, "val --p 2 --vars 1 'x^3'")
        assert code == 0
        assert out == '{"value":3,"precision_certified":16}\n'
        code, _, err = run_cli(capsys, "val --p 2 --vars 3 'x'")
        assert code == 2
        assert "needs 2 --stream image(s), got 0" in err

    def test_report_dvr_versus_needs_two_variables(self, capsys):
        code, out, err = run_cli(
            capsys,
            "report dvr --p 2 --vars 3 --stream lacunary "
            "--stream 'from-seed(7)' --versus lacunary+t^3 --samples 3")
        assert code == 2
        assert out == ""
        assert json.loads(err)["error"] == "ValueError"

    def test_selftest(self, capsys):
        code, out, _ = run_cli(capsys, "selftest --trials 20")
        assert code == 0
        assert json.loads(out)["ok"] is True

    def test_val_pretty(self, capsys):
        code, out, _ = run_cli(
            capsys, "val --p 2 --stream lacunary --pretty 'x'")
        assert code == 0
        assert "value" in out

    def test_val_zero_polynomial(self, capsys):
        code, out, _ = run_cli(capsys, "val --p 2 --stream lacunary '0'")
        assert code == 0
        assert json.loads(out)["value"] == "inf"

    @pytest.mark.parametrize("cmdline", [
        "val --p 5 --stream lacunary '0'",
        "val --p 5 --stream lacunary '0/(y)'",
        # the denominator vanishes under x -> t, y -> geometric-gap(2)
        "val --p 2 --stream 'geometric-gap(2)' '0/(y^2+y+x^2)'",
    ])
    def test_val_zero_numerator_certifies_nothing(self, capsys, cmdline):
        """Zero is decided by structure, whatever its denominator: value
        infinity, certified at precision 0."""
        code, out, err = run_cli(capsys, cmdline)
        assert (code, out, err) == (
            0, '{"value":"inf","precision_certified":0}\n', "")

    def test_val_requires_exactly_one_input_form(self, capsys):
        code, _, _ = run_cli(capsys, "val --p 2 --stream lacunary")
        assert code == 2

    def test_compat_multiplier_list_sweep(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "cartier compat --p 2 --vars 1 --e-max 2 -g 'x;x^3' -J 'x^2'")
        assert code == 0
        payload = json.loads(out)
        assert payload["compatible"] is False
        assert payload["checked"] == 4
        assert {"e": 2, "g": "x^3"} in payload["failures"]
        # x^3 passes at level 1 but not level 2, so sweeping matters
        assert {"e": 1, "g": "x^3"} not in payload["failures"]

    @pytest.mark.parametrize("cmdline,expected", [
        ("cartier apply --p 5 --vars 1 --e 100000000 -g x x",
         '{"result":"0"}'),
        ("cartier split-check --p 5 --vars 1 --e 100000000 -g x",
         '{"is_splitting":false}'),
        ("cartier compat --p 5 --vars 1 --e 100000000 -g x -J x",
         '{"compatible":false}'),
        ("cartier compat --p 5 --vars 1 --e 100000000 -g x -J 1",
         '{"compatible":true}'),
        ("cartier apply --p 5 --vars 0 --e 100000000 -g 2 3",
         '{"result":"1"}'),
        ("decompose --p 5 --vars 1 --e 100000000 x", '{"x":"1"}'),
        ("cartier compose --p 5 --vars 1 --e 1 -g 1 --e2 100000000 --g2 x",
         '{"e":100000001,"multiplier":"x"}'),
    ])
    def test_cartier_level_beyond_every_exponent(self, capsys, cmdline,
                                                 expected):
        """p^e is never formed: a level above every exponent decides
        these at once."""
        code, out, _ = run_cli(capsys, cmdline)
        assert code == 0
        assert out == expected + "\n"

    def test_compat_beyond_basis_enumeration(self, capsys):
        # the pushforward has rank 2^18 here; the check does not list it
        code, out, _ = run_cli(
            capsys, "cartier compat --p 2 --vars 3 --e 6 -g 'x*y*z' -J 'x'")
        assert code == 0
        assert out == '{"compatible":false}\n'
        code, out, _ = run_cli(
            capsys,
            "cartier compat --p 2 --vars 3 --e 6 -g 'x^63*y^63*z^63' "
            "-J 'x,y*z'")
        assert code == 0
        assert out == '{"compatible":true}\n'

    @pytest.mark.parametrize("cmdline,expected", [
        ("cartier compose --p 5 --vars 1 --e 1 -g x --e2 100000000 --g2 x",
         "ExponentOverflow"),
        ("report poly-ring --p 5 --vars 1 --e 100000000", "SizeBound"),
    ])
    def test_huge_level_errors_at_once(self, capsys, cmdline, expected):
        code, out, err = run_cli(capsys, cmdline)
        assert code == 1
        assert out == ""
        assert json.loads(err)["error"] == expected

    def test_report_poly_ring_without_variables_at_a_huge_level(self, capsys):
        code, out, _ = run_cli(
            capsys, "report poly-ring --p 5 --vars 0 --e 100000000")
        assert code == 0
        assert json.loads(out)["evidence"][0]["witness"]["rank"] == 1

    @pytest.mark.parametrize("cmdline,expected", [
        ("val --p 1048573 --vars 3 --stream 'from-seed(7)' "
         "--stream 'from-seed(11)' '(x+y+z+1)^20'",
         '{"value":0,"precision_certified":16}'),
        # four terms give 1771 above, but two terms stay two at p = 2
        ("decompose --p 2 --vars 2 --e 20 '(x+y)^1048576'", '{"1":"x+y"}'),
    ])
    def test_power_within_the_budget(self, capsys, cmdline, expected):
        code, out, _ = run_cli(capsys, cmdline)
        assert code == 0
        assert out == expected + "\n"

    @pytest.mark.parametrize("cmdline", [
        "val --p 1048573 --vars 3 --stream 'from-seed(7)' "
        "--stream 'from-seed(11)' '(x+y+z+1)^200'",
        "decompose --p 1048573 --vars 2 --e 1 '(x+y)^1000'",
        "decompose --p 2 --vars 3 --e 1 '(x+y+z+1)^1023'",
    ])
    def test_power_past_the_budget_is_a_usage_error(self, capsys, cmdline):
        code, out, err = run_cli(capsys, cmdline)
        assert code == 2
        assert out == ""
        assert json.loads(err)["error"] == "PolySyntaxError"

    def test_product_within_the_budget(self, capsys):
        # 1771 x 20 term products
        code, out, _ = run_cli(
            capsys, "val --p 1048573 --vars 3 --stream 'from-seed(7)' "
            "--stream 'from-seed(11)' '(x+y+z+1)^20*(x+y+z+1)^3'")
        assert code == 0
        assert out == '{"value":0,"precision_certified":16}\n'

    def test_product_past_the_budget_is_a_usage_error(self, capsys):
        # 1771 x 1771 term products, although each power is within budget
        code, out, err = run_cli(
            capsys, "val --p 1048573 --vars 3 --stream 'from-seed(7)' "
            "--stream 'from-seed(11)' '(x+y+z+1)^20*(x+y+z+1)^20'")
        assert code == 2
        assert out == ""
        assert json.loads(err) == {
            "error": "PolySyntaxError",
            "message": "product takes more than 200000 term products "
                       "(at position 12)"}

    def test_sum_past_the_budget_is_a_usage_error(self, capsys):
        # each product is within budget alone; the first one already takes
        # 61535 + 104151 + 400 * 500 term products with its two powers
        start = time.process_time()
        code, out, err = run_cli(
            capsys, "val --p 1048573 "
            "'(x+1)^399*(y+1)^499+(x+1)^399*(y+1)^498+(x+1)^398*(y+1)^499'")
        assert code == 2
        assert out == ""
        assert json.loads(err) == {
            "error": "PolySyntaxError",
            "message": "parse takes more than 200000 term products in all "
                       "(at position 9)"}
        # it parsed for 5.4 s of CPU while each piece had its own budget
        assert time.process_time() - start < 3

    @pytest.mark.parametrize("lists", [("x", "x,@"), ("x;@", "x")])
    def test_list_error_positions_index_the_argument(self, capsys, lists):
        g, J = lists
        code, out, err = run_cli(
            capsys, f"cartier compat --p 2 --vars 1 --e 1 -g '{g}' -J '{J}'")
        assert code == 2
        assert out == ""
        assert json.loads(err) == {
            "error": "PolySyntaxError",
            "message": "unexpected character '@' (at position 2)"}

    def test_list_items_share_one_budget(self, capsys, monkeypatch):
        """Eight items that each fit the budget are refused together, and
        the term products parsing does before the refusal stay within it."""
        products = []
        mul = MultiPoly.__mul__

        def counting_mul(a, b):
            if isinstance(b, MultiPoly):
                products.append(len(a.terms) * len(b.terms))
            return mul(a, b)

        monkeypatch.setattr(MultiPoly, "__mul__", counting_mul)
        item = "(x+y+z+1)^20*(x+y+z+1)^3"
        code, out, err = run_cli(
            capsys, "cartier compat --p 1048573 --vars 3 --e 1 -g x "
            f"-J '{','.join([item] * 8)}'")
        assert code == 2
        assert out == ""
        assert json.loads(err)["message"].startswith(
            "parse takes more than 200000 term products in all")
        assert 0 < sum(products) <= POWER_BUDGET


class TestPastTheCap:
    """Gap-stream values the dense ladder cannot reach below the cap are
    certified by walking the streams' supports."""

    @pytest.mark.parametrize("cmdline,expected", [
        ("val --p 2 --stream lacunary '(y-x-x^2-x^6-x^24-x^120-x^720)^8'",
         '{"value":40320,"precision_certified":362880}'),
        ("val --p 2 --stream lacunary '(y-x-x^2-x^6-x^24-x^120-x^720)^256'",
         '{"value":1290240,"precision_certified":3628800}'),
        ("val --p 2 --stream lacunary 'x^5000*y'",
         '{"value":5001,"precision_certified":5040}'),
        ("val --p 3 --stream 'geometric-gap(2)' --precision-cap 64 "
         "'x^7/(y-x^2-x^4-x^8-x^16-x^32)'",
         '{"value":-57,"precision_certified":128}'),
        # the image's own order is at or past the cap
        ("val --p 2 --stream 'geometric-gap(5000)' y",
         '{"value":5000,"precision_certified":25000000}'),
        ("val --p 2 --precision-cap 16 --stream 'lacunary-shift(100)' y",
         '{"value":101,"precision_certified":102}'),
    ])
    def test_value_past_the_cap(self, capsys, cmdline, expected):
        code, out, _ = run_cli(capsys, cmdline)
        assert code == 0
        assert out == expected + "\n"

    @staticmethod
    def distinguish_lacunary_from(capsys, k):
        code, out, _ = run_cli(
            capsys, "dvr distinguish --p 2 --stream-a lacunary "
            f"--stream-b lacunary+t^{k}")
        assert code == 0
        got = json.loads(out)
        assert (got["i"], got["in_ring_a"], got["in_ring_b"]) == \
            (k, False, True)

    def test_distinguish_past_the_cap(self, capsys):
        self.distinguish_lacunary_from(capsys, 3000)

    def test_distinguish_far_past_the_cap(self, capsys):
        self.distinguish_lacunary_from(capsys, 5000)

    def test_report_separates_streams_past_the_cap(self, capsys):
        code, out, _ = run_cli(
            capsys, "report dvr --p 2 --stream lacunary "
            "--versus 'lacunary+t^5000' --samples 3")
        assert code == 0
        witness, = [item["witness"] for item in json.loads(out)["evidence"]
                    if "separated" in item["claim"]]
        assert (witness["i"], witness["inside_ring_of"],
                witness["outside_ring_of"]) == \
            (5000, "lacunary+t^5000", "lacunary")

    def test_support_streams_that_agree_still_raise(self, capsys):
        code, out, err = run_cli(
            capsys, "dvr distinguish --p 3 --stream-a lacunary "
            "--stream-b 'lacunary+t^5000-t^5000'")
        assert code == 1
        assert out == ""
        assert json.loads(err)["error"] == "StreamsAgree"

    @pytest.mark.parametrize("cmdline,reason", [
        # s = geometric-gap(2) satisfies s^2 + s + t^2 = 0 at p = 2
        ("val --p 2 --stream 'geometric-gap(2)' 'y^2+y+x^2'",
         "may satisfy an algebraic relation"),
        ("val --p 1048573 --stream 'geometric-gap(3)' --precision-cap 16 "
         "'(y+x^2)^400'", "takes more than 200000 term products"),
        # from-seed has no support, so nothing is walked past the cap
        ("val --p 2 --stream 'from-seed(7)' 'x^5000*y'",
         "may satisfy an algebraic relation"),
    ])
    def test_walk_ends_cleanly(self, capsys, monkeypatch, cmdline, reason):
        """The walk stops within its bounds: a geometric gap has at most
        31 support indices below 2^31, and no charge is made past the one
        that overruns the budget."""
        steps, charged = [], []
        substitute = charp.valuation.substitute_series
        charge = Budget.charge

        def counting_substitute(f, images, precision, **kwargs):
            if kwargs.get("budget") is not None:
                steps.append(precision)
            return substitute(f, images, precision, **kwargs)

        def counting_charge(self, products):
            charged.append(products)
            return charge(self, products)

        monkeypatch.setattr(charp.valuation, "substitute_series",
                            counting_substitute)
        monkeypatch.setattr(Budget, "charge", counting_charge)
        code, out, err = run_cli(capsys, cmdline)
        assert len(steps) <= 31
        assert sum(charged[:-1]) <= WALK_BUDGET
        assert code == 1
        assert out == ""
        payload = json.loads(err)
        assert payload["error"] == "PrecisionExhausted"
        assert payload["message"].endswith(reason)
