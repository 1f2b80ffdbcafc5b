"""End-to-end runs of the command line front end, in process through main().

What a command prints is pinned once, byte for byte, by the golden corpus
(tests/golden/regenerate.py).  The runs here check what a record cannot:
how many times a stage runs, how output is written, that a refusal comes
before any work, and argparse's own messages.  The oversized-input runs
start a fresh interpreter instead, so that an uncaught exception would show
as a traceback on stderr.
"""

import json
import os
import random
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import lamconn
from lamconn import asymptotics, cli, exponents, families
from lamconn.asymptotics import MAX_EXPONENTS, MAX_LOG_DEPTH, MAX_ORDER, ExpansionSpec, propagate
from lamconn.exponents import MAX_LAYOUT_WORK
from lamconn.cli import main
from lamconn.families import CheckOutcome, CrossValidationReport

import test_mutants
from test_golden import first_differences

GOLDEN_INPUTS = Path(__file__).resolve().parent / "golden" / "inputs"


def golden_input(name):
    return json.loads((GOLDEN_INPUTS / name).read_text(encoding="utf-8"))


def assert_same_text(stream, expected, got):
    """Fail naming the first line where got differs from expected, as test_golden
    names a replay that differs from its record: pytest's own diff of two texts
    of 100 KB takes minutes."""
    if got != expected:
        pytest.fail("\n".join(first_differences({stream: expected.split("\n")}, {stream: got.split("\n")})))


FAMILY_A_INPUT = golden_input("family-a.json")
GOLDEN_EXPANSION = golden_input("spec-readme.json")


# One digit past Python's default int/str conversion limit.
LONG_DIGITS = "1" * 4301


def layout_over_budget(side):
    """A JSON layout just over MAX_LAYOUT_WORK = (n + 2)^3 * (largest entry bit length).

    "n": the unit vectors and the all-ones vector for the smallest n whose
    entries of bit length 1 pass the budget; "entry": n = 5 with one entry
    one bit longer than the budget allows.
    """
    if side == "n":
        n = round(MAX_LAYOUT_WORK ** (1 / 3)) - 2
        while (n + 2) ** 3 <= MAX_LAYOUT_WORK:
            n += 1
        alphas = [[int(i == j) for j in range(n + 1)] for i in range(n + 1)] + [[1] * (n + 1)]
        return {"n": n, "alphas": alphas}
    bits = MAX_LAYOUT_WORK // 7**3 + 1
    alphas = [[0] * 6 for _ in range(7)]
    for i in range(6):
        alphas[i][i] = 1
    alphas[6] = [2 ** (bits - 1), 1, 1, 1, 1, 1]
    return {"n": 5, "alphas": alphas}


def run_cli(*args, module="lamconn.cli"):
    src = str(Path(lamconn.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", module, *args],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
        timeout=120,
    )


def write_json(tmp_path, obj, name="input.json"):
    path = tmp_path / name
    path.write_text(json.dumps(obj), encoding="utf-8")
    return str(path)


class TestAnalyze:
    @pytest.mark.parametrize("name", ["family-a.json", "family-b.json", "no-family.json"])
    def test_one_analysis_per_layout(self, capsys, monkeypatch, name):
        # two eliminations, M~ and M', however many stages read the layout
        real = exponents._solve_square
        calls = []

        def counted(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(exponents, "_solve_square", counted)
        assert main(["analyze", str(GOLDEN_INPUTS / name)]) == 0
        assert len(calls) == 2

    @pytest.mark.parametrize("name, expected", [("family-a.json", 2), ("family-b.json", 2), ("no-family.json", 0)])
    def test_one_operator_per_family(self, capsys, monkeypatch, name, expected):
        # one product for the top roots and one for the low roots of the matched family
        real = families.linear_factor_product
        calls = []

        def counted(roots):
            calls.append(roots)
            return real(roots)

        monkeypatch.setattr(families, "linear_factor_product", counted)
        assert main(["analyze", str(GOLDEN_INPUTS / name)]) == 0
        assert len(calls) == expected


class TestFamilyCommands:
    @pytest.mark.parametrize(
        "argv",
        [["family-a", "--u", "2", "--v", "2", "--w", "1"], ["analyze", "FAMILY_A_FILE"]],
    )
    def test_failed_cross_validation_exits_2(self, tmp_path, capsys, monkeypatch, argv):
        failing = CrossValidationReport("forced", (CheckOutcome("forced", False, "1", "0"),))
        monkeypatch.setattr(families, "cross_validate", lambda result: failing)
        argv = [write_json(tmp_path, FAMILY_A_INPUT) if a == "FAMILY_A_FILE" else a for a in argv]
        assert main(argv) == 2
        out = capsys.readouterr()
        assert out.out.rstrip().endswith("cross validation: FAIL")
        assert out.err == "family cross validation failed\n"
        assert main(argv + ["--json"]) == 2
        payload = json.loads(capsys.readouterr().out)
        family = payload if argv[0] == "family-a" else payload["family"]
        assert family["cross_validation"]["passed"] is False

    def test_family_a_bad_parameters(self, capsys):
        assert main(["family-a", "--u", "0", "--v", "1", "--w", "1"]) == 1
        assert "input error" in capsys.readouterr().err


class TestPropagate:
    @pytest.mark.parametrize(
        "obj, expected",
        [
            (
                {
                    "rhos": ["1/3", "-1/2"],
                    "N": 1,
                    "M": 3,
                    "alpha": "-7/5",
                    "beta": "11/3",
                    "seed": {"0,1,0": "1", "1,0,0": "-2/3", "1,1,2": "5"},
                },
                b"i,k,m,L^0,L^1,L^2,L^3\r\n"
                b"0,0,0,0,0,0,0\r\n0,0,1,0,-57/20,0,0\r\n0,0,2,0,0,-21717/9800,0\r\n"
                b"0,0,3,0,0,0,-280953/1225000\r\n0,1,0,1,0,0,0\r\n0,1,1,0,12/5,0,0\r\n"
                b"0,1,2,0,0,162/175,0\r\n0,1,3,0,0,0,162/4375\r\n1,0,0,-2/3,0,0,0\r\n"
                b"1,0,1,0,-262/45,0,0\r\n1,0,2,0,0,-11659/2025,0\r\n"
                b"1,0,3,0,-304/75,0,-547973/455625\r\n1,1,0,0,0,0,0\r\n1,1,1,0,0,0,0\r\n"
                b"1,1,2,5,0,0,0\r\n1,1,3,0,47/15,0,0\r\n",
            ),
        ],
        ids=["two-rhos"],
    )
    def test_csv_file_bytes(self, tmp_path, capsys, obj, expected):
        csv_path = tmp_path / "table.csv"
        assert main(["propagate", write_json(tmp_path, obj), "--csv", str(csv_path)]) == 0
        assert csv_path.read_bytes() == expected
        assert capsys.readouterr().err == f"wrote {csv_path}\n"

    def test_csv_unwritable(self, tmp_path, capsys):
        path = write_json(tmp_path, GOLDEN_EXPANSION)
        assert main(["propagate", path, "--csv", str(tmp_path / "no" / "dir.csv")]) == 1
        assert "input error" in capsys.readouterr().err

    def test_congruent_exponents_rejected(self, tmp_path, capsys):
        obj = {"rhos": ["1/2", "3/2"], "N": 0, "M": 1, "alpha": "1", "beta": "0"}
        assert main(["propagate", write_json(tmp_path, obj)]) == 1
        assert "congruent" in capsys.readouterr().err

    def test_bad_seed_value(self, tmp_path, capsys):
        obj = {**GOLDEN_EXPANSION, "seed": {"0,0,0": 1.5}}
        assert main(["propagate", write_json(tmp_path, obj)]) == 1
        assert "input error" in capsys.readouterr().err

    def test_bad_seed_key(self, tmp_path, capsys):
        obj = {**GOLDEN_EXPANSION, "seed": {"0;0;0": "1"}}
        assert main(["propagate", write_json(tmp_path, obj)]) == 1
        assert "input error" in capsys.readouterr().err

    def test_two_seed_keys_for_one_cell(self, tmp_path, capsys):
        obj = {**GOLDEN_EXPANSION, "seed": {"0,0,0": "1", "0,0,00": "2"}}
        assert main(["propagate", write_json(tmp_path, obj)]) == 1
        out = capsys.readouterr()
        assert out.err == "input error: seed key '0,0,00' names the same cell (0, 0, 0) as an earlier key\n"
        assert out.out == ""

    @pytest.mark.parametrize("as_json", [False, True], ids=["text", "json"])
    def test_output_streams_unchanged(self, tmp_path, monkeypatch, as_json):
        # Over 100 KB of output in either form: the text and the JSON must be
        # the whole-output renderings, written in pieces of at most 1/20 of it,
        # and the CSV file must hold the bytes of to_csv, written a ladder at a
        # time: in pieces of at most 1/5 of it, as the table has 9 ladders.
        obj = {"rhos": ["1/3"], "N": 8, "M": 200, "alpha": "1", "beta": "2", "seed": {"0,0,0": "1", "0,8,0": "1"}}
        table = propagate(ExpansionSpec.from_json(obj), {(0, 0, 0): 1, (0, 8, 0): 1})
        if as_json:
            expected = json.dumps(table.to_json(), indent=2) + "\n"
        else:
            lines = ["exponents: ['1/3'], log depth 8, order 200, alpha = 1, beta = 2"]
            lines += [f"c[{i},{k},{m}] = {poly}" for (i, k, m), poly in sorted(table.entries.items())]
            expected = "\n".join(lines) + "\n"
        writes = []

        class Recorder:
            def write(self, text):
                writes.append(text)
                return len(text)

            def flush(self):
                pass

        csv_writes = []

        class RecordingFile:
            """A file that the CLI opens, with its writes recorded."""

            def __init__(self, *args, **kwargs):
                self.handle = open(*args, **kwargs)

            def __getattr__(self, name):
                return getattr(self.handle, name)

            def __enter__(self):
                return self

            def __exit__(self, *exc_info):
                self.handle.close()

            def write(self, text):
                csv_writes.append(text)
                return self.handle.write(text)

            def writelines(self, texts):
                for text in texts:
                    self.write(text)

        monkeypatch.setattr(sys, "stdout", Recorder())
        monkeypatch.setattr(cli, "open", RecordingFile, raising=False)
        csv_path = tmp_path / "table.csv"
        args = ["propagate", *(["--json"] if as_json else []), write_json(tmp_path, obj), "--csv", str(csv_path)]
        assert main(args) == 0
        monkeypatch.undo()
        out = "".join(writes)
        assert len(out) > 100_000
        assert_same_text("stdout", expected, out)
        assert max(map(len, writes)) * 20 <= len(out)
        text = table.to_csv()
        assert_same_text("csv", text, csv_path.read_bytes().decode())
        assert max(map(len, csv_writes)) * 5 <= len(text)


class TestInputHandling:
    @pytest.mark.parametrize("command, repeated, text", [
        ("propagate", "0,0,0", '{"rhos": ["1/2"], "N": 0, "M": 2, "alpha": 1, "beta": 0, "seed": {"0,0,0": 1, "0,0,0": 2}}'),
        ("check", "n", '{"n": 2, "n": 3, "alphas": [[4, 0, 0], [0, 4, 0], [0, 0, 2], [2, 2, 1]]}'),
    ], ids=["seed", "n"])
    def test_repeated_key_refused(self, tmp_path, capsys, command, repeated, text):
        path = tmp_path / "repeated.json"
        path.write_text(text, encoding="utf-8")
        assert main([command, str(path)]) == 1
        out = capsys.readouterr()
        assert out.err == f"input error: {path}: repeated key {repeated!r} in a JSON object\n"
        assert out.out == ""

    def test_oversized_json_integer(self, tmp_path):
        # The JSON number passes parse_int, so the refusal has the words of the
        # same literal in a string or in text on every Python version.
        path = tmp_path / "big.json"
        path.write_text(
            '{"n": 2, "alphas": [[4, 0, 0], [0, 4, 0], [0, 0, 2], [2, 2, -%s]]}' % LONG_DIGITS,
            encoding="utf-8",
        )
        for command in ("check", "analyze", "propagate"):
            proc = run_cli(command, str(path))
            assert proc.returncode == 1
            assert proc.stderr == f"input error: {path}: integer literal of 4301 digits is too long\n"
            assert proc.stdout == ""

    @pytest.mark.parametrize("command", ["check", "analyze", "propagate"])
    def test_deeply_nested_json(self, tmp_path, command):
        # Deep enough to exhaust the JSON decoder's recursion limit.
        path = tmp_path / "deep.json"
        path.write_text("[" * 200_000 + "]" * 200_000, encoding="utf-8")
        proc = run_cli(command, str(path))
        assert proc.returncode == 1
        assert proc.stderr.startswith("input error:") and "too deeply" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_oversized_seed_literal(self, tmp_path):
        obj = {**GOLDEN_EXPANSION, "seed": {"0,0,0": LONG_DIGITS}}
        proc = run_cli("propagate", write_json(tmp_path, obj))
        assert proc.returncode == 1
        assert "input error:" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_oversized_table_coefficient(self, tmp_path):
        # Short input whose table holds coefficients past the int/str digit
        # limit, so the failure comes while propagating, not while parsing.
        obj = {
            "rhos": ["1/3", "1/2"],
            "N": 3,
            "M": 720,
            "alpha": "-7/5",
            "beta": "11/3",
            "seed": {"0,3,0": "1", "1,3,0": "1"},
        }
        proc = run_cli("propagate", write_json(tmp_path, obj))
        assert proc.returncode == 1
        assert proc.stderr.startswith("input error:")
        assert f"{sys.get_int_max_str_digits()} digits" in proc.stderr
        assert "Traceback" not in proc.stderr
        assert proc.stdout == ""

    @pytest.mark.parametrize(
        "over",
        [
            {"N": MAX_LOG_DEPTH + 1},
            {"M": MAX_ORDER + 1},
            {"rhos": [f"1/{d}" for d in range(2, MAX_EXPONENTS + 3)]},
            # Within the N, M and rho caps but twice the cell budget.
            {"rhos": ["1/3", "1/2"], "N": MAX_LOG_DEPTH, "M": MAX_ORDER},
        ],
    )
    def test_spec_just_over_limit(self, tmp_path, capsys, monkeypatch, over):
        def no_propagation(*args):
            raise AssertionError("propagate ran on a spec over the limit")

        monkeypatch.setattr(asymptotics, "propagate", no_propagation)
        obj = {**GOLDEN_EXPANSION, **over}
        assert main(["propagate", write_json(tmp_path, obj)]) == 1
        out = capsys.readouterr()
        assert out.err.startswith("input error:") and "must be at most" in out.err
        assert out.out == ""

    @pytest.mark.parametrize("side", ["n", "entry"])
    def test_layout_just_over_budget(self, tmp_path, capsys, monkeypatch, side):
        def no_elimination(*args):
            raise AssertionError("elimination ran on a layout over the budget")

        monkeypatch.setattr(exponents, "_solve_square", no_elimination)
        path = write_json(tmp_path, layout_over_budget(side))
        for command in ("check", "analyze"):
            assert main([command, path]) == 1
            out = capsys.readouterr()
            assert out.err.startswith("input error:") and "must be at most" in out.err
            assert out.out == ""

    @pytest.mark.parametrize("flags", [[], ["--json"]], ids=["text", "json"])
    def test_layout_output_past_digit_limit(self, tmp_path, flags):
        # Within the layout budget, but the relation's rationals have about
        # 8000 digits, so the failure comes while rendering the report; the
        # JSON is built whole, so nothing reaches stdout in either form.
        rng = random.Random(0)
        obj = {"n": 1, "alphas": [[rng.randrange(10**4000) for _ in range(2)] for _ in range(3)]}
        proc = run_cli("analyze", *flags, write_json(tmp_path, obj))
        assert proc.returncode == 1
        assert proc.stderr.startswith("input error:")
        assert f"{sys.get_int_max_str_digits()} digits" in proc.stderr
        assert "Traceback" not in proc.stderr
        assert proc.stdout == ""

    @pytest.mark.parametrize(
        "obj",
        [
            {},
            {"n": 2},
            {"n": 2, "alphas": [[4, 0, 0], [0, 4, 0], [0, 0, 2]]},
            {"n": 2, "alphas": [[4, 0], [0, 4], [0, 0], [2, 2]]},
            {"n": "2", "alphas": [[4, 0, 0], [0, 4, 0], [0, 0, 2], [2, 2, 1]]},
        ],
    )
    def test_schema_violations(self, tmp_path, obj, capsys):
        assert main(["check", write_json(tmp_path, obj)]) == 1
        assert "input error" in capsys.readouterr().err


class TestUsageErrors:
    """argparse's own refusals exit 1, like any other malformed input, in a fresh interpreter."""

    @pytest.mark.parametrize(
        "argv",
        [["family-a", "--u", "x", "--v", "1", "--w", "1"], ["check"], ["bogus"], []],
        ids=["bad-int", "missing-file", "unknown-command", "no-command"],
    )
    def test_usage_error_exits_1(self, argv):
        proc = run_cli(*argv, module="lamconn")
        assert proc.returncode == 1
        assert proc.stderr.startswith("usage: lamconn")
        assert "Traceback" not in proc.stderr

    def test_help_exits_0(self):
        proc = run_cli("--help", module="lamconn")
        assert proc.returncode == 0
        assert proc.stdout.startswith("usage: lamconn")


class TestSelftest:
    def test_json_carries_seconds(self, capsys):
        assert main(["selftest", "--json"]) == 0
        criteria = json.loads(capsys.readouterr().out)["criteria"]
        assert len(criteria) == 11
        assert all(isinstance(c["seconds"], float) and c["seconds"] >= 0 for c in criteria)

    def test_failing_criterion_exits_2_with_stderr_empty(self, capsys, monkeypatch):
        test_mutants.ENTRY["candidates_not_reduced"].install(monkeypatch)
        assert main(["selftest"]) == 2
        out, err = capsys.readouterr()
        failed = [line for line in out.splitlines() if not line.startswith("PASS criterion")]
        assert len(failed) == 1 and failed[0].startswith("FAIL criterion 11 (monodromy candidate exponents")
        assert err == ""
        assert main(["selftest", "--json"]) == 2
        out, err = capsys.readouterr()
        payload = json.loads(out)
        assert payload["passed"] is False
        assert [c["id"] for c in payload["criteria"] if not c["passed"]] == [11]
        assert err == ""


README = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")


def readme_transcripts():
    """(argv, stdout) for each README command shown with its output.

    A block of commands alone is followed by the output of its last command;
    the other commands in such a block have no output shown.
    """
    blocks = re.findall(r"```\w*\n(.*?)```", README, re.S)
    transcripts = []
    for n, block in enumerate(blocks):
        lines = block.splitlines()
        commands = [line[2:] for line in lines if line.startswith("$ ")]
        if not commands:
            continue
        output = [line for line in lines if not line.startswith("$ ")] or blocks[n + 1].splitlines()
        transcripts.append((shlex.split(commands[-1])[1:], "\n".join(output) + "\n"))
    return transcripts


README_TRANSCRIPTS = readme_transcripts()


@pytest.mark.parametrize("argv, stdout", README_TRANSCRIPTS, ids=[" ".join(argv) for argv, _ in README_TRANSCRIPTS])
def test_readme_transcript(tmp_path, capsys, monkeypatch, argv, stdout):
    # The input files are the ones the README states: the inline layout after
    # "Input file, JSON:" and the one json block.
    layout = re.search(r"Input file, JSON: `(\{.*?\})`", README)[1]
    (tmp_path / "exponents.json").write_text(layout, encoding="utf-8")
    (tmp_path / "expansion.json").write_text(re.search(r"```json\n(.*?)```", README, re.S)[1], encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 0
    assert capsys.readouterr().out == stdout


def test_readme_transcripts_cover_each_output_block():
    assert [argv[0] for argv, _ in README_TRANSCRIPTS] == ["check", "analyze", "family-b", "propagate"]
