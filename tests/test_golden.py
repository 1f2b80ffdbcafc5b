"""CLI output stays byte-identical: every command of the committed corpus
replays in process to its record (see tests/golden/regenerate.py).
The entries of test_mutants.MUTANTS that change one character of what the
CLI writes show that the replay fails on such a change.  Every algebra
text that the records hold reads back to an element that prints it again."""

import importlib.util
import json
from collections import Counter
from pathlib import Path

from lamconn import cli
from lamconn.algebra import ABElement

GOLDEN = Path(__file__).resolve().parent / "golden"


def load_corpus():
    spec = importlib.util.spec_from_file_location("lamconn_golden", GOLDEN / "regenerate.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def load_records(corpus):
    return json.loads(corpus.OUTPUTS.read_text(encoding="utf-8"))


def changed_commands(first_only: bool = False) -> list[tuple[list[str], dict, dict]]:
    """(argv, recorded, replayed) for each command whose replay differs from
    its record, in corpus order; with first_only, at most the first of them."""
    corpus = load_corpus()
    recorded = load_records(corpus)
    commands = corpus.commands()
    assert sorted(recorded) == sorted(" ".join(argv) for argv in commands)
    changed = []
    with corpus.workspace():
        for argv in commands:
            replayed = corpus.record(argv)
            if replayed != recorded[" ".join(argv)]:
                changed.append((argv, recorded[" ".join(argv)], replayed))
                if first_only:
                    break
    return changed


def first_differences(recorded: dict, replayed: dict) -> list[str]:
    """For each stream that differs, its first differing line on both sides."""
    out = []
    for stream in dict.fromkeys([*recorded, *replayed]):
        old, new = recorded.get(stream), replayed.get(stream)
        if old == new:
            continue
        if not isinstance(old, list) or not isinstance(new, list):
            out.append(f"{stream}: recorded {old!r}, replayed {new!r}")
            continue
        line = next((i for i, (a, b) in enumerate(zip(old, new)) if a != b), min(len(old), len(new)))
        sides = [lines[line] if line < len(lines) else "<no line>" for lines in (old, new)]
        out.append(f"{stream} line {line + 1}: recorded {sides[0]!r}, replayed {sides[1]!r}")
    return out


def describe(changed) -> str:
    """How many commands changed, per subcommand, and the first differences of the first one."""
    counts = Counter(argv[0] if argv else "(none)" for argv, _, _ in changed)
    argv, recorded, replayed = changed[0]
    per_command = ", ".join(f"{n} {name}" for name, n in counts.items())
    lines = [f"{len(changed)} commands changed output ({per_command}); first: {' '.join(argv)!r}"]
    return "\n".join(lines + ["  " + line for line in first_differences(recorded, replayed)])


def test_corpus_replays_to_recorded_digests():
    changed = changed_commands()
    assert not changed, describe(changed)


def test_records_are_lossless(tmp_path, capsys):
    # The record's lines join to the exact bytes that the CLI writes, CRLF included.
    corpus = load_corpus()
    lines = load_records(corpus)["propagate inputs/spec-readme.json --csv out.csv"]["csv"]
    csv = tmp_path / "out.csv"
    assert cli.main(["propagate", str(corpus.INPUTS / "spec-readme.json"), "--csv", str(csv)]) == 0
    assert b"\r\n" in csv.read_bytes()
    assert "\n".join(lines).encode() == csv.read_bytes()


def algebra_texts(value):
    """The operator, nabla_one and nabla texts of a JSON value, at any depth."""
    if isinstance(value, dict):
        for key, item in value.items():
            if key in ("operator", "nabla_one", "nabla"):
                yield item
            else:
                yield from algebra_texts(item)
    elif isinstance(value, list):
        for item in value:
            yield from algebra_texts(item)


def test_algebra_texts_read_back_byte_identically():
    # The reader meets every text the printer wrote for the corpus: family a and b
    # operators and nabla(1), and analyze's connection nabla.
    records = load_records(load_corpus())
    texts = [
        text
        for argv, record in records.items()
        if "--json" in argv.split() and record["exit"] == 0
        for text in algebra_texts(json.loads("\n".join(record["stdout"])))
    ]
    assert len(texts) == 188
    for text in texts:
        assert str(ABElement.parse(text)) == text
