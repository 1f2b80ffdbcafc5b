"""CLI output stays byte-identical: every command of the committed corpus
replays in process to its recorded digest (see tests/golden/regenerate.py),
and a one-character change in what the CLI writes fails the replay."""

import importlib.util
import json
from pathlib import Path

import pytest

from lamconn import cli, exact, families

GOLDEN = Path(__file__).resolve().parent / "golden"


def load_corpus():
    spec = importlib.util.spec_from_file_location("lamconn_golden", GOLDEN / "regenerate.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def changed_commands(first_only: bool = False) -> list[str]:
    """The commands whose replay differs from the recorded digest, in corpus
    order; with first_only, at most the first of them."""
    corpus = load_corpus()
    recorded = json.loads(corpus.DIGESTS.read_text(encoding="utf-8"))
    commands = corpus.commands()
    assert sorted(recorded) == sorted(" ".join(argv) for argv in commands)
    changed = []
    with corpus.workspace():
        for argv in commands:
            if corpus.digest(argv) != recorded[" ".join(argv)]:
                changed.append(" ".join(argv))
                if first_only:
                    break
    return changed


def test_corpus_replays_to_recorded_digests():
    changed = changed_commands()
    assert not changed, f"{len(changed)} commands changed output, first: {changed[0]}"


REAL_TERM_TEXT = exact.term_text
REAL_DUMPS = json.dumps
REAL_MAIN = cli.main


def term_text_with_x(mag, monomial):
    """term_text with the "*" between coefficient and monomial written as "x"."""
    return REAL_TERM_TEXT(mag, monomial).replace("*", "x", 1)


def dumps_indent_3(obj, *, indent=None, **kwargs):
    """json.dumps with indent=3 where the CLI asks for 2."""
    return REAL_DUMPS(obj, indent=3 if indent == 2 else indent, **kwargs)


def main_input_error_exit_2(argv=None):
    """cli.main with exit 2 where it exits 1 (input and usage errors)."""
    code = REAL_MAIN(argv)
    return 2 if code == 1 else code


def install_term_text_with_x(monkeypatch):
    for module in (exact, families):
        monkeypatch.setattr(module, "term_text", term_text_with_x)


REPLAY_MUTANTS = {
    "term_text": install_term_text_with_x,
    "json_indent": lambda monkeypatch: monkeypatch.setattr(cli.json, "dumps", dumps_indent_3),
    "exit_code": lambda monkeypatch: monkeypatch.setattr(cli, "main", main_input_error_exit_2),
}


@pytest.mark.parametrize("mutant", list(REPLAY_MUTANTS))
def test_one_character_mutant_fails_the_replay(monkeypatch, mutant):
    REPLAY_MUTANTS[mutant](monkeypatch)
    assert changed_commands(first_only=True)
