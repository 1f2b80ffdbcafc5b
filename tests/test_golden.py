"""CLI output stays byte-identical: every command of the committed corpus
replays in process to its recorded digest (see tests/golden/regenerate.py).
The entries of test_mutants.MUTANTS that change one character of what the
CLI writes show that the replay fails on such a change."""

import importlib.util
import json
from pathlib import Path

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
