"""CLI output stays byte-identical: every command of the committed corpus
replays in process to its recorded digest (see tests/golden/regenerate.py)."""

import importlib.util
import json
from pathlib import Path

GOLDEN = Path(__file__).resolve().parent / "golden"


def load_corpus():
    spec = importlib.util.spec_from_file_location("lamconn_golden", GOLDEN / "regenerate.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_corpus_replays_to_recorded_digests():
    corpus = load_corpus()
    recorded = json.loads(corpus.DIGESTS.read_text(encoding="utf-8"))
    commands = corpus.commands()
    assert sorted(recorded) == sorted(" ".join(argv) for argv in commands)
    with corpus.workspace():
        changed = [" ".join(argv) for argv in commands if corpus.digest(argv) != recorded[" ".join(argv)]]
    assert not changed, f"{len(changed)} commands changed output, first: {changed[0]}"
