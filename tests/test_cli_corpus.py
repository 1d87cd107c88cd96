"""Replay the committed CLI output corpus, ``cli_corpus.jsonl``.

Every line holds one command line and what it printed, in text and under
``--json``, as ``scripts/cli_corpus.py`` records it.  A change that alters
any exit code, stdout, stderr or warning fails here; if the change is
meant, regenerate the file with that script and say why in CHANGES.md.
"""

import importlib.util
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CORPUS = Path(__file__).with_name("cli_corpus.jsonl")


def _recorder():
    spec = importlib.util.spec_from_file_location("cli_corpus", ROOT / "scripts" / "cli_corpus.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_cli_output_matches_corpus(monkeypatch):
    monkeypatch.delenv("TGK_MAX_N", raising=False)
    recorder = _recorder()
    expected = [json.loads(line) for line in CORPUS.read_text().splitlines()]
    changed = [want["argv"] for want in expected if recorder.case(want["argv"]) != want]
    assert expected
    assert changed == []
