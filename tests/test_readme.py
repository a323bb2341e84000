"""The README's Quick start runs as written, in order, on a tiny corpus and model."""

import json
import re
import shlex
from pathlib import Path

from propspan.cli import _HANDLERS, main

README = Path(__file__).resolve().parents[1] / "README.md"

# appended to every command: gen-synth reads the synth.* keys, the training
# commands the hp.* and encoder.* keys, and the others ignore the file
TINY = {"synth.n_train": 10, "synth.n_dev": 5, "synth.n_pool": 6,
        "synth.technique_count": 2, "synth.sentences_per_article": [2, 3],
        "synth.sentence_length": [5, 8],
        "hp.steps": 10, "hp.eval_every": 5, "hp.max_seq_len": 32,
        "encoder.hidden_size": 16, "encoder.layers": 1, "encoder.heads": 2,
        "encoder.intermediate_size": 24}


def quick_start_commands() -> list[list[str]]:
    """The arguments of every ``propspan`` line in the Quick start's bash blocks."""
    section = README.read_text(encoding="utf-8").split("\n## Quick start\n", 1)[1]
    section = section.split("\n## ", 1)[0]
    commands = []
    for block in re.findall(r"```bash\n(.*?)```", section, re.S):
        for line in block.replace("\\\n", " ").splitlines():
            words = shlex.split(line)
            if words and words[0] == "propspan":
                commands.append(words[1:])
    return commands


def test_quick_start_runs(tmp_path, monkeypatch):
    commands = quick_start_commands()
    assert {argv[0] for argv in commands} == set(_HANDLERS)
    config = tmp_path / "tiny.json"
    config.write_text(json.dumps(TINY))
    monkeypatch.chdir(tmp_path)
    for argv in commands:
        assert main(argv + ["--config", str(config)]) == 0, " ".join(argv)
