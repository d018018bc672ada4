"""The current code against the answer manifest (tests/record_answers.py)."""

import json

from record_answers import COMMANDS, MANIFEST, answer, command


def test_every_solve_gives_its_recorded_answer():
    recorded = json.loads(MANIFEST.read_text())
    assert sorted(recorded) == sorted(command(*c) for c in COMMANDS)
    changed = [command(*c) for c in COMMANDS if answer(*c) != recorded[command(*c)]]
    assert not changed, "changed answers:\n" + "\n".join(changed)
