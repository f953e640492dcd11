"""Canonical JSON output is byte-identical to the recorded golden file.

tests/data/golden_json.json maps each command line (hpoly on the lattice
and dual routes, hl) to its exact stdout, for every shape of weight <= 5 at
the default number of variables.  A change that alters any canonical output
fails here.
"""

import json
import os

import pytest

from modmacd.cli import main

GOLDEN = os.path.join(os.path.dirname(__file__), "data", "golden_json.json")

with open(GOLDEN) as fh:
    CASES = json.load(fh)


@pytest.mark.parametrize("command", sorted(CASES))
def test_canonical_json_unchanged(capsys, command):
    assert main(command.split()) == 0
    assert capsys.readouterr().out == CASES[command]
