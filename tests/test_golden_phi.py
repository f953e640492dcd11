"""Phi output of every route is byte-identical to the recorded golden file.

tests/data/golden_phi.json maps ``phi --nu ... --nutilde ... --form positive
--json`` to its exact stdout, for the 337 dominated pairs with entries <= 3
and N <= 4.  Each of the three routes (series, finite, positive) must print
the recorded string for the same pair.
"""

import json
import os

import pytest

from modmacd.cli import main

GOLDEN = os.path.join(os.path.dirname(__file__), "data", "golden_phi.json")

with open(GOLDEN) as fh:
    CASES = json.load(fh)


def test_golden_covers_every_small_dominated_pair():
    assert len(CASES) == 337


@pytest.mark.parametrize("form", ["series", "finite", "positive"])
def test_phi_json_unchanged(capsys, form):
    for command in sorted(CASES):
        argv = command.replace("--form positive", "--form " + form).split()
        assert main(argv) == 0, command
        assert capsys.readouterr().out == CASES[command], (form, command)
