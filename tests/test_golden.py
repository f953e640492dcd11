"""Canonical JSON output is byte-identical to the recorded golden files.

tests/data/golden_json.json maps each command line (hpoly on the lattice
and dual routes, hl) to its exact stdout, for every shape of weight <= 5 at
the default number of variables; tests/data/golden_json_w6.json does the
same for the 11 shapes of weight 6, and tests/data/golden_kostka.json maps
``kostka --lambda ... --json`` to its stdout for the 29 shapes of weight
1..6.  tests/data/golden_oracle.json maps ``hpoly --lambda ... --route oracle
--json`` to its stdout for the 30 shapes of weight 0..6, and
tests/data/golden_w_oracle.json maps each shape of weight 0..3 to
``W_oracle(lam, 2).to_json()``.  A change that alters any canonical output
fails here.
"""

import json
import os

import pytest

from modmacd.cli import main
from modmacd.combinat import Partition, parse_intlist
from modmacd.symoracle import W_oracle

DATA = os.path.join(os.path.dirname(__file__), "data")


def _load(name):
    with open(os.path.join(DATA, name)) as fh:
        return json.load(fh)


CASES = _load("golden_json.json")
CASES_W6 = _load("golden_json_w6.json")
CASES_KOSTKA = _load("golden_kostka.json")
CASES_ORACLE = _load("golden_oracle.json")
CASES_W = _load("golden_w_oracle.json")


@pytest.mark.parametrize("command", sorted(CASES))
def test_canonical_json_unchanged(capsys, command):
    assert main(command.split()) == 0
    assert capsys.readouterr().out == CASES[command]


def test_golden_w6_covers_every_weight_6_shape():
    assert len(CASES_W6) == 3 * 11


@pytest.mark.parametrize("command", sorted(CASES_W6))
def test_canonical_json_unchanged_weight_6(capsys, command):
    assert main(command.split()) == 0
    assert capsys.readouterr().out == CASES_W6[command]


def test_golden_kostka_covers_every_shape_up_to_weight_6():
    assert len(CASES_KOSTKA) == 29


@pytest.mark.parametrize("command", sorted(CASES_KOSTKA))
def test_kostka_json_unchanged(capsys, command):
    assert main(command.split()) == 0
    assert capsys.readouterr().out == CASES_KOSTKA[command]


def test_golden_oracle_covers_every_shape_up_to_weight_6():
    assert len(CASES_ORACLE) == 30
    assert len(CASES_W) == 7


@pytest.mark.parametrize("command", sorted(CASES_ORACLE))
def test_oracle_json_unchanged(capsys, command):
    assert main(command.split()) == 0
    assert capsys.readouterr().out == CASES_ORACLE[command]


@pytest.mark.parametrize("shape", sorted(CASES_W))
def test_W_oracle_json_unchanged(shape):
    lam = Partition(parse_intlist(shape))
    assert W_oracle(lam, 2).to_json() == CASES_W[shape]
