""""Same behaviour" as a committed check: every case of the golden corpus
(`tests/golden/`, written by `tests/golden_corpus.py`) is rerun through
`cli.run` and compared with what it gave when the corpus was written.

Exit codes, keys, their order and value types must match exactly.  An
evaluated number must agree within 1e-12 max(1, |x|).  In a searched
report (an `optimize` run, or a scan that searches at each point)
every number must agree within 1e-9, and settings are compared by shape
and type only, since mirror optima are equal.  The first stderr line
must match, its decimal numbers compared as the report's numbers are.
"""

import json
import math
import re

import pytest

from golden_corpus import cases, load, run_case

CORPUS = load()
CASES = [case for group in CORPUS.values() for case in group]
FLOAT = re.compile(r"([-+]?\d+\.\d*(?:e[-+]?\d+)?|[-+]?\d+e[-+]?\d+|\bnan\b|\binf\b)")


def _close(old: float, new: float, searched: bool) -> bool:
    if math.isnan(old) or math.isnan(new):
        return math.isnan(old) and math.isnan(new)
    return abs(new - old) <= (1e-9 if searched else 1e-12 * max(1.0, abs(old)))


def assert_same(old, new, searched: bool, where: str = "envelope", compare: bool = True):
    """Same keys in the same order, same types, numbers within tolerance;
    `compare` False checks shape and type only."""
    assert type(new) is type(old), (where, old, new)
    if isinstance(old, dict):
        assert list(new) == list(old), where
        for key in old:
            assert_same(old[key], new[key], searched, f"{where}.{key}",
                        compare and not (searched and key == "settings"))
    elif isinstance(old, list):
        assert len(new) == len(old), where
        for i, (a, b) in enumerate(zip(old, new)):
            assert_same(a, b, searched, f"{where}[{i}]", compare)
    elif isinstance(old, float):
        assert not compare or _close(old, new, searched), (where, old, new)
    else:
        assert new == old, (where, old, new)


def test_corpus_lists_every_case():
    # a case added to or dropped from the fuzz lists needs a regenerated corpus
    assert {group: [[c["name"], c["command"], c["spec"]] for c in stored]
            for group, stored in CORPUS.items()} == json.loads(json.dumps(cases()))


@pytest.mark.parametrize("case", CASES, ids=[case["name"] for case in CASES])
def test_golden_case(case, tmp_path):
    got = run_case(case["command"], case["spec"], tmp_path)
    spec = case["spec"]
    searched = case["command"] == "optimize" or (
        case["command"] == "scan" and spec.get("settings") == "optimize")
    assert got["exit"] == case["exit"]
    old_line, new_line = FLOAT.split(case["stderr"]), FLOAT.split(got["stderr"])
    assert old_line[::2] == new_line[::2], got["stderr"]
    for a, b in zip(old_line[1::2], new_line[1::2]):
        assert _close(float(a), float(b), searched), (case["stderr"], got["stderr"])
    if case["envelope"] is None:
        assert got["envelope"] is None
    else:
        assert_same(case["envelope"], got["envelope"], searched)
