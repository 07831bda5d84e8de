""""Same behaviour" as a committed check: every case of the golden corpus
(`tests/golden/`, written by `tests/golden_corpus.py`) is rerun through
`cli.run` and compared with what it gave when the corpus was written, by
`golden_corpus.check`, whose docstring states the tolerances.
"""

import json

import pytest

from golden_corpus import cases, check, load, run_case

CORPUS = load()
CASES = [case for group in CORPUS.values() for case in group]


def test_corpus_lists_every_case():
    # a case added to or dropped from the fuzz lists needs a regenerated corpus
    assert {group: [[c["name"], c["command"], c["spec"]] for c in stored]
            for group, stored in CORPUS.items()} == json.loads(json.dumps(cases()))


@pytest.mark.parametrize("case", CASES, ids=[case["name"] for case in CASES])
def test_golden_case(case, tmp_path):
    check(case, run_case(case["command"], case["spec"], tmp_path))
