"""run_all's records are plain data: every verdict a Python bool, every record JSON-serialisable."""

import json
from dataclasses import asdict

from landaudelta.verify import CHECKS, run_all


def test_every_result_is_a_bool_and_serialises():
    results = run_all()
    assert [res.name for res in results] == [name for name, _ in CHECKS]
    for res in results:
        assert type(res.passed) is bool, res.name
        assert json.loads(json.dumps(asdict(res))) == asdict(res)
