"""run_all's records are plain data: every verdict a Python bool, every record JSON-serialisable."""

import importlib
import json
from dataclasses import asdict

from landaudelta.verify import CHECKS, check_census_eta_curves, run_all

census_mod = importlib.import_module("landaudelta.census")


def test_every_result_is_a_bool_and_serialises():
    results = run_all()
    assert [res.name for res in results] == [name for name, _ in CHECKS]
    for res in results:
        assert type(res.passed) is bool, res.name
        assert type(res.seconds) is float and res.seconds >= 0.0, res.name
        assert json.loads(json.dumps(asdict(res))) == asdict(res)


def test_eta_check_solves_one_table_per_level(monkeypatch):
    calls = []
    zeta_rows = census_mod._zeta_rows

    def counted(q, alphas):
        calls.append(q)
        return zeta_rows(q, alphas)

    monkeypatch.setattr(census_mod, "_zeta_rows", counted)
    passed, detail = check_census_eta_curves()
    assert passed, detail
    assert calls == [2, 3, 4]
