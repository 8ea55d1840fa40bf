"""run_all's records are plain data: every verdict a Python bool, every record JSON-serialisable."""

import importlib
import json
from dataclasses import asdict

from landaudelta.verify import CHECKS, check_basis_annihilation, check_census_bound, check_census_eta_curves, run_all

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


def test_census_bound_detail():
    # 12 census sweeps (b in {0.5, 2}, q <= 6, r <= 4) and 24,000 drawn radii, one multiplicities call per sweep.
    assert check_census_bound() == (True, "0 violations of m <= q over 24398 radii")


def test_annihilation_detail():
    assert check_basis_annihilation() == (True, "max annihilation residual 4.46e-08")
