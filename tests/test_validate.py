import pytest

from photonlink import validate


def test_unknown_check_name_rejected():
    with pytest.raises(ValueError, match="valid names: trivial-identities"):
        validate.run_checks("quick", 0, names=["trivial-identity"])


def test_names_select_checks_in_battery_order():
    res = validate.run_checks("quick", 0, names=["lemma-series", "trivial-identities"])
    assert [r.name for r in res] == ["trivial-identities", "lemma-series"]
    assert all(r.passed for r in res)

