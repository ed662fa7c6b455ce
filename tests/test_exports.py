"""The package's public names: each one in __all__ resolves, in sorted order, once."""

import admmcert


def test_every_export_resolves():
    missing = [name for name in admmcert.__all__ if not hasattr(admmcert, name)]
    assert missing == []


def test_exports_sorted_without_duplicates():
    names = admmcert.__all__
    assert names == sorted(names)
    assert len(set(names)) == len(names)
