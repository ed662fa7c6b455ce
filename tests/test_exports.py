"""The package's public names: each one in __all__ resolves, in sorted order, once."""

import admmcert


def test_every_export_resolves():
    missing = [name for name in admmcert.__all__ if not hasattr(admmcert, name)]
    assert missing == []


def test_exports_sorted_without_duplicates():
    names = admmcert.__all__
    assert names == sorted(names)
    assert len(set(names)) == len(names)


def test_certificates_live_in_diagnostics():
    # ode only integrates: every check and bundle, continuous ones included, is defined
    # in diagnostics (ode imports solver.check_start, which it does not define)
    assert admmcert.certify_continuous is admmcert.diagnostics.certify_continuous
    ode = admmcert.ode
    assert [name for name, obj in vars(ode).items()
            if name.startswith(("check_", "certify_"))
            and getattr(obj, "__module__", None) == ode.__name__] == []
