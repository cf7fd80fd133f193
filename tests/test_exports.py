"""The package's export list: every public name its imports bind, and nothing else."""

import carbon_ledger


def test_all_lists_the_71_public_names_once_and_sorted():
    names = carbon_ledger.__all__
    assert names == sorted(set(names))
    assert len(names) == 71


def test_every_export_is_defined_in_a_package_module():
    for name in carbon_ledger.__all__:
        module = getattr(getattr(carbon_ledger, name), "__module__", None)
        assert module is not None and module.startswith("carbon_ledger."), name
