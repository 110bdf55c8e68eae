import importlib

import pytest

import nlrank


def test_every_export_resolves_to_its_submodule():
    listed = dir(nlrank)
    for name in nlrank.__all__:
        obj = getattr(nlrank, name)
        home = importlib.import_module(obj.__module__)
        assert home.__name__.startswith("nlrank."), name
        assert getattr(home, name) is obj, name
        assert name in listed, name


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        nlrank.no_such_name  # noqa: B018
    assert not hasattr(nlrank, "no_such_name")
