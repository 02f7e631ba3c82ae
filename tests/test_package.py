"""The package's public names."""

import decoyeval


def test_every_exported_name_resolves_once():
    names = decoyeval.__all__
    assert len(set(names)) == len(names)
    assert [name for name in names if not hasattr(decoyeval, name)] == []
