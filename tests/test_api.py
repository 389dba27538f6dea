"""The public API is exactly what __all__ lists, so any change to it shows in a diff."""

import types

import stochrd


def test_all_lists_every_public_name_once():
    assert len(stochrd.__all__) == len(set(stochrd.__all__))
    public = {name for name, value in vars(stochrd).items()
              if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert set(stochrd.__all__) == public | {"__version__"}
