"""Every name a package exports in __all__ resolves, so a deletion that
leaves a stale export fails here rather than at a user's import."""

from __future__ import annotations

import pytest

import stiefel_einstein
from stiefel_einstein import polyalg


@pytest.mark.parametrize("module", [stiefel_einstein, polyalg], ids=lambda m: m.__name__)
def test_all_names_resolve(module):
    assert [name for name in module.__all__ if not hasattr(module, name)] == []
