"""The package's public surface."""

import conebound


def test_every_export_resolves():
    missing = [name for name in conebound.__all__ if not hasattr(conebound, name)]
    assert missing == []
