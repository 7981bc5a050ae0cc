"""The package's public names stay importable as code is deleted.

``bench/tracer.py`` patches names across the package; that every one of
them still resolves is checked by
``test_cli.py::test_bench_tracer_finds_every_traced_name``.
"""

import pytest

import rumexda
from rumexda import tensor


@pytest.mark.parametrize("module", [rumexda, tensor], ids=lambda m: m.__name__)
def test_every_name_in_all_resolves(module):
    missing = [name for name in module.__all__ if not hasattr(module, name)]
    assert missing == []
