"""The package's public names stay importable as code is deleted.

``bench/tracer.py`` patches names across the package; that every one of
them still resolves is checked by
``test_cli.py::test_bench_tracer_finds_every_traced_name``.
"""

import inspect

import pytest

from rumexda import cli, errors, tensor


@pytest.mark.parametrize("module", [tensor], ids=lambda m: m.__name__)
def test_every_name_in_all_resolves(module):
    missing = [name for name in module.__all__ if not hasattr(module, name)]
    assert missing == []


_OLD_BASES = {
    "ShapeError": ValueError,
    "MathDomainError": ValueError,
    "LabelError": ValueError,
    "ConfigError": ValueError,
    "DegenerateInputError": ValueError,
    "TrainingStateError": RuntimeError,
    "DataError": ValueError,
}


def test_every_error_type_derives_from_the_package_base_and_its_old_base():
    types = {name: cls for name, cls in inspect.getmembers(errors, inspect.isclass)
             if cls.__module__ == errors.__name__ and cls is not errors.RumexdaError}
    assert set(types) == set(_OLD_BASES)
    for name, cls in types.items():
        assert issubclass(cls, errors.RumexdaError) and issubclass(cls, _OLD_BASES[name]), name


def test_the_cli_catches_the_package_base_and_no_subclass_of_it():
    assert cli.ERRORS == (errors.RumexdaError, OSError)
