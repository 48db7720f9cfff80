"""Every linext function the benchmark's tracer wraps must still exist.

bench/traced_cli.py looks each target up with ``owner.__dict__[attr]``, so a
renamed or deleted function would otherwise surface only in the benchmark's
own self-test.
"""

import importlib
import importlib.util
import pathlib

import pytest

TRACER = pathlib.Path(__file__).resolve().parents[1] / "bench" / "traced_cli.py"


def _targets():
    spec = importlib.util.spec_from_file_location("traced_cli", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return [(module, path) for module, path, _ in tracer.TARGETS]


@pytest.mark.parametrize("module, path", _targets(), ids=lambda v: v)
def test_traced_target_resolves(module, path):
    owner = importlib.import_module(f"linext.{module}")
    *cls_path, attr = path.split(".")
    for part in cls_path:
        owner = getattr(owner, part)
    assert attr in vars(owner)
