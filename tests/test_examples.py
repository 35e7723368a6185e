"""The examples run and print what they claim."""

from __future__ import annotations

import importlib.util
import pathlib
import re

EXAMPLES = pathlib.Path(__file__).resolve().parent.parent / "examples"


def _load(name: str):
    spec = importlib.util.spec_from_file_location(
        f"example_{name}", EXAMPLES / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_topology_example_shape_gain_is_not_negative(capsys):
    """Resizing the soft modules never loses area against frozen shapes:
    the example resizes through ``refine_shapes``, not through the secant
    LP, whose area is only a conservative bound."""
    _load("topology_optimization").main()
    out = capsys.readouterr().out
    gain = re.search(r"buys (-?[0-9.]+) area units over frozen shapes", out)
    assert gain is not None, out
    assert float(gain.group(1)) >= 0.0, out
    assert "conservative bound" in out
