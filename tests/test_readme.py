"""The README's Library block runs as printed and its commented claims hold."""

import pathlib
import re

import numpy as np

import linext as lx

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def test_library_block_runs_and_its_claims_hold():
    text = README.read_text()
    block = re.search(r"## Library\n\n```python\n(.*?)```", text, re.S).group(1)
    ns = {}
    exec(block, ns)
    assert len(ns["y"]) == 11
    assert ns["exact"].delta <= lx.tvd_weight_bound(ns["w"], 0.2)
    assert np.array_equal(ns["est"].pmf, lx.empirical_stats(ns["out"], 11).pmf)
