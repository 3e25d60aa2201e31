"""The package's public surface: its export list and the README quick start."""

import contextlib
import io
import re
import types
from pathlib import Path

import bergman_lab

README = Path(__file__).resolve().parents[1] / "README.md"


def test_all_lists_every_public_name_once():
    """``from bergman_lab import *`` gives every public name the package
    binds, submodules aside, and nothing else."""
    exported = bergman_lab.__all__
    bound = {name for name, value in vars(bergman_lab).items()
             if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert len(exported) == len(set(exported))
    assert set(exported) == bound


def test_readme_quick_start_prints_what_it_says():
    """The two python blocks of the README's quick start, run in turn in one
    namespace, print the values their comments give."""
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    assert len(blocks) == 2
    out, namespace = io.StringIO(), {}
    with contextlib.redirect_stdout(out):
        for block in blocks:
            exec(compile(block, str(README), "exec"), namespace)
    assert out.getvalue().splitlines() == ["0.0", "Fraction(16, 105)"]
