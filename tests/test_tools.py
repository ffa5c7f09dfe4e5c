"""Smoke tests of the scripts under ``tools/``."""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_src_size_rows_add_up_to_the_total():
    src = os.path.join(ROOT, "src")
    out = subprocess.run(
        [sys.executable, os.path.join(ROOT, "tools", "src_size.py"), src],
        capture_output=True, text=True, check=True,
    ).stdout.splitlines()
    assert out[0].split() == ["module", "code", "docstring"]
    rows = {name: (int(code), int(doc)) for name, code, doc in map(str.split, out[1:])}
    total = rows.pop("total")
    modules = {os.path.relpath(os.path.join(d, f), src)
               for d, _, files in os.walk(src) for f in files if f.endswith(".py")}
    assert set(rows) == modules and "compctrl/mpc.py" in rows
    assert tuple(map(sum, zip(*rows.values()))) == total
    assert all(code > 0 for code, _ in rows.values())
