import importlib.util
import os
import re

HERE = os.path.dirname(os.path.abspath(__file__))
_spec = importlib.util.spec_from_file_location(
    "chained_repro", os.path.join(os.path.dirname(HERE), "tools", "chained_repro.py"))
chained_repro = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(chained_repro)


def test_seed_line():
    line = chained_repro.seed_line(0)
    assert re.fullmatch(r"seed=0 mv=\d+ failed=0 worst_relerr=\S+ ell=\d+", line), line
    assert float(line.split("worst_relerr=")[1].split()[0]) <= 1e-10
