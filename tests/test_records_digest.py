import dataclasses
import importlib.util
import os
import re

HERE = os.path.dirname(os.path.abspath(__file__))
_spec = importlib.util.spec_from_file_location(
    "records_digest", os.path.join(os.path.dirname(HERE), "tools", "records_digest.py"))
records_digest = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(records_digest)


def test_sequence_digest_line():
    line = records_digest.sequence_digest("inv-neumann2d", "fom", 0)
    assert re.fullmatch(r"inv-neumann2d fom seed=0 problems=10 mv=\d+ ip=\d+ sk=0 "
                        r"work=[0-9a-f]{16} all=[0-9a-f]{16}", line)


def test_srfom_takes_the_srfom_stab_settings():
    stab = records_digest.sequence_spec("inv-neumann2d", "srfom_stab", 0)
    spec = records_digest.sequence_spec("inv-neumann2d", "srfom", 0)
    assert spec == dataclasses.replace(stab, method="srfom")
