import os
import re
import subprocess
import sys

TOOL = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                    "tools", "peak_rss.py")


def test_method_line():
    # one method in a fresh process, as the tool runs each of them
    out = subprocess.run([sys.executable, TOOL, "invsqrt-twocluster", "--method", "fom"],
                         capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    out = out.stdout
    assert re.fullmatch(
        r"invsqrt-twocluster fom peak_mb=\d+\.\d traced_mb=\d+\.\d m_used=\d+\n", out)
