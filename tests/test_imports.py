"""Importing the CLI loads no part of Python's network stack.

`xml.sax.saxutils` loads `urllib.request`, and with it `http.client`,
`email`, `ssl` and `socket`: about 3 MB of resident memory in every
process, for code that never touches a network. The check runs in a
fresh interpreter, because this one has long since imported whatever
pytest and hypothesis need.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

NETWORK_MODULES = ("urllib.request", "http.client", "email", "ssl", "socket", "xml.sax")

# Prints the network modules the import left loaded, one per line.
LIST_LOADED = f"""
import sys
import growbench.cli
print("\\n".join(m for m in {NETWORK_MODULES!r} if m in sys.modules))
"""


def test_cli_import_loads_no_network_modules():
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    out = subprocess.run([sys.executable, "-c", LIST_LOADED], env=env, capture_output=True,
                         text=True, check=True, timeout=120)
    assert out.stdout.split() == []
