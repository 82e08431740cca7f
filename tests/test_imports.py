"""Import hygiene: the package's import graph, and the modules the CLI loads.

Importing the CLI loads no part of Python's network stack.
`xml.sax.saxutils` loads `urllib.request`, and with it `http.client`,
`email`, `ssl` and `socket`: about 3 MB of resident memory in every
process, for code that never touches a network. The check runs in a
fresh interpreter, because this one has long since imported whatever
pytest and hypothesis need.
"""

import ast
import glob
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


def _package_imports() -> dict[str, set[str]]:
    """growbench module -> the growbench modules its `from .x import` statements name."""
    graph = {}
    for path in glob.glob(os.path.join(ROOT, "src", "growbench", "*.py")):
        with open(path) as f:
            tree = ast.parse(f.read(), path)
        graph[os.path.basename(path)[:-3]] = {
            name
            for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) and node.level == 1
            for name in ([node.module.partition(".")[0]] if node.module
                         else [alias.name for alias in node.names])
        }
    return graph


def _reachable(graph: dict[str, set[str]], module: str) -> set[str]:
    seen, todo = set(), [module]
    while todo:
        for name in graph.get(todo.pop(), ()):
            if name not in seen:
                seen.add(name)
                todo.append(name)
    return seen


def test_config_and_harness_do_not_import_the_cli():
    # harness and cli both import config, so config must reach neither; cli imports harness
    graph = _package_imports()
    assert {"config", "harness", "cli"} <= graph.keys()
    assert _reachable(graph, "config") & {"harness", "cli"} == set()
    assert "cli" not in _reachable(graph, "harness")
