"""The package names that perfbench/run.py and perfbench/setup_probe.py use.

The traced benchmark run wraps every function in ``LAYER_FUNCTIONS`` and
reports a name it cannot find as absent, which drops its metrics from the
output. These checks keep every such name callable.
"""

import ast
import importlib
from pathlib import Path

import pytest

import pencil_doa
from pencil_doa import harness

RUN_PY = Path(__file__).resolve().parent.parent / "perfbench" / "run.py"


def layer_functions() -> tuple:
    tree = ast.parse(RUN_PY.read_text(encoding="utf-8"))
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and [t.id for t in node.targets if isinstance(t, ast.Name)]
                == ["LAYER_FUNCTIONS"]):
            return ast.literal_eval(node.value)
    raise AssertionError("LAYER_FUNCTIONS not found in perfbench/run.py")


def test_layer_functions_listed():
    assert layer_functions()


@pytest.mark.parametrize("name", layer_functions())
def test_layer_function_is_callable(name):
    module_name, _, func_name = name.rpartition(".")
    module = importlib.import_module(f"pencil_doa.{module_name}")
    assert callable(getattr(module, func_name, None))


def test_harness_names_read_by_the_benchmark():
    assert harness.worker_count() == 1
    assert harness.THREADS_ENV == "PENCIL_DOA_THREADS"
    assert callable(pencil_doa.preset)
    assert callable(pencil_doa.run_experiment)
