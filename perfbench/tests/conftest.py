"""Make the benchmark's modules and the program importable.

Run the self-tests from the repository root with
``python3 -m pytest perfbench/tests -q``.
"""

import pathlib
import sys

BENCH = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))
