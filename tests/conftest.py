"""Python processes the tests start import the package from src/ as well.

pyproject's `pythonpath` setting puts src/ on the test process's own path
only; `python -m tracereg.cli` in a child process needs PYTHONPATH.
"""

import os
from pathlib import Path

SRC = str(Path(__file__).resolve().parents[1] / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
