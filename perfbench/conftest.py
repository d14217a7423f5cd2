"""Make the benchmark's modules and the program's sources importable."""

from __future__ import annotations

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
if str(HERE) not in sys.path:
    sys.path.insert(0, str(HERE))

import run  # noqa: E402 - needs the path above

run.use_repo_sources()
