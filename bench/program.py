"""Locates the program under test: the ``cti`` package in the checkout's ``src/``.

Importing this module puts ``src/`` first on ``sys.path`` so that every
benchmark module measures the checkout's own sources, never an installed
copy. It exits with status 2 when those sources are absent, before any
result is printed.
"""
from __future__ import annotations

import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"

if not (SRC / "cti" / "__init__.py").is_file():
    sys.stderr.write(f"benchmark: program sources not found under {SRC}\n")
    raise SystemExit(2)
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))
