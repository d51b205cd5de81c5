"""Locate the program under test: ``src/popabc`` in the checkout that holds this directory."""
from __future__ import annotations

import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def require_program():
    """Put the checkout's ``src`` first on the path, or exit non-zero if it is absent.

    ``ABC_WORKERS`` is cleared because ``engine.resolve_workers`` lets it
    override the ``workers`` key of every config silently.
    """
    if not (SRC / "popabc" / "__init__.py").is_file():
        raise SystemExit(f"bench: {SRC / 'popabc'} not found; run from a full checkout")
    sys.path.insert(0, str(SRC))
    os.environ.pop("ABC_WORKERS", None)
