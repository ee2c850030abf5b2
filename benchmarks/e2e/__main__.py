"""``python -m benchmarks.e2e`` or ``python3 benchmarks/e2e`` (driver.py)."""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
# Runnable from the repository root without an installed package.
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from benchmarks.e2e.driver import main  # noqa: E402

sys.exit(main())
