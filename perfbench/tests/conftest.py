import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent.parent
ROOT = BENCH_DIR.parent
for entry in (str(BENCH_DIR), str(ROOT / "src")):
    if entry not in sys.path:
        sys.path.insert(0, entry)
