"""Put the simulator (``src/``) and the repository root on the path so
``python -m pytest perfbench`` runs from a plain checkout."""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
for entry in (ROOT, ROOT / "src"):
    if str(entry) not in sys.path:
        sys.path.insert(0, str(entry))
