"""``python -m bench``: makes ``src/`` importable, then hands over to the CLI."""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
for entry in (str(ROOT / "src"), str(ROOT)):
    if entry not in sys.path:
        sys.path.insert(0, entry)

from bench.cli import main  # noqa: E402  (needs the path set up above)

if __name__ == "__main__":
    sys.exit(main())
