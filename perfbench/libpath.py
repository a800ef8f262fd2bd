"""Put the checkout's own `src/horadam` first on sys.path, or stop.

The benchmark must measure the source tree it sits in, never an installed
copy, so a checkout without `src/horadam` is an error (exit code 2).
"""
from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

EXIT_NO_LIBRARY = 2


def require():
    package = SRC / "horadam"
    if not (package / "__init__.py").is_file():
        sys.stderr.write(f"perfbench: no library source at {package}\n")
        raise SystemExit(EXIT_NO_LIBRARY)
    sys.path.insert(0, str(SRC))
    import horadam

    if Path(horadam.__file__).resolve().parent != package:
        sys.stderr.write(f"perfbench: imported horadam from {horadam.__file__}, "
                         f"not from {package}\n")
        raise SystemExit(EXIT_NO_LIBRARY)
    return horadam
