"""Print the sha256 of every output of the README's CLI examples.

Runs each shipped config in configs/ through its subcommand (green with
--compare) and the default `verify`, into a temporary directory, and
prints one `sha256  file` line per output file. Two checkouts that print
the same lines produce the same bytes. Run from the root of a checkout:

    PYTHONPATH=src python3 scripts/output_digests.py
"""

import contextlib
import hashlib
import io
import sys
import tempfile
from pathlib import Path

from semigreen.cli import main
from semigreen.config import load_config

CONFIGS = Path(__file__).resolve().parent.parent / "configs"

with tempfile.TemporaryDirectory() as out:
    runs = [["verify"]]
    for path in sorted(CONFIGS.glob("*.ini")):
        kind = load_config(str(path)).experiment
        runs.append([kind, "--config", str(path)] + (["--compare"] if kind == "green" else []))
    for argv in runs:
        with contextlib.redirect_stdout(io.StringIO()):
            if main(argv + ["--out-dir", out]) != 0:
                sys.exit(f"failed: semigreen {' '.join(argv)}")
    for f in sorted(Path(out).iterdir()):
        print(f"{hashlib.sha256(f.read_bytes()).hexdigest()}  {f.name}")
