"""Print the sha256 of every output of the README's CLI examples.

Runs each shipped config in configs/ through its subcommand (green with
--compare) and the default `verify`, into a temporary directory, and
prints one `sha256  file` line per output file. Two checkouts that print
the same lines produce the same bytes. Run from the root of a checkout:

    PYTHONPATH=src python3 scripts/output_digests.py > digests.txt
    PYTHONPATH=src python3 scripts/output_digests.py --check digests.txt

With --check FILE it compares the digests with FILE, a list saved by an
earlier run, instead of printing them. It exits nonzero, naming each file
whose digest differs, is missing or is new. The test suite checks the list
saved in tests/output_digests.txt; a change meant to move outputs saves a
new one.
"""

import argparse
import contextlib
import hashlib
import io
import sys
import tempfile
from pathlib import Path

from semigreen.cli import main
from semigreen.config import load_config

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def digests() -> dict:
    """{output file name: sha256 hex digest} of one run of every example."""
    with tempfile.TemporaryDirectory() as out:
        runs = [["verify"]]
        for path in sorted(CONFIGS.glob("*.ini")):
            kind = load_config(str(path)).experiment
            runs.append([kind, "--config", str(path)] + (["--compare"] if kind == "green" else []))
        for argv in runs:
            with contextlib.redirect_stdout(io.StringIO()):
                if main(argv + ["--out-dir", out]) != 0:
                    sys.exit(f"failed: semigreen {' '.join(argv)}")
        return {f.name: hashlib.sha256(f.read_bytes()).hexdigest()
                for f in sorted(Path(out).iterdir())}


def read_saved(path: str) -> dict:
    saved = {}
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        if line.strip():
            digest, name = line.split(maxsplit=1)
            saved[name] = digest
    return saved


def mismatches(saved: dict, current: dict) -> list:
    """One `name: differs|missing|new` line per file whose digests disagree."""
    def state(name):
        return "missing" if name not in current else "new" if name not in saved else "differs"

    return [f"{name}: {state(name)}" for name in sorted(saved.keys() | current.keys())
            if saved.get(name) != current.get(name)]


def run(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--check", metavar="FILE",
                   help="compare with digests saved from an earlier run")
    args = p.parse_args(argv)
    current = digests()
    if args.check is None:
        for name, digest in current.items():
            print(f"{digest}  {name}")
        return 0
    bad = mismatches(read_saved(args.check), current)
    for line in bad:
        print(line, file=sys.stderr)
    if not bad:
        print(f"{len(current)} digests match {args.check}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(run())
