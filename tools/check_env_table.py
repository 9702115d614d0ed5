#!/usr/bin/env python3
"""Check docs/api.md's environment table against the code.

Collects every "LWT_...", "LWTBENCH_..." and "GLT_..." string literal in the
C++ sources under src/ and bench/, and every variable named in the first
column of the table under docs/api.md's "## Environment variables" heading.
Prints each variable the code names without a row, and each row that names
a variable no code reads, and exits 1 if there is either.

Usage:
    tools/check_env_table.py [REPO_ROOT]

REPO_ROOT defaults to the directory above this script. Stdlib only.
"""

import pathlib
import re
import sys

LITERAL = re.compile(r'"((?:LWT|LWTBENCH|GLT)_[A-Z0-9_]+)"')
CELL_NAME = re.compile(r"`((?:LWT|LWTBENCH|GLT)_[A-Z0-9_]+)`")
SOURCE_DIRS = ("src", "bench")
SOURCE_SUFFIXES = {".cpp", ".hpp", ".h"}
HEADING = "## Environment variables"


def code_names(root):
    names = set()
    for top in SOURCE_DIRS:
        for path in sorted((root / top).rglob("*")):
            if path.suffix in SOURCE_SUFFIXES:
                names.update(LITERAL.findall(path.read_text(errors="replace")))
    return names


def table_names(api_md):
    names = set()
    in_section = False
    for line in api_md.read_text().splitlines():
        if line.startswith("## "):
            in_section = line.startswith(HEADING)
        elif in_section and line.startswith("|"):
            names.update(CELL_NAME.findall(line.split("|")[1]))
    return names


def main():
    root = (pathlib.Path(sys.argv[1]) if len(sys.argv) > 1
            else pathlib.Path(__file__).resolve().parent.parent)
    code = code_names(root)
    table = table_names(root / "docs" / "api.md")
    if not table:
        print(f"no table under '{HEADING}' in docs/api.md")
        return 1
    missing = sorted(code - table)
    stale = sorted(table - code)
    for name in missing:
        print(f"{name}: read under src/ or bench/ but has no row in "
              "docs/api.md's environment table")
    for name in stale:
        print(f"{name}: has a row in docs/api.md's environment table but "
              "nothing under src/ or bench/ reads it")
    if missing or stale:
        return 1
    print(f"check_env_table: {len(code)} variables, each with a row")
    return 0


if __name__ == "__main__":
    sys.exit(main())
