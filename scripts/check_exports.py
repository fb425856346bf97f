#!/usr/bin/env python3
"""Fail when a library export has no production caller.

Every `val` in lib/**/*.mli must be named somewhere in lib/, bin/, bench/
or perfbench/ outside its own module (the .ml/.mli pair it is declared
in), or carry a `Test seam:` or `Test reference:` note in the text
between it and the next signature item (its doc comment). Tests and
examples do not count as callers.

The match is by name only, so a name that collides with another
identifier passes: the check can miss an uncalled export, never flag a
called one. Operators are not checked.

Run from the repository root: `python3 scripts/check_exports.py`.
Prints each offender as `file:line: name`, then a summary line with the
number of vals checked, and exits 1 if there is an offender.
"""

import os
import re
import sys

PRODUCTION = ["lib", "bin", "bench", "perfbench"]
MARKERS = ("Test seam:", "Test reference:")
VAL = re.compile(r"^\s*val\s+([a-z_][A-Za-z0-9_']*)")
ITEM = re.compile(r"^\s*(val|type|module|exception|end|include|external|class)\b")


def sources():
    for root in PRODUCTION:
        for dirpath, dirnames, filenames in os.walk(root):
            dirnames[:] = [d for d in dirnames if not d.startswith("_")]
            for f in filenames:
                if f.endswith((".ml", ".mli")):
                    yield os.path.join(dirpath, f)


def vals(mli):
    """(line number, name, doc text) of each val in [mli]."""
    with open(mli) as fh:
        lines = fh.readlines()
    out = []
    for i, line in enumerate(lines):
        m = VAL.match(line)
        if not m:
            continue
        j = i + 1
        while j < len(lines) and not ITEM.match(lines[j]):
            j += 1
        out.append((i + 1, m.group(1), "".join(lines[i:j])))
    return out


def main():
    texts = {}
    for path in sources():
        with open(path) as fh:
            texts[path] = fh.read()
    words = {}
    for path, text in texts.items():
        for w in set(re.findall(r"[A-Za-z_][A-Za-z0-9_']*", text)):
            words.setdefault(w, set()).add(path)
    total = 0
    offenders = []
    for mli in sorted(p for p in texts if p.startswith("lib/") and p.endswith(".mli")):
        own = {mli, mli[:-1]}
        for lineno, name, doc in vals(mli):
            total += 1
            if words.get(name, set()) - own:
                continue
            if any(m in doc for m in MARKERS):
                continue
            offenders.append(f"{mli}:{lineno}: {name}")
    for o in offenders:
        print(o)
    print(f"{total} vals checked, {len(offenders)} without a production caller or note")
    if offenders:
        print(
            f"{len(offenders)} export(s) without a caller in {', '.join(PRODUCTION)}"
            f" outside their module; make them private, delete them, or mark"
            f" them with {' or '.join(repr(m) for m in MARKERS)}",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
