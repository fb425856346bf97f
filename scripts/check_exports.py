#!/usr/bin/env python3
"""Fail when a library export has no production caller.

Every `val` in lib/**/*.mli must be named somewhere in lib/, bin/, bench/
or perfbench/ outside its own module (the .ml/.mli pair it is declared
in), or carry a `Test seam:` or `Test reference:` note in the text
between it and the next signature item (its doc comment). Tests and
examples do not count as callers.

A caller counts only when it writes the name qualified, as `Q.name`,
where `Q` is:
- the module (`Sat_session` for lib/sweep/sat_session.mli), also as the
  last step of a longer path (`Simgen_sweep.Sat_session.name`);
- in the calling file, an alias `module A = ...M` of it;
- for a `val` inside `module X : sig ... end`, the name `X` (or an alias
  of `X`).
So an export whose name collides with another identifier is still
flagged; a caller that reaches the name through `open` or a local open
`M.(...)` is not seen, and must qualify it. Operators are not checked.

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
SUBMODULE = re.compile(r"^\s*module\s+([A-Z][A-Za-z0-9_']*)\s*:\s*sig\b")
SIG_OPEN = re.compile(r"\b(sig|struct|object)\b")
SIG_CLOSE = re.compile(r"\bend\b")
ALIAS = re.compile(r"\bmodule\s+([A-Z][A-Za-z0-9_']*)\s*=\s*([A-Z][A-Za-z0-9_'.]*)")


def sources():
    for root in PRODUCTION:
        for dirpath, dirnames, filenames in os.walk(root):
            dirnames[:] = [d for d in dirnames if not d.startswith("_")]
            for f in filenames:
                if f.endswith((".ml", ".mli")):
                    yield os.path.join(dirpath, f)


def module_name(path):
    base = os.path.splitext(os.path.basename(path))[0]
    return base[:1].upper() + base[1:]


def vals(mli):
    """(line number, name, qualifier, doc text) of each val in [mli]. The
    qualifier is the innermost `module X : sig` around the val, or the
    file's own module."""
    with open(mli) as fh:
        text = fh.read()
    lines = text.splitlines(keepends=True)
    syntax = code(text).split("\n")
    out = []
    # One entry per open sig/struct/object: the submodule it names, or None.
    stack = []
    for i, line in enumerate(syntax):
        m = VAL.match(line)
        if m:
            j = i + 1
            while j < len(syntax) and not ITEM.match(syntax[j]):
                j += 1
            named = [x for x in stack if x]
            qual = named[-1] if named else module_name(mli)
            out.append((i + 1, m.group(1), qual, "".join(lines[i:j])))
        sub = SUBMODULE.match(line)
        for _ in SIG_OPEN.finditer(line):
            stack.append(sub.group(1) if sub else None)
            sub = None
        for _ in SIG_CLOSE.finditer(line):
            if stack:
                stack.pop()
    return out


CHAR = re.compile(r"'(\\[^']+|[^\\'])'")


def code(text):
    """[text] with its comments and string literals blanked out, line
    breaks kept, so that a doc reference such as `{!M.name}` or a message
    naming `M.name` is not taken for a caller, nor a word like "end" in
    a comment for syntax. Comments nest; character literals such as '"'
    are skipped whole."""
    out = []
    i, n, depth = 0, len(text), 0

    def skip(j):
        out.extend("\n" * text.count("\n", i, j))
        return j

    while i < n:
        if text.startswith("(*", i):
            depth += 1
            i += 2
        elif depth and text.startswith("*)", i):
            depth -= 1
            i += 2
        elif text[i] == '"':
            j = i + 1
            while j < n and text[j] != '"':
                j += 2 if text[j] == "\\" else 1
            i = skip(j + 1)
        elif text[i] == "'" and CHAR.match(text, i):
            i = CHAR.match(text, i).end()
        elif depth:
            i = skip(i + 1)
        else:
            out.append(text[i])
            i += 1
    return "".join(out)


def aliases(text):
    """Alias name -> last step of the aliased path, in one file."""
    return {a: path.split(".")[-1] for a, path in ALIAS.findall(text)}


def main():
    texts = {}
    for path in sources():
        with open(path) as fh:
            texts[path] = code(fh.read())
    # Per file: qualifier -> the names it is followed by, and the aliases.
    qualified = {}
    for path, text in texts.items():
        uses = {}
        for q, name in re.findall(r"\b([A-Z][A-Za-z0-9_']*)\.([a-z_][A-Za-z0-9_']*)", text):
            uses.setdefault(q, set()).add(name)
        qualified[path] = (uses, aliases(text))
    total = 0
    offenders = []
    for mli in sorted(p for p in texts if p.startswith("lib/") and p.endswith(".mli")):
        own = {mli, mli[:-1]}
        for lineno, name, qual, doc in vals(mli):
            total += 1
            if any(m in doc for m in MARKERS):
                continue
            called = False
            for path, (uses, alias) in qualified.items():
                if path in own:
                    continue
                quals = {qual} | {a for a, target in alias.items() if target == qual}
                if any(name in uses.get(q, ()) for q in quals):
                    called = True
                    break
            if not called:
                offenders.append(f"{mli}:{lineno}: {name}")
    for o in offenders:
        print(o)
    print(f"{total} vals checked, {len(offenders)} without a production caller or note")
    if offenders:
        print(
            f"{len(offenders)} export(s) without a qualified caller in"
            f" {', '.join(PRODUCTION)} outside their module; make them private,"
            f" delete them, or mark them with"
            f" {' or '.join(repr(m) for m in MARKERS)}",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
