#!/usr/bin/env python3
"""Source-patch mutants: every entry of this catalog must be killed.

This catalog is the project's one negative-control mechanism: no
production code reads a mutant switch, so a seeded defect exists only
in a patched copy of the tree and costs nothing at run time. Each
`*.mutant` file in this directory is one seeded defect, written as an
exact-string patch:

    # what the defect is (comment lines start with '#')
    file: lib/machine/exec.ml
    suite: test_machine
    kills: oracle exec agrees with the oracle on every halfword
    @@ old
    <the text to replace: must occur exactly once in the file>
    @@ new
    <the text to put in its place>

`kills:` lines (one or more) name tests of the suite as Alcotest prints
them, group then test name. The old and new texts are the lines between
the markers, joined by newlines. A patched tree must still compile
under dune's default (dev) profile, where an unused variable is an
error, so a patch that drops the only use of a name adds an
`ignore (...)` of it.

Tier-1 (test/test_mutant.ml) checks that the catalog has not rotted:
each old text occurs exactly once, each suite is in test/dune, and the
group and name of each killing test are string literals of the
suite's source. Only this script shows that each entry is killed.

The script copies the tree to a temporary directory, checks that the
honest copy passes every suite the catalog names, then applies one
patch at a time, rebuilds incrementally, runs the entry's suite and
requires every named test to fail. It exits 0 when every entry is
killed, and 1 when an entry's old text does not occur exactly once, a
patched tree does not compile, or a named test survives its patch.

    python3 test/mutants/run.py                 # the whole catalog
    python3 test/mutants/run.py exec-push-slot  # selected entries

QCheck properties run with QCHECK_SEED=1 (override it in the
environment), so a kill is reproducible.
"""

import os
import re
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))


def parse(path):
    """One catalog entry as a dict: name, file, suite, kills, old, new."""
    entry = {"name": os.path.basename(path)[: -len(".mutant")], "kills": []}
    with open(path) as f:
        lines = f.read().split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    try:
        old_at = lines.index("@@ old")
        new_at = lines.index("@@ new")
    except ValueError:
        raise SystemExit(f"{path}: needs an '@@ old' and an '@@ new' line")
    for line in lines[:old_at]:
        if not line.strip() or line.startswith("#"):
            continue
        key, sep, value = line.partition(":")
        if not sep or key not in ("file", "suite", "kills"):
            raise SystemExit(f"{path}: unexpected header line {line!r}")
        if key == "kills":
            entry["kills"].append(value.strip())
        else:
            entry[key] = value.strip()
    entry["old"] = "\n".join(lines[old_at + 1 : new_at])
    entry["new"] = "\n".join(lines[new_at + 1 :])
    for key in ("file", "suite"):
        if key not in entry:
            raise SystemExit(f"{path}: no '{key}:' line")
    if not entry["kills"] or not entry["old"] or entry["old"] == entry["new"]:
        raise SystemExit(f"{path}: needs a 'kills:' line and a real change")
    return entry


def catalog(names):
    paths = sorted(
        os.path.join(HERE, f) for f in os.listdir(HERE) if f.endswith(".mutant")
    )
    entries = [parse(p) for p in paths]
    if names:
        unknown = set(names) - {e["name"] for e in entries}
        if unknown:
            raise SystemExit(f"no such entries: {', '.join(sorted(unknown))}")
        entries = [e for e in entries if e["name"] in names]
    return entries


def dune(tree, *args):
    env = dict(os.environ)
    env.setdefault("QCHECK_SEED", "1")
    proc = subprocess.run(
        ["dune", "build", "--root", tree, "--display", "quiet", *args],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        env=env,
    )
    return proc.returncode, proc.stdout


def failed(output, test):
    """Alcotest printed a [FAIL] line for `group name`. It cuts a long
    name short with '...', so that shows as a prefix."""
    group, _, name = test.partition(" ")
    line = re.compile(r"\[FAIL\]\s+(\S+)\s+\d+\s+(.*?)\s*│?\s*$")
    for m in map(line.search, output.splitlines()):
        if m and m.group(1) == group:
            shown = m.group(2)
            if shown.endswith("...") and name.startswith(shown[:-3].rstrip()):
                return True
            if shown == name + ".":
                return True
    return False


def run_entry(tree, e):
    """'killed', or why the entry failed."""
    path = os.path.join(tree, e["file"])
    with open(path) as f:
        honest = f.read()
    with open(path, "w") as f:
        f.write(honest.replace(e["old"], e["new"], 1))
    try:
        rc, out = dune(tree, f"test/{e['suite']}.exe")
        if rc != 0:
            return "does not compile:\n" + out
        rc, out = dune(tree, "--force", f"@test/runtest-{e['suite']}")
        survivors = [t for t in e["kills"] if not failed(out, t)]
        if rc == 0 or survivors:
            return "survived: " + "; ".join(survivors or e["kills"])
        return "killed"
    finally:
        with open(path, "w") as f:
            f.write(honest)


def main(argv):
    entries = catalog(argv)
    stale = []
    for e in entries:
        try:
            with open(os.path.join(ROOT, e["file"])) as f:
                n = f.read().count(e["old"])
        except FileNotFoundError:
            n = 0
        if n != 1:
            stale.append(f"{e['name']}: old text occurs {n} times in {e['file']}")
    if stale:
        print("\n".join(stale))
        return 1
    tree = tempfile.mkdtemp(prefix="mutants-")
    try:
        shutil.copytree(
            ROOT,
            tree,
            dirs_exist_ok=True,
            ignore=shutil.ignore_patterns("_build", ".git", "__pycache__"),
        )
        for suite in sorted({e["suite"] for e in entries}):
            rc, out = dune(tree, "--force", f"@test/runtest-{suite}")
            if rc != 0:
                print(out)
                print(f"{suite} fails on the honest tree")
                return 1
        bad = 0
        for e in entries:
            verdict = run_entry(tree, e)
            print(f"{e['name']}: {verdict}", flush=True)
            bad += verdict != "killed"
        print(f"{len(entries) - bad}/{len(entries)} mutants killed")
        return 1 if bad else 0
    finally:
        shutil.rmtree(tree, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
