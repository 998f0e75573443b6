#!/usr/bin/env python3
"""The lines of the ``conicqp`` package that run, and those that never do.

Usage, from the repository root:

    PYTHONPATH=src python tests/line_coverage.py run OUT.json SCRIPT [ARG ...]
    PYTHONPATH=src python tests/line_coverage.py run OUT.json -m MODULE [ARG ...]
    python tests/line_coverage.py report OUT.json [OUT.json ...]

``run`` executes a script, or a module as ``python -m`` would, under a
``sys.settrace`` line collector that records only frames whose code lies in
the directory the ``conicqp`` package is imported from, and writes that
directory and the lines that ran in each of its files as JSON.  The file is
written also when the program exits with an error or a nonzero code, and
``run`` then exits as the program did.  For example, tier-1 and the
bad-input corpus:

    PYTHONPATH=src python tests/line_coverage.py run t1.json -m pytest -q
    PYTHONPATH=src python tests/line_coverage.py run corpus.json \\
        tests/bad_input_corpus.py corpus_outcomes.json

``report`` takes the union of the lines in several such files and prints,
for each module of the package, the executable lines that never ran: the
lines that ``co_lines`` gives for the module's code objects.  A function's
``def`` line counts as run when the function is called.

The standard library is all it needs.  Tracing slows the package's Python
code several-fold.  Pytest does not collect this file.
"""

from __future__ import annotations

import importlib.util
import json
import os
import runpy
import sys
from collections import defaultdict
from pathlib import Path


def package_dir() -> Path:
    """The directory ``import conicqp`` would load from, without importing."""
    spec = importlib.util.find_spec("conicqp")
    if spec is None or spec.origin is None:
        sys.exit("conicqp is not importable; set PYTHONPATH=src")
    return Path(spec.origin).resolve().parent


def run(out: str, argv: list[str]) -> int:
    """Run ``argv`` (a script and its arguments, or ``-m`` and a module)
    under the collector; write the lines that ran to ``out``."""
    pkg = package_dir()
    prefix = str(pkg) + os.sep
    hits: dict[str, set[int]] = defaultdict(set)

    def tracer(frame, event, arg):
        fname = frame.f_code.co_filename
        if not fname.startswith(prefix):
            return None
        lines = hits[fname[len(prefix):]]
        lines.add(frame.f_lineno)  # the call: a function's def line

        def local(frame, event, arg):
            if event == "line":
                lines.add(frame.f_lineno)
            return local
        return local

    sys.settrace(tracer)
    try:
        if argv[0] == "-m":
            sys.argv, sys.path[0] = argv[1:], os.getcwd()
            runpy.run_module(argv[1], run_name="__main__", alter_sys=True)
        else:
            sys.argv = argv
            sys.path[0] = str(Path(argv[0]).resolve().parent)
            runpy.run_path(argv[0], run_name="__main__")
    finally:  # a SystemExit or an error still leaves its lines
        sys.settrace(None)
        doc = {"package": str(pkg),
               "lines": {f: sorted(v) for f, v in sorted(hits.items())}}
        Path(out).write_text(json.dumps(doc) + "\n")
    return 0


def executable_lines(path: Path) -> set[int]:
    """Every line that ``co_lines`` gives for the module's code objects."""
    lines: set[int] = set()
    todo = [compile(path.read_text(), str(path), "exec")]
    while todo:
        code = todo.pop()
        lines.update(ln for _, _, ln in code.co_lines() if ln)  # None, or 0
        todo.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    return lines


def report(files: list[str]) -> int:
    """Print, per module, the executable lines that no file saw run."""
    ran: dict[str, dict[str, set[int]]] = defaultdict(lambda: defaultdict(set))
    for f in files:
        doc = json.loads(Path(f).read_text())
        for name, lines in doc["lines"].items():
            ran[doc["package"]][name].update(lines)
    for pkg, seen in ran.items():
        print(f"package {pkg}, from {len(files)} run(s)")
        for path in sorted(Path(pkg).glob("*.py")):
            src = path.read_text().splitlines()
            lines = executable_lines(path)
            missed = sorted(lines - seen[path.name])
            print(f"\n{path.name}: {len(missed)} of {len(lines)} executable "
                  "lines never ran")
            for ln in missed:
                print(f"  {ln:5d}  {src[ln - 1].strip()}")
    return 0


if __name__ == "__main__":
    args = sys.argv[1:]
    if len(args) >= 3 and args[0] == "run":
        sys.exit(run(args[1], args[2:]))
    if len(args) >= 2 and args[0] == "report":
        sys.exit(report(args[1:]))
    sys.exit(__doc__.split("\n\n")[1])
