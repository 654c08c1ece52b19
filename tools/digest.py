"""Print one sha256 over a fixed set of program outputs.

A change that only makes the arithmetic faster must leave this hash alone.
The hashed outputs, in this order, are:

* stdout and the report of `fuzz --seed 20240823 --trials 40 --max-dim 12`;
* `check --json` on every bundled instance fixture;
* stdout and the report of `decompose-kahler` on both `kahler_two_blocks*`
  fixtures;
* the load/emit round trip of every bundled fixture.

Each command runs in-process through `abelianj.cli.main`, with its exit code
and stderr hashed next to its stdout; files are written only under a
temporary directory.  Run from the repository root:  python3 tools/digest.py

It prints one sha256 per part (fuzz, check, kahler, round trip), so that a
mismatch names its part, then the total over all outputs, and last the
number of lines in src/abelianj/*.py, which is not hashed: the size of the
code that produced the outputs.
"""
import contextlib
import glob
import hashlib
import io
import json
import os
import sys
import tempfile

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from abelianj import serialize
from abelianj.cli import main

PACKAGE = os.path.join(os.path.dirname(__file__), "..", "src", "abelianj")
FIXTURES = os.path.join(PACKAGE, "fixtures")


def _run(argv, report=None):
    """Exit code, stdout and stderr of one command, then its report.  The
    report file is deleted first, so a command that fails before writing
    it hashes as "no report" instead of reading an earlier run's file."""
    if report and os.path.exists(report):
        os.remove(report)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv + (["--report", report] if report else []))
    text = "exit %d\n%s\nstderr\n%s" % (code, out.getvalue(), err.getvalue())
    if report:
        if os.path.exists(report):
            with open(report, encoding="utf-8") as fh:
                text += "report\n" + fh.read()
        else:
            text += "no report\n"
    return text


def _round_trip(data):
    if "products" in data:
        return serialize.emit(serialize.algebra_to_dict(serialize.algebra_from_dict(data)))
    inst = serialize.instance_from_dict(data)
    return serialize.emit(serialize.instance_to_dict(inst.algebra, inst.j, inst.metric))


def outputs(tmp):
    """(part, label, text) for every hashed output, in a fixed order."""
    paths, fixtures = {}, {}
    for f in sorted(os.listdir(FIXTURES)):
        if f.endswith(".json"):
            paths[f] = os.path.join(FIXTURES, f)
            with open(paths[f], encoding="utf-8") as fh:
                fixtures[f] = json.load(fh)
    yield "fuzz", "fuzz", _run(["fuzz", "--seed", "20240823", "--trials", "40", "--max-dim", "12"],
                       os.path.join(tmp, "fuzz.json"))
    for f, data in fixtures.items():
        if "products" not in data:
            yield "check", "check " + f, _run(["check", paths[f], "--json"])
    for f in ("kahler_two_blocks.json", "kahler_two_blocks_scaled.json"):
        yield "kahler", "decompose-kahler " + f, _run(["decompose-kahler", "--instance", paths[f]],
                                            os.path.join(tmp, "decomposition.json"))
    for f, data in fixtures.items():
        yield "round trip", "round trip " + f, _round_trip(data)


def digests():
    """({part: sha256 over that part's outputs}, sha256 over all outputs)."""
    total, parts = hashlib.sha256(), {}
    with tempfile.TemporaryDirectory() as tmp:
        for part, label, text in outputs(tmp):
            h = parts.setdefault(part, hashlib.sha256())
            for piece in (label, text):
                data = piece.encode("utf-8")
                total.update(b"%d:" % len(data) + data)
                h.update(b"%d:" % len(data) + data)
    return {part: h.hexdigest() for part, h in parts.items()}, total.hexdigest()


def source_lines():
    """Number of lines in the package's modules, src/abelianj/*.py."""
    total = 0
    for path in glob.glob(os.path.join(PACKAGE, "*.py")):
        with open(path, encoding="utf-8") as fh:
            total += sum(1 for _ in fh)
    return total


if __name__ == "__main__":
    parts, total = digests()
    for part, hexdigest in parts.items():
        print("%-10s %s" % (part, hexdigest))
    print(total)
    print("%-10s %d" % ("src lines", source_lines()))
