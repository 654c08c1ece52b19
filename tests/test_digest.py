"""The pinned digest of the fixed-seed program outputs (tools/digest.py).

A change that only makes the arithmetic faster leaves these hashes alone; a
change that alters output on purpose updates them and says why."""
import importlib.util
import pathlib

PARTS = {
    "fuzz": "d0ea025a310d453a7ad2b4128b9e3dc808093125f983cee31f89341e824ae925",
    "check": "47ecffe395e12fb76af9919d236c482e8a447b4b5aa536de1f4ae30bd385d5d7",
    "kahler": "2cb8bac074a3e3aa1aa3925fe0217dbefe40345798a37870d092131ce924715c",
    "round trip": "469e0a7fec5da492b34f4e25593ac2e67548939d94c67684df4fbf02b84f91a9",
}
TOTAL = "718b3efea6d9feb8b38c05b9731480f38863056a0823bcb9121ea097b6f3e854"


def test_digest_is_pinned():
    path = pathlib.Path(__file__).resolve().parent.parent / "tools" / "digest.py"
    spec = importlib.util.spec_from_file_location("digest", path)
    digest = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(digest)
    parts, total = digest.digests()
    assert (parts, total) == (PARTS, TOTAL)
