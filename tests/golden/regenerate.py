"""Regenerate the golden CLI outputs from the recorded command lines.

``manifest.json`` maps each golden file to its command line; to add a
golden output, add its entry there and rerun this script.

Run from the repository root:  PYTHONPATH=src python3 tests/golden/regenerate.py
"""

import contextlib
import io
import json
import pathlib

from multicurve.cli import main

HERE = pathlib.Path(__file__).parent

MANIFEST = json.loads((HERE / "manifest.json").read_text())


def capture(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(argv)
    assert code == 0, (argv, code)
    return buf.getvalue()


if __name__ == "__main__":
    for name, argv in MANIFEST.items():
        (HERE / name).write_text(capture(argv))
        print("wrote", name)
