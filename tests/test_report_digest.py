"""tools/report_digest.py on one small cell of its report matrix."""

import hashlib
import importlib.util
from pathlib import Path

from freeconv import cli

ROOT = Path(__file__).resolve().parent.parent


def _tool():
    spec = importlib.util.spec_from_file_location(
        "report_digest", ROOT / "tools" / "report_digest.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_report_digest_hashes_the_report_with_elapsed_blanked(capsys):
    tool = _tool()
    assert len(tool.SUITES) * len(tool.SETTINGS) == 24
    line = tool.digest_line(ROOT / "src", "operad", (2, 1, 1, 0))
    suite, cell, code, sha = line.split()
    assert (suite, cell, code) == ("operad", "2/1/1/0", "exit=0")
    # the same report from this process carries its own elapsed, which the
    # digest must not see; every other byte of the report is hashed
    assert cli.main(["verify", "--suite", "operad", "--order", "2", "--dim",
                     "1", "--trials", "1", "--seed", "0"]) == 0
    report = capsys.readouterr().out.encode()
    blanked = tool._ELAPSED.sub(b'"elapsed": null', report)
    assert blanked.count(b'"elapsed": null') == 1
    assert [a for a, b in zip(report.splitlines(), blanked.splitlines())
            if a != b] == [a for a in report.splitlines()
                           if a.lstrip().startswith(b'"elapsed": ')]
    assert sha == "sha1=" + hashlib.sha1(blanked).hexdigest()
