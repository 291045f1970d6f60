"""Every report is the same bytes whatever the row order and the line endings
of the input files, and whichever way round a peer link is written.

One small instance with looped, prepended and poisoned paths is read as
generated, with the data rows of every input file shuffled, with every file
in CRLF line endings, and with every p2p row of ``relationships.txt`` written
the other way round and its rows shuffled. Manifests differ by the input file
hashes, so only the reports are compared.
"""
import random

import pytest
from click.testing import CliRunner

from cti import ingest
from cti.cli import main

# seed 37 gives a state conglomerate with a nonzero ctin toward AA
SYNTH = ("synth", "--seed", "37", "--loops", "2", "--prepends", "4", "--poisons", "2")
COMMANDS = [
    (("cti", "--no-outlier", "--format", "json"), "cti_{}.json"),
    (("ctin",), "ctin_{}.csv"),
    (("transit-fraction",), "transit_fraction_{}.csv"),
    (("candidates",), "candidates_{}.csv"),
]


def _reports(directory, output):
    """The bytes of each command's report for both destination countries."""
    runner = CliRunner()
    reports = {}
    for args, report_name in COMMANDS:
        for country in ("AA", "BB"):
            options = ["--input", str(directory), "--country", country, "--output", str(output)]
            result = runner.invoke(main, [*args, *options])
            assert result.exit_code == 0, result.output
            name = report_name.format(country)
            reports[name] = (output / name).read_bytes()
    return reports


def _shuffled(text, name):
    lines = text.splitlines()
    random.Random(name).shuffle(lines)
    return "".join(line + "\n" for line in lines)


def _crlf(text, _name):
    return text.replace("\n", "\r\n")


def _peers_reversed(text, name):
    """``relationships.txt`` with each ``a|b|0`` row written ``b|a|0`` and the
    rows shuffled; a p2c row keeps its orientation, and other files are
    unchanged."""
    if name != "relationships.txt":
        return text
    rows = [line.split("|") for line in text.splitlines()]
    lines = [f"{b}|{a}|0" if code == "0" else f"{a}|{b}|{code}" for a, b, code in rows]
    return _shuffled("\n".join(lines), name)


@pytest.fixture(scope="module")
def instance(tmp_path_factory):
    directory = tmp_path_factory.mktemp("instance")
    result = CliRunner().invoke(main, [*SYNTH, "--output", str(directory)])
    assert result.exit_code == 0, result.output
    reports = _reports(directory, tmp_path_factory.mktemp("reports"))
    assert reports["ctin_AA.csv"].startswith(b"# country,subject,ctin\nAA,AA,0.13")
    return directory, reports


@pytest.mark.parametrize(
    "transform", [_shuffled, _crlf, _peers_reversed], ids=["shuffled-rows", "crlf", "peers-reversed"]
)
def test_reports_ignore_row_order_and_line_endings(instance, transform, tmp_path):
    directory, expected = instance
    changed = tmp_path / "input"
    changed.mkdir()
    for name in ingest.FILE_NAMES.values():
        if (directory / name).exists():
            text = transform((directory / name).read_text(encoding="utf-8"), name)
            (changed / name).write_text(text, encoding="utf-8", newline="")
    assert _reports(changed, tmp_path / "reports") == expected
