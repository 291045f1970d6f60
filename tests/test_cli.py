import gc
import hashlib
import json
import os
import re
from pathlib import Path

import pytest
from click.testing import CliRunner

from cti import cli, ingest
from cti import synth_oracle as so
from cti.cli import main


def _write_toy(directory):
    topo = so.preset_topology("toy-fig1")
    files = so.emit_files(topo, so.propagate_routes(topo))
    os.makedirs(directory, exist_ok=True)
    for name, content in files.items():
        with open(os.path.join(directory, name), "w", encoding="utf-8") as out:
            out.write(content)
    return files


def test_cti_command_writes_expected_rows(tmp_path):
    _write_toy(tmp_path / "in")
    runner = CliRunner()
    result = runner.invoke(
        main,
        ["cti", "--input", str(tmp_path / "in"), "--country", "CU", "--output", str(tmp_path / "out")],
    )
    assert result.exit_code == 0, result.output
    body = (tmp_path / "out" / "cti_CU.csv").read_text()
    assert body.splitlines() == [
        "# country,subject,cti",
        "CU,20,0.375000000000",
        "CU,30,0.125000000000",
        "CU,40,0.500000000000",
    ]


def test_cti_json_output_carries_exact_rationals(tmp_path):
    _write_toy(tmp_path / "in")
    runner = CliRunner()
    result = runner.invoke(
        main,
        [
            "cti",
            "--input",
            str(tmp_path / "in"),
            "--country",
            "CU",
            "--output",
            str(tmp_path / "out"),
            "--format",
            "json",
        ],
    )
    assert result.exit_code == 0, result.output
    payload = json.loads((tmp_path / "out" / "cti_CU.json").read_text())
    by_subject = {e["subject"]: (e["numerator"], e["denominator"]) for e in payload["entries"]}
    assert by_subject[40] == (1, 2)
    assert by_subject[20] == (3, 8)


def test_reruns_are_byte_identical(tmp_path):
    _write_toy(tmp_path / "in")
    runner = CliRunner()
    args = ["cti", "--input", str(tmp_path / "in"), "--country", "CU"]
    for out in ("out1", "out2"):
        result = runner.invoke(main, args + ["--output", str(tmp_path / out)])
        assert result.exit_code == 0, result.output
    for name in ("cti_CU.csv", "manifest_cti.json"):
        assert (tmp_path / "out1" / name).read_bytes() == (tmp_path / "out2" / name).read_bytes()


# The files each input command reads, and so lists in its manifest.
CORE_FILES = {
    "paths.txt",
    "geo.csv",
    "delegations.txt",
    "monitors.csv",
    "clique.txt",
    "multi_origin.txt",
    "reserved_asns.txt",
}
READS = {
    "cti": CORE_FILES | {"relationships.txt"},
    "ctin": CORE_FILES | {"relationships.txt", "state_owned.csv"},
    "footprint": CORE_FILES | {"relationships.txt", "state_owned.csv"},
    "org": CORE_FILES | {"relationships.txt", "as2org.txt"},
    "transit-fraction": CORE_FILES | {"relationships.txt", "traceroutes.txt"},
    "candidates": CORE_FILES | {"relationships.txt", "memberships.csv"},
    "clh": CORE_FILES | {"hegemony.csv"},
}


def _command_reading(name, preferred):
    """``preferred`` if it reads the input file ``name``, or else the first
    command that does."""
    return next(command for command in (preferred, *READS) if name in READS[command])


def test_declared_files_are_the_ones_each_command_reads():
    for command, names in READS.items():
        keys = (*ingest.CORE_FILES, *cli.COMMAND_FILES[command])
        assert {ingest.FILE_NAMES[key] for key in keys} == names, command
    assert set(cli.COMMAND_FILES) == set(READS)
    assert set().union(*READS.values()) == set(ingest.FILE_NAMES.values())


def test_readme_lists_the_files_each_command_reads():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    header = "| command | reads besides the core files |\n| --- | --- |\n"
    rows = readme[readme.index(header) + len(header):].split("\n\n")[0].splitlines()
    documented = {}
    for row in rows:
        commands, names = (cell.strip() for cell in row.strip("|").split("|"))
        for command in commands.split(", "):
            documented[command.strip("`")] = {name.strip("`") for name in names.split(", ")}
    assert documented == {command: names - CORE_FILES for command, names in READS.items()}
    core = re.split(r"\.\s", readme[readme.index("Every input command reads the core files"):])[0]
    assert set(re.findall(r"`([a-z_]+\.[a-z]+)`", core)) == CORE_FILES


def _write_all_files(directory):
    """The toy inputs and every other input file, so a command finds each
    file it may read."""
    files = _write_toy(directory)
    for name in ingest.FILE_NAMES.values():
        if name not in files:
            (directory / name).write_text("")
            files[name] = ""
    return files


def test_manifest_lists_consumed_inputs(tmp_path):
    _write_all_files(tmp_path / "in")
    runner = CliRunner()
    base = ["--input", str(tmp_path / "in"), "--country", "CU", "--output", str(tmp_path / "out")]
    for command, consumed in READS.items():
        result = runner.invoke(main, [command] + base)
        assert result.exit_code == 0, result.output
        manifest = json.loads((tmp_path / "out" / f"manifest_{command}.json").read_text())
        assert set(manifest["inputs"]) == consumed, command
        for name, digest in manifest["inputs"].items():
            data = (tmp_path / "in" / name).read_bytes()
            assert digest == hashlib.sha256(data).hexdigest(), (command, name)
        assert manifest["config"]["country"] == "CU"


def test_a_file_a_command_does_not_read_cannot_fail_it(tmp_path):
    """A malformed, or missing, file outside a command's files leaves its
    report byte for byte as it is."""
    _write_all_files(tmp_path / "in")
    (tmp_path / "in" / "hegemony.csv").write_text("101,20,1/2\n")
    base = ["--input", str(tmp_path / "in"), "--country", "CU"]
    for command, reads in READS.items():
        report = f"{command.replace('-', '_')}_CU.csv"
        result = CliRunner().invoke(main, [command, *base, "--output", str(tmp_path / "clean")])
        assert result.exit_code == 0, (command, result.output)
        expected = (tmp_path / "clean" / report).read_bytes()
        unread = sorted(set(ingest.FILE_NAMES.values()) - reads)
        assert unread, command
        for name in unread:
            path = tmp_path / "in" / name
            good = path.read_bytes()
            out = tmp_path / command / name
            for broken in (f"{MALFORMED_ROWS[name]}\n", None):
                if broken is None:
                    path.unlink()
                else:
                    path.write_text(broken, encoding="utf-8")
                result = CliRunner().invoke(main, [command, *base, "--output", str(out)])
                assert result.exit_code == 0, (command, name, result.output)
                assert (out / report).read_bytes() == expected, (command, name)
            path.write_bytes(good)


def test_a_file_longer_than_a_chunk_hashes_as_its_whole_bytes(tmp_path):
    data = bytes(range(256)) * (3 * cli.HASH_CHUNK_BYTES // 256) + b"tail"
    (tmp_path / "big").write_bytes(data)
    assert cli._sha256_of_file(str(tmp_path / "big")) == hashlib.sha256(data).hexdigest()


def test_missing_input_file_exits_2(tmp_path):
    _write_toy(tmp_path / "in")
    os.remove(tmp_path / "in" / "relationships.txt")
    runner = CliRunner()
    result = runner.invoke(
        main, ["cti", "--input", str(tmp_path / "in"), "--country", "CU", "--output", str(tmp_path / "out")]
    )
    assert result.exit_code == 2
    assert "relationships.txt" in result.output


def test_clh_runs_without_relationships(tmp_path):
    _write_toy(tmp_path / "in")
    (tmp_path / "in" / "hegemony.csv").write_text("101,20,1/2\n")
    args = ["clh", "--input", str(tmp_path / "in"), "--country", "CU", "--output"]
    result = CliRunner().invoke(main, [*args, str(tmp_path / "with")])
    assert result.exit_code == 0, result.output
    os.remove(tmp_path / "in" / "relationships.txt")
    result = CliRunner().invoke(main, [*args, str(tmp_path / "without")])
    assert result.exit_code == 0, result.output
    with_rels, without = ((tmp_path / out / "clh_CU.csv").read_bytes() for out in ("with", "without"))
    assert without == with_rels and without.startswith(b"# country,subject,clh\nCU,20,")


def test_parse_error_exits_3(tmp_path):
    _write_toy(tmp_path / "in")
    (tmp_path / "in" / "relationships.txt").write_text("10|20|banana\n")
    runner = CliRunner()
    result = runner.invoke(
        main, ["cti", "--input", str(tmp_path / "in"), "--country", "CU", "--output", str(tmp_path / "out")]
    )
    assert result.exit_code == 3


def test_malformed_input_files_exit_3_with_one_line(tmp_path):
    files = _write_toy(tmp_path / "in")
    runner = CliRunner()
    base = ["--input", str(tmp_path / "in"), "--country", "CU", "--output", str(tmp_path / "out")]
    for name, body, line_no in (
        ("hegemony.csv", "101,10,1/2\n101,20,1/0\n", 2),
        ("hegemony.csv", "101,10,1_0/2_0\n", 1),
        ("reserved_asns.txt", "# reserved\n\u00b2\n", 2),
        ("geo.csv", "10.0.0.1/24,CU,256\n", 1),
        ("multi_origin.txt", "10.0.0.0/255.255.255.0\n", 1),
        # a key repeated with another value, whichever row comes first
        ("geo.csv", "10.0.0.0/23,CU,500\n10.0.0.0/23,CU,100\n", 2),
        ("as2org.txt", "101|org-a\n101|org-b\n", 2),
        ("hegemony.csv", "101,10,1/2\n101,20,1/3\n101,10,1/4\n", 3),
        # an id that no paths.txt row can name
        ("monitors.csv", "# id,asn,country\nm-pad ,10,US\n", 2),
    ):
        (tmp_path / "in" / name).write_text(body, encoding="utf-8")
        result = runner.invoke(main, [_command_reading(name, "cti")] + base)
        assert result.exit_code == 3, (name, result.output)
        assert result.output.startswith(f"parse error: {name} line {line_no}: "), result.output
        assert result.output.count("\n") == 1, result.output
        if name in files:
            (tmp_path / "in" / name).write_text(files[name], encoding="utf-8")
        else:
            os.remove(tmp_path / "in" / name)

    good = tmp_path / "good.csv"
    good.write_text("# country,subject,cti\nCU,40,0.5\n")
    for name, body, where in (
        ("bad.csv", "# country,subject,cti\nAA,\u00b2,0.5\n", "line 2:"),
        ("bad.csv", "# country,subject,cti\nAA,40,1/0\n", "line 2:"),
        ("bad.csv", "# country,subject,cti\nAA,40,1_0/2_0\n", "line 2:"),
        ("bad.csv", "# country,subject,cti\nAA,40, 1e-1 \n", "line 2:"),
        ("bad.csv", "A1,40,0.5\n", "line 1:"),
        ("bad.csv", "AA,40,3/2\n", "line 1:"),
        ("bad.json", '{"entries": []}\n', "'metric'"),
        ("bad.json", '{"metric": "cti",\n "entries": [\n', "line 3"),
        ("bad.json", '{"metric": "cti", "entries": [{"country": "AA", "subject": 4, '
         '"numerator": 1, "denominator": 0}]}', "malformed JSON report"),
        ("bad.json", "[1, 2]", "malformed JSON report"),
    ):
        (tmp_path / name).write_text(body, encoding="utf-8")
        result = runner.invoke(
            main, ["compare", "--a", str(good), "--b", str(tmp_path / name), "--output", str(tmp_path / "cmp")]
        )
        assert result.exit_code == 3, (body, result.output)
        assert result.output.startswith("parse error: ") and result.output.count("\n") == 1
        assert where in result.output, (body, result.output)


# One malformed row per input file: a short row, or a bad value where the
# row has one field.
MALFORMED_ROWS = {
    "paths.txt": "m1|10.0.0.0/24",
    "relationships.txt": "10|20",
    "geo.csv": "10.0.0.0/24,CU",
    "delegations.txt": "synth|CU|ipv4|10.0.0.0|256|20200101",
    "monitors.csv": "m9,10",
    "state_owned.csv": "10",
    "as2org.txt": "10",
    "memberships.csv": "fac-1,CU",
    "hegemony.csv": "10,20",
    "clique.txt": "x",
    "multi_origin.txt": "10.0.0.0/99",
    "reserved_asns.txt": "x",
    "traceroutes.txt": "t-m1|10.0.0.0/24",
}


@pytest.mark.parametrize("name", ingest.FILE_NAMES.values())
def test_a_malformed_row_names_its_file_and_line(tmp_path, name):
    files = _write_toy(tmp_path / "in")
    body = files.get(name, "")
    line_no = body.count("\n") + 2  # after the file's rows and one comment
    (tmp_path / "in" / name).write_text(f"{body}# comment\n{MALFORMED_ROWS[name]}\n")
    base = ["--input", str(tmp_path / "in"), "--country", "CU", "--output", str(tmp_path / "out")]
    result = CliRunner().invoke(main, [_command_reading(name, "transit-fraction"), *base])
    assert result.exit_code == 3, result.output
    assert result.output.startswith(f"parse error: {name} line {line_no}: "), result.output
    assert result.output.count("\n") == 1 and result.output.count(name) == 1, result.output


# One row per input file with a number written in Arabic-Indic digits
# (U+0660..U+0669), which Python's int() would read as ASCII digits.
NON_ASCII_DIGIT_ROWS = {
    "relationships.txt": "\u0661\u0660|50|-1",
    "geo.csv": "10.0.9.0/24,CU,\u0662\u0665\u0666",
    "delegations.txt": "synth|CU|ipv4|10.9.0.0|\u0662\u0665\u0666|20200101|allocated",
    "monitors.csv": "m9,\u0661\u0660,US",
    "state_owned.csv": "\u0661\u0660,CU",
    "as2org.txt": "\u0661\u0660|org-1",
    "memberships.csv": "fac-1,CU,\u0661\u0660",
    "hegemony.csv": "101,10,\u0661/\u0662",
    "clique.txt": "\u0662\u0660",
    "multi_origin.txt": "\u0661\u0660.0.0.0/24",
    "reserved_asns.txt": "\u0666\u0664\u0665\u0661\u0662",
}


@pytest.mark.parametrize("name", sorted(NON_ASCII_DIGIT_ROWS))
def test_non_ascii_digits_in_an_input_file_exit_3(tmp_path, name):
    files = _write_toy(tmp_path / "in")
    body = files.get(name, "")
    line_no = body.count("\n") + 1
    (tmp_path / "in" / name).write_text(body + NON_ASCII_DIGIT_ROWS[name] + "\n", encoding="utf-8")
    base = ["--input", str(tmp_path / "in"), "--country", "CU", "--output", str(tmp_path / "out")]
    result = CliRunner().invoke(main, [_command_reading(name, "transit-fraction"), *base])
    assert result.exit_code == 3, result.output
    assert result.output.startswith(f"parse error: {name} line {line_no}: "), result.output
    assert result.output.count("\n") == 1, result.output


def test_non_ascii_digits_reject_a_path_or_traceroute_row(tmp_path):
    runner = CliRunner()
    reports = {}
    # read as ASCII, the path row would conflict with the toy's first row and
    # the traceroute row would add a trace of AS 101 that crosses no border
    extra = {
        "paths.txt": "m1|10.0.0.0/24|\u0661\u0660 \u0663\u0660 \u0661\u0660\u0662\n",
        "traceroutes.txt": "t-m1|10.0.0.0/24|\u0661\u0660\u0661\n",
    }
    for variant in ("clean", "non-ascii"):
        files = _write_toy(tmp_path / variant)
        if variant != "clean":
            for name, row in extra.items():
                (tmp_path / variant / name).write_text(files[name] + row, encoding="utf-8")
        for command in ("cti", "transit-fraction"):
            out = tmp_path / variant / "out"
            args = [command, "--input", str(tmp_path / variant), "--country", "CU", "--output", str(out)]
            result = runner.invoke(main, args)
            assert result.exit_code == 0, (variant, command, result.output)
            reports[variant, command] = (out / f"{command.replace('-', '_')}_CU.csv").read_text()
    for command in ("cti", "transit-fraction"):
        assert reports["clean", command] == reports["non-ascii", command]


def _json_report(*entries):
    keys = ("country", "subject", "numerator", "denominator")
    return json.dumps({"metric": "cti", "entries": [dict(zip(keys, e)) for e in entries]})


# Both report formats go through one entry check: a country code, an ASN in
# 1..2^32-1 or a label that is not ASCII digits, integer numerator and
# denominator, and no (country, subject) twice.
@pytest.mark.parametrize(
    "name, body, detail",
    [
        ("bad.json", _json_report(("not a country", 12, 1, 2)), "entry 1: invalid country code"),
        ("bad.json", _json_report(("AA", True, 1, 2)), "entry 1: ASN must be an integer"),
        ("bad.json", _json_report(("AA", 1.5, 1, 2)), "entry 1: ASN must be an integer"),
        ("bad.json", _json_report(("AA", None, 1, 2)), "entry 1: ASN must be an integer"),
        ("bad.json", _json_report(("AA", -7, 1, 2)), "entry 1: invalid ASN -7"),
        ("bad.json", _json_report(("AA", 12, True, 2)), "entry 1: numerator and denominator"),
        ("bad.json", _json_report(("AA", "12", 1, 2)), "entry 1: subject '12'"),
        ("bad.json", _json_report(("AA", 12, 1, 2), ("AA", 12, 1, 4)), "(AA, 12) repeats entry 1"),
        ("bad.json", '{"metric": 5, "entries": []}', "metric name 5 is not"),
        ("bad.json", '{"metric": "a,b", "entries": []}', "metric name 'a,b' is not"),
        ("bad.json", '{"metric": "a\\nb", "entries": []}', "metric name 'a\\nb' is not"),
        ("bad.csv", "# country,subject,cti\nAA,0,1/2\n", "line 2: malformed report row 'AA,0,1/2': invalid ASN 0"),
        ("bad.csv", "# country,subject,cti\nAA,4294967296,1/2\n", "invalid ASN 4294967296"),
        ("bad.csv", "# country,subject,cti\nAA,12,1/2\nAA,12,1/4\n", "(AA, 12) repeats line 2"),
    ],
    ids=[
        "json-country",
        "json-subject-true",
        "json-subject-float",
        "json-subject-null",
        "json-subject-negative",
        "json-numerator-true",
        "json-subject-digit-text",
        "json-repeat",
        "json-metric-int",
        "json-metric-comma",
        "json-metric-two-lines",
        "csv-asn-0",
        "csv-asn-2-32",
        "csv-repeat",
    ],
)
def test_compare_checks_every_report_entry(tmp_path, name, body, detail):
    good = tmp_path / "good.csv"
    good.write_text("# country,subject,cti\nAA,12,0.5\n", encoding="utf-8")
    bad = tmp_path / name
    bad.write_text(body, encoding="utf-8")
    for a, b in ((good, bad), (bad, good)):
        result = CliRunner().invoke(
            main, ["compare", "--a", str(a), "--b", str(b), "--output", str(tmp_path / "cmp")]
        )
        assert result.exit_code == 3, result.output
        assert result.output.startswith(f"parse error: {bad}: "), result.output
        assert result.output.count("\n") == 1 and detail in result.output, result.output
    assert not (tmp_path / "cmp").exists()


def test_compare_rejects_a_subject_in_non_ascii_digits(tmp_path):
    good = tmp_path / "good.csv"
    good.write_text("# country,subject,cti\nCU,10,0.5\n", encoding="utf-8")
    bad = tmp_path / "bad.csv"
    bad.write_text("# country,subject,cti\nCU,\u0661\u0660,0.5\n", encoding="utf-8")
    result = CliRunner().invoke(
        main, ["compare", "--a", str(good), "--b", str(bad), "--output", str(tmp_path / "cmp")]
    )
    assert result.exit_code == 3, result.output
    assert result.output.startswith(f"parse error: {bad}: line 2: "), result.output


def test_non_utf8_input_exits_3_naming_the_file(tmp_path):
    _write_toy(tmp_path / "in")
    runner = CliRunner()
    base = ["--input", str(tmp_path / "in"), "--country", "CU", "--output", str(tmp_path / "out")]
    for command, name in (("cti", "geo.csv"), ("transit-fraction", "traceroutes.txt")):
        path = tmp_path / "in" / name
        good = path.read_bytes()
        path.write_bytes(good + b"\xff\xfe")
        result = runner.invoke(main, [command] + base)
        assert result.exit_code == 3, (command, result.output)
        assert result.output.startswith("parse error: ") and result.output.count("\n") == 1
        assert result.output.startswith(f"parse error: {path}: not UTF-8 text"), result.output
        path.write_bytes(good)

    report = tmp_path / "report.csv"
    report.write_bytes(b"# country,subject,cti\nCU,40,0.5\n\xff\xfe\n")
    result = runner.invoke(
        main, ["compare", "--a", str(report), "--b", str(report), "--output", str(tmp_path / "cmp")]
    )
    assert result.exit_code == 3, result.output
    assert result.output == f"parse error: {report}: not UTF-8 text (invalid start byte)\n"


def test_deeply_nested_json_report_exits_3(tmp_path):
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100000)
    runner = CliRunner()
    result = runner.invoke(
        main, ["compare", "--a", str(deep), "--b", str(deep), "--output", str(tmp_path / "cmp")]
    )
    assert result.exit_code == 3, result.output
    assert result.output == f"parse error: {deep}: malformed JSON report: nested too deeply\n"


def test_computation_error_exits_4(tmp_path):
    files = _write_toy(tmp_path / "in")
    runner = CliRunner()
    # no address mass at all for ZZ: every input command fails before it writes
    for command in ("cti", "ctin", "footprint", "org", "transit-fraction", "candidates", "clh"):
        result = runner.invoke(
            main,
            [command, "--input", str(tmp_path / "in"), "--country", "ZZ", "--output", str(tmp_path / "out")],
        )
        assert result.exit_code == 4, (command, result.output)
        assert result.output == "computation error: country ZZ has no address mass\n", command
        assert not (tmp_path / "out").exists(), command
    # a second monitor sees 10.0.0.0/24, the toy's prefix of AS 101, from AS 102;
    # the origin on the earlier line of paths.txt is named first
    (tmp_path / "in" / "monitors.csv").write_text(files["monitors.csv"] + "m2,10,US\n")
    conflict = "m2|10.0.0.0/24|10 30 102\n"
    args = ["cti", "--input", str(tmp_path / "in"), "--country", "CU", "--output", str(tmp_path / "out")]
    for paths, first, second in (
        (files["paths.txt"] + conflict, 101, 102),
        (conflict + files["paths.txt"], 102, 101),
    ):
        (tmp_path / "in" / "paths.txt").write_text(paths)
        result = runner.invoke(main, args)
        assert result.exit_code == 4, result.output
        assert result.output == (
            f"computation error: prefix 10.0.0.0/24 announced by AS {first} and AS {second}; "
            "add it to the multi-origin exclusion list\n"
        )
        (tmp_path / "in" / "multi_origin.txt").write_text("10.0.0.0/24\n")
        result = runner.invoke(main, args)
        assert result.exit_code == 0, result.output
        (tmp_path / "in" / "multi_origin.txt").unlink()


def test_compare_identical_reports_is_zero(tmp_path):
    _write_toy(tmp_path / "in")
    runner = CliRunner()
    result = runner.invoke(
        main,
        ["cti", "--input", str(tmp_path / "in"), "--country", "CU", "--output", str(tmp_path / "out")],
    )
    assert result.exit_code == 0
    report = str(tmp_path / "out" / "cti_CU.csv")
    result = runner.invoke(
        main, ["compare", "--a", report, "--b", report, "--output", str(tmp_path / "cmp")]
    )
    assert result.exit_code == 0, result.output
    body = (tmp_path / "cmp" / "compare.csv").read_text().splitlines()
    assert body[1] == "3,0.000000000000,0.000000000000,0.000000000000,0.000000000000"


def test_compare_rejects_reports_that_are_not_metric_reports(tmp_path):
    _write_toy(tmp_path / "in")
    (tmp_path / "in" / "hegemony.csv").write_text("101,20,1/2\n")
    runner = CliRunner()
    out = tmp_path / "out"
    base = ["--input", str(tmp_path / "in"), "--country", "CU", "--output", str(out)]
    for command in ("cti", "clh", "transit-fraction", "org", "candidates"):
        result = runner.invoke(main, [command, *base])
        assert result.exit_code == 0, (command, result.output)
    (tmp_path / "headerless.csv").write_text("CU,40,0.5\n")
    (tmp_path / "empty.csv").write_text("\n")
    cti = str(out / "cti_CU.csv")
    cmp = ["--output", str(tmp_path / "cmp")]
    for other, message in (
        (out / "transit_fraction_CU.csv", "line 1: expected the header"),
        (out / "org_CU.csv", "line 1: expected the header"),
        (out / "candidates_CU.csv", "line 1: expected the header"),
        (tmp_path / "headerless.csv", "line 1: expected the header"),
        (tmp_path / "empty.csv", "line 1: expected the header"),
    ):
        for a, b in ((cti, str(other)), (str(other), cti)):
            result = runner.invoke(main, ["compare", "--a", a, "--b", b, *cmp])
            assert result.exit_code == 3, (other, result.output)
            assert result.output == f"parse error: {other}: {message} '# country,subject,<metric>'\n"
    assert not (tmp_path / "cmp").exists()

    result = runner.invoke(main, ["compare", "--a", cti, "--b", str(out / "clh_CU.csv"), *cmp])
    assert result.exit_code == 0, result.output
    assert (tmp_path / "cmp" / "compare.csv").read_text().startswith("# n,mean,p25,median,p75\n")


def test_compare_missing_file_exits_2(tmp_path):
    runner = CliRunner()
    result = runner.invoke(main, ["compare", "--a", "nope.csv", "--b", "nope.csv"])
    assert result.exit_code == 2


def test_unreadable_or_unwritable_files_exit_2_with_one_line(tmp_path):
    _write_toy(tmp_path / "in")
    base = ["--input", str(tmp_path / "in"), "--country", "CU"]
    out = ["--output", str(tmp_path / "out")]
    for args in (
        ["compare", "--a", str(tmp_path / "in"), "--b", str(tmp_path / "in"), *out],  # directories
        ["cti", *base, "--output", str(tmp_path / "in" / "paths.txt")],  # an existing file
    ):
        result = CliRunner().invoke(main, args)
        assert result.exit_code == 2, (args, result.output)
        assert result.output.startswith("file error: ") and result.output.count("\n") == 1
    # an input file that is a directory
    os.remove(tmp_path / "in" / "geo.csv")
    os.mkdir(tmp_path / "in" / "geo.csv")
    result = CliRunner().invoke(main, ["cti", *base, *out])
    assert result.exit_code == 2, result.output
    assert result.output == f"file error: [Errno 21] Is a directory: '{tmp_path / 'in' / 'geo.csv'}'\n"


@pytest.mark.parametrize(
    "command, name", [("cti", "delegations.txt"), ("transit-fraction", "traceroutes.txt")]
)
def test_a_file_error_comes_before_a_parse_error(tmp_path, command, name):
    _write_toy(tmp_path / "in")
    (tmp_path / "in" / "monitors.csv").write_text("m1,10\n", encoding="utf-8")  # exit 3 alone
    (tmp_path / "in" / name).unlink(missing_ok=True)
    (tmp_path / "in" / name).mkdir()
    result = CliRunner().invoke(
        main, [command, "--input", str(tmp_path / "in"), "--country", "CU", "--output", str(tmp_path / "out")]
    )
    assert result.exit_code == 2, result.output
    assert result.output == f"file error: [Errno 21] Is a directory: '{tmp_path / 'in' / name}'\n"


def test_input_file_without_read_permission_exits_2(tmp_path, monkeypatch):
    _write_toy(tmp_path / "in")
    unreadable = str(tmp_path / "in" / "monitors.csv")
    os.chmod(unreadable, 0)
    if os.access(unreadable, os.R_OK):  # the mode binds no superuser: deny the open itself
        def guarded_open(path, *args, **kwargs):
            if path == unreadable:
                raise PermissionError(13, "Permission denied", path)
            return open(path, *args, **kwargs)

        monkeypatch.setattr(ingest, "open", guarded_open, raising=False)
    result = CliRunner().invoke(
        main, ["ctin", "--input", str(tmp_path / "in"), "--country", "CU", "--output", str(tmp_path / "out")]
    )
    assert result.exit_code == 2, result.output
    assert result.output == f"file error: [Errno 13] Permission denied: '{unreadable}'\n"


def test_bad_country_exits_5_before_reading_input(tmp_path):
    _write_toy(tmp_path / "in")
    for command in ("cti", "ctin", "footprint", "org", "transit-fraction", "candidates", "clh"):
        for country in ("aa", "CUB", "C1", "", "AA\n"):
            for input_dir in (tmp_path / "in", tmp_path / "missing"):
                args = [command, "--input", str(input_dir), "--country", country]
                result = CliRunner().invoke(main, args + ["--output", str(tmp_path / "out")])
                assert result.exit_code == 5, (args, result.output)
                assert result.output == (
                    f"bad option: --country {country!r} must be an ISO alpha-2 code in capitals\n"
                )
    assert not (tmp_path / "out").exists()


def test_synth_command_is_deterministic(tmp_path):
    runner = CliRunner()
    for out in ("a", "b"):
        result = runner.invoke(main, ["synth", "--seed", "9", "--output", str(tmp_path / out)])
        assert result.exit_code == 0, result.output
    for name in os.listdir(tmp_path / "a"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_synth_preset_feeds_cti(tmp_path):
    runner = CliRunner()
    result = runner.invoke(
        main, ["synth", "--preset", "toy-fig1", "--output", str(tmp_path / "in")]
    )
    assert result.exit_code == 0, result.output
    result = runner.invoke(
        main,
        ["cti", "--input", str(tmp_path / "in"), "--country", "CU", "--output", str(tmp_path / "out")],
    )
    assert result.exit_code == 0, result.output
    assert "CU,40,0.500000000000" in (tmp_path / "out" / "cti_CU.csv").read_text()


def test_transit_fraction_and_other_commands_run(tmp_path):
    runner = CliRunner()
    runner.invoke(main, ["synth", "--seed", "2", "--output", str(tmp_path / "in")])
    out = str(tmp_path / "out")
    for args in (
        ["ctin", "--input", str(tmp_path / "in"), "--country", "AA", "--output", out],
        ["footprint", "--input", str(tmp_path / "in"), "--country", "AA", "--output", out],
        ["org", "--input", str(tmp_path / "in"), "--country", "AA", "--output", out],
        ["transit-fraction", "--input", str(tmp_path / "in"), "--country", "AA", "--output", out],
        ["candidates", "--input", str(tmp_path / "in"), "--country", "AA", "--output", out],
        ["clh", "--input", str(tmp_path / "in"), "--country", "AA", "--output", out],
    ):
        result = runner.invoke(main, args)
        assert result.exit_code == 0, (args, result.output)


def test_oracle_check_command(tmp_path):
    runner = CliRunner()
    result = runner.invoke(main, ["oracle-check", "--seeds", "5"])
    assert result.exit_code == 0, result.output
    assert "ok" in result.output


def test_host_asn_in_mid_path_is_rejected_not_fatal(tmp_path):
    runner = CliRunner()
    reports = []
    for name, extra_path in (("clean", ""), ("looped", "m2|10.0.3.0/24|10 20 30 102\n")):
        files = _write_toy(tmp_path / name)
        with open(tmp_path / name / "monitors.csv", "a", encoding="utf-8") as out:
            out.write("m2,20,US\n")
        with open(tmp_path / name / "paths.txt", "w", encoding="utf-8") as out:
            out.write(files["paths.txt"] + extra_path)
        out_dir = str(tmp_path / name / "out")
        result = runner.invoke(
            main, ["cti", "--input", str(tmp_path / name), "--country", "CU", "--output", out_dir]
        )
        assert result.exit_code == 0, result.output
        reports.append((tmp_path / name / "out" / "cti_CU.csv").read_text())
    # m2 dilutes both runs as a blind monitor; its looping path adds nothing
    assert reports[0] == reports[1]
    assert "CU,40,0.250000000000" in reports[0]


def test_bad_option_values_exit_5(tmp_path):
    _write_toy(tmp_path / "in")
    runner = CliRunner()
    base = ["--input", str(tmp_path / "in"), "--country", "CU", "--output", str(tmp_path / "out")]
    for args in (
        ["cti", "--trim", "abc"],
        ["cti", "--trim", "1/0"],
        ["cti", "--trim", "1"],
        ["cti", "--trim", "1/2"],
        ["cti", "--trim", "-1/2"],
        ["cti", "--min-hosts", "0"],
        ["cti", "--min-hosts", "two"],
        ["cti", "--min-hosts", "\u0661\u0660"],
        ["cti", "--min-hosts", " 10"],
        ["cti", "--trim", " 1e-1"],
        ["cti", "--trim", "1e-1"],
        ["cti", "--trim", "1_0/2_0"],
        ["cti", "--trim", " 1e-1", "--min-hosts", "\u0661\u0660"],
        ["org", "--marginal-threshold", "1/0"],
        ["org", "--marginal-threshold", "7"],
        ["org", "--marginal-threshold", "-1/20"],
        ["transit-fraction", "--threshold", "3/2"],
        ["candidates", "--origination-floor", "2"],
    ):
        result = runner.invoke(main, args + base)
        assert result.exit_code == 5, (args, result.output)
        assert result.output.startswith("bad option: ") and result.output.count("\n") == 1


def test_generator_count_options_exit_5(tmp_path):
    runner = CliRunner()
    out = ["--output", str(tmp_path / "synth")]
    for args in (
        ["oracle-check", "--seeds", "-3"],
        ["oracle-check", "--seeds", "0"],
        ["synth", "--loops", "-2"] + out,
        ["synth", "--loops", "-1", "--prepends", "2"] + out,
        ["synth", "--prepends", "-1"] + out,
        ["synth", "--poisons", "-1"] + out,
        ["synth", "--poisons", "one"] + out,
        ["synth", "--loops", "1_0"] + out,
        ["synth", "--preset", "nope"] + out,
        ["oracle-check", "--seeds", "\u0662"],
        *(
            args
            for seed in (" 1_0", "+1", "\u0661\u0660", "-1", "abc")
            for args in (
                ["oracle-check", "--seeds", "1", "--start-seed", seed],
                ["synth", "--seed", seed] + out,
            )
        ),
    ):
        result = runner.invoke(main, args)
        assert result.exit_code == 5, (args, result.output)
        assert result.output.startswith("bad option: ") and result.output.count("\n") == 1
    assert not (tmp_path / "synth").exists()
    result = runner.invoke(main, ["oracle-check", "--seeds", "1"])
    assert result.exit_code == 0 and result.output.startswith("ok: 1 instances"), result.output
    result = runner.invoke(main, ["oracle-check", "--seeds", "1", "--start-seed", "0"])
    assert result.exit_code == 0 and result.output.startswith("ok: 1 instances"), result.output
    result = runner.invoke(main, ["synth", "--seed", "0", "--output", str(tmp_path / "seed0")])
    assert result.exit_code == 0, result.output
    config = json.loads((tmp_path / "seed0" / "manifest_synth.json").read_text())["config"]
    assert config["seed"] == 0
    result = runner.invoke(main, ["synth", "--seed", "3", "--loops", "0", "--prepends", "2"] + out)
    assert result.exit_code == 0, result.output
    injected = json.loads((tmp_path / "synth" / "injection_manifest.json").read_text())
    assert injected == {"Loop": 0, "Poisoned": 0, "Prepending": 2}
    config = json.loads((tmp_path / "synth" / "manifest_synth.json").read_text())["config"]
    assert (config["loops"], config["prepends"], config["poisons"]) == (0, 2, 0)


def test_boundary_option_values_are_accepted(tmp_path):
    _write_toy(tmp_path / "in")
    runner = CliRunner()
    base = ["--input", str(tmp_path / "in"), "--country", "CU", "--output", str(tmp_path / "out")]
    for args in (
        ["cti", "--trim", "0", "--min-hosts", "1"],
        ["cti", "--trim", "49/100"],
        ["org", "--marginal-threshold", "1"],
        ["candidates", "--origination-floor", "0"],
    ):
        result = runner.invoke(main, args + base)
        assert result.exit_code == 0, (args, result.output)


def test_click_usage_errors_exit_5(tmp_path):
    _write_toy(tmp_path / "in")
    base = ["--input", str(tmp_path / "in"), "--country", "CU", "--output", str(tmp_path / "out")]
    for args in (
        ["oracle-check", "--seeds", "abc"],
        ["cti", "--bogus"] + base,
        ["--bogus"],
        ["no-such-command"],
        ["cti", "--country", "CU"],
        ["cti", "--format", "xml"] + base,
    ):
        result = CliRunner().invoke(main, args)
        assert result.exit_code == 5, (args, result.output)
        assert result.output.startswith("bad option: ") and result.output.count("\n") == 1
        with pytest.raises(SystemExit) as exc:
            main(args, standalone_mode=False)
        assert exc.value.code == 5, args
    assert CliRunner().invoke(main, []).exit_code == 0  # a bare command prints the help


@pytest.mark.parametrize("enabled", [True, False], ids=["collector-on", "collector-off"])
def test_a_command_leaves_the_collector_as_it_found_it(tmp_path, enabled):
    """A command builds its tables with the cyclic collector paused, and
    restores the caller's setting however it exits."""
    files = _write_toy(tmp_path / "in")
    _write_toy(tmp_path / "bad")
    (tmp_path / "bad" / "paths.txt").write_text(files["paths.txt"] + "m1|10.0.0.0/24\n")
    out = ["--output", str(tmp_path / "out")]
    runs = [
        (["cti", "--input", str(tmp_path / "in"), "--country", "CU"], None),
        (["cti", "--input", str(tmp_path / "bad"), "--country", "CU"], 3),
        (["org", "--input", str(tmp_path / "in"), "--country", "ZZ"], 4),
        (["cti", "--input", str(tmp_path / "in"), "--country", "CU", "--trim", "1"], 5),
    ]
    was_enabled = gc.isenabled()
    try:
        for args, code in runs:
            gc.enable() if enabled else gc.disable()
            if code is None:
                main(args + out, standalone_mode=False)
            else:
                with pytest.raises(SystemExit) as exited:
                    main(args + out, standalone_mode=False)
                assert exited.value.code == code, args
            assert gc.isenabled() == enabled, args
    finally:
        gc.enable() if was_enabled else gc.disable()
