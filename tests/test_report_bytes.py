"""Whole-file byte pins for every report kind the CLI writes.

The toy preset is extended with small hand-written auxiliary tables, so that
every cell kind appears: a Fraction, an integer ASN, a string subject, the
flags 0 and 1, and an empty and a ``;``-joined failed-test list.
"""
import json
import os

import pytest
from click.testing import CliRunner

from cti import synth_oracle as so
from cti.cli import main

AUX_FILES = {
    "memberships.csv": "fac-1,CU,101\nfac-1,CU,102\nfac-2,US,103\nfac-2,US,10\n",
    "hegemony.csv": "101,20,1/2\n102,30,1\n103,40,1/3\n104,40,2/3\n",
    "as2org.txt": "20|org-a\n30|org-b\n40|org-b\n",
    "state_owned.csv": "101,CU\n103,CU\n",
}

CTI_CSV = "# country,subject,cti\nCU,20,0.375000000000\nCU,30,0.125000000000\nCU,40,0.500000000000\n"
CLH_CSV = "# country,subject,clh\nCU,20,0.187500000000\nCU,30,0.125000000000\nCU,40,0.250000000000\n"


def _json(metric, *entries):
    rows = [
        {"country": "CU", "subject": subject, "numerator": num, "denominator": den}
        for subject, num, den in entries
    ]
    return json.dumps({"metric": metric, "entries": rows}, indent=2) + "\n"


REPORTS = [
    (("cti",), "cti_CU.csv", CTI_CSV),
    (("cti", "--no-outlier"), "cti_CU.csv", CTI_CSV),
    (("cti", "--format", "json"), "cti_CU.json", _json("cti", (20, 3, 8), (30, 1, 8), (40, 1, 2))),
    (("ctin",), "ctin_CU.csv", "# country,subject,ctin\nCU,CU,0.000000000000\n"),
    (("ctin", "--format", "json"), "ctin_CU.json", _json("ctin", ("CU", 0, 1))),
    (("footprint",), "footprint_CU.csv", "# country,subject,footprint\nCU,CU,0.625000000000\n"),
    (("footprint", "--format", "json"), "footprint_CU.json", _json("footprint", ("CU", 5, 8))),
    (("clh",), "clh_CU.csv", CLH_CSV),
    (("clh", "--format", "json"), "clh_CU.json", _json("clh", (20, 3, 16), (30, 1, 8), (40, 1, 4))),
    (
        ("org", "--marginal-threshold", "1/2"),
        "org_CU.csv",
        "# org_id,country,cti_sum,top_asn,top_share,marginal\n"
        "org-a,CU,0.375000000000,20,1.000000000000,1\n"
        "org-b,CU,0.625000000000,40,0.800000000000,0\n",
    ),
    (
        ("candidates",),
        "candidates_CU.csv",
        "# asn,candidate,failed_tests\n"
        "101,1,\n"
        "102,1,\n"
        "103,0,foreign-facility;foreign-facility-member\n"
        "104,1,\n",
    ),
    (
        ("transit-fraction",),
        "transit_fraction_CU.csv",
        "# country,transit_fraction,dominant\nCU,1.000000000000,1\n",
    ),
]


@pytest.fixture(scope="module")
def toy_input(tmp_path_factory):
    directory = tmp_path_factory.mktemp("toy")
    topo = so.preset_topology("toy-fig1")
    files = {**so.emit_files(topo, so.propagate_routes(topo)), **AUX_FILES}
    for name, content in files.items():
        (directory / name).write_text(content, encoding="utf-8")
    return directory


@pytest.mark.parametrize("args, name, body", REPORTS, ids=[" ".join(r[0]) for r in REPORTS])
def test_report_body_is_pinned(toy_input, tmp_path, args, name, body):
    out = tmp_path / "out"
    base = ["--input", str(toy_input), "--country", "CU", "--output", str(out)]
    result = CliRunner().invoke(main, [*args, *base])
    assert result.exit_code == 0, result.output
    assert result.output == f"{out / name}\n"
    assert (out / name).read_bytes() == body.encode("utf-8")


def test_compare_body_is_pinned(tmp_path):
    a, b = tmp_path / "cti_CU.csv", tmp_path / "clh_CU.csv"
    a.write_text(CTI_CSV, encoding="utf-8")
    b.write_text(CLH_CSV, encoding="utf-8")
    out = tmp_path / "cmp"
    result = CliRunner().invoke(main, ["compare", "--a", str(a), "--b", str(b), "--output", str(out)])
    assert result.exit_code == 0, result.output
    assert (out / "compare.csv").read_bytes() == (
        b"# n,mean,p25,median,p75\n"
        b"3,0.145833333333,0.000000000000,0.187500000000,0.250000000000\n"
    )
    assert sorted(os.listdir(out)) == ["compare.csv", "manifest_compare.json"]
