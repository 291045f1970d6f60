"""Whole-file byte pins for every report kind the CLI writes.

The toy preset is extended with small hand-written auxiliary tables, so that
every cell kind appears: a Fraction, an integer ASN, a string subject, the
flags 0 and 1, and an empty and a ``;``-joined failed-test list.

A synthetic instance with prepended, looped and poisoned paths pins the
sha256 of each input command's report and manifest for both destination
countries, so a change to path sanitizing or peak truncation that moves any
byte of any command's output fails here.
"""
import hashlib
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


SYNTH_ARGS = ("synth", "--seed", "7", "--prepends", "6", "--loops", "2", "--poisons", "1")
# scores and memberships over the instance's origin and transit ASes, which
# the generator does not emit, so that clh and candidates report rows
SYNTH_AUX_FILES = {
    "hegemony.csv": "1001,102,1/2\n1001,12,1/4\n1002,11,3/4\n1003,102,1\n"
    "1005,101,2/3\n1005,12,1/3\n1006,11,1/5\n103,12,1/10\n",
    "memberships.csv": "fac-1,AA,102\nfac-1,AA,11\nfac-2,BB,12\nfac-2,BB,101\n"
    "fac-3,MM,103\nfac-3,MM,11\n",
}
SYNTH_VARIANTS = (
    ("cti",),
    ("cti", "--no-outlier"),
    ("ctin",),
    ("footprint",),
    ("org",),
    ("transit-fraction",),
    ("candidates",),
    ("clh",),
)
# "<command and options> <country> <file written>" -> sha256 of the file
SYNTH_DIGESTS = {
    "cti AA cti_AA.csv": "617486f00308beb1f154a1d8ea041777b9869b41dad6cf56b3e3f3b50b384356",
    "cti AA manifest_cti.json": "ae54ede84257e4dbf5af4d47eb2f17c73b27811feb7a806c84ad3040b5cc26e7",
    "cti BB cti_BB.csv": "e800c5b940a0ba5492f061ad0aef2665b7f4634023f82a25d0162358a8ab3c14",
    "cti BB manifest_cti.json": "137c6bd92afba8c8025e644ffbc7bb57642d2ffd80926c17876b92d1b347f9ad",
    "cti --no-outlier AA cti_AA.csv": "617486f00308beb1f154a1d8ea041777b9869b41dad6cf56b3e3f3b50b384356",
    "cti --no-outlier AA manifest_cti.json": "e3c39bb445b502fbcd9740d78b1f884885ea8092de5319d72f7f91310a05ec2c",
    "cti --no-outlier BB cti_BB.csv": "e800c5b940a0ba5492f061ad0aef2665b7f4634023f82a25d0162358a8ab3c14",
    "cti --no-outlier BB manifest_cti.json": "9db9111ca212b11cd963f8d1b613bd28789d1576245ce69ee925b1cf4bb557ac",
    "ctin AA ctin_AA.csv": "12d640a29c08dd57777029277fee533ce290677d432537301bf73e6d9260668d",
    "ctin AA manifest_ctin.json": "5b4dc145e12b92a45a9587ac01bb88162ff09b549c1822712f06f5267ed86955",
    "ctin BB ctin_BB.csv": "12d640a29c08dd57777029277fee533ce290677d432537301bf73e6d9260668d",
    "ctin BB manifest_ctin.json": "b9e7d421f6fc4f56a9a10b1871f8886536b84ddfe248413564207a6a6214a7c2",
    "footprint AA footprint_AA.csv": "7e9fd4c5c9e6cd32490f9015db5da44a580effd5b17f3d838e940dc9098c1128",
    "footprint AA manifest_footprint.json": "e3ffb1e90ef724ceed3b26d2a4494733e47be9b235208b02c1d456b662715060",
    "footprint BB footprint_BB.csv": "7e9fd4c5c9e6cd32490f9015db5da44a580effd5b17f3d838e940dc9098c1128",
    "footprint BB manifest_footprint.json": "5c982bb1b20c529ce711bfac7f5f0011f50cda7ccd57458e6df2aa7f40fcd0fb",
    "org AA manifest_org.json": "a8422c06dbb62d5184b5ee8cafcea02b43b0256e05732e784efa83f888ab7375",
    "org AA org_AA.csv": "b112d8f52f738233eeb954f64350e69dd0ed96a04fd1c9adaacc0009d68775dc",
    "org BB manifest_org.json": "8afbd1d30038bf61ab503ef624707ce781ca0e8589492e75e7a9568c7d3e58bc",
    "org BB org_BB.csv": "b112d8f52f738233eeb954f64350e69dd0ed96a04fd1c9adaacc0009d68775dc",
    "transit-fraction AA manifest_transit-fraction.json": "1e430ddb711a558db6e7feecd58d1f067c9f26d52d2c73eeaf424f65545067ff",
    "transit-fraction AA transit_fraction_AA.csv": "ed6cfe8e9dcb893f2d2929658ba012ca2dc7266c811628a6f87ad967095b4ddb",
    "transit-fraction BB manifest_transit-fraction.json": "25ad72a4b0d9f78ae0ee0a368bc78fb97fb4c33f1e78399579b3ddbe68581a2b",
    "transit-fraction BB transit_fraction_BB.csv": "42d13b6f14b07e1d16473dcc8451890b040e14350b6f4ef86210712f0c42d62b",
    "candidates AA candidates_AA.csv": "a4003bdc3a0e3c60753fd6fee43c148635f03df2470351c9b0383ea8172702d4",
    "candidates AA manifest_candidates.json": "f8a610b7a1ccfe4bfdb5b775ff16c461741b58a4ec299783e257358f8afe34db",
    "candidates BB candidates_BB.csv": "9c91e0da5ae20a319b8992fc27896b69ab1796c6e46e37d44d7fbded64803cf6",
    "candidates BB manifest_candidates.json": "d9433521691c85e7e86d53e7a172c1bf5dc391865cc8da43b36ea6282b66521d",
    "clh AA clh_AA.csv": "727c322ef385fd2550bd5c2afbfce040d8d2e891e5e64c2e9ac5ce442c3a6722",
    "clh AA manifest_clh.json": "6ecee9a7ae98ee53c8330992c0c22d95950a125453e8161ffa64a0c8b00a0505",
    "clh BB clh_BB.csv": "0a1f24aee64f275e313ddeedd98ce39c8ac24463d910bfc5202f06bcdfe305cb",
    "clh BB manifest_clh.json": "6bfd61fdca235c6a72010cb52c0c22d38e450f536e1b2b51047af0308ffc3126",
}


@pytest.fixture(scope="module")
def synth_input(tmp_path_factory):
    directory = tmp_path_factory.mktemp("synth") / "in"
    result = CliRunner().invoke(main, [*SYNTH_ARGS, "--output", str(directory)])
    assert result.exit_code == 0, result.output
    for name, content in SYNTH_AUX_FILES.items():
        (directory / name).write_text(content, encoding="utf-8")
    return directory


@pytest.mark.parametrize("country", ["AA", "BB"])
@pytest.mark.parametrize("args", SYNTH_VARIANTS, ids=" ".join)
def test_prepended_instance_reports_and_manifests_are_pinned(synth_input, tmp_path, args, country):
    out = tmp_path / "out"
    base = ["--input", str(synth_input), "--country", country, "--output", str(out)]
    result = CliRunner().invoke(main, [*args, *base])
    assert result.exit_code == 0, result.output
    case = f"{' '.join(args)} {country} "
    digests = {
        case + name: hashlib.sha256((out / name).read_bytes()).hexdigest() for name in os.listdir(out)
    }
    assert digests == {key: pin for key, pin in SYNTH_DIGESTS.items() if key.startswith(case)}
