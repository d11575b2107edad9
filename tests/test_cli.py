import gc
import hashlib
import itertools
import json
import os
import shutil
import subprocess
import sys
import time
from argparse import Namespace
from pathlib import Path

import pytest

import sl2tilings
from sl2tilings import UnsupportedOperationError, ValidationError, cli, gridio
from sl2tilings.cli import main
from sl2tilings.matrices import det3
from sl2tilings.search import SearchResult, SearchStats

FAILING_WINDOW = ("sl2tiling v1\nring: Z\nkind: window\nrows: 3\ncols: 5\norigin: 7 -3\n\n"
                  "0 1 1 2 2\n-1 2 0 2 2\n0 1 1 -1 2\n")
WINDOW_DOC = "sl2tiling v1\nring: Z\nkind: window\nrows: 3\ncols: 3\norigin: 1 -2\n\n1 1 2\n1 2 5\n1 3 8\n"
BAD_DOC = "sl2tiling v1\nring: Q\nkind: periodic\nrows: 1\ncols: 1\n\n1\n"
EVERY_ZERO_PATCHED = ("sl2tiling v1\nring: Z[a]\nkind: patched\nrows: 1\ncols: 4\n"
                      "lattice: 2 2 4 0\nparams: formal\n\n0 1 0 -1\n")

# SHA-256 of `sl2 classes formal.grid --n K --json` stdout for K = 1..12.
CLASSES_JSON_SHA256 = [
    "b7f58fd93f276243579b6c405d00283031acce9ba5c3c8f194498f94536124fa",
    "2c4e9178b7093a9d120cde4c54e6371ca5fc9a5f97cab014d1e188aff6e6a39d",
    "0132ae38dab0e68dc85263b84f4129bac0ec804dfd69c9bc1aa50056fad4f44e",
    "4bbe8d20ab8ad93e81a9ee2b0a59237fa3338e1f555ebdd6d36e9a27c4530c16",
    "908251ccda54a06cc546e910be5893612acfcf2abbec4dd1bfd20482624842a3",
    "e6b435ee6800d84f71bf63792dcd37d0a6eab88fd807acd27464aa89638101a2",
    "8c983dd64e35e4ee6dc985beef53be12c5a25bd79db16dafb2721c18dd082849",
    "696627110febe6ef06ebea4cde8a46410e7094fe79d01502923c3258a841175a",
    "acbb3c010c5df0d7965bc24b58c0fc13fbbe6f62abe4b59bbdb2b5762fa81282",
    "278a986e29e86a15101759d517e132b253f7b7dfb0daa3b65dbc8057ef728af1",
    "dbac15222ffc9461047d47972b75002ab304927a216cc2de1cf0ddfecbec056e",
    "92289533af44921a80529efe8757dc41fa8ebd60f08e28d471073401789b5548",
]

# SHA-256 of `sl2 rank formal.grid --n K --mode both --json --seed S` stdout
# for K = 1..12; seeds 0 and 3 print the same bytes.
RANK_BOTH_JSON_SHA256 = [
    "dc63443386a6d599fa6ce53a611540dbc92d174df87fe8b1c402f24c9a9986f0",
    "8af1bc1d3defd3a8292efcf5d0b3c9a8118b78aa8fd9063c3f6684507780ee30",
    "a17819063261d1d00e48509a2e139f33e586dcc166bb987ed0adf290ebb318d7",
    "5953de4cf848b2d4cfea2ac4214d6b4f05a7524ebef10e41293aed8d1d061277",
    "edcbe0962e36319ec8f23c11318578e68f3e9ce367c2579128019ebe648da912",
    "6196b01371ceadadfd0c22e44ff287d6034923688fa5163187d7ed98a9e92a15",
    "780dfcf743a30305ba216357c82062df95bd40c306bfc129642229b78dd8558a",
    "a0c89c2a2bc6ca0760b0b43a3cd01867414d0be7586093815a0b08e15dcb96f3",
    "7b2ba4e555b90d6ea22219e9493e902fc48ab11479ff0284bb9de0dc2f0ef233",
    "678e146b3eda914e51123c94f40fe258102f59742554b08c1c9045c51b723755",
    "4cee70e409cab0d38d82b3f73e6f3cc4b709f9d2415411e8bdeaa210a52f72e4",
    "4d191248f1d221c6c854ead7ebf2654d3bf5b3a0dcf042d45a1829212e27dbab",
]


# SHA-256 of (exit code, stdout, stderr, bytes of the file named by --out)
# for each command line, run in order in a directory that holds only
# fail.grid, win.grid, bad.grid and zero.grid (FAILING_WINDOW, WINDOW_DOC,
# BAD_DOC, EVERY_ZERO_PATCHED);
# earlier lines write the documents later ones read.
CLI_BYTES_SHA256 = {
    "generate unit":
        "ff71603b4b6766b6a40c40472b0ffc8547ea3967f8262b18e68c111cdaa100b0",
    "generate unit --out unit.grid":
        "0a344e1fa848eb79c68cdfa666c2a2bb9286b1b59177c1659fe8856d9acb5dbd",
    "generate z36 --out z36.grid":
        "a00fdb74945962e9569c2a3c7c28f8f124ab4686ca8290467d49fec38ca690c3",
    "generate z36 --signed":
        "5600b1cf558de398877d01082e91af87f46c79de6a4b3c60430310a5b9174500",
    "generate wildest --out wildest.grid":
        "9b97c3889faa33d43beb601932e7b07adcefec2112ba18766bcba39ab4be670c",
    "generate wildest --formal --out formal.grid":
        "39dce0d411e6cb7d7272669a0b8d8641f979f2a7f35a8e491351b11631efedb9",
    "generate wildest --params 1=5,2=-2,default=3":
        "88d9d405f6b56c5e6b566fb8a67199cd78d31560ee30984b2cd785a57081f0a5",
    "generate pqrs --p 3 --q 2 --r 4 --s 3":
        "6a290c33d9a5f54aa059b9e589c21d784e61762be8d2d354f9ed6245bd33cfda",
    "generate pqrs --p 3 --q 2 --r 4 --s 3 --signed":
        "752b5d677d9971332a23c57cbeae6b1fe562081b426eb68c8d558dbe1d9c5fb5",
    "verify z36.grid":
        "d57fc800775127fbf4b11290b8289b0bdd6711ea42da1b278631ed5dea302d89",
    "verify z36.grid --json":
        "16e53d8319b304e034c75191ac9f6036351b0f4fbe75286275057dc740505e79",
    "verify wildest.grid --window 3 -4 6 7":
        "d57fc800775127fbf4b11290b8289b0bdd6711ea42da1b278631ed5dea302d89",
    "verify wildest.grid --window 3 -4 6 7 --json":
        "f4e665a4a0a7dee895c29fe2f43203249a07d39542aec64d60e2365365995871",
    "verify fail.grid":
        "81bd19ecba5668c051f3b44f5efbdfedfd2a9a107a44529c3d1957f1b64a1cee",
    "verify fail.grid --json":
        "6714e1cad36f1372f15dd1f0d197b5755dcb0560b017df413886891b076f954a",
    "density wildest.grid":
        "1845f1766cc9810c342b01122e027388ea6ec70c5d5e513c718409ea25abefdc",
    "density wildest.grid --json":
        "07beb040a3b8169d3299c08d3e2f776f41672b81538deb4dba4c4bfb3d957061",
    "density formal.grid --radii 0,1,5":
        "d28ee45fb90d82efaa91e475053e4599c78fa2c4aaedc0cbd84d27f346907312",
    "density formal.grid --radii 0,1,5 --json":
        "94c5f151b6b939d45c63dc2bbf88ea0e7c6171132c3ef5b399a2c5ffc31944ce",
    "classes formal.grid --n 3":
        "78dec2c478eb257a7decfb250d1b0ed5ba6ec8d764491adf91107d213663cf36",
    "classes formal.grid --n 3 --json":
        "ef358b3e56b342cae9a216d98c4cecf0002d77983e4132d0fa5cfb07c6a725f4",
    "rank formal.grid --n 4 --mode both":
        "51c54071355c48b3811995a03575051905be1c7bfb9912f0709475a826b6aae5",
    "rank formal.grid --n 4 --mode both --json":
        "e74b9152398609f64a4e6e089c1d541168688d417e9f600805c8c16c5b54f6e4",
    "audit wildest.grid":
        "cf586f29765a992700ecae430dd92edb589c6f4d7dd9273568707a0f43306c0a",
    "audit wildest.grid --json":
        "9faa317f1c8482877ea3e391e42e67fcd1a8504b731ed8655e255f85d5a0aea7",
    "audit formal.grid --cross --window -2 3 6 6":
        "fd22ca02503277ea8d9102c0153747360549654a1ad1bd951404435b8d09aa17",
    "audit fail.grid --dodgson --corner --cross":
        "66711870380031aaf852ba22895a2265e6c66b58cd89cab39679105e2feeecf6",
    "audit fail.grid --json":
        "8aa82ca4d0158e1d6f3424e6d2fc773256f221d4c056201276f08b0826b70f7d",
    "audit win.grid --cross --json":
        "3a7aeebba90c9035226fe700a83acdea48fdf941fae993255eba97b98969d128",
    "search --modulus 4 --rows 2 --cols 3":
        "bf4baa0215d06bdba806e182446128c973c848fa18b8021a9a9f0d64dd005e7d",
    "search --modulus 4 --rows 2 --cols 3 --json":
        "f8effa3f26094c151ad77d99c43a5563d085a6be97b9ad783af1acea68872ce8",
    "search --modulus 3 --rows 2 --cols 3 --oracle":
        "9a280fc504ebf94bc8238465d7f3554f4a46737a4e09549b930453ef55d0760c",
    "search --modulus 3 --rows 2 --cols 3 --oracle --json":
        "9c3a90ed59fb808904c1faede3a865b4345e0a6eb364e8bb0f2962b3aff1f6db",
    "search --modulus 5 --rows 3 --cols 3 --budget 100 --jobs 2 --json":
        "195779b5dc3b834937412f3d89868839319bb4f17409dd373b894ecc45cc3ad3",
    "search --modulus 6 --rows 2 --cols 4 --prune-nonunits":
        "c98dc3b774c96a8a81216e5af0adbba1dd742fa6ed2206ab42df03f950b4f818",
    "render wildest.grid --out wildest.svg":
        "535db520d20d40ccc9006eaeb8ab379111697027676abcb6d21aa34807893a1d",
    "render formal.grid --out formal.svg --window 1 -3 5 6 --labels --cell-size 10":
        "d1a17cc0e8fe5398ef4236f794e02587f4406b201d5f4e1d3d8c0dc4ef80d29e",
    "render win.grid --out win.svg --labels":
        "e868b0a256fdc7ef582de537daf328c04d4f51db1b1ae3d89b8ab0698dda1dde",
    "render fail.grid --out fail.svg":
        "724b054c3106c452bb55955544a53b128e17657865ed5641d89fe8538c9c75ab",
    "render fail.grid --out fail.svg --force":
        "2453c6d0bb47d7881b210a038009d13b69370c1656b064c9609fed8cfcb79f91",
    "verify missing.grid --json":
        "b43a088323a8bbd0c8c09432618b45a54bda6bd8380d55076f4653378b3578c9",
    "audit bad.grid":
        "e0f93fdd5d0fa659ed0c5bb81f4f1a2fc7895eb9d300448fc959c51d0aae27c4",
    "verify fail.grid --window 0 0 2 2 --json":
        "d11c661e3c969e4960b3d1762eed9e496c198143326a21348aa392bfe8c93d8f",
    "search --modulus 1":
        "7ff630938ea5ac2cb4a3757c3025a99e78b98039487d59d0b8aa7bcb61045428",
    "search --modulus 4 --oracle --jobs 2 --json":
        "be331d4b1db8f115520c5e129c9871be86a97d0b2c90c07e11d92b0274e83f37",
    "verify zero.grid":
        "8c23f9979a3b1bfc4c22e47a6946fbd86cdbd1fa332feacb2fefa3420bf59e6d",
    "verify zero.grid --json":
        "cc8fb8ac53596afe0b60e43b24087ef99624c95354770f7dfe10766f90ad8d70",
    "audit zero.grid --window 0 0 4 4 --json":
        "86d3c6e39c10be5d53da5fc28210e615e6ca7a97d7027300c1b29c3f361a928c",
    "render zero.grid --out zero.svg --force --labels --window 0 0 3 3":
        "f16df7a19f1d8c3eb7494044376448c60adcaa54721063c213cf179489e65a93",
    "--help":
        "f4cb654fadc5a345fb698d33f7fe560f21ad89b57499be9e310439cfeef167c9",
    "generate --help":
        "b7d406fde6f1b3a76e0e5e463d973fb075567f24b205d90f634f3f528a43f8bf",
    "verify --help":
        "4eed05cef81fbf092239ec3bef32020b7a68497ba63e31f7a47e0896f1d4ba08",
    "density --help":
        "1646b38b13f2b3ea1589f5871c294702ba73072e7fb99b20c8f2edb8b468a5ec",
    "classes --help":
        "f4d515a6010ff03ca1534a559db59e056df7ea35d5069dbe8ae9867f4855a125",
    "rank --help":
        "538884cf20327ec51ea6d3ee39be50587277d249536615d1a6dde1518f7b85ae",
    "audit --help":
        "51a47586e6053ec2cc249ccbebc586ba8bf6d025cf9e081a699fad406b53a51b",
    "search --help":
        "1402d9443cf3ee5dff7f60fc08c22e5806435e49fb8bb0590fbfdc8f1c0e1c4c",
    "render --help":
        "cec8903abbac88edbbfc68e42c4aa91aad05038c62303d4ceeeb0cbc01d43b46",
    "classes formal.grid":
        "815d9f534480baeda6762f6e09b004c78528433038185ecd5f6a000a7b089b5a",
}


def run_cli(*argv, capsys=None):
    code = main(list(argv))
    out, err = capsys.readouterr() if capsys else ("", "")
    return code, out, err


@pytest.fixture()
def files(tmp_path):
    paths = {}
    for family, name in [
        ("unit", "unit.grid"),
        ("z36", "z36.grid"),
        ("wildest", "wildest.grid"),
    ]:
        path = tmp_path / name
        assert main(["generate", family, "--out", str(path)]) == 0
        paths[family] = str(path)
    formal = tmp_path / "wildest_formal.grid"
    assert main(["generate", "wildest", "--formal", "--out", str(formal)]) == 0
    paths["formal"] = str(formal)
    paths["dir"] = tmp_path
    return paths


class TestGenerate:
    def test_stdout_document(self, capsys):
        code, out, _ = run_cli("generate", "unit", capsys=capsys)
        assert code == 0
        assert out.startswith("sl2tiling v1\n")
        assert "kind: periodic" in out

    def test_pqrs_requires_all_params(self, capsys):
        code, _, err = run_cli("generate", "pqrs", "--p", "3", capsys=capsys)
        assert code == 2
        assert "missing" in err

    def test_pqrs_validation(self, capsys):
        code, _, err = run_cli(
            "generate", "pqrs", "--p", "1", "--q", "2", "--r", "4", "--s", "3",
            capsys=capsys)
        assert code == 2

    def test_pqrs_signed(self, capsys):
        code, out, _ = run_cli(
            "generate", "pqrs", "--p", "3", "--q", "2", "--r", "4", "--s", "3",
            "--signed", capsys=capsys)
        assert code == 0
        assert "3 2 -3 -2" in out

    def test_wildest_params_by_index(self, tmp_path, capsys):
        path = tmp_path / "w.grid"
        code, _, _ = run_cli(
            "generate", "wildest", "--params", "1=5,2=-2,default=3",
            "--out", str(path), capsys=capsys)
        assert code == 0
        text = path.read_text()
        assert "params: default=3,0:6=5,1:3=-2" in text

    def test_wildest_params_far_index(self, tmp_path, capsys):
        path = tmp_path / "w.grid"
        code, _, _ = run_cli(
            "generate", "wildest", "--params", "1000000000=5,default=2",
            "--out", str(path), capsys=capsys)
        assert code == 0
        assert "params: default=2,-20000:50006=5" in path.read_text()

    @pytest.mark.parametrize("params", ["1=5,1=7,default=2", "1=5,default=2,default=3"])
    def test_duplicate_params_refused(self, params, capsys):
        code, out, err = run_cli("generate", "wildest", "--params", params, capsys=capsys)
        assert (code, out) == (2, "")
        assert "duplicate" in err

    def test_empty_params_entry_skipped(self, capsys):
        plain = run_cli("generate", "wildest", "--params", "1=5,default=2", capsys=capsys)
        assert plain[0] == 0 and "params: default=2,0:6=5\n" in plain[1]
        assert run_cli("generate", "wildest", "--params", "1=5,,default=2", capsys=capsys) == plain

    def test_formal_and_params_conflict(self, capsys):
        code, _, err = run_cli(
            "generate", "wildest", "--formal", "--params", "1=2", capsys=capsys)
        assert code == 2

    def test_unknown_family(self, capsys):
        code, _, _ = run_cli("generate", "granite", capsys=capsys)
        assert code == 2


class TestVerify:
    def test_ok(self, files, capsys):
        code, out, _ = run_cli("verify", files["z36"], capsys=capsys)
        assert code == 0
        assert "ok" in out

    def test_json_fields(self, files, capsys):
        code, out, _ = run_cli("verify", files["wildest"], "--json", capsys=capsys)
        assert code == 0
        payload = json.loads(out)
        assert payload["command"] == "verify"
        assert payload["ok"] is True
        assert payload["violations"] == []
        assert "model" in payload

    def test_failure_exit_one(self, files, capsys):
        bad = files["dir"] / "bad.grid"
        text = (files["dir"] / "z36.grid").read_text().replace("3 2 33 34", "4 2 33 34")
        bad.write_text(text)
        code, out, _ = run_cli("verify", str(bad), capsys=capsys)
        assert code == 1
        assert "violation at (0, 0)" in out
        code, out, _ = run_cli("verify", str(bad), "--json", capsys=capsys)
        assert code == 1
        payload = json.loads(out)
        assert payload["ok"] is False
        assert payload["violations"][0]["i"] == 0
        assert payload["violations"][0]["value"] == "4"

    def test_window_subregion(self, files, capsys):
        code, out, _ = run_cli(
            "verify", files["wildest"], "--window", "0", "0", "6", "6", capsys=capsys)
        assert code == 0

    def test_parse_error_exit_two(self, files, capsys):
        mangled = files["dir"] / "mangled.grid"
        mangled.write_text("sl2tiling v9\n")
        code, _, err = run_cli("verify", str(mangled), capsys=capsys)
        assert code == 2
        assert "error" in err

    def test_missing_file(self, capsys):
        code, _, err = run_cli("verify", "/nonexistent/x.grid", capsys=capsys)
        assert code == 2


class TestDensity:
    def test_exact_default(self, files, capsys):
        code, out, _ = run_cli("density", files["wildest"], capsys=capsys)
        assert code == 0
        assert "2/5" in out

    def test_exact_json(self, files, capsys):
        code, out, _ = run_cli("density", files["wildest"], "--json", capsys=capsys)
        payload = json.loads(out)
        assert payload["density"] == {"exact_num": 2, "exact_den": 5}

    def test_radii(self, files, capsys):
        # 50 and 500 are the README's radii, 700 the benchmark's largest.
        radii = ["5", "12", "50", "500", "700"]
        code, out, _ = run_cli(
            "density", files["wildest"], "--radii", ",".join(radii), capsys=capsys)
        assert code == 0
        assert [line.split()[0] for line in out.splitlines()] == [f"r={r}" for r in radii]

    def test_radii_json(self, files, capsys):
        code, out, _ = run_cli(
            "density", files["unit"], "--radii", "4", "--json", capsys=capsys)
        payload = json.loads(out)
        samples = payload["density"]["samples"]
        assert samples[0]["radius"] == 4
        assert samples[0]["wild"] == 0

    def test_radii_bound(self, files, tmp_path):
        # The cost is bounded in disc rows before any work.  Each refusal runs
        # in a capped subprocess, so a missing guard fails instead of hanging.
        every_zero = tmp_path / "every_zero.grid"
        every_zero.write_text(EVERY_ZERO_PATCHED)
        bound = b", over the bound of 5000000"
        cases = [
            (files["wildest"], "1,1000000000", b"density would scan 2000000004 disc rows" + bound),
            (str(every_zero), "2500000", b"density would scan 5000001 disc rows" + bound),
            (files["wildest"], "1000000000,-1", b"radius must be nonnegative, got -1"),
        ]
        for path, radii, message in cases:
            proc = _python(tmp_path, "-m", "sl2tilings", "density", path, "--radii", radii,
                           timeout=60, preexec_fn=_cap_memory)
            assert (proc.returncode, proc.stdout) == (2, b"")
            assert proc.stderr == b"error: " + message + b"\n"


    def test_every_zero_patched(self, tmp_path):
        # The lattice 2i + 2j = 0 (mod 4) has a 1x2 wild torus like any other;
        # counting these discs cell by cell took minutes.
        path = tmp_path / "every_zero.grid"
        path.write_text(EVERY_ZERO_PATCHED)
        for flags, out in (([], b"exact wild density: 1\n"),
                           (["--radii", "0,1,5,17,60,1000"], b"r=1000 wild=3141549 total=3141549")):
            proc = _python(tmp_path, "-m", "sl2tilings", "density", str(path), *flags,
                           timeout=60, preexec_fn=_cap_memory)
            assert (proc.returncode, proc.stderr) == (0, b"")
            assert out in proc.stdout


class TestClassesAndRank:
    def test_classes(self, files, capsys):
        code, out, _ = run_cli("classes", files["formal"], "--n", "5", capsys=capsys)
        assert code == 0
        assert out.startswith("n=5: 4 classes")

    def test_classes_json(self, files, capsys):
        code, out, _ = run_cli(
            "classes", files["formal"], "--n", "4", "--json", capsys=capsys)
        payload = json.loads(out)
        assert payload["stats"] == {"n": 4, "count": 3}
        assert all(c["deficiency"] is None for c in payload["classes"])
        assert sum(c["orbit_size"] for c in payload["classes"]) == 10

    def test_classes_json_bytes(self, files, capsys):
        digests = []
        for n in range(1, 13):
            code, out, _ = run_cli("classes", files["formal"], "--n", str(n), "--json", capsys=capsys)
            assert code == 0
            digests.append(hashlib.sha256(out.encode()).hexdigest())
        assert digests == CLASSES_JSON_SHA256

    @pytest.mark.parametrize("seed", [0, 3])
    def test_rank_both_json_bytes(self, files, capsys, seed):
        digests = []
        for n in range(1, 13):
            code, out, _ = run_cli("rank", files["formal"], "--n", str(n), "--mode", "both", "--json",
                                   "--seed", str(seed), capsys=capsys)
            assert code == 0
            digests.append(hashlib.sha256(out.encode()).hexdigest())
        assert digests == RANK_BOTH_JSON_SHA256

    @pytest.mark.parametrize("command", ["classes", "rank"])
    def test_alphabet_guard(self, tmp_path, capsys, command):
        # A formal background entry outside 0 / +1 / -1 has no cell token.
        path = tmp_path / "two.grid"
        path.write_text(_doc("ring: Z[a]", "kind: patched", "rows: 1", "cols: 4", "lattice: 3 1 10 6",
                             "params: formal", grid="0 2 0 -1"))
        assert run_cli(command, str(path), "--n", "3", capsys=capsys) == (
            2, "", "error: entry 2 is outside the 0 / +1 / -1 / parameter alphabet\n")

    def test_classes_requires_formal(self, files, capsys):
        code, _, err = run_cli("classes", files["z36"], "--n", "3", capsys=capsys)
        assert code == 2

    def test_rank_json(self, files, capsys):
        code, out, _ = run_cli(
            "rank", files["formal"], "--n", "5", "--mode", "symbolic", "--json",
            capsys=capsys)
        payload = json.loads(out)
        assert sorted(c["deficiency"] for c in payload["classes"]) == [0, 0, 1, 2]
        assert all(c["method"] == "symbolic" for c in payload["classes"])

    def test_rank_guard(self, files, capsys):
        code, out, _ = run_cli("rank", files["formal"], "--n", "10", capsys=capsys)
        assert (code, out.splitlines()[0]) == (0, "n=10: 3 rank entries")
        for n in ("0", "49"):
            for mode in ("symbolic", "probe", "both"):
                code, out, err = run_cli("rank", files["formal"], "--n", n, "--mode", mode, capsys=capsys)
                assert (code, out, err) == (2, "", f"error: block size must be in 1..48, got {n}\n")

    def test_probe_guard(self, files, tmp_path):
        proc = _python(tmp_path, "-m", "sl2tilings", "rank", files["formal"], "--n", "2000",
                       "--mode", "probe", timeout=60, preexec_fn=_cap_memory)
        assert (proc.returncode, proc.stdout) == (2, b"")
        assert proc.stderr == b"error: block size must be in 1..48, got 2000\n"

    def test_largest_block(self, files, tmp_path):
        for command in ("rank", "classes"):
            proc = _python(tmp_path, "-m", "sl2tilings", command, files["formal"], "--n", "48",
                           timeout=60, preexec_fn=_cap_memory)
            assert (proc.returncode, proc.stderr) == (0, b"")
            assert proc.stdout.startswith(b"n=48: 3 ")
        proc = _python(tmp_path, "-m", "sl2tilings", "classes", files["formal"], "--n", "49",
                       timeout=60, preexec_fn=_cap_memory)
        assert (proc.returncode, proc.stdout) == (2, b"")
        assert proc.stderr == b"error: block size must be in 1..48, got 49\n"

    def test_closed_stdout_is_quiet(self, files, tmp_path):
        env = dict(os.environ, PYTHONPATH=str(Path(sl2tilings.__file__).resolve().parents[1]))
        proc = subprocess.Popen([sys.executable, "-m", "sl2tilings", "classes", files["formal"], "--n", "12"],
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE, cwd=tmp_path, env=env)
        proc.stdout.close()
        _, err = proc.communicate(timeout=60)
        assert (proc.returncode, err) == (1, b"")


class TestAudit:
    def test_default_checks(self, files, capsys):
        code, out, _ = run_cli(
            "audit", files["z36"], "--window", "0", "0", "8", "8", capsys=capsys)
        assert code == 0
        assert "ok: dodgson, corner" in out

    def test_cross_needs_domain(self, files, capsys):
        code, _, err = run_cli(
            "audit", files["z36"], "--cross", "--window", "0", "0", "6", "6",
            capsys=capsys)
        assert code == 2

    def test_cross_on_integers(self, files, capsys):
        code, out, _ = run_cli(
            "audit", files["wildest"], "--cross", "--window", "0", "0", "12", "12",
            capsys=capsys)
        assert code == 0

    def test_violation_exit_one(self, files, capsys):
        doc = "sl2tiling v1\nring: Z\nkind: window\nrows: 3\ncols: 3\n\n1 2 3\n4 5 6\n7 8 10\n"
        path = files["dir"] / "nonsl2.grid"
        path.write_text(doc)
        code, out, _ = run_cli("audit", str(path), capsys=capsys)
        assert code == 1
        assert "violation" in out
        code, out, _ = run_cli("audit", str(path), "--json", capsys=capsys)
        payload = json.loads(out)
        assert payload["ok"] is False
        assert payload["violations"][0]["check"] in ("dodgson", "wild-entry-nonzero", "corner")


    @pytest.mark.parametrize("doc", ["wildest", "formal"])
    def test_one_det3_per_cell(self, files, capsys, monkeypatch, doc):
        calls = []

        def counted(rows):
            calls.append(rows)
            return det3(rows)

        monkeypatch.setattr(sl2tilings.matrices, "det3", counted)
        for k in range(4):
            for flags in itertools.combinations(["--dodgson", "--corner", "--cross"], k):
                calls.clear()
                code, _, _ = run_cli("audit", files[doc], *flags, "--window", "3", "-5", "4", "6",
                                     capsys=capsys)
                assert (code, len(calls)) == (0, 24)

    def test_cross_refused_before_any_output(self, files, capsys):
        code, out, err = run_cli("audit", files["z36"], "--dodgson", "--cross", capsys=capsys)
        assert (code, out, err) == (2, "", "error: zero-cross conditions hold over integral domains\n")

    def test_first_failure_of_each_check(self, files, capsys):
        path = files["dir"] / "failing.grid"
        path.write_text(FAILING_WINDOW)
        code, out, _ = run_cli("audit", str(path), "--dodgson", "--corner", "--cross", capsys=capsys)
        assert code == 1
        assert out == (
            "dodgson violation at (8, 0): entry 2 times det3 6 is nonzero\n"
            "corner violation at (8, -2): det3 0 but corner formula gives 2\n"
            "cross-pattern violation at (8, -1): zero with side neighbors (1, 2, 2, 1)\n"
        )
        code, out, _ = run_cli("audit", str(path), "--json", capsys=capsys)
        assert code == 1
        assert json.loads(out) == {
            "command": "audit",
            "model": "window 3x5 at (7, -3) over Z",
            "ok": False,
            "violations": [
                {"i": 8, "j": 0, "check": "dodgson", "detail": "entry 2 times det3 6 is nonzero"},
                {"i": 8, "j": -2, "check": "corner", "detail": "det3 0 but corner formula gives 2"},
            ],
        }


class TestSearch:
    def test_text_summary(self, capsys):
        code, out, _ = run_cli("search", "--modulus", "4", "--rows", "2", "--cols", "2",
                               capsys=capsys)
        assert code == 0
        assert "# solutions=0" in out
        assert "budget_exhausted=false" in out

    def test_json(self, capsys):
        code, out, _ = run_cli(
            "search", "--modulus", "3", "--rows", "2", "--cols", "2", "--json",
            capsys=capsys)
        payload = json.loads(out)
        assert payload["command"] == "search"
        assert payload["stats"]["solutions"] == 0
        assert payload["solutions"] == []

    def test_oracle(self, capsys):
        code, out, _ = run_cli(
            "search", "--modulus", "4", "--rows", "2", "--cols", "2", "--oracle",
            "--json", capsys=capsys)
        payload = json.loads(out)
        assert payload["stats"]["nodes"] == 256

    def test_oracle_state_guard(self, capsys):
        code, out, err = run_cli("search", "--modulus", "7", "--oracle", capsys=capsys)
        assert (code, out) == (2, "")
        assert err == ("error: 7^16 = 33232930569601 states exceeds the 2^28 oracle guard; "
                       "pass allow_large to override\n")

    def test_oracle_guard_past_28_cells(self, capsys):
        code, out, err = run_cli("search", "--modulus", "10", "--rows", "70", "--cols", "70",
                                 "--oracle", capsys=capsys)
        assert (code, out) == (2, "")
        assert err == "error: 10^4900 states exceeds the 2^28 oracle guard; pass allow_large to override\n"

    def test_oracle_flag_conflicts(self, capsys):
        code, _, err = run_cli(
            "search", "--modulus", "4", "--oracle", "--jobs", "2", capsys=capsys)
        assert code == 2

    def test_modulus_required(self, capsys):
        code, _, _ = run_cli("search", capsys=capsys)
        assert code == 2

    @pytest.mark.parametrize("args", [["--modulus", "5"], ["--modulus", "36", "--budget", "20000"]])
    def test_two_jobs_print_the_bytes_of_one(self, tmp_path, args):
        # Each run is a fresh process, so a worker that flushed the caller's
        # buffered output on its way out would show here.
        for json_flag in ([], ["--json"]):
            runs = [_python(tmp_path, "-m", "sl2tilings", "search", *args, "--jobs", jobs, *json_flag)
                    for jobs in ("1", "2")]
            assert runs[0].returncode == 0 and runs[0].stderr == b""
            assert [(r.returncode, r.stdout, r.stderr) for r in runs[1:]] == [
                (runs[0].returncode, runs[0].stdout, runs[0].stderr)]

    def test_two_workers_import_no_pool(self, tmp_path):
        # Two workers on two CPUs fork one process: the caller imports neither
        # multiprocessing nor concurrent.futures, and the worker leaves without
        # writing out the caller's unflushed "before" a second time.
        code = ("import os, sys\n"
                "os.cpu_count = lambda: 2\n"
                "from sl2tilings import SearchConfig, search_fully_wild\n"
                "print('before', end='')\n"
                "nodes = search_fully_wild(SearchConfig(5, 4, 4, worker_count=2)).stats.nodes\n"
                "print('', nodes, sorted({'multiprocessing', 'concurrent.futures', 'pickle'} & set(sys.modules)))\n")
        proc = _python(tmp_path, "-c", code)
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, b"before 194185 []\n", b"")

    def test_json_formats_no_grid_document(self, monkeypatch, capsys):
        # The search is stubbed to find the z36 block: --json lists it without
        # formatting a grid document, and text mode prints that document.
        z36 = sl2tilings.z36_tiling()
        block = tuple(tuple(row) for row in z36.block.to_int_rows())
        result = SearchResult((block,), SearchStats(7, 1, False))
        monkeypatch.setattr(cli, "search_fully_wild", lambda config: result)

        def refuse(obj, signed=False):
            raise AssertionError("--json formatted a grid document")

        monkeypatch.setattr(cli, "write_grid", refuse)
        code, out, err = run_cli("search", "--modulus", "36", "--json", capsys=capsys)
        assert (code, err) == (0, "")
        assert json.loads(out)["solutions"] == [[list(row) for row in block]]
        monkeypatch.setattr(cli, "write_grid", gridio.write_grid)
        code, out, err = run_cli("search", "--modulus", "36", capsys=capsys)
        assert (code, err) == (0, "")
        assert out == gridio.write_grid(z36) + "\n# solutions=1 nodes=7 budget_exhausted=false\n"


class TestRender:
    def test_writes_svg(self, files, capsys):
        out_path = files["dir"] / "w.svg"
        code, out, _ = run_cli(
            "render", files["wildest"], "--out", str(out_path), capsys=capsys)
        assert code == 0
        svg = out_path.read_text()
        assert svg.startswith("<svg")
        assert svg.count('fill="#000000"') == 160

    def test_refusal_exit_one(self, files, capsys):
        bad = files["dir"] / "bad_render.grid"
        text = (files["dir"] / "z36.grid").read_text().replace("3 2 33 34", "4 2 33 34")
        bad.write_text(text)
        out_path = files["dir"] / "bad.svg"
        code, _, err = run_cli("render", str(bad), "--out", str(out_path), capsys=capsys)
        assert code == 1
        assert "refusing to render" in err
        code, _, _ = run_cli(
            "render", str(bad), "--out", str(out_path), "--force", capsys=capsys)
        assert code == 0

    def test_window_region(self, files, capsys):
        out_path = files["dir"] / "region.svg"
        code, _, _ = run_cli(
            "render", files["wildest"], "--out", str(out_path),
            "--window", "0", "0", "10", "10", capsys=capsys)
        assert code == 0
        assert out_path.read_text().count('fill="#000000"') == 40

    def test_far_formal_window_labels(self, files, capsys):
        out_path = files["dir"] / "far.svg"
        code, _, _ = run_cli(
            "render", files["formal"], "--out", str(out_path),
            "--window", "100000", "0", "4", "4", "--labels", capsys=capsys)
        assert code == 0
        svg = out_path.read_text()
        assert ">a3999670007</text>" in svg
        assert ">a4000290003</text>" in svg


class TestWindowBound:
    def test_refused_before_any_cell(self, files, tmp_path):
        # In a capped subprocess, so a missing guard fails instead of
        # exhausting memory.
        message = b"error: window 30000x30000 has 900000000 cells, over the bound of 250000\n"
        for argv in (["verify"], ["audit", "--cross"], ["render", "--out", "big.svg", "--labels"]):
            proc = _python(tmp_path, "-m", "sl2tilings", argv[0], files["wildest"], *argv[1:],
                           "--window", "0", "0", "30000", "30000", timeout=60,
                           preexec_fn=_cap_memory)
            assert (proc.returncode, proc.stdout, proc.stderr) == (2, b"", message)
        assert not (tmp_path / "big.svg").exists()

    def test_bound(self, wildest):
        # The guard alone: 500 x 500 is the largest square window accepted.
        assert cli._window(Namespace(window=[3, -4, 500, 500]), wildest) == (3, -4, 500, 500)
        assert cli._window(Namespace(window=[0, 0, 250_000, 1]), wildest) == (0, 0, 250_000, 1)
        assert cli._window(Namespace(window=None), wildest) is None
        for h, w in ((-600, -600), (0, 5), (-2, 5), (5, 0)):
            with pytest.raises(ValidationError, match=f"window shape must be positive, got {h}x{w}"):
                cli._window(Namespace(window=[0, 0, h, w]), wildest)
        with pytest.raises(UnsupportedOperationError, match="window 500x501 has 250500 cells"):
            cli._window(Namespace(window=[0, 0, 500, 501]), wildest)


    def test_search_block_bound(self, tmp_path, capsys):
        # The DFS holds every cell of its block: 500 x 500 is accepted, one
        # more column is refused, and 20000 x 20000 is refused in a capped
        # subprocess before any cell is built.
        assert main(["search", "--modulus", "2", "--rows", "500", "--cols", "500", "--budget", "10"]) == 0
        assert capsys.readouterr() == ("# solutions=0 nodes=10 budget_exhausted=true\n", "")
        assert main(["search", "--modulus", "2", "--rows", "500", "--cols", "501", "--budget", "10"]) == 2
        assert capsys.readouterr() == ("", "error: block 500x501 has 250500 cells, over the bound of 250000\n")
        proc = _python(tmp_path, "-m", "sl2tilings", "search", "--modulus", "5", "--rows", "20000",
                       "--cols", "20000", "--budget", "1", timeout=60, preexec_fn=_cap_memory)
        message = b"error: block 20000x20000 has 400000000 cells, over the bound of 250000\n"
        assert (proc.returncode, proc.stdout, proc.stderr) == (2, b"", message)

    def test_budgeted_search_at_a_huge_modulus(self, tmp_path):
        # The candidate residues are never listed: in a capped subprocess a
        # list of 10^12 of them would fail with MemoryError.
        for prune in ([], ["--prune-nonunits"]):
            proc = _python(tmp_path, "-m", "sl2tilings", "search", "--modulus", str(10**12), "--budget", "10",
                           *prune, timeout=60, preexec_fn=_cap_memory)
            assert (proc.returncode, proc.stdout, proc.stderr) == (
                0, b"# solutions=0 nodes=10 budget_exhausted=true\n", b"")

    def test_pruned_budgeted_search_needs_a_small_prime_factor(self, capsys):
        # A budget counts nodes, not the units walked between two non-units:
        # with no prime factor up to 2^20 they lie over 2^20 apart, so such a
        # modulus past 2^20 + 1 is refused before any candidate is counted,
        # primes and a product of two primes over 2^20 alike.  2^20 + 1 and a
        # huge even modulus still run, and so does the unpruned search.
        message = ("error: a pruned search walks over 1048576 residues from one non-unit to the next, "
                   "as {} has no prime factor up to 1048576; search without --prune-nonunits\n")
        argv = ["search", "--rows", "2", "--cols", "2", "--budget", "10", "--modulus"]
        for n in (1_048_583, 10_000_019, 100_000_007, 1_048_583 * 1_048_589, 2**61 - 1):
            start = time.perf_counter()
            assert main([*argv, str(n), "--prune-nonunits"]) == 2
            assert time.perf_counter() - start < 1
            assert capsys.readouterr() == ("", message.format(n))
        for extra in (["1048577", "--prune-nonunits"], [str(2 * (2**61 - 1)), "--prune-nonunits"], ["10000019"]):
            assert main([*argv, *extra]) == 0
            assert capsys.readouterr() == ("# solutions=0 nodes=10 budget_exhausted=true\n", "")

    def test_budgeted_part_bound(self, tmp_path, capsys, monkeypatch):
        # A budgeted search builds min(--jobs, --budget) parts: 10,000 pass the
        # bound (5 first-cell values make 5 parts here); more are refused
        # before any part is counted or built.  First in a capped subprocess,
        # where a missing bound fails with MemoryError after seconds, then
        # timed in this process, where no interpreter start adds to the time.
        # The 5 parts run in 2 processes on 2 CPUs: one forked worker takes
        # parts 1 and 3, this process parts 0, 2 and 4.
        shares, start = [], sl2tilings.search._start
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        monkeypatch.setattr(sl2tilings.search, "_start", lambda share: shares.append(share) or start(share))
        assert main(["search", "--modulus", "5", "--rows", "2", "--cols", "2",
                     "--budget", "10000", "--jobs", "10000"]) == 0
        assert capsys.readouterr().out == "# solutions=0 nodes=275 budget_exhausted=false\n"
        assert [[part[4] for part in share] for share in shares] == [[slice(1, None, 5), slice(3, None, 5)]]
        argv = ["search", "--modulus", str(10**12), "--budget", str(10**8), "--jobs", str(10**8)]
        message = "error: a budgeted search splits into min(workers, budget) = {} parts, over the bound of 10000\n"
        proc = _python(tmp_path, "-m", "sl2tilings", *argv, timeout=60, preexec_fn=_cap_memory)
        assert (proc.returncode, proc.stdout, proc.stderr) == (2, b"", message.format(10**8).encode())
        start = time.perf_counter()
        assert main(argv) == 2
        assert time.perf_counter() - start < 1
        assert capsys.readouterr() == ("", message.format(10**8))
        assert main(["search", "--modulus", "5", "--budget", "10001", "--jobs", "10001"]) == 2
        assert capsys.readouterr() == ("", message.format(10001))

    def test_unbudgeted_search_bound(self, tmp_path, capsys):
        # An unbudgeted search walks N - 1 residues and, from its first cell,
        # at least N^w nodes (1^w under pruning): over 2^20 steps it is refused
        # before any residue is listed.  First in a capped subprocess, where
        # a missing bound fails with MemoryError after seconds, then timed in
        # this process.  A large prime with pruning walks 10^6 residues.
        argv = ["search", "--modulus", str(10**9), "--rows", "2", "--cols", "2"]
        message = ("error: an unbudgeted search walks 999999999 residues and at least 1000000000^2 DFS nodes, "
                   "over the bound of 1048576 steps; pass --budget to cap the nodes\n")
        proc = _python(tmp_path, "-m", "sl2tilings", *argv, timeout=60, preexec_fn=_cap_memory)
        assert (proc.returncode, proc.stdout, proc.stderr) == (2, b"", message.encode())
        start = time.perf_counter()
        assert main(argv) == 2
        assert time.perf_counter() - start < 1
        assert capsys.readouterr() == ("", message)
        assert main(["search", "--modulus", "1000003", "--rows", "2", "--cols", "2", "--prune-nonunits"]) == 0
        assert capsys.readouterr() == ("# solutions=0 nodes=3 budget_exhausted=false\n", "")

    def test_lattice_modulus_bound(self, files, tmp_path):
        # 4 * 62,500 torus cells fit the --window bound; m = 10^12 is refused
        # at parse, in a capped subprocess so that a missing guard fails.
        assert 4 * gridio._MAX_LATTICE_MODULUS == cli._WINDOW_CELLS
        path = tmp_path / "huge.grid"
        path.write_text(EVERY_ZERO_PATCHED.replace("lattice: 2 2 4 0", "lattice: 1 1 1000000000000 0"))
        message = b"error: line 6, col 1: lattice modulus 1000000000000 is over the bound of 62500\n"
        for argv in (["verify"], ["render", "--out", "huge.svg"]):
            proc = _python(tmp_path, "-m", "sl2tilings", argv[0], str(path), *argv[1:],
                           timeout=60, preexec_fn=_cap_memory)
            assert (proc.returncode, proc.stdout, proc.stderr) == (2, b"", message)

    def test_every_command_refuses_an_empty_window(self, files, capsys):
        for argv in (["verify"], ["audit"], ["audit", "--cross"], ["render", "--out", "e.svg"]):
            code, out, err = run_cli(argv[0], files["wildest"], *argv[1:], "--window", "0", "0", "0", "5",
                                     capsys=capsys)
            assert (code, out, err) == (2, "", "error: window shape must be positive, got 0x5\n")

    def test_window_document_refuses_window(self, files, capsys):
        path = files["dir"] / "win.grid"
        path.write_text(sl2tilings.write_grid(sl2tilings.extract_window(sl2tilings.unit_tiling(), 0, 0, 4, 4)))
        for argv in (["verify"], ["audit"], ["render", "--out", str(files["dir"] / "w.svg")]):
            code, out, err = run_cli(argv[0], str(path), *argv[1:], "--window", "0", "0", "2", "2",
                                     capsys=capsys)
            assert (code, out, err) == (2, "", "error: --window applies to model documents only\n")


def _doc(*headers, grid="1"):
    return "sl2tiling v1\n" + "".join(h + "\n" for h in headers) + "\n" + grid + "\n"


def _patched(lattice="3 1 10 6", params="default=1"):
    return _doc("ring: Z", "kind: patched", "rows: 1", "cols: 4", f"lattice: {lattice}", f"params: {params}",
                grid="0 1 0 -1")


_WINDOW = ("ring: Z", "kind: window", "rows: 1", "cols: 1")

# A malformed document, and the one line `verify` prints for it with exit 2.
PARSE_ERRORS = [
    (_doc("ring: Z/1", *_WINDOW[1:]), "line 2, col 1: modulus must be at least 2, got 1"),
    (_doc("ring: Z[a]", *_WINDOW[1:], grid="a0"), "line 7, col 1: variable index must be positive in 'a0'"),
    (_doc("ring: Z", "kind: window", "rows: x", "cols: 1"), "line 4, col 1: rows needs integers, got 'x'"),
    (_doc("ring: Z", "kind: window", "rows: 1 2", "cols: 1"), "line 4, col 1: rows needs 1 integers, got 2"),
    (_doc("ring: Z", "kind: window", "rows: 1", "cols: x"), "line 5, col 1: cols needs integers, got 'x'"),
    (_doc("ring: Z", "kind: window", "rows: 1", "cols:"), "line 5, col 1: cols needs 1 integers, got 0"),
    (_doc(*_WINDOW, "origin: 0"), "line 6, col 1: origin needs 2 integers, got 1"),
    (_doc(*_WINDOW, "origin: 0 x"), "line 6, col 1: origin needs integers, got '0 x'"),
    (_patched(lattice="3 1 10"), "line 6, col 1: lattice needs 4 integers, got 3"),
    (_patched(lattice="3 1 10 x"), "line 6, col 1: lattice needs integers, got '3 1 10 x'"),
    (_patched(lattice="3 1 0 6"), "line 6, col 1: lattice modulus must be positive, got 0"),
    (_patched(params="x"), "line 7, col 1: bad parameter entry 'x'"),
    (_patched(params="default=x"), "line 7, col 1: bad parameter value 'x'"),
    (_patched(params="default=1,default=2"), "line 7, col 1: duplicate default parameter value"),
    (_patched(params="5=2,default=1"), "line 7, col 1: bad parameter position '5'"),
    (_patched(params="a:b=2,default=1"), "line 7, col 1: bad parameter position 'a:b'"),
    (_patched(params="0:6=2,0:6=3,default=1"), "line 7, col 1: duplicate parameter position '0:6'"),
    (_patched(params="0:6=2"), "line 7, col 1: numeric parameters need a default=<value> entry"),
    (_patched(params="default=0"), "line 7, col 1: default parameter value must be nonzero"),
    ("sl2tiling v1\nring: Z\n", "line 2, col 1: missing blank line before the grid"),
    ("sl2tiling v1\nring Z\n\n1\n", "line 2, col 1: malformed header line 'ring Z'"),
    ("sl2tiling v1\nring: Z\nring: Z\n\n1\n", "line 3, col 1: duplicate header 'ring'"),
    (_doc("ring: Z", "kind: rule", "rows: 1", "cols: 1"), "line 3, col 1: unknown kind 'rule'"),
    (_doc("ring: Z", "kind: window", "rows: 0", "cols: 1"), "line 4, col 1: grid shape must be positive, got 0x1"),
]


class TestErrorLines:
    @pytest.mark.parametrize("doc, message", PARSE_ERRORS, ids=[m for _, m in PARSE_ERRORS])
    def test_parse_error(self, tmp_path, capsys, doc, message):
        path = tmp_path / "bad.grid"
        path.write_text(doc)
        assert run_cli("verify", str(path), capsys=capsys) == (2, "", f"error: {message}\n")

    @pytest.mark.parametrize("argv, message", [
        (["generate", "wildest", "--params", "x"], "bad parameter entry 'x', expected k=v"),
        (["generate", "wildest", "--params", "1=x"], "bad parameter value 'x'"),
        (["generate", "wildest", "--params", "k=1"], "bad parameter index 'k'"),
        (["density", "win.grid"], "density applies to model documents, not windows"),
        (["density", "unit.grid", "--radii", "1,x"], "bad radii list '1,x'"),
        (["generate", "wildest", "--params", "0=5"], "parameter index must be positive, got 0"),
        (["search", "--oracle", "--modulus", "1"], "need modulus >= 2 and a block of at least 2x2"),
        (["search", "--oracle", "--modulus", "3", "--rows", "1"], "need modulus >= 2 and a block of at least 2x2"),
        (["density", "unit.grid", "--radii", "-1"], "radius must be nonnegative, got -1"),
        (["density", "unit.grid", "--radii", "2500000"],
         "density would scan 5000001 disc rows, over the bound of 5000000"),
    ])
    def test_argument_error(self, tmp_path, monkeypatch, capsys, argv, message):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "win.grid").write_text(_doc(*_WINDOW))
        (tmp_path / "unit.grid").write_text(sl2tilings.write_grid(sl2tilings.unit_tiling()))
        assert run_cli(*argv, capsys=capsys) == (2, "", f"error: {message}\n")


class TestWriteErrors:
    def test_unwritable_out_exits_two(self, files, capsys):
        # A write error names the path, as a read error does, with no traceback.
        out_dir = str(files["dir"])
        cases = [
            (["generate", "unit", "--out", "/nonexistent/u.grid"],
             "/nonexistent/u.grid: No such file or directory"),
            (["render", files["z36"], "--out", "/nonexistent/x.svg"],
             "/nonexistent/x.svg: No such file or directory"),
            (["render", files["z36"], "--out", out_dir], f"{out_dir}: Is a directory"),
        ]
        for argv, message in cases:
            code, out, err = run_cli(*argv, capsys=capsys)
            assert (code, out, err) == (2, "", f"error: cannot write {message}\n")


class TestTopLevel:
    def test_no_command(self, capsys):
        assert run_cli(capsys=capsys)[0] == 2

    def test_unknown_command(self, capsys):
        assert run_cli("frobnicate", capsys=capsys)[0] == 2

    def test_console_script(self, tmp_path):
        # The declared `sl2` entry, run through the wrapper pip writes for it;
        # test_installed_console_script covers the script pip puts on PATH.
        entry = _script_entry("sl2")
        assert entry == "sl2tilings.cli:run"
        path = tmp_path / "u.grid"
        script = _python(tmp_path, "-c", _entry_point_wrapper(entry),
                         "generate", "unit", "--out", str(path))
        assert script.returncode == 0
        assert path.read_text().startswith("sl2tiling v1")

    @pytest.mark.skipif(shutil.which("sl2") is None,
                        reason="the sl2 console script is not installed")
    def test_installed_console_script(self, tmp_path):
        path = tmp_path / "u.grid"
        script = subprocess.run(
            ["sl2", "generate", "unit", "--out", str(path)],
            capture_output=True, text=True, cwd=tmp_path)
        assert script.returncode == 0
        assert path.read_text().startswith("sl2tiling v1")

    def test_module_runs_match_entry_point(self, tmp_path):
        args = ("generate", "unit")
        expected = _python(tmp_path, "-c", _entry_point_wrapper(_script_entry("sl2")), *args)
        assert expected.returncode == 0
        assert expected.stdout.startswith(b"sl2tiling v1\n")
        for module in ("sl2tilings", "sl2tilings.cli"):
            proc = _python(tmp_path, "-m", module, *args)
            assert (proc.returncode, proc.stdout, proc.stderr) == (0, expected.stdout, b"")

    @pytest.mark.parametrize("argv, code", [
        (["verify", "fail.grid", "--json"], 1),
        (["verify", "bad.grid"], 2),
        (["generate", "unit", "--out", "missing/u.grid"], 2),
        (["generate", "unit", "--out", "u.grid"], 0),
    ], ids=["verify-fails", "parse-error", "unwritable-out", "written-out"])
    def test_process_exits_match_main(self, tmp_path, monkeypatch, capsys, argv, code):
        # The pip wrapper and `python -m` end as in-process main() does:
        # the same exit code, stdout, stderr and written file.
        monkeypatch.chdir(tmp_path)
        (tmp_path / "fail.grid").write_text(FAILING_WINDOW)
        (tmp_path / "bad.grid").write_text(BAD_DOC)
        out = tmp_path / (argv[-1] if "--out" in argv else "no-out")
        expected = run_cli(*argv, capsys=capsys)
        assert expected[0] == code
        expected_file = out.read_bytes() if out.is_file() else None
        for command in (["-c", _entry_point_wrapper(_script_entry("sl2"))], ["-m", "sl2tilings"]):
            if out.is_file():
                out.unlink()
            proc = _python(tmp_path, *command, *argv)
            assert (proc.returncode, proc.stdout.decode(), proc.stderr.decode()) == expected
            assert (out.read_bytes() if out.is_file() else None) == expected_file

    def test_run_freezes_the_start_up_heap(self, tmp_path, capsys):
        # At exit the objects imported at start-up sit in the permanent
        # generation, so the interpreter's shutdown does not free them one by one.
        code = ("import atexit, gc, sys; "
                "atexit.register(lambda: print(gc.get_freeze_count() > 0, file=sys.stderr)); "
                "sys.argv = ['sl2', 'generate', 'unit']; "
                "from sl2tilings.cli import run; run()")
        proc = _python(tmp_path, "-c", code)
        assert (proc.returncode, proc.stderr) == (0, b"True\n")
        assert proc.stdout.decode() == run_cli("generate", "unit", capsys=capsys)[1]

    def test_main_leaves_the_collector_alone(self, capsys):
        # Library callers and this test run call main() in-process: only the
        # console entry run() may freeze their heap.
        before = gc.get_freeze_count()
        assert run_cli("generate", "unit", capsys=capsys)[0] == 0
        assert gc.get_freeze_count() == before

    def test_cli_import_stays_light(self, tmp_path):
        # Against what a bare interpreter has loaded, importing the CLI adds
        # none of these: value classes are plain slots classes, and Fraction
        # and json are imported where they are used.
        heavy = {"dataclasses", "inspect", "fractions", "json"}
        code = ("import sys; bare = set(sys.modules); import sl2tilings.cli; "
                f"print(sorted((set(sys.modules) - bare) & {heavy!r}))")
        proc = _python(tmp_path, "-c", code)
        assert (proc.returncode, proc.stdout) == (0, b"[]\n")

    def test_cli_import_leaves_numpy_unloaded(self, tmp_path):
        proc = _python(tmp_path, "-c", "import sys, sl2tilings.cli; print('numpy' in sys.modules)")
        assert (proc.returncode, proc.stdout) == (0, b"False\n")

    def test_oracle_runs_without_numpy(self, tmp_path, capsys):
        argv = ["search", "--modulus", "3", "--rows", "3", "--cols", "4", "--json"]
        code = ("import sys; sys.modules['numpy'] = None; "
                f"sys.argv = ['sl2', *{argv!r}, '--oracle']; "
                "from sl2tilings.cli import run; run()")
        proc = _python(tmp_path, "-c", code)
        assert (proc.returncode, proc.stderr) == (0, b"")
        oracle = json.loads(proc.stdout)
        dfs = json.loads(run_cli(*argv, capsys=capsys)[1])
        assert oracle["solutions"] == dfs["solutions"]
        assert oracle["stats"]["nodes"] == 3**12

    def test_module_without_arguments(self, tmp_path):
        proc = _python(tmp_path, "-m", "sl2tilings")
        assert proc.returncode == 2
        assert proc.stderr.startswith(b"usage: sl2")


class TestCliBytes:
    def test_every_command_prints_the_pinned_bytes(self, tmp_path, monkeypatch, capsys):
        # Relative names and a fixed width keep paths and the terminal out of the bytes.
        monkeypatch.chdir(tmp_path)
        monkeypatch.setenv("COLUMNS", "80")
        for name, text in (("fail.grid", FAILING_WINDOW), ("win.grid", WINDOW_DOC), ("bad.grid", BAD_DOC),
                           ("zero.grid", EVERY_ZERO_PATCHED)):
            Path(name).write_text(text)
        digests = {}
        for line in CLI_BYTES_SHA256:
            argv = line.split()
            code = main(argv)
            out, err = capsys.readouterr()
            # CPython 3.10 heads the option list of --help "optional arguments:".
            out = out.replace("\noptional arguments:\n", "\noptions:\n")
            written = b""
            if "--out" in argv:
                path = Path(argv[argv.index("--out") + 1])
                written = path.read_bytes() if path.exists() else b"-"
            digests[line] = hashlib.sha256(repr((code, out, err)).encode() + written).hexdigest()
        assert digests == CLI_BYTES_SHA256


def _script_entry(name):
    """The `name = "module:attr"` line of pyproject.toml's [project.scripts]
    table, read as text: tomllib is not in Python 3.10, the oldest supported."""
    text = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text(encoding="utf-8")
    table = text.split("\n[project.scripts]\n", 1)[1].split("\n[", 1)[0]
    for line in table.splitlines():
        key, sep, value = line.partition("=")
        if sep and key.strip() == name:
            return value.strip().strip('"')
    raise KeyError(name)


def _entry_point_wrapper(entry):
    """The body of the console script pip generates for `module:attr`."""
    module, attr = entry.split(":")
    return f"import sys; from {module} import {attr}; sys.exit({attr}())"


def _python(cwd, *args, **kwargs):
    """Run a fresh interpreter in `cwd` that imports this very sl2tilings.

    A relative PYTHONPATH (such as `src`) would not resolve from `cwd`, so the
    directory holding the imported package goes first.
    """
    env = dict(os.environ)
    package_root = str(Path(sl2tilings.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_root, env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], capture_output=True, cwd=cwd, env=env, **kwargs)


def _cap_memory():
    import resource

    resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
