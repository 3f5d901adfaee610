import errno
import json
import tempfile

import pytest

import vsc.elliptic
from vsc.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


def test_g1_example(capsys):
    code, out, _ = run(capsys, "g1", "--N", "4", "--k", "1", "--d", "1",
                       "--ins", "2:3", "--no-cache")
    assert code == 0
    assert out.strip() == "-3/8"


def test_g0_with_negative_slot(capsys):
    code, out, _ = run(capsys, "g0", "--N", "5", "--k", "5", "--d", "1",
                       "--a", "3", "--b", "-1", "--ins", "1:1", "--no-cache")
    assert code == 0
    assert out.strip() == "600"


def test_catalog(capsys):
    code, out, _ = run(capsys, "catalog", "--d", "2")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[-1] == "5 graphs at degree 2"
    assert len(lines) == 6


def test_gw_tsv(capsys):
    code, out, _ = run(capsys, "gw", "--N", "4", "--k", "3", "--dmax", "1",
                       "--no-cache")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "d\ta\tn1\tn1_norm\tw"
    assert lines[1] == "1\t1\t0\t0\t-21/8"


def test_gw_json(capsys):
    code, out, _ = run(capsys, "gw", "--N", "5", "--k", "4", "--dmax", "1",
                       "--format", "json", "--no-cache")
    assert code == 0
    rows = json.loads(out)
    assert rows == [{"d": 1, "ins": "2:1", "n1": "40/3", "w": "-344/3",
                     "n0": "320", "combo": "0"}]


def test_mirror_text(capsys):
    code, out, _ = run(capsys, "mirror", "--N", "4", "--k", "3",
                       "--qcap", "1", "--no-cache")
    assert code == 0
    assert "t^1 - x^1 = 21 q x2" in out


def test_mirror_inverse_json(capsys):
    code, out, _ = run(capsys, "mirror", "--N", "4", "--k", "1",
                       "--qcap", "1", "--inverse", "--format", "json", "--no-cache")
    assert code == 0
    data = json.loads(out)
    assert data["1"]["terms"] == [[1, [3], "-1/2"]]


def test_bcov_check(capsys):
    code, out, _ = run(capsys, "bcov", "--k", "5", "--dmax", "2",
                       "--check", "--no-cache")
    assert code == 0
    assert out.strip().endswith("all identities hold")
    assert "log Ltilde_0: 120 q + 106200 q^2" in out


def test_bcov_json(capsys):
    code, out, _ = run(capsys, "bcov", "--k", "3", "--dmax", "2",
                       "--check", "--format", "json", "--no-cache")
    assert code == 0
    data = json.loads(out)
    assert all(data["identities"].values())


def test_validation_exit_code(capsys):
    code, _, err = run(capsys, "g1", "--N", "2", "--k", "1", "--d", "1",
                       "--no-cache")
    assert code == 2
    assert "error:" in err


@pytest.mark.parametrize("d, a, b", [(1, 3, 0), (1, 0, 3), (0, 3, -1), (1, -2, 0)])
def test_g0_slot_powers_lie_in_minus_one_to_N_minus_2(capsys, d, a, b):
    # (1, 3, 0) with a 2-insertion passes the selection rule of N = 4, k = 1
    code, out, err = run(capsys, "g0", "--N", "4", "--k", "1", "--d", str(d), "--a", str(a),
                         "--b", str(b), "--ins", "2:1", "--no-cache")
    assert (code, out) == (2, "")
    assert "slot powers must lie in -1..N-2" in err


def test_bcov_rejects_k_below_three(capsys):
    code, _, err = run(capsys, "bcov", "--k", "2", "--dmax", "1", "--no-cache")
    assert code == 2
    assert "need k >= 3" in err


@pytest.mark.parametrize("flag, argv", [
    ("--dmax", ("gw", "--N", "5", "--k", "1", "--dmax", "-3", "--no-cache")),
    ("--qcap", ("mirror", "--N", "5", "--k", "1", "--qcap", "-1")),
])
def test_bad_flag_is_named(capsys, flag, argv):
    code, _, err = run(capsys, *argv)
    assert code == 2
    assert f"argument {flag}" in err


def test_tsv_and_json_carry_the_same_records(capsys):
    base = ("gw", "--N", "5", "--k", "3", "--dmax", "1", "--no-cache")
    _, tsv, _ = run(capsys, *base)
    _, js, _ = run(capsys, *base, "--format", "json")
    header, *lines = tsv.strip().splitlines()
    cols = header.split("\t")
    from_tsv = [dict(zip(cols, line.split("\t"))) for line in lines]
    for row, rec in zip(from_tsv, json.loads(js)):
        assert row["d"] == str(rec["d"])
        assert (row["n0"], row["n1"], row["combo"], row["w"]) == \
            (rec["n0"], rec["n1"], rec["combo"], rec["w"])


def test_deterministic_output(capsys, empty_memo):
    argv = ("gw", "--N", "4", "--k", "2", "--dmax", "2", "--no-cache")
    _, first, _ = run(capsys, *argv)
    empty_memo.clear()
    _, second, _ = run(capsys, *argv)
    assert first == second


def test_cache_dir_round_trip(tmp_path, capsys, empty_memo):
    argv = ("g1", "--N", "5", "--k", "5", "--d", "2",
            "--cache-dir", str(tmp_path))
    code1, out1, _ = run(capsys, *argv)
    empty_memo.clear()
    code2, out2, _ = run(capsys, *argv)
    assert code1 == code2 == 0
    assert out1 == out2
    assert any(tmp_path.iterdir())


def test_unwritable_cache_dir_fails_before_any_chain(tmp_path, capsys, monkeypatch):
    # permission bits do not stop a root user, so the directory is made
    # unwritable at the call that every record write makes
    mkstemp, residue_chain, chains = tempfile.mkstemp, vsc.elliptic.residue_chain, []

    def refuse(*args, dir=None, **kwargs):
        if dir is not None and tmp_path.samefile(dir):
            raise PermissionError(errno.EACCES, "Permission denied")
        return mkstemp(*args, dir=dir, **kwargs)

    def chain(*args, **kwargs):
        chains.append(args)
        return residue_chain(*args, **kwargs)

    monkeypatch.setattr(tempfile, "mkstemp", refuse)
    monkeypatch.setattr(vsc.elliptic, "residue_chain", chain)
    code, out, err = run(capsys, "g1", "--N", "5", "--k", "5", "--d", "2", "--threads", "1",
                         "--cache-dir", str(tmp_path))
    assert (code, out, chains) == (2, "", [])
    assert f"cannot use cache directory {tmp_path}: Permission denied" in err
    assert not any(tmp_path.iterdir())
