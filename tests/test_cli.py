import hashlib
import json
from pathlib import Path

import pytest

from frameproof_lab.cli import main

DATA = Path(__file__).parent / "data"


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_verify_family_clean(capsys):
    code, out, _ = run(capsys, "verify", "--family", str(DATA / "fano.json"), "--c", "4", "--s", "2")
    assert code == 0
    doc = json.loads(out)
    assert doc["holds"] is True and doc["property"] == "(4,2)-frameproof"


def test_verify_family_witness(capsys, tmp_path):
    fam = tmp_path / "fam.json"
    fam.write_text(json.dumps({"n": 4, "sets": [[1, 2], [3, 4], [1, 3], [2, 4]]}))
    code, out, _ = run(capsys, "verify", "--family", str(fam), "--c", "2", "--s", "1")
    assert code == 1
    doc = json.loads(out)
    assert doc["holds"] is False
    assert doc["witness"]["focus"] == 0
    assert doc["witness"]["coalition"] == [[2, 1], [3, 1]]


def test_verify_malformed_json(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _, err = run(capsys, "verify", "--family", str(bad), "--c", "2", "--s", "1")
    assert code == 2 and "bad.json" in err

    schema = tmp_path / "schema.json"
    schema.write_text(json.dumps({"n": 4, "sets": [[0]]}))
    code, _, err = run(capsys, "verify", "--family", str(schema), "--c", "2", "--s", "1")
    assert code == 2 and "sets[0]" in err


def test_verify_needs_exactly_one_input(capsys):
    code, _, err = run(capsys, "verify", "--c", "2", "--s", "1")
    assert code == 2 and "exactly one" in err


def test_matching_subcommand(capsys):
    code, out, _ = run(
        capsys, "matching", "--n", "4", "--t", "2", "--lambda", "2", "--k1", "2", "--k2", "2"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["value"] == 3 and doc["status"] == "exact"


def test_matching_inf_mode_and_budget(capsys):
    code, out, _ = run(
        capsys, "matching", "--n", "6", "--t", "2", "--lambda", "2", "--k1", "2", "--k2", "inf"
    )
    assert code == 0 and json.loads(out)["value"] == 5

    # the budget runs out, and the pierced star of 10 meets the cap of 10
    code, out, _ = run(
        capsys,
        "matching", "--n", "6", "--t", "3", "--lambda", "2", "--k1", "2", "--k2", "2",
        "--budget", "2",
    )
    doc = json.loads(out)
    assert code == 0 and doc["status"] == "exact" and doc["value"] == 10
    assert doc["explored"] == 2 and all(1 in member for member in doc["family"])

    # (c,s,k) = (4,1,7): the sandwich stays open, so running out is lower-only
    code, out, _ = run(
        capsys,
        "matching", "--n", "7", "--t", "2", "--lambda", "3", "--k1", "2", "--k2", "4",
        "--budget", "2",
    )
    assert code == 1 and json.loads(out)["status"] == "lower-only"
    assert json.loads(out)["explored"] == 2


def test_negative_budget_exits_2(capsys):
    code, out, err = run(
        capsys,
        "matching", "--n", "4", "--t", "2", "--lambda", "2", "--k1", "2", "--k2", "2",
        "--budget", "-3",
    )
    assert code == 2 and out == "" and "budget" in err
    code, out, err = run(
        capsys, "construct", "faithful", "--n", "4", "--c", "3", "--s", "2", "--q", "4",
        "--budget", "-1",
    )
    assert code == 2 and out == "" and "budget" in err
    code, out, err = run(
        capsys, "construct", "induced", "--k", "3", "--c", "4", "--s", "2", "--n", "7",
        "--budget", "-1",
    )
    assert code == 2 and out == "" and "budget" in err


def test_construct_rs_round_trips_through_verify(capsys, tmp_path):
    out_path = tmp_path / "rs.json"
    code, _, _ = run(capsys, "construct", "rs", "--q", "3", "--n", "3", "--t", "2",
                     "--out", str(out_path))
    assert code == 0
    code, out, _ = run(capsys, "verify", "--code", str(out_path), "--c", "2", "--s", "1")
    assert code == 0 and json.loads(out)["holds"] is True


def test_construct_partition(capsys):
    code, out, _ = run(
        capsys, "construct", "partition", "--a", "1,2,3,4", "--given", "1,2", "--c", "3", "--s", "1"
    )
    assert code == 0
    assert json.loads(out)["parts"] == [[3], [4]]


def test_construct_packing_and_design(capsys, tmp_path):
    code, out, _ = run(capsys, "construct", "packing", "--n", "7", "--k", "3", "--t", "2")
    assert code == 0
    doc = json.loads(out)
    assert doc["design"] is True and len(doc["blocks"]) == 7

    code, out, _ = run(capsys, "construct", "design", "--path", str(DATA / "s239.txt"))
    assert code == 0 and len(json.loads(out)["blocks"]) == 12


def test_construct_induced_family_verifies(capsys, tmp_path):
    code, out, _ = run(
        capsys, "construct", "induced", "--k", "3", "--c", "4", "--s", "2", "--n", "7"
    )
    assert code == 0
    fam_doc = json.loads(out)["family"]
    fam_path = tmp_path / "fam.json"
    fam_path.write_text(json.dumps(fam_doc))
    code, out, _ = run(capsys, "verify", "--family", str(fam_path), "--c", "4", "--s", "2")
    assert code == 0 and json.loads(out)["holds"] is True


def test_construct_faithful(capsys):
    code, out, _ = run(
        capsys, "construct", "faithful", "--n", "3", "--c", "2", "--s", "1", "--q", "3"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["q"] == 3 and len(doc["words"]) >= 1


def test_bounds_subcommands(capsys):
    code, out, _ = run(
        capsys, "bounds", "hypergraph", "--n", "7", "--k", "3", "--c", "4", "--s", "2", "--design"
    )
    assert code == 0
    doc = json.loads(out)
    assert any(e["source"] == "design exactness" and e["applicable"] for e in doc["entries"])

    code, out, _ = run(capsys, "bounds", "code", "--n", "5", "--c", "2", "--s", "1", "--q", "5")
    assert code == 0
    doc = json.loads(out)
    assert any(e["value"] == 125 and e["direction"] == "exact" for e in doc["entries"])

    code, out, _ = run(
        capsys, "bounds", "matching",
        "--n", "6", "--t", "2", "--lambda", "2", "--s1", "1", "--s2", "2",
    )
    assert code == 0


def test_attack_subcommand(capsys, tmp_path):
    code_path = tmp_path / "code.json"
    code_path.write_text(json.dumps({"q": 2, "n": 2, "words": [[1, 1], [1, 2], [2, 1]]}))
    code, out, _ = run(capsys, "attack", "--code", str(code_path), "--coalition", "0,1", "--s", "1")
    assert code == 0
    doc = json.loads(out)
    assert doc["per_coordinate"] == [[1], [1, 2]] and doc["feasible_count"] == 2


def test_byte_identical_reruns(capsys, tmp_path):
    outs = []
    for _ in range(2):
        _, out, _ = run(
            capsys, "construct", "packing", "--n", "8", "--k", "3", "--t", "2",
            "--order", "seeded-random", "--seed", "42",
        )
        outs.append(out)
    assert outs[0] == outs[1]

    # file output is byte-identical too
    pa, pb = tmp_path / "a.json", tmp_path / "b.json"
    for p in (pa, pb):
        run(capsys, "matching", "--n", "4", "--t", "2", "--lambda", "2",
            "--k1", "2", "--k2", "2", "--out", str(p))
    assert pa.read_bytes() == pb.read_bytes()


def test_seed_required_for_random_order(capsys):
    code, _, err = run(
        capsys, "construct", "packing", "--n", "7", "--k", "3", "--t", "2",
        "--order", "seeded-random",
    )
    assert code == 2 and "seed" in err


def test_parameter_error_exit_code(capsys):
    code, _, err = run(capsys, "construct", "rs", "--q", "6", "--n", "3", "--t", "2")
    assert code == 2 and "prime power" in err


def test_faithful_seeded_byte_identical(capsys):
    outs = []
    for _ in range(2):
        _, out, _ = run(
            capsys, "construct", "faithful", "--n", "3", "--c", "2", "--s", "1",
            "--q", "3", "--seed", "9",
        )
        outs.append(out)
    assert outs[0] == outs[1]


def test_packing_round_trips_through_design_loader(capsys, tmp_path):
    _, out, _ = run(capsys, "construct", "packing", "--n", "7", "--k", "3", "--t", "2")
    doc = json.loads(out)
    assert doc["design"]
    text = f"{doc['n']} {doc['k']} {doc['t']}\n" + "".join(
        " ".join(str(p) for p in block) + "\n" for block in doc["blocks"]
    )
    path = tmp_path / "emitted.txt"
    path.write_text(text)
    code, out, _ = run(capsys, "construct", "design", "--path", str(path))
    assert code == 0 and json.loads(out)["blocks"] == doc["blocks"]


def test_threads_flag_is_rejected(capsys, tmp_path):
    fam = tmp_path / "fam.json"
    fam.write_text(json.dumps({"n": 4, "sets": [[1, 2], [3, 4], [1, 3], [2, 4]]}))
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--family", str(fam), "--c", "2", "--s", "1", "--threads", "3"])
    assert exc.value.code == 2 and "--threads" in capsys.readouterr().err


def test_critical_verify_of_long_words_is_a_parameter_error(capsys, tmp_path):
    path = tmp_path / "long.json"
    words = [[1] * 65, [2] * 65, [1] * 64 + [2]]
    path.write_text(json.dumps({"q": 2, "n": 65, "words": words}))
    code, out, err = run(capsys, "verify", "--code", str(path), "--c", "2", "--s", "1", "--critical")
    assert code == 2 and out == "" and "exceeds 64" in err


MALFORMED = [
    ("verify", "--family", "{tmp}/bad.json", "--c", "2", "--s", "1"),
    ("verify", "--family", "{tmp}/schema.json", "--c", "2", "--s", "1"),
    ("verify", "--c", "2", "--s", "1"),
    ("verify", "--family", "", "--c", "2", "--s", "1"),
    ("verify", "--family", "{data}/fano.json", "--c", "2", "--s", "1", "--out", ""),
    ("verify", "--family", "{data}/fano.json", "--c", "2", "--s", "1",
     "--out", "{tmp}/missing/x.json"),
    ("verify", "--family", "{data}/fano.json", "--c", "2", "--s", "1", "--out", "{tmp}"),
    ("verify", "--code", "{tmp}/long.json", "--c", "2", "--s", "1", "--critical"),
    ("verify", "--code", "{tmp}/huge.json", "--c", "2", "--s", "1"),
    ("verify", "--family", "{tmp}/schema.json", "--c", "3", "--s", "3"),
    ("matching", "--n", "4", "--t", "2", "--lambda", "2", "--k1", "2", "--k2", "2",
     "--budget", "-3"),
    ("matching", "--n", "4", "--t", "2", "--lambda", "2", "--k1", "0", "--k2", "2"),
    ("construct", "faithful", "--n", "4", "--c", "3", "--s", "2", "--q", "4", "--budget", "-1"),
    ("construct", "faithful", "--n", "0", "--c", "3", "--s", "2", "--q", "4"),
    ("construct", "induced", "--k", "3", "--c", "4", "--s", "2", "--n", "7", "--budget", "-1"),
    ("construct", "packing", "--n", "7", "--k", "3", "--t", "2", "--order", "seeded-random"),
    ("construct", "packing", "--n", "8", "--k", "3", "--t", "2", "--seed", "3"),
    ("construct", "packing", "--n", "64", "--k", "32", "--t", "2"),
    ("construct", "rs", "--q", "6", "--n", "3", "--t", "2"),
    ("attack", "--code", "{tmp}/bad.json", "--coalition", "0", "--s", "1"),
    ("bounds", "matching", "--n", "3", "--t", "5", "--lambda", "2", "--s1", "1", "--s2", "1"),
    ("bounds", "matching", "--n", "6", "--t", "2", "--lambda", "2", "--s1", "1", "--s2", "2",
     "--c", "1", "--s", "0"),
    ("bounds", "matching", "--n", "6", "--t", "2", "--lambda", "2", "--s1", "1", "--s2", "2",
     "--c", "3", "--s", "0"),
    ("bounds", "matching", "--n", "6", "--t", "2", "--lambda", "2", "--s1", "1", "--s2", "2",
     "--c", "3", "--s", "3"),
    ("bounds", "matching", "--n", "6", "--t", "2", "--lambda", "2", "--s1", "1", "--s2", "2",
     "--c", "3"),
    ("bounds", "matching", "--n", "6", "--t", "2", "--lambda", "2", "--s1", "1", "--s2", "2",
     "--s", "1"),
    ("bounds", "hypergraph", "--n", "12", "--k", "4", "--c", "3", "--s", "1", "--m", "-5"),
    ("bounds", "hypergraph", "--n", "12", "--k", "4", "--c", "3", "--s", "1", "--m", "7"),
    ("bounds", "hypergraph", "--n", "12", "--k", "1", "--c", "3", "--s", "1", "--m", "0"),
    ("bounds", "hypergraph", "--n", "9", "--k", "3", "--c", "2", "--s", "1", "--m", "1",
     "--packing-size", "13"),
    ("bounds", "hypergraph", "--n", "9", "--k", "3", "--c", "2", "--s", "1", "--m", "1",
     "--packing-size", "-4"),
    ("bounds", "code", "--n", "5", "--c", "2", "--s", "1", "--q", "5", "--m", "11"),
    ("bounds", "code", "--n", "5", "--c", "2", "--s", "1", "--q", "5", "--m", "-1"),
]


def test_malformed_invocations_exit_2(capsys, tmp_path):
    # the error contract: exit 2, nothing on stdout, one "error:" line on stderr
    (tmp_path / "bad.json").write_text("{not json")
    (tmp_path / "schema.json").write_text(json.dumps({"n": 4, "sets": [[0]]}))
    words = [[1] * 65, [2] * 65, [1] * 64 + [2]]
    (tmp_path / "long.json").write_text(json.dumps({"q": 2, "n": 65, "words": words}))
    huge = {"q": 2**70, "n": 2, "words": [[2**70, 1], [1, 1]]}
    (tmp_path / "huge.json").write_text(json.dumps(huge))
    for argv in MALFORMED:
        code, out, err = run(capsys, *(arg.format(tmp=tmp_path, data=DATA) for arg in argv))
        assert code == 2 and out == "", argv
        assert err.startswith("error: ") and err.count("\n") == 1, (argv, err)
        assert "Traceback" not in err, argv


@pytest.mark.parametrize(
    "argv, digest",
    [
        (
            ("construct", "rs", "--q", "16", "--n", "4", "--t", "3"),
            "fc7d4b4ad9ce797e42278bc9ae234a4e9e0ba65dbf272b95c5b0662b273191d0",
        ),
        (
            ("construct", "faithful", "--n", "6", "--c", "3", "--s", "2", "--q", "4",
             "--seed", "1"),
            "8a96c12cd2d4561ba60db1714f0a59628272319befaee5bc592d2377717fa823",
        ),
    ],
)
def test_construct_stdout_is_pinned(capsys, argv, digest):
    # SHA-256 of stdout as the per-message RS build and the plain-loop
    # faithful greedy printed it
    code, out, _ = run(capsys, *argv)
    assert code == 0 and hashlib.sha256(out.encode()).hexdigest() == digest
