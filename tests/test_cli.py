import gc
import hashlib
import json
import os
import pathlib
import random
import subprocess
import sys

import pytest

import rotakit
from record_golden import GOLDEN, ROOT, cases, run_case
from rotakit import generators
from rotakit.cli import main
from rotakit.conditions import find_shared_ordering
from rotakit.model import CapExceeded
from rotakit.rights import RightsStructure
from rotakit.serialize import scr_from_doc
from test_serialize import ECONOMY_DOC, XYZ_ENV_DOC, JOBS_DOC


@pytest.fixture
def env_path(tmp_path):
    path = tmp_path / "ex2.json"
    path.write_text(json.dumps(XYZ_ENV_DOC))
    return str(path)


@pytest.fixture
def jobs_path(tmp_path):
    path = tmp_path / "jobs.json"
    path.write_text(json.dumps(JOBS_DOC))
    return str(path)


@pytest.fixture
def economy_path(tmp_path):
    path = tmp_path / "eco.json"
    path.write_text(json.dumps(ECONOMY_DOC))
    return str(path)


def _run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_solve_mss_environment(capsys, env_path):
    code, out, _ = _run(
        capsys, "solve", env_path, "--profile", "Rp", "--concept", "mss", "--format", "json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["outcomes"] == [["x", "y"]]


def test_solve_core_empty_gamma(capsys, tmp_path):
    doc = dict(XYZ_ENV_DOC)
    doc["rights"] = {"states": XYZ_ENV_DOC["rights"]["states"], "gamma": []}
    path = tmp_path / "empty.json"
    path.write_text(json.dumps(doc))
    code, out, _ = _run(
        capsys, "solve", str(path), "--profile", "R", "--concept", "core", "--format", "json"
    )
    assert code == 0
    assert json.loads(out)["sets"] == [["x", "y", "z"]]


def test_solve_absorbing_on_economy_document(capsys, economy_path):
    code, out, _ = _run(
        capsys, "solve", economy_path, "--profile", "R", "--concept", "absorbing",
        "--format", "json",
    )
    assert code == 0
    assert json.loads(out)["sets"] == [["h2,h3,h1"]]


def test_solve_partition_failure_exit_code(capsys, env_path):
    code, out, _ = _run(capsys, "solve", env_path, "--profile", "R", "--concept", "partition")
    assert code == 2
    assert "no partition" in out


def test_solve_rotation_verdict(capsys, env_path):
    code, out, _ = _run(
        capsys, "solve", env_path, "--profile", "Rp", "--concept", "rotation",
        "--order", "x,y",
    )
    assert code == 0
    assert out.strip() == "rotation program"


def test_check_rotation_violated(capsys, env_path):
    code, out, _ = _run(capsys, "check", env_path, "--condition", "rotation")
    assert code == 0
    assert "violated" in out


def test_check_maskin_constant_rule(capsys, tmp_path):
    doc = dict(XYZ_ENV_DOC)
    doc = {k: v for k, v in doc.items() if k != "rights"}
    doc["scr"] = {"R": ["x"], "Rp": ["x"]}
    path = tmp_path / "const.json"
    path.write_text(json.dumps(doc))
    code, out, _ = _run(capsys, "check", str(path), "--condition", "maskin")
    assert code == 0 and out.strip() == "ok"


def test_check_indirect_ok(capsys, env_path):
    code, out, _ = _run(capsys, "check", env_path, "--condition", "indirect")
    assert code == 0 and out.strip() == "ok"


def test_check_efficiency_and_domain(capsys, env_path):
    for condition in ("efficiency", "domain"):
        code, out, _ = _run(capsys, "check", env_path, "--condition", condition)
        assert code == 0 and out.strip() == "ok"


def test_check_cap_exceeded_exit_code(capsys, env_path):
    code, _, err = _run(capsys, "check", env_path, "--condition", "rotation", "--cap", "2")
    assert code == 3
    assert "refused" in err


def test_json_format_reports_input_error_as_one_object(capsys, tmp_path):
    doc = json.loads(json.dumps(XYZ_ENV_DOC))
    doc["profiles"][0]["id"] = None
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    code, out, err = _run(capsys, "check", str(path), "--condition", "maskin", "--format", "json")
    assert code == 1 and out == ""
    assert json.loads(err) == {
        "error": "$.profiles[0].id: expected a string, got None",
        "path": "$.profiles[0].id",
        "exit": 1,
    }
    # text format keeps its wording
    code, _, err = _run(capsys, "check", str(path), "--condition", "maskin")
    assert code == 1 and err == "error: $.profiles[0].id: expected a string, got None\n"


@pytest.mark.parametrize(
    "content, detail",
    [
        (b'\xff\xfe{"agents": 3}', "'utf-8' codec can't decode byte 0xff"),
        (b"[" * 100_000 + b"]" * 100_000, "maximum recursion depth exceeded"),
        (b'{"agents": ' + b"9" * 5_000 + b"}", "Exceeds the limit"),
    ],
    ids=["not-utf-8", "nested-too-deep", "integer-too-long"],
)
def test_unreadable_document_is_an_input_error(capsys, tmp_path, content, detail):
    path = tmp_path / "bad.json"
    path.write_bytes(content)
    argv = ("check", str(path), "--condition", "maskin")
    code, out, err = _run(capsys, *argv, "--format", "json")
    assert code == 1 and out == "" and err.count("\n") == 1
    report = json.loads(err)
    assert report["error"].startswith(f"cannot read {path}: ") and detail in report["error"]
    assert report["path"] is None and report["exit"] == 1
    code, out, err = _run(capsys, *argv)
    assert code == 1 and out == "" and err == f"error: {report['error']}\n"


@pytest.mark.parametrize(
    "argv, target",
    [
        (("solve", "FILE", "--profile", "Rp", "--concept", "mss"), "missing/out.json"),
        (("export-dot", "FILE", "--profile", "Rp"), "."),
    ],
    ids=["missing-directory", "a-directory"],
)
def test_unwritable_out_is_an_input_error(capsys, env_path, tmp_path, argv, target):
    out_path = tmp_path / target
    argv = (*(env_path if a == "FILE" else a for a in argv), "--out", str(out_path))
    code, out, err = _run(capsys, *argv, "--format", "json")
    assert code == 1 and out == "" and err.count("\n") == 1
    report = json.loads(err)
    assert report["error"].startswith(f"cannot write {out_path}: ")
    assert report["path"] is None and report["exit"] == 1
    code, out, err = _run(capsys, *argv)
    assert code == 1 and out == "" and err == f"error: {report['error']}\n"


def test_json_format_reports_cap_refusal_as_one_object(capsys, env_path):
    argv = ("check", env_path, "--condition", "rotation", "--cap", "1")
    code, out, err = _run(capsys, *argv, "--format", "json")
    assert code == 3 and out == ""
    assert err.count("\n") == 1
    report = json.loads(err)
    assert report["exit"] == 3 and report["path"] is None
    assert report["error"] and set(report) == {"error", "path", "exit"}
    code, _, text_err = _run(capsys, *argv)
    assert code == 3 and text_err == f"search refused: {report['error']}\n"


def test_construct_thm1_verify(capsys, env_path):
    code, out, _ = _run(
        capsys, "construct", env_path, "--theorem", "1", "--verify", "mss"
    )
    assert code == 0
    assert "R: pass" in out and "Rp: pass" in out


def test_construct_thm4_obstruction(capsys, env_path):
    code, out, _ = _run(capsys, "construct", env_path, "--theorem", "4")
    assert code == 4
    assert "no shared ordering" in out


def test_construct_thm4_jobs_domain_via_phi(capsys, tmp_path):
    doc = {
        "kind": "jobs",
        "jobs": ["j1", "j2", "j3"],
        "profiles": [
            {"id": "P", "orders": [["j1", "j2", "j3"], ["j1", "j3", "j2"], ["j2", "j1", "j3"]]},
            {"id": "Pp", "orders": [["j2", "j1", "j3"], ["j2", "j3", "j1"], ["j1", "j2", "j3"]]},
        ],
    }
    path = tmp_path / "hat.json"
    path.write_text(json.dumps(doc))
    code, out, _ = _run(
        capsys, "construct", str(path), "--theorem", "4", "--rule", "phi",
        "--verify", "rotation",
    )
    assert code == 0
    assert "P: pass" in out and "Pp: pass" in out


def test_domain_compile_jobs(capsys, jobs_path):
    code, out, _ = _run(capsys, "domain", jobs_path)
    assert code == 0
    payload = json.loads(out)
    assert set(payload["scr"]["Pp"]) >= {"j3,j1,j2", "j1,j2,j3"}


def test_export_dot(capsys, env_path):
    code, out, _ = _run(capsys, "export-dot", env_path, "--profile", "Rp", "--highlight", "mss")
    assert code == 0
    assert out.startswith("digraph") and "lightblue" in out


def test_input_error_exit_code(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{]")
    code, _, err = _run(capsys, "check", str(bad), "--condition", "maskin")
    assert code == 1 and "error:" in err


@pytest.mark.parametrize(
    "base, argv",
    [(XYZ_ENV_DOC, ("check", "--condition", "maskin")), (ECONOMY_DOC, ("domain",))],
    ids=["environment", "economy"],
)
def test_agents_not_an_integer_is_input_error(capsys, tmp_path, base, argv):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(dict(base, agents="two")))
    code, _, err = _run(capsys, argv[0], str(bad), *argv[1:])
    assert code == 1
    assert "$.agents" in err and "Traceback" not in err


def test_scr_not_an_object_is_input_error(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(dict(XYZ_ENV_DOC, scr=["a"])))
    code, _, err = _run(capsys, "check", str(bad), "--condition", "maskin")
    assert code == 1
    assert "$.scr" in err and "Traceback" not in err


def test_unknown_flag_rejected(capsys, env_path):
    code, _, err = _run(capsys, "check", env_path, "--condition", "maskin", "--bogus")
    assert code == 1


def test_out_file_written(tmp_path, capsys, env_path):
    target = tmp_path / "report.json"
    code, out, _ = _run(
        capsys, "solve", env_path, "--profile", "Rp", "--concept", "mss",
        "--format", "json", "--out", str(target),
    )
    assert code == 0 and out == ""
    assert json.loads(target.read_text())["concept"] == "mss"


def test_round_trip_constructed_structure(capsys, env_path, tmp_path):
    target = tmp_path / "built.json"
    code, _, _ = _run(
        capsys, "construct", env_path, "--theorem", "1", "--format", "json",
        "--out", str(target),
    )
    assert code == 0
    # the emitted environment re-parses and solves identically
    code, out, _ = _run(
        capsys, "solve", str(target), "--profile", "Rp", "--concept", "mss",
        "--format", "json",
    )
    assert code == 0
    assert json.loads(out)["outcomes"] == [["x", "y"]]


def test_solve_rotation_backward_direction(capsys, env_path):
    code, out, _ = _run(
        capsys, "solve", env_path, "--profile", "Rp", "--concept", "rotation",
        "--order", "x,y", "--backward-iii",
    )
    assert code == 0
    assert "clause iii" in out


def test_domain_sample_round_trips_through_construct(capsys, tmp_path):
    target = tmp_path / "sampled.json"
    code, _, _ = _run(
        capsys, "domain", "--sample", "jobs-common-best", "--seed", "7",
        "--agents", "3", "--profiles", "2", "--out", str(target),
    )
    assert code == 0
    doc = json.loads(target.read_text())
    assert doc["kind"] == "jobs"
    code, out, _ = _run(
        capsys, "construct", str(target), "--theorem", "4", "--verify", "rotation",
        "--cap", "8",
    )
    assert code == 0 and "pass" in out


def test_domain_sample_is_seed_deterministic(capsys):
    _, out1, _ = _run(capsys, "domain", "--sample", "economy", "--seed", "5")
    _, out2, _ = _run(capsys, "domain", "--sample", "economy", "--seed", "5")
    assert out1 == out2


def test_export_dot_partition_clusters(capsys, env_path):
    code, out, _ = _run(
        capsys, "export-dot", env_path, "--profile", "Rp", "--partition"
    )
    assert code == 0 and "cluster_0" in out


def test_construct_thm4_common_best_uses_arrangement_beyond_cap(capsys, tmp_path):
    # four identical orders: the frontier has 24 allocations, far past any
    # search cap, so the arrangement ordering must carry the construction
    doc = {
        "kind": "jobs",
        "jobs": ["j1", "j2", "j3", "j4"],
        "profiles": [
            {"id": "P", "orders": [["j1", "j2", "j3", "j4"]] * 4},
        ],
    }
    path = tmp_path / "big.json"
    path.write_text(json.dumps(doc))
    code, out, _ = _run(
        capsys, "construct", str(path), "--theorem", "4", "--verify", "rotation"
    )
    assert code == 0 and "P: pass" in out


def test_shipped_fixture_documents(capsys):
    import pathlib

    root = pathlib.Path(__file__).resolve().parent.parent / "fixtures"
    code, out, _ = _run(
        capsys, "solve", str(root / "example-environment.json"),
        "--profile", "Rp", "--concept", "mss", "--format", "json",
    )
    assert code == 0 and json.loads(out)["outcomes"] == [["x", "y"]]
    code, out, _ = _run(
        capsys, "solve", str(root / "economy-domain.json"),
        "--profile", "R", "--concept", "absorbing", "--format", "json",
    )
    assert code == 0 and json.loads(out)["sets"] == [["h2,h3,h1"]]
    code, out, _ = _run(
        capsys, "construct", str(root / "marriage-domain.json"),
        "--theorem", "4", "--verify", "rotation",
    )
    assert code == 0 and "R: pass" in out and "Rp: pass" in out
    code, out, _ = _run(
        capsys, "check", str(root / "jobs-domain.json"), "--condition", "rotation"
    )
    assert code == 0 and "violated" in out


def test_check_shared_ordering_and_property_m(capsys, env_path):
    code, out, _ = _run(capsys, "check", env_path, "--condition", "shared-ordering")
    assert code == 0 and "no shared ordering" in out
    code, out, _ = _run(capsys, "check", env_path, "--condition", "property-m")
    assert code == 0 and "cannot evaluate" in out


def test_check_property_m_ok_on_marriage_fixture(capsys):
    import pathlib

    path = pathlib.Path(__file__).resolve().parent.parent / "fixtures" / "marriage-domain.json"
    code, out, _ = _run(capsys, "check", str(path), "--condition", "property-m")
    assert code == 0 and out.strip() == "ok"


# an SCR whose lexicographically first rotation-monotone ordering of F(R0), (a0, a1, a3),
# has no chain from a3 to R1's singleton a1, while (a0, a3, a1) passes both conditions
_PROPERTY_M_DOC = {
    "alternatives": ["a0", "a1", "a2", "a3", "a4"],
    "agents": 2,
    "profiles": [
        {"id": "R0", "ranks": [[4, 3, 2, 0, 1], [0, 1, 4, 2, 3]]},
        {"id": "R1", "ranks": [[1, 3, 2, 0, 4], [2, 0, 3, 1, 4]]},
        {"id": "R2", "ranks": [[1, 4, 0, 2, 3], [1, 3, 4, 0, 2]]},
    ],
    "scr": {"R0": ["a0", "a1", "a3"], "R1": ["a1"], "R2": ["a2"]},
}


def test_check_property_m_judges_the_orderings_theorem_4_builds_on(capsys, tmp_path):
    path = tmp_path / "pm.json"
    path.write_text(json.dumps(_PROPERTY_M_DOC))
    code, out, _ = _run(capsys, "check", str(path), "--condition", "rotation", "--format", "json")
    assert code == 0 and json.loads(out)["orderings"]["R0"] == ["a0", "a1", "a3"]
    code, out, _ = _run(
        capsys, "check", str(path), "--condition", "shared-ordering", "--format", "json"
    )
    assert code == 0 and json.loads(out)["orderings"]["R0"] == ["a0", "a3", "a1"]
    code, out, _ = _run(capsys, "check", str(path), "--condition", "property-m")
    assert code == 0 and out == "ok\n"
    code, out, _ = _run(
        capsys, "construct", str(path), "--theorem", "4", "--verify", "rotation", "--format", "json"
    )
    assert code == 0 and json.loads(out)["verification"]["ok"] is True


def _no_shared_ordering_doc() -> dict:
    """`_PROPERTY_M_DOC` plus R3, whose chosen set no ordering passes both conditions for."""
    doc = json.loads(json.dumps(_PROPERTY_M_DOC))
    doc["profiles"].append({"id": "R3", "ranks": [[0, 4, 1, 2, 3], [3, 0, 2, 1, 4]]})
    doc["scr"]["R3"] = ["a0", "a1", "a3"]
    return doc


def test_check_property_m_fails_where_the_shared_ordering_search_stops(capsys, tmp_path):
    """R3's one rotation-monotone ordering, (a0, a1, a3), has no chain from a3 to R1's
    singleton a1, so no ordering of F(R3) passes both conditions; the violation is named
    there, not at R0, where (a0, a3, a1) still passes both."""
    doc = _no_shared_ordering_doc()
    path = tmp_path / "pm.json"
    path.write_text(json.dumps(doc))
    code, out, _ = _run(capsys, "check", str(path), "--condition", "rotation", "--format", "json")
    assert code == 0 and json.loads(out)["ok"] is True
    code, out, _ = _run(capsys, "check", str(path), "--condition", "shared-ordering")
    assert code == 0 and out == "no shared ordering exists\n"
    code, out, _ = _run(capsys, "check", str(path), "--condition", "property-m", "--format", "json")
    assert code == 0 and json.loads(out)["failure"] == {
        "profile_id": "R3", "other_id": "R1", "outcome": "a3",
        "reason": "no chain to the singleton",
    }
    code, out, _ = _run(capsys, "check", str(path), "--condition", "property-m")
    assert (code, out) == (0, "violated: PropertyMFailure(profile_id='R3', other_id='R1', "
                              "outcome='a3', reason='no chain to the singleton')\n")


@pytest.mark.parametrize("swapped", [False, True])
def test_every_ordering_command_refuses_a_chosen_set_over_the_cap(capsys, tmp_path, swapped):
    """R4 chooses four outcomes: under --cap 3 every ordering command refuses it before any
    ordering is tried, whether R3, which has no shared ordering, comes before it or after."""
    doc = _no_shared_ordering_doc()
    doc["profiles"].append({"id": "R4", "ranks": [[0, 1, 2, 3, 4], [4, 3, 2, 1, 0]]})
    doc["scr"]["R4"] = ["a0", "a1", "a2", "a3"]
    if swapped:
        doc["profiles"][-2:] = reversed(doc["profiles"][-2:])
    path = tmp_path / "found.json"
    path.write_text(json.dumps(doc))
    message = "ordering search over 4 outcomes at 'R4' exceeds the cap of 3"
    for argv in (
        ("check", "--condition", "rotation"),
        ("check", "--condition", "property-m"),
        ("check", "--condition", "shared-ordering"),
        ("construct", "--theorem", "4"),
    ):
        code, out, err = _run(capsys, argv[0], str(path), *argv[1:], "--cap", "3")
        assert (code, out, err) == (3, "", f"search refused: {message}\n"), argv
    with pytest.raises(CapExceeded, match=message) as got:
        find_shared_ordering(scr_from_doc(doc), cap=3)
    assert (got.value.cap, got.value.needed) == (3, 4)


def test_solve_generalized(capsys, env_path):
    code, out, _ = _run(
        capsys, "solve", env_path, "--profile", "Rp", "--concept", "generalized",
        "--format", "json",
    )
    assert code == 0
    sets = json.loads(out)["sets"]
    assert sets == [["x"], ["y"]]


def test_solve_rotation_semicolon_order_for_comma_state_ids(capsys, economy_path):
    # allocation ids contain commas, so the order list uses semicolons
    code, out, _ = _run(
        capsys, "solve", economy_path, "--profile", "R", "--concept", "rotation",
        "--order", "h2,h3,h1",
    )
    assert code == 1  # comma split shreds the id into unknown states
    code, out, _ = _run(
        capsys, "solve", economy_path, "--profile", "R", "--concept", "rotation",
        "--order", "h2,h3,h1;",
    )
    assert code == 1  # trailing empty chunk is rejected too
    code, out, _ = _run(
        capsys, "solve", economy_path, "--profile", "R", "--concept", "rotation",
        "--order", "h2,h3,h1;h2,h1,h3",
    )
    assert code == 0
    assert "not a rotation program" in out


@pytest.mark.parametrize(
    "argv",
    [
        ("solve", "FILE", "--profile", "Rp", "--concept", "mss", "--jobs", "1"),
        ("check", "FILE", "--condition", "maskin", "--jobs", "1"),
        ("construct", "FILE", "--theorem", "1", "--jobs", "1"),
        ("domain", "--sample", "economy", "--jobs", "1"),
        ("export-dot", "FILE", "--profile", "Rp", "--jobs", "1"),
        ("solve", "FILE", "--profile", "Rp", "--concept", "mss", "--cap", "3"),
        ("export-dot", "FILE", "--profile", "Rp", "--cap", "3"),
        ("domain", "--sample", "economy", "--cap", "3"),
        ("check", "FILE", "--condition", "maskin", "--backward-iii"),
        ("construct", "FILE", "--theorem", "1", "--backward-iii"),
        ("domain", "--sample", "economy", "--backward-iii"),
        ("export-dot", "FILE", "--profile", "Rp", "--backward-iii"),
    ],
)
def test_flag_not_taken_by_subcommand_rejected(capsys, env_path, argv):
    code, out, err = _run(capsys, *(env_path if a == "FILE" else a for a in argv))
    assert code == 1 and out == ""
    assert "unrecognized arguments" in err and "Traceback" not in err


@pytest.mark.parametrize(
    "argv",
    [
        ("domain", "--sample", "jobs-common-best", "--profiles", "0"),
        ("domain", "--sample", "jobs-hat", "--profiles", "0"),
        ("domain", "--sample", "marriage", "--profiles", "0"),
        ("domain", "--sample", "economy", "--profiles", "0"),
        ("domain", "--sample", "jobs-hat", "--agents", "0"),
        ("domain", "--sample", "jobs-common-best", "--agents", "0"),
        ("domain", "--sample", "economy", "--agents", "-2"),
        ("domain", "--sample", "economy", "--agents", "two"),
        ("check", "FILE", "--condition", "rotation", "--cap", "0"),
        ("construct", "FILE", "--theorem", "4", "--cap", "-1"),
    ],
)
def test_non_positive_count_rejected(capsys, env_path, argv):
    code, out, err = _run(capsys, *(env_path if a == "FILE" else a for a in argv))
    assert code == 1 and out == ""
    assert "error:" in err and "Traceback" not in err


def test_domain_sample_hat_clamps_to_distinct_profiles(capsys):
    # two jobs admit only two hat profiles; asking for more must not loop
    code, out, _ = _run(
        capsys, "domain", "--sample", "jobs-hat", "--agents", "2", "--profiles", "3"
    )
    assert code == 0 and len(json.loads(out)["profiles"]) == 2


@pytest.mark.parametrize(
    "kind, agents, distinct",
    [
        ("jobs-common-best", 2, 1),  # ((n-1)!)^n
        ("jobs-hat", 2, 2),  # n * ((n-1)!)^2 * (n!)^(n-2)
        ("marriage", 1, 4),  # ((n+1)!)^(2n)
        ("economy", 1, 1),  # (n!)^n
        ("economy", 2, 4),
    ],
)
def test_domain_sample_profiles_are_distinct_and_clamped(capsys, kind, agents, distinct):
    """Every kind emits distinct profiles, as many as asked for while the domain has them."""
    for asked in (1, distinct, distinct + 3):
        argv = ("domain", "--sample", kind, "--agents", str(agents), "--profiles", str(asked))
        code, out, _ = _run(capsys, *argv, "--seed", "4")
        profiles = json.loads(out)["profiles"]
        assert code == 0 and len(profiles) == min(asked, distinct)
        prefix = "P" if kind.startswith("jobs") else "R"
        assert [p.pop("id") for p in profiles] == [f"{prefix}{i}" for i in range(len(profiles))]
        assert len({json.dumps(p, sort_keys=True) for p in profiles}) == len(profiles)


def test_domain_sample_reads_each_draw_key_once():
    """Each drawn profile's key is read once and looked up in a set, so a large `--profiles`
    request costs time linear in the draws, not quadratic in the profiles kept."""
    rng, keys = random.Random(2), []
    draw = lambda k: generators.random_economy(rng, f"R{k}", 4)  # noqa: E731
    kept = generators._distinct(3000, [24] * 4, draw, lambda e: keys.append(e.orders) or e.orders)
    assert len({e.orders for e in kept}) == 3000 and len(keys) < 3100


@pytest.mark.parametrize(
    "kind, cap", [("jobs-common-best", 6), ("jobs-hat", 6), ("marriage", 5), ("economy", 4)]
)
def test_domain_sample_refuses_agents_beyond_the_enumeration_cap(capsys, kind, cap):
    # no command could compile a larger sample, so it is refused before any sampling
    argv = ("domain", "--sample", kind, "--profiles", "1")
    code, out, err = _run(capsys, *argv, "--agents", str(cap + 1), "--format", "json")
    assert code == 3 and out == ""
    error = f"--sample {kind} beyond {cap} agents is refused"
    assert json.loads(err) == {"error": error, "path": None, "exit": 3}
    code, out, err = _run(capsys, *argv, "--agents", str(cap + 1))
    assert code == 3 and out == "" and err == f"search refused: {error}\n"
    code, out, _ = _run(capsys, *argv, "--agents", str(cap))
    assert code == 0 and json.loads(out)["profiles"]


_ECONOMY_PROFILE = {
    "id": "R",
    "orders": [["h2", "h3", "h1", "h0"], ["h3", "h1", "h2", "h0"], ["h1", "h2", "h3", "h0"]],
}
# the gamma list of fixtures/example-environment.json, with a fifth entry that
# repeats the (x, y) pair of the first one
_EXTRA_XY_GAMMA = [
    {"from": "x", "to": "y", "coalitions": [[2]]},
    {"from": "y", "to": "x", "coalitions": [[0], [1]]},
    {"from": "z", "to": "y", "coalitions": [[0, 1], [0, 2], [1, 2], [0, 1, 2]]},
    {"from": "x", "to": "z", "coalitions": [[0, 1], [0, 2], [1, 2], [0, 1, 2]]},
    {"from": "x", "to": "y"},
]


@pytest.mark.parametrize(
    "doc, named",
    [
        ({"kind": "jobs", "jobs": ["j1"], "profiles": [{"id": "P", "orders": [["j1"]]}]},
         ("a job rotation problem needs at least two jobs", "$.jobs")),
        ({"kind": "marriage", "men": ["m1", "m2"], "women": ["w1"], "pure": True,
          "profiles": [{"id": "R", "men": {}, "women": {}}]},
         ("the pure model needs equally sized sides", "$.pure")),
    ],
)
def test_domain_check_names_json_path(capsys, tmp_path, doc, named):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    code, out, err = _run(capsys, "domain", str(path), "--format", "json")
    assert code == 1 and out == ""
    assert json.loads(err) == {"error": named[0], "path": named[1], "exit": 1}


_DROP = object()  # an edit value that removes the field


def _fixture_with(name, *edits):
    """fixtures/NAME.json with each (where, value) edit applied."""
    root = pathlib.Path(__file__).resolve().parent.parent / "fixtures"
    doc = json.loads((root / f"{name}.json").read_text())
    for where, value in edits:
        parent = doc
        for key in where[:-1]:
            parent = parent[key]
        if value is _DROP:
            del parent[where[-1]]
        else:
            parent[where[-1]] = value
    return doc


@pytest.mark.parametrize(
    "fixture, where, value, argv, named",
    [
        ("example-environment", ("alternatives",), 7, ("check", "--condition", "maskin"),
         "$.alternatives"),
        ("example-environment", ("profiles",), 7, ("check", "--condition", "maskin"),
         "$.profiles"),
        ("example-environment", ("profiles", 0, "ranks"), None,
         ("check", "--condition", "maskin"), "$.profiles[0].ranks"),
        ("example-environment", ("rights", "states"), 7, ("solve", "--profile", "R",
         "--concept", "mss"), "$.rights.states"),
        ("example-environment", ("rights", "states", 1), ["y"], ("solve", "--profile", "R",
         "--concept", "mss"), "$.rights.states[1]"),
        ("example-environment", ("rights", "gamma", 2, "coalitions"), 7, ("solve",
         "--profile", "R", "--concept", "mss"), "$.rights.gamma[2].coalitions"),
        ("example-environment", ("rights", "gamma", 2, "coalitions", 1), ["a"], ("solve",
         "--profile", "R", "--concept", "mss"), "$.rights.gamma[2].coalitions"),
        ("example-environment", ("scr", "Rp"), 7, ("check", "--condition", "maskin"),
         "$.scr.Rp"),
        # a list field is refused whole when it is no list, not entry by entry
        ("example-environment", ("profiles",), "ab", ("check", "--condition", "maskin"),
         ("$.profiles: expected a list", "$.profiles")),
        ("example-environment", ("rights", "states"), {"a": 1}, ("solve", "--profile", "R",
         "--concept", "mss"), ("$.rights.states: expected a list", "$.rights.states")),
        ("example-environment", ("rights", "gamma"), {}, ("solve", "--profile", "Rp",
         "--concept", "mss"), ("$.rights.gamma: expected a list", "$.rights.gamma")),
        ("jobs-domain", ("jobs",), 7, ("domain",), "$.jobs"),
        ("jobs-domain", ("profiles", 1, "orders"), 7, ("domain",), "$.profiles[1].orders"),
        ("economy-domain", ("owners",), ["h1"], ("domain",), "$.owners"),
        ("economy-domain", ("owners", "h2"), 7, ("domain",), "$.owners.h2"),
        ("economy-domain", ("owners", "h2"), ["b"], ("domain",), "$.owners.h2"),
        ("economy-domain", ("houses",), 7, ("domain",), "$.houses"),
        ("economy-domain", ("profiles", 0, "orders"), 7, ("solve", "--profile", "R",
         "--concept", "core"), "$.profiles[0].orders"),
        ("marriage-domain", ("profiles", 1, "women"), [], ("domain",),
         "$.profiles[1].women"),
        # id lists take strings only, and a string is not a list of characters
        ("jobs-domain", ("jobs",), [7, "j2", "j3"], ("domain",), "$.jobs[0]"),
        ("marriage-domain", ("men",), [7, "m2", "m3"], ("domain",), "$.men[0]"),
        ("marriage-domain", ("women",), ["w1", "w2", 7], ("domain",), "$.women[2]"),
        ("economy-domain", ("houses",), [["q"], "h2", "h3"], ("domain",), "$.houses[0]"),
        ("example-environment", ("alternatives",), [["q"], "y", "z"],
         ("check", "--condition", "maskin"), "$.alternatives[0]"),
        ("example-environment", ("alternatives",), "xyz", ("solve", "--profile", "R",
         "--concept", "mss"), "$.alternatives"),
        ("example-environment", ("scr", "Rp"), "xy", ("check", "--condition", "maskin"),
         "$.scr.Rp"),
        ("example-environment", ("scr", "Rp"), ["x", 7], ("check", "--condition", "maskin"),
         "$.scr.Rp[1]"),
        # so do preference orders and rank rows
        ("jobs-domain", ("profiles", 0, "orders", 1, 0), 7, ("domain",),
         "$.profiles[0].orders[1][0]"),
        ("economy-domain", ("profiles", 0, "orders", 2), "h1h2", ("domain",),
         "$.profiles[0].orders[2]"),
        ("marriage-domain", ("profiles", 0, "men", "m2", 1), None, ("domain",),
         "$.profiles[0].men.m2[1]"),
        ("marriage-domain", ("pure",), "false", ("domain",), "$.pure"),
        ("example-environment", ("profiles", 1, "ranks", 2, 0), "1",
         ("check", "--condition", "maskin"), "$.profiles[1].ranks[2][0]"),
        # agent indices and counts are JSON integers, not bools, floats or strings
        ("example-environment", ("agents",), 3.5, ("check", "--condition", "maskin"),
         "$.agents"),
        ("example-environment", ("agents",), "3", ("check", "--condition", "maskin"),
         "$.agents"),
        ("example-environment", ("agents",), True, ("check", "--condition", "maskin"),
         "$.agents"),
        ("economy-domain", ("agents",), 3.0, ("domain",), "$.agents"),
        ("example-environment", ("rights", "gamma", 0, "coalitions"), [[2.9]], ("solve",
         "--profile", "R", "--concept", "mss"), "$.rights.gamma[0].coalitions"),
        ("example-environment", ("rights", "gamma", 1, "coalitions"), [[True]], ("solve",
         "--profile", "R", "--concept", "mss"), "$.rights.gamma[1].coalitions"),
        ("example-environment", ("rights", "gamma", 1, "coalitions"), [["0"]], ("solve",
         "--profile", "R", "--concept", "mss"), "$.rights.gamma[1].coalitions"),
        ("economy-domain", ("owners", "h2"), [1.0], ("domain",), "$.owners.h2"),
        ("economy-domain", ("owners", "h3"), [False], ("domain",), "$.owners.h3"),
        # ids, outcomes, gamma endpoints, rules and the outside option are JSON strings
        ("example-environment", ("profiles", 0, "id"), None, ("check", "--condition",
         "maskin"), "$.profiles[0].id"),
        ("example-environment", ("rights", "states", 1, "id"), 7, ("solve", "--profile", "R",
         "--concept", "mss"), "$.rights.states[1].id"),
        ("example-environment", ("rights", "states", 2, "outcome"), ["z"], ("solve",
         "--profile", "R", "--concept", "mss"), "$.rights.states[2].outcome"),
        ("example-environment", ("rights", "states", 0, "profile"), 7, ("solve",
         "--profile", "R", "--concept", "mss"), "$.rights.states[0].profile"),
        ("example-environment", ("rights", "states", 0, "profile"), None, ("solve",
         "--profile", "R", "--concept", "mss"), "$.rights.states[0].profile"),
        ("example-environment", ("rights", "states", 0),
         {"id": "x", "kind": "graph", "outcome": "x", "profile": None},
         ("solve", "--profile", "R", "--concept", "mss"), "$.rights.states[0].profile"),
        ("example-environment", ("rights", "states", 0, "kind"), "graph", ("solve",
         "--profile", "R", "--concept", "mss"), "missing field $.rights.states[0].profile"),
        ("example-environment", ("rights", "gamma", 1, "from"), ["x"], ("solve",
         "--profile", "R", "--concept", "mss"), "$.rights.gamma[1].from"),
        ("example-environment", ("rights", "gamma", 0, "to"), None, ("solve",
         "--profile", "R", "--concept", "mss"), "$.rights.gamma[0].to"),
        ("example-environment", ("rights", "gamma", 0, "rule"), 7, ("solve",
         "--profile", "R", "--concept", "mss"), "$.rights.gamma[0].rule"),
        ("jobs-domain", ("profiles", 0, "id"), 7, ("domain",), "$.profiles[0].id"),
        ("marriage-domain", ("profiles", 1, "id"), ["R"], ("domain",), "$.profiles[1].id"),
        ("economy-domain", ("profiles", 0, "id"), False, ("domain",), "$.profiles[0].id"),
        ("economy-domain", ("outside",), None, ("domain",), "$.outside"),
        ("jobs-domain", ("kind",), [], ("domain",), "not a domain document"),
        # the rights structure's own checks carry no path in their message, and
        # the JSON report names the offending value
        ("example-environment", ("rights", "states", 2, "id"), "x", ("solve", "--profile",
         "R", "--concept", "mss"), ("duplicate state keys", "$.rights.states[2].id")),
        ("example-environment", ("rights", "states"), [], ("solve", "--profile", "R",
         "--concept", "mss"), ("rights structure needs at least one state",
                               "$.rights.states")),
        ("example-environment", ("rights", "gamma", 0, "to"), "w", ("solve", "--profile",
         "R", "--concept", "mss"), ("gamma entry on unknown state pair ('x', 'w')",
                                    "$.rights.gamma[0].to")),
        ("example-environment", ("rights", "gamma", 2, "from"), "w", ("solve", "--profile",
         "R", "--concept", "mss"), ("gamma entry on unknown state pair ('w', 'y')",
                                    "$.rights.gamma[2].from")),
        ("example-environment", ("rights", "gamma", 0, "to"), "x", ("solve", "--profile",
         "R", "--concept", "mss"), ("gamma is defined on distinct pairs only",
                                    "$.rights.gamma[0].to")),
        ("example-environment", ("rights", "gamma", 1, "coalitions"), [[0], []], ("solve",
         "--profile", "R", "--concept", "mss"), ("coalitions must be nonempty",
                                                 "$.rights.gamma[1].coalitions")),
        ("example-environment", ("rights", "gamma", 2, "coalitions", 0), [0, -1], ("solve",
         "--profile", "R", "--concept", "mss"), ("agent indices must be nonnegative",
                                                 "$.rights.gamma[2].coalitions")),
        ("example-environment", ("rights", "gamma", 3, "coalitions"), [[3]], ("solve",
         "--profile", "R", "--concept", "mss"),
         ("gamma mentions an agent index outside the profile",
          "$.rights.gamma[3].coalitions")),
        ("example-environment", ("rights", "states", 1, "outcome"), "w", ("solve",
         "--profile", "R", "--concept", "mss"), ("state 'y' has unknown outcome 'w'",
                                                 "$.rights.states[1].outcome")),
        # so do the SCR table's checks
        ("example-environment", ("scr", "Rp"), ["q"], ("check", "--condition", "maskin"),
         ("choice at 'Rp' outside Z: ['q']", "$.scr.Rp")),
        ("example-environment", ("scr", "Rp"), [], ("check", "--condition", "maskin"),
         ("empty choice set at profile 'Rp'", "$.scr.Rp")),
        ("example-environment", ("scr", "Rq"), ["x"], ("check", "--condition", "maskin"),
         ("choice table must cover exactly the domain profiles", "$.scr")),
        ("example-environment", ("profiles",), [], ("check", "--condition", "maskin"),
         ("SCR needs a nonempty profile domain", "$.profiles")),
        # a repeated profile id is refused where it repeats, in every document kind
        ("example-environment", ("profiles", 1, "id"), "R", ("solve", "--profile", "R",
         "--concept", "mss"), ("$.profiles[1].id: duplicate profile id 'R'", "$.profiles[1].id")),
        ("jobs-domain", ("profiles", 2, "id"), "P", ("domain",),
         ("$.profiles[2].id: duplicate profile id 'P'", "$.profiles[2].id")),
        ("marriage-domain", ("profiles", 1, "id"), "R", ("check", "--condition", "maskin"),
         ("$.profiles[1].id: duplicate profile id 'R'", "$.profiles[1].id")),
        ("economy-domain", ("profiles",), [_ECONOMY_PROFILE] * 2, ("solve", "--profile", "R",
         "--concept", "mss"), ("$.profiles[1].id: duplicate profile id 'R'", "$.profiles[1].id")),
        # a refused coalition or agent in a repeated gamma pair names its own entry
        ("example-environment", ("rights", "gamma"),
         _EXTRA_XY_GAMMA[:4] + [{**_EXTRA_XY_GAMMA[4], "coalitions": [[7]]}],
         ("solve", "--profile", "R", "--concept", "mss"),
         ("gamma mentions an agent index outside the profile", "$.rights.gamma[4].coalitions")),
        ("example-environment", ("rights", "gamma"),
         _EXTRA_XY_GAMMA[:4] + [{**_EXTRA_XY_GAMMA[4], "coalitions": [[0], []]}],
         ("solve", "--profile", "R", "--concept", "mss"),
         ("coalitions must be nonempty", "$.rights.gamma[4].coalitions")),
        # the domain problems' own checks name the field they refuse
        ("jobs-domain", ("profiles", 0, "orders", 0), ["j1", "j1", "j2"], ("check",
         "--condition", "maskin"), ("agent 0 order is not a permutation of the jobs",
                                    "$.profiles[0].orders[0]")),
        ("jobs-domain", ("profiles", 1, "orders"), [["j1", "j2", "j3"]] * 2, ("domain",),
         ("need exactly one agent per job", "$.profiles[1].orders")),
        ("jobs-domain", ("jobs",), ["j1", "j1", "j3"], ("domain",),
         ("duplicate job ids", "$.jobs")),
        ("jobs-domain", ("jobs",), ["j1", "j2", "j,3"], ("domain",),
         ("job ids may not contain commas", "$.jobs")),
        ("marriage-domain", ("profiles", 0, "men", "m1"), ["w2", "w3", "w1"], ("domain",),
         ("bad preference list for 'm1'", "$.profiles[0].men.m1")),
        ("marriage-domain", ("profiles", 1, "women", "w3"), ["m1", "m2", "m3", "w3", "w3"],
         ("domain",), ("bad preference list for 'w3'", "$.profiles[1].women.w3")),
        ("marriage-domain", ("pure",), True, ("domain",),
         ("bad preference list for 'm1'", "$.profiles[0].men.m1")),
        ("marriage-domain", ("men",), [], ("domain",),
         ("both sides must be nonempty", "$.men")),
        ("marriage-domain", ("men",), ["m1", "m1", "m3"], ("domain",),
         ("agent names must be unique across sides", "$.men")),
        ("marriage-domain", ("women",), ["w1", "w2", "m3"], ("domain",),
         ("agent names must be unique across sides", "$.women")),
        ("marriage-domain", ("women",), ["w1", "w2", "w:3"], ("domain",),
         ("agent names may not contain ':' or ','", "$.women")),
        ("economy-domain", ("owners", "h2"), [9], ("domain",),
         ("owner coalition of 'h2' mentions an unknown agent", "$.owners.h2")),
        ("economy-domain", ("owners", "h2"), [], ("solve", "--profile", "R", "--concept",
         "core"), ("coalitions must be nonempty", "$.owners.h2")),
        ("economy-domain", ("owners", "h3"), [2, -1], ("domain",),
         ("agent indices must be nonnegative", "$.owners.h3")),
        ("economy-domain", ("owners",), {"h1": [0], "h2": [1]}, ("domain",),
         ("every house needs a minimal controlling coalition", "$.owners")),
        ("economy-domain", ("houses",), ["h1", "h1", "h3"], ("domain",),
         ("duplicate house ids", "$.houses")),
        ("economy-domain", ("houses",), ["h1", "h,2", "h3"], ("domain",),
         ("house ids may not contain commas", "$.houses")),
        ("economy-domain", ("outside",), "h1", ("domain",),
         ("the outside option must not be a house", "$.outside")),
        ("economy-domain", ("outside",), "h,0", ("domain",),
         ("house ids may not contain commas", "$.outside")),
        ("economy-domain", ("profiles", 0, "orders"), _ECONOMY_PROFILE["orders"][:2],
         ("domain",), ("need one preference order per agent", "$.profiles[0].orders")),
        ("economy-domain", ("profiles", 0, "orders", 1), ["h3", "h1", "h2"], ("check",
         "--condition", "maskin"), ("agent 1 order is not a permutation of houses+outside",
                                    "$.profiles[0].orders[1]")),
        # an empty domain document has no profile to build
        ("jobs-domain", ("profiles",), [], ("domain",),
         ("need at least one job rotation problem", "$.profiles")),
        ("marriage-domain", ("profiles",), [], ("check", "--condition", "maskin"),
         ("need at least one marriage problem", "$.profiles")),
        ("economy-domain", ("profiles",), [], ("construct", "--theorem", "1"),
         ("need at least one economy", "$.profiles")),
        # an unknown kind is the reader's refusal, at the kind's path
        *(("example-environment", ("rights", "states", 0, "kind"), kind, ("solve", "--profile",
           "R", "--concept", "mss"), (f"$.rights.states[0].kind: unknown kind {kind!r}",
                                      "$.rights.states[0].kind"))
          for kind in ("weird", None, ["x"])),
        ("example-environment", ("profiles", 0, "ranks"), [[0, 1, 2]] * 2, ("check",
         "--condition", "maskin"), ("$.profiles[0].ranks: expected 3 agent rows",
                                    "$.profiles[0].ranks")),
        # so do a profile's own checks
        ("example-environment", ("alternatives",), ["x", "x", "z"], ("check", "--condition",
         "maskin"), ("duplicate alternative ids", "$.alternatives")),
        ("example-environment", ("profiles", 0, "ranks", 1), [0, 1], ("check", "--condition",
         "maskin"), ("rank vector has 2 entries for 3 alternatives", "$.profiles[0].ranks")),
        # a document with no rights block names the block it lacks
        ("example-environment", ("rights",), _DROP, ("solve", "--profile", "R", "--concept",
         "mss"), ("document has no rights block; cannot build an environment", "$.rights")),
    ],
)
def test_malformed_document_names_json_path(capsys, tmp_path, fixture, where, value, argv,
                                            named):
    """`named` starts the error message, and the JSON path reported is the one it
    names; a (message, path) pair is a message that names no path, and the path."""
    if isinstance(named, tuple):
        message, path = named
    else:
        message, path = named, next((w for w in named.split() if w.startswith("$")), None)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(_fixture_with(fixture, (where, value))))
    code, out, err = _run(capsys, argv[0], str(bad), *argv[1:])
    assert code == 1 and out == ""
    assert f"error: {message}" in err and "Traceback" not in err
    code, out, err = _run(capsys, argv[0], str(bad), *argv[1:], "--format", "json")
    report = json.loads(err)
    assert code == 1 and out == "" and err.count("\n") == 1
    assert report["error"].startswith(message)
    assert report["path"] == path


def test_commands_leave_no_garbage_cycles():
    """`main` keeps the cyclic collector off for a command, which is safe only while
    refcounting frees the command's data: run with the collector off, neither a run that
    stops at an unreadable file nor any fixture command may leave an unreachable object
    behind.  The parser, which holds cycles, is built once, when the module is imported."""
    gc.collect()
    gc.freeze()  # each collection below scans only what the last command left
    gc.disable()
    try:
        for argv in [["solve", "no-such.json", "--profile", "R", "--concept", "mss"], *cases()]:
            run_case(main, argv)
            assert gc.collect() == 0, argv
    finally:
        gc.enable()
        gc.unfreeze()


def _fresh_env() -> dict:
    """The environment of a fresh interpreter that imports this rotakit."""
    return {**os.environ, "PYTHONPATH": str(pathlib.Path(rotakit.__file__).parents[1])}


def test_the_parser_built_at_import_serves_every_call_in_a_process(capsys):
    """`main` parses with the one parser built when the module is imported: in one process,
    a parse failure, then a solve, then a check each print and exit as in a fresh process."""
    env = str(ROOT / "fixtures" / "example-environment.json")
    for argv in (
        ["solve", env, "--profile", "Rp", "--concept", "nothing"],
        ["solve", env, "--profile", "Rp", "--concept", "mss"],
        ["check", env, "--condition", "maskin", "--format", "json"],
    ):
        fresh = subprocess.run([sys.executable, "-m", "rotakit.cli", *argv], env=_fresh_env(),
                               capture_output=True, text=True, timeout=60)
        assert _run(capsys, *argv) == (fresh.returncode, fresh.stdout, fresh.stderr), argv
        assert fresh.returncode == (1 if argv[-1] == "nothing" else 0)


def test_no_command_reads_the_environment():
    """A command's bytes and exit code depend only on its arguments: with ROTAKIT_CAPS set,
    a variable that once overrode the caps, in a fresh interpreter each search command still
    prints its golden and exits with the golden's code."""
    index = json.loads((GOLDEN / "index.json").read_text())
    names = (
        "check_example-environment_condition_rotation_format_json",
        "solve_example-environment_profile_R_concept_generalized_format_json",
        "construct_example-environment_theorem_4_format_json",
    )
    for caps in ("ordering=1,product=1", "ordring"):
        for name in names:
            case = index[name]
            argv = [str(ROOT / a) if a.startswith("fixtures/") else a for a in case["argv"]]
            fresh = subprocess.run([sys.executable, "-m", "rotakit.cli", *argv],
                                   env={**_fresh_env(), "ROTAKIT_CAPS": caps},
                                   capture_output=True, timeout=60)
            assert hashlib.sha256(fresh.stdout).hexdigest() == case["sha256"], (caps, name)
            assert (fresh.returncode, fresh.stderr) == (case["exit"], b""), (caps, name)
    assert [index[name]["exit"] for name in names] == [0, 0, 4]


def test_generalized_refuses_selections_beyond_the_product_cap(capsys, tmp_path):
    """13 two-state improvement cycles are 13 absorbing sets, one of two states each, so a
    generalized stable set is one of 2**13 = 8,192 selections: past the cap of 4,096."""
    states, gamma = [], []
    for i in range(13):
        states += [{"id": f"a{i}", "outcome": "u"}, {"id": f"b{i}", "outcome": "v"}]
        gamma += [{"from": f"a{i}", "to": f"b{i}", "coalitions": [[0]]},
                  {"from": f"b{i}", "to": f"a{i}", "coalitions": [[1]]}]
    path = tmp_path / "cycles.json"
    path.write_text(json.dumps({
        "alternatives": ["u", "v"], "agents": 2,
        "profiles": [{"id": "R", "ranks": [[1, 0], [0, 1]]}],
        "rights": {"states": states, "gamma": gamma},
    }))
    argv = ("solve", str(path), "--profile", "R", "--format", "json")
    code, out, err = _run(capsys, *argv, "--concept", "generalized")
    assert (code, out) == (3, "") and err.count("\n") == 1
    error = "8192 candidate selections exceed the cap of 4096"
    assert json.loads(err) == {"error": error, "path": None, "exit": 3}
    code, out, _ = _run(capsys, *argv, "--concept", "absorbing")
    assert code == 0
    assert sorted(json.loads(out)["sets"]) == sorted([f"a{i}", f"b{i}"] for i in range(13))


@pytest.mark.parametrize("argv", [
    ("export-dot", "--profile", "R"),
    ("solve", "--profile", "R", "--concept", "mss"),
], ids=["export-dot", "solve-text"])
def test_stdout_gets_the_bytes_out_writes(tmp_path, argv):
    """A body with a non-ASCII state id goes to stdout as the UTF-8 bytes `--out` writes, even
    where stdout's own encoding cannot encode it."""
    doc = _fixture_with("example-environment", (("rights", "states", 0, "id"), "é"))
    for entry in doc["rights"]["gamma"]:
        entry.update({k: "é" for k in ("from", "to") if entry[k] == "x"})
    path = tmp_path / "accented.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / "out.txt"
    command = [sys.executable, "-m", "rotakit.cli", argv[0], str(path), *argv[1:]]
    env = {**_fresh_env(), "PYTHONIOENCODING": "ascii"}
    piped = subprocess.run(command, env=env, capture_output=True, timeout=60)
    written = subprocess.run([*command, "--out", str(out)], env=env, capture_output=True,
                             timeout=60)
    assert (piped.returncode, piped.stderr, written.returncode) == (0, b"", 0)
    assert "é".encode() in piped.stdout and piped.stdout == out.read_bytes()


_FIRST_USE = """
import contextlib, io, json, sys
before = set(sys.modules)
import rotakit.cli
loaded = set(sys.modules) - before
stdout = io.StringIO()
with contextlib.redirect_stdout(stdout):
    code = rotakit.cli.main(json.loads(sys.argv[1]))
heavy = [m for m in loaded if m in ("dataclasses", "inspect") or m.startswith("rotakit.domains")]
domains = [m for m in sys.modules if m.startswith("rotakit.domains")]
print(json.dumps({"loaded": sorted(heavy), "then": sorted(domains), "exit": code,
                  "stdout": stdout.getvalue()}))
"""


@pytest.mark.parametrize("name", [
    "construct_marriage-domain_theorem_4_verify_rotation_format_text",
    "solve_economy-domain_profile_R_concept_mss_format_json",
])
def test_import_loads_no_dataclasses_inspect_or_domain_module(name):
    """A fresh `import rotakit.cli` loads neither `dataclasses` nor `inspect` nor any
    `rotakit.domains` module; the first domain document then loads the domains, and the
    command prints its golden output."""
    case = json.loads((GOLDEN / "index.json").read_text())[name]
    argv = [str(ROOT / a) if a.startswith("fixtures/") else a for a in case["argv"]]
    run = subprocess.run([sys.executable, "-c", _FIRST_USE, json.dumps(argv)], env=_fresh_env(),
                         capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    assert json.loads(run.stdout) == {
        "loaded": [],
        "then": [f"rotakit.domains{m}" for m in ("", ".housing", ".jobs", ".marriage")],
        "exit": case["exit"],
        "stdout": (GOLDEN / f"{name}.out").read_text(),
    }


@pytest.mark.parametrize("argv, code", [
    (["solve", "fixtures/example-environment.json", "--profile", "Rp", "--concept", "mss"], 0),
    (["solve", "no-such.json", "--profile", "R", "--concept", "mss"], 1),
    (["solve", "--help"], None),
])
@pytest.mark.parametrize("enabled", [True, False])
def test_main_restores_the_callers_collector(argv, code, enabled):
    """After a return, an input error or argparse's SystemExit, the collector is on
    exactly when it was on before the call."""
    (gc.enable if enabled else gc.disable)()
    try:
        if code is None:
            with pytest.raises(SystemExit):
                run_case(main, argv)
        else:
            assert run_case(main, argv)[0] == code
        assert gc.isenabled() is enabled
    finally:
        gc.enable()


def test_commands_leave_the_rights_views_unbuilt(monkeypatch):
    """A rights structure's `states`, `gamma` and `provenance` are built from its rows on
    first read, and no fixture command that succeeds reads `gamma` or `provenance` but the
    backward clause (iii) of a rotation check, nor `states` but a `construct`, which writes
    them; the economy `solve` and the Theorem-4 `construct` are among them."""
    built = []
    compile_rows = RightsStructure._compile

    def recorded(structure, states, entries, agents=None):
        compile_rows(structure, states, entries, agents)
        built.append(structure)

    monkeypatch.setattr(RightsStructure, "_compile", recorded)
    seen = set()
    for argv in cases():
        built.clear()
        if run_case(main, argv)[0] != 0 or "--backward-iii" in argv:
            continue
        for structure in built:
            assert "_table" not in vars(structure.gamma), argv
            assert "_table" not in vars(structure.provenance), argv
            assert argv[0] == "construct" or "states" not in vars(structure), argv
        seen.update(" ".join(argv[:3]) for _ in built)
    assert "solve fixtures/economy-domain.json --profile" in seen
    assert any(command.startswith("export-dot") for command in seen)
    assert {f"construct fixtures/{f}-domain.json --theorem" for f in ("jobs", "marriage")} <= seen


@pytest.mark.parametrize(
    "doc, message, path",
    [
        ([_fixture_with("example-environment")], "top-level JSON value must be an object", "$"),
        # a profile's own check, named at the field it refuses
        (_fixture_with("example-environment", (("agents",), 0), (("profiles", 0, "ranks"), [])),
         "profile needs at least one agent", "$.agents"),
    ],
    ids=["top-level-list", "zero-agents"],
)
def test_refusal_is_one_json_line(capsys, tmp_path, doc, message, path):
    """Each refusal exits 1 with exactly one line of JSON on stderr, whose message ends
    with `message` and whose path is `path`, and with the same message as text."""
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    argv = ("check", str(bad), "--condition", "maskin")
    code, out, err = _run(capsys, *argv, "--format", "json")
    assert code == 1 and out == "" and err.count("\n") == 1 and err.endswith("\n")
    report = json.loads(err)
    assert report["error"].endswith(message) and report["path"] == path and report["exit"] == 1
    code, out, err = _run(capsys, *argv)
    assert code == 1 and out == "" and err == f"error: {report['error']}\n"
