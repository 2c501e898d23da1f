"""Command-line verbs, JSON reports, and the exit-code contract."""

import json
import os
import subprocess
import sys

import pytest

import biplane_schemes
from biplane_schemes import cli
from biplane_schemes.binmat import (
    BinaryMatrix,
    WitnessError,
    _Trap,
    doubled,
    format_matrix,
    identity,
)
from biplane_schemes import extract
from biplane_schemes import search as search_mod
from biplane_schemes.extract import CounterexampleError
from biplane_schemes.pbibd import InconsistencyError
from biplane_schemes.scheme import InternalInconsistencyError, NotASchemeError
from biplane_schemes.search import SearchBugError

TRAPS = (CounterexampleError, InconsistencyError, InternalInconsistencyError,
         SearchBugError, WitnessError)


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run_cli(capsys, *argv)
    payload = json.loads(out) if out.strip() else None
    return code, payload, err


@pytest.fixture()
def fixture_dir(tmp_path, capsys):
    target = tmp_path / "fx"
    code, payload, _ = run_json(capsys, "fixtures", "--out", str(target))
    assert code == 0
    assert payload["schema_version"] == 2
    return target


def test_verify_biplane(fixture_dir, capsys):
    code, payload, _ = run_json(capsys, "verify", str(fixture_dir / "b4c.txt"))
    assert code == 0
    assert payload["verified"] is True
    assert payload["kind"] == "biplane"
    assert payload["design"] == {
        "k": 6, "v": 16, "order": 4,
        "canonical": True, "full_trace": True, "symmetric": True,
    }


def test_verify_pbibd(fixture_dir, capsys):
    code, payload, _ = run_json(capsys, "verify", str(fixture_dir / "core16_2.txt"))
    assert code == 0
    assert payload["kind"] == "pbibd"
    assert payload["design"]["lambda"] == [0, 1, 2]
    assert payload["design"]["n"] == [11, 2, 2]


def test_verify_false(tmp_path, capsys):
    path = tmp_path / "id4.txt"
    path.write_text(format_matrix(identity(4)))
    code, payload, _ = run_json(capsys, "verify", str(path))
    assert code == 1
    assert payload["verified"] is False
    assert "biplane" in payload["reasons"] and "pbibd" in payload["reasons"]


def test_verify_one_point_is_no_biplane(tmp_path, capsys):
    path = tmp_path / "one.txt"
    path.write_text("1 1\n1\n")
    code, payload, _ = run_json(capsys, "verify", str(path))
    assert code == 1
    assert payload["verified"] is False
    assert payload["reasons"] == {
        "biplane": "1 point: no pair of points witnesses lambda = 2",
        "pbibd": "degenerate: no pair of points ever concurs",
    }


def test_verify_not_even_uniform(tmp_path, capsys):
    path = tmp_path / "bad.txt"
    path.write_text("2 2\n1 1\n1 0\n")
    code, payload, _ = run_json(capsys, "verify", str(path))
    assert code == 1
    assert payload["verified"] is False


def test_missing_and_malformed_files(tmp_path, capsys):
    code, _, err = run_cli(capsys, "verify", str(tmp_path / "absent.txt"))
    assert code == 2
    assert "error:" in err

    bad = tmp_path / "bad.txt"
    bad.write_text("2 2\n1 x\nx 1\n")
    code, _, err = run_cli(capsys, "verify", str(bad))
    assert code == 2


@pytest.mark.parametrize("verb, name", [("verify", "b4c.txt"), ("extract", "b4c.txt"),
                                        ("scheme", "relation6.txt")])
def test_a_file_that_is_not_utf8_exits_2_naming_the_byte(fixture_dir, capsys, verb, name):
    path = fixture_dir / name
    data = bytearray(path.read_bytes())
    data[4] = 0xFF
    path.write_bytes(bytes(data))
    code, out, err = run_cli(capsys, verb, str(path))
    assert (code, out) == (2, "")
    assert err == (f"error: {path}: 'utf-8' codec can't decode byte 0xff in position 4:"
                   " invalid start byte\n")


@pytest.mark.parametrize("verb", ["verify", "extract"])
def test_matrix_above_the_point_cap_exits_2_before_any_table(tmp_path, capsys,
                                                              monkeypatch, verb):
    # 20000 x 1 all ones is regular and uniform, so verify would go on to
    # the 20000 x 20000 concurrence table
    def no_table(self):
        raise AssertionError("a whole-matrix table was built")

    monkeypatch.setattr(BinaryMatrix, "row_dots", no_table)
    monkeypatch.setattr(BinaryMatrix, "_unpacked", no_table)
    path = tmp_path / "tall.txt"
    path.write_text("20000 1\n" + "1\n" * 20000)
    code, out, err = run_cli(capsys, verb, str(path))
    assert (code, out) == (2, "")
    assert err == (f"error: {path}: v = 20000 points is above the cap of 5000"
                   " (verify and extract build v x v tables)\n")


def test_point_cap_boundary(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(cli, "MAX_POINTS", 4)
    at_cap, above = tmp_path / "at.txt", tmp_path / "above.txt"
    at_cap.write_text("4 1\n" + "1\n" * 4)
    above.write_text("5 1\n" + "1\n" * 5)
    code, payload, _ = run_json(capsys, "verify", str(at_cap))
    assert (code, payload["kind"], payload["design"]["v"]) == (0, "pbibd", 4)
    assert run_json(capsys, "extract", str(at_cap))[0] == 1
    for verb in ("verify", "extract"):
        code, out, err = run_cli(capsys, verb, str(above))
        assert (code, out) == (2, "")
        assert "v = 5 points is above the cap of 4" in err


def test_usage_errors(capsys):
    assert run_cli(capsys, "bogus")[0] == 2
    assert run_cli(capsys)[0] == 2
    assert run_cli(capsys, "--help")[0] == 0
    assert run_cli(capsys, "search", "--help")[0] == 0
    assert run_cli(capsys, "verify")[0] == 2
    assert run_cli(capsys, "search", "--k", "4", "--nonsense")[0] == 2


def test_the_parser_is_built_once():
    assert cli._build_parser() is cli._build_parser()


def test_an_option_does_not_carry_over_to_the_next_call(fixture_dir, tmp_path, capsys):
    b4c = str(fixture_dir / "b4c.txt")
    core_path = tmp_path / "core.txt"
    assert run_cli(capsys, "extract", b4c, "--core-out", str(core_path))[0] == 0
    core_path.unlink()
    before = sorted(os.listdir(tmp_path))
    assert run_cli(capsys, "extract", b4c)[0] == 0
    assert sorted(os.listdir(tmp_path)) == before


def test_a_usage_error_leaves_the_next_call_unaffected(fixture_dir, capsys):
    b4c = str(fixture_dir / "b4c.txt")
    first = run_cli(capsys, "verify", b4c)
    for bad in (["search", "--k", "4", "--nonsense"], ["extract", b4c, "--core-out"],
                ["family", "--m", "x"], ["verify"]):
        code, out, err = run_cli(capsys, *bad)
        assert (code, out) == (2, "")
        assert err.startswith("usage: biplane-schemes")
    assert run_cli(capsys, "verify", b4c) == first


@pytest.mark.parametrize("argv", [["--help"], ["search", "--help"]])
def test_help_twice_gives_the_same_text(capsys, argv):
    first = run_cli(capsys, *argv)
    assert first[0] == 0
    assert first[1].startswith("usage: biplane-schemes")
    assert run_cli(capsys, *argv) == first


def test_search_help_states_the_pool_threshold(capsys):
    # the help text spells the threshold out, so that building the parser
    # does not import search
    code, out, _ = run_cli(capsys, "search", "--help")
    assert code == 0
    assert f" passes {search_mod._POOL_AFTER_NODES:,} nodes " in " ".join(out.split())


def package_env():
    """The environment for a fresh process that imports this package."""
    src = os.path.dirname(os.path.dirname(biplane_schemes.__file__))
    return {**os.environ, "PYTHONPATH": src}


def without_elapsed(out):
    # the search report's wall time is the one field that differs by run
    payload = json.loads(out)
    payload.pop("elapsed_seconds", None)
    return payload


def test_verbs_repeated_in_process_match_a_fresh_process(fixture_dir, capsys):
    b4c = str(fixture_dir / "b4c.txt")
    core16 = str(fixture_dir / "core16_1.txt")
    for argv in (["verify", b4c], ["verify", core16],
                 ["verify", str(fixture_dir / "core12_boundary.txt")],
                 ["extract", b4c], ["extract", core16],
                 ["scheme", str(fixture_dir / "relation6.txt")],
                 ["family", "--m", "50"], ["search", "--k", "6"],
                 ["fixtures", "--out", str(fixture_dir)]):
        done = subprocess.run(
            [sys.executable, "-m", "biplane_schemes.cli", *argv],
            env=package_env(), capture_output=True, text=True, timeout=60,
        )
        fresh = (done.returncode, without_elapsed(done.stdout), done.stderr)
        for _ in range(2):
            code, out, err = run_cli(capsys, *argv)
            assert (code, without_elapsed(out), err) == fresh, argv


def test_no_process_pool_machinery_without_a_pool():
    # importing concurrent.futures.process (multiprocessing, logging)
    # costs a fresh process 20-30 ms; k=8 exhausts long before a pool
    script = (
        "import sys\n"
        "import biplane_schemes\n"
        "from biplane_schemes import cli\n"
        "names = ('multiprocessing', 'concurrent.futures')\n"
        "loaded = [n for n in names if n in sys.modules]\n"
        "code = cli.main(['search', '--k', '8', '--threads', '2'])\n"
        "loaded += [n for n in names if n in sys.modules]\n"
        "print(code, loaded, file=sys.stderr)\n"
    )
    done = subprocess.run([sys.executable, "-c", script], env=package_env(),
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout)["exhausted"] is True
    assert done.stderr.strip() == "0 []"


# the package modules a fresh process loads for each verb; where no
# bytecode is cached, it compiles each of them from source
VERB_MODULES = [
    (["verify", "b4c.txt"], {"binmat", "biplane", "cli", "pbibd"}),
    (["extract", "b4c.txt"], {"binmat", "biplane", "cli", "extract", "pbibd", "scheme"}),
    (["family", "--m", "50"], {"binmat", "biplane", "cli", "extract", "pbibd", "scheme"}),
    (["scheme", "relation6.txt"], {"binmat", "cli", "scheme"}),
    (["search", "--k", "6"], {"binmat", "biplane", "cli", "search"}),
]


@pytest.mark.parametrize("argv,modules", VERB_MODULES, ids=[a[0] for a, _ in VERB_MODULES])
def test_a_fresh_verb_loads_only_its_modules(fixture_dir, argv, modules):
    script = (
        "import sys\n"
        "from biplane_schemes.cli import main\n"
        "code = main(sys.argv[1:])\n"
        "loaded = [n.split('.', 1)[1] for n in sys.modules if n.startswith('biplane_schemes.')]\n"
        "print(code, sorted(loaded), file=sys.stderr)\n"
    )
    argv = [str(fixture_dir / a) if a.endswith(".txt") else a for a in argv]
    done = subprocess.run([sys.executable, "-c", script, *argv], env=package_env(),
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stderr.strip() == f"0 {sorted(modules)}"


def test_importing_the_package_loads_no_module():
    script = (
        "import sys\n"
        "import biplane_schemes\n"
        "print(sorted(n for n in sys.modules"
        " if n.startswith('biplane_schemes.') or n == 'numpy'))\n"
        "from biplane_schemes import search, verify_biplane\n"
        "print(search.__name__, verify_biplane.__module__)\n"
    )
    done = subprocess.run([sys.executable, "-c", script], env=package_env(),
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines() == ["[]", "biplane_schemes.search biplane_schemes.biplane"]


def test_the_five_traps_share_the_exit_3_marker():
    def subclasses(cls):
        return {cls} | {s for sub in cls.__subclasses__() for s in subclasses(sub)}

    assert subclasses(_Trap) - {_Trap} == set(TRAPS)


@pytest.mark.parametrize("trap", TRAPS, ids=[t.__name__ for t in TRAPS])
def test_each_trap_exits_3(capsys, monkeypatch, trap):
    def boom(cfg, checkpoint=None):
        raise trap("forced for the exit-code contract")

    monkeypatch.setattr(search_mod, "search_symmetric_canonical", boom)
    code, out, err = run_cli(capsys, "search", "--k", "3")
    assert (code, out) == (3, "")
    assert err == "counterexample trap: forced for the exit-code contract\n"


def test_a_plain_runtime_error_is_not_a_trap(capsys, monkeypatch):
    def boom(cfg, checkpoint=None):
        raise RuntimeError("not a trap")

    monkeypatch.setattr(search_mod, "search_symmetric_canonical", boom)
    with pytest.raises(RuntimeError, match="not a trap"):
        cli.main(["search", "--k", "3"])


def test_extract(fixture_dir, tmp_path, capsys):
    core_path = tmp_path / "core.txt"
    code, payload, _ = run_json(
        capsys, "extract", str(fixture_dir / "b4c.txt"), "--core-out", str(core_path))
    assert code == 0
    assert payload["verified"] is True
    assert payload["indices"] == [8, 9, 10, 11, 12, 13]
    assert payload["pbibd"]["n"] == [1, 2, 2]
    core = BinaryMatrix.from_rows(payload["core"])
    assert core_path.read_bytes() == format_matrix(core).encode("ascii")

    code, verify_payload, _ = run_json(capsys, "verify", str(core_path))
    assert code == 0
    assert verify_payload["kind"] == "pbibd"


def test_extract_rejects_plain_pbibd(fixture_dir, capsys):
    code, payload, _ = run_json(capsys, "extract", str(fixture_dir / "core16_1.txt"))
    assert code == 1
    assert payload["verified"] is False


def test_extract_counterexample_exits_3(fixture_dir, capsys, monkeypatch):
    def boom(m):
        raise CounterexampleError("forced for the exit-code contract")

    monkeypatch.setattr(extract, "extract_design", boom)
    code, out, err = run_cli(capsys, "extract", str(fixture_dir / "b4c.txt"))
    assert code == 3
    assert "counterexample" in err


def test_extract_bad_permutation_witness_exits_3(fixture_dir, capsys, monkeypatch):
    monkeypatch.setattr(BinaryMatrix, "permute", lambda self, rows, cols: identity(self.rows))
    code, out, err = run_cli(capsys, "extract", str(fixture_dir / "b4c.txt"))
    assert code == 3
    assert out == ""
    assert "counterexample trap: witness" in err


def test_extract_core_not_a_scheme_exits_0(fixture_dir, capsys, monkeypatch):
    # a core classification that is not a scheme is reported, not trapped
    def reject(relation):
        raise NotASchemeError(1, 1, 1, (0, 3), 8, (0, 4), 6)

    monkeypatch.setattr(extract, "from_relation_matrix", reject)
    code, payload, err = run_json(capsys, "extract", str(fixture_dir / "b4c.txt"))
    assert code == 0
    assert err == ""
    assert payload["verified"] is True
    assert payload["scheme"] is None
    assert payload["scheme_witness"]["count_a"] == 8
    assert payload["scheme_witness"]["count_b"] == 6
    assert payload["pbibd"]["parameters"] == "2-(6,6,3,3,(0,1,2))"


def test_family_round_trip(tmp_path, capsys):
    out_path = tmp_path / "d3.txt"
    code, payload, _ = run_json(capsys, "family", "--m", "3", "--out", str(out_path))
    assert code == 0
    assert out_path.read_bytes() == format_matrix(doubled(3)).encode("ascii")
    assert payload["m"] == 3
    assert payload["d"] == 3
    assert payload["lambda"] == [0, 1, 2]

    code, verify_payload, _ = run_json(capsys, "verify", str(out_path))
    assert code == 0
    assert verify_payload["kind"] == "pbibd"
    assert verify_payload["design"]["d"] == 3


def test_family_bad_m(capsys):
    code, _, err = run_cli(capsys, "family", "--m", "2")
    assert code == 2


def test_family_point_cap_boundary(tmp_path, capsys, monkeypatch):
    # family writes 2m points, so m may be at most MAX_POINTS // 2
    monkeypatch.setattr(cli, "MAX_POINTS", 7)
    built = []
    generate = extract.family_generate

    def recording_generate(m):
        built.append(m)
        return generate(m)

    monkeypatch.setattr(extract, "family_generate", recording_generate)
    at_cap, above = tmp_path / "at.txt", tmp_path / "above.txt"
    code, payload, _ = run_json(capsys, "family", "--m", "3", "--out", str(at_cap))
    assert (code, payload["m"]) == (0, 3)
    assert at_cap.read_text().startswith("6 6\n")
    code, out, err = run_cli(capsys, "family", "--m", "4", "--out", str(above))
    assert (code, out) == (2, "")
    assert err == ("error: family --m 4 makes 8 points, above the cap of 7"
                   " (verify and extract build v x v tables)\n")
    assert built == [3]
    assert not above.exists()


def test_search_exhausts_small_k(capsys):
    code, payload, _ = run_json(capsys, "search", "--k", "4")
    assert code == 0
    assert payload["exhausted"] is True
    assert payload["solution_count"] == 0


def test_search_solutions_out(tmp_path, capsys):
    sink = tmp_path / "solutions.txt"
    code, payload, _ = run_json(
        capsys, "search", "--k", "3", "--solutions-out", str(sink))
    assert code == 0
    assert payload["solution_count"] == 1
    text = sink.read_text()
    assert text.startswith("4 4\n")

    # appending is the contract
    code, _, _ = run_json(
        capsys, "search", "--k", "3", "--solutions-out", str(sink))
    assert sink.read_text().count("4 4\n") == 2


def test_search_long_run_gate(capsys):
    for k in ("11", "12"):
        code, out, err = run_cli(capsys, "search", "--k", k)
        assert code == 2
        assert out == ""
        assert "--long-run" in err
    code, _, _ = run_cli(capsys, "search", "--k", "2")
    assert code == 2


def test_search_k10_needs_no_long_run(capsys):
    code, payload, _ = run_json(capsys, "search", "--k", "10")
    assert code == 0
    assert payload["exhausted"] is True
    assert payload["solution_count"] == 0
    assert payload["nodes_visited"] == 7845
    assert payload["prunes_by_rule"] == {}


def test_search_checkpoint_flag(tmp_path, capsys):
    ck = tmp_path / "ck.json"
    code, payload, _ = run_json(
        capsys, "search", "--k", "6", "--checkpoint", str(ck))
    assert code == 0
    assert ck.exists()


def _schema_6(log):
    # what the search wrote up to schema 6: one JSON object, rewritten
    # whole and with no newline
    return json.dumps({"schema_version": 6, "k": 6, "branches": log[0]["branches"],
                       "done": [0], "nodes": 10, "solutions": log[1][2]})


def _schema_7(log):
    # what the search wrote at schema 7: a counter after each record's nodes
    log[0]["schema_version"] = 7
    log[1].insert(2, 0)


# a k=6 log is a header line and one record, [0, 9, [b4c's rows]]
@pytest.mark.parametrize("spoil", [
    lambda log: "{not json\n",
    lambda log: log[0].__setitem__("k", 7),
    lambda log: log[0].__setitem__("schema_version", 1),
    lambda log: log[0].__setitem__("schema_version", 2),
    lambda log: log[0].__setitem__("schema_version", 3),
    lambda log: log[0].__setitem__("schema_version", 4),
    lambda log: log[0].__setitem__("schema_version", 5),
    _schema_6,
    _schema_7,
    lambda log: json.dumps(log[0])[:-1],
    lambda log: log[0].pop("branches"),
    lambda log: log[1].pop(2),
    lambda log: log[1].append(0),
    lambda log: log.append(log[1]),
    lambda log: log[1].__setitem__(0, 7),
], ids=["not json", "mismatched", "schema 1", "schema 2", "schema 3", "schema 4", "schema 5",
        "schema 6 file", "schema 7 log", "torn header", "missing key",
        "prune keys", "a fourth field", "done repeats", "done out of range"])
def test_search_bad_checkpoint_exits_2(tmp_path, capsys, spoil):
    ck = tmp_path / "ck.json"
    assert run_cli(capsys, "search", "--k", "6", "--checkpoint", str(ck))[0] == 0
    log = [json.loads(line) for line in ck.read_bytes().splitlines()]
    text = spoil(log)
    ck.write_text(text if isinstance(text, str) else "".join(json.dumps(x) + "\n" for x in log))
    code, out, err = run_cli(capsys, "search", "--k", "6", "--checkpoint", str(ck))
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: checkpoint {ck} ")


def test_extract_does_not_import_numpy_ma(fixture_dir):
    # numpy.ma costs about 15 ms to import in every fresh extract process
    script = (
        "import sys\n"
        "from biplane_schemes.cli import main\n"
        "code = main(['extract', sys.argv[1]])\n"
        "ma = [m for m in sys.modules if m.split('.')[:2] == ['numpy', 'ma']]\n"
        "print(code, sorted(ma), file=sys.stderr)\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", script, str(fixture_dir / "b4c.txt")],
        env=package_env(), capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout)["verified"] is True
    assert done.stderr.strip() == "0 []"


def test_scheme_valid(fixture_dir, capsys):
    code, payload, _ = run_json(capsys, "scheme", str(fixture_dir / "relation6.txt"))
    assert code == 0
    assert payload["valid"] is True
    assert payload["scheme"]["n"] == [1, 1, 2, 2]
    assert payload["bose_mesner"] == {
        "closure": True, "commutative": True, "sum_to_all_ones": True,
    }


def test_scheme_invalid_intersection_numbers(tmp_path, capsys):
    path = tmp_path / "p3.txt"
    path.write_text("3 3\n0 1 2\n1 0 1\n2 1 0\n")
    code, payload, _ = run_json(capsys, "scheme", str(path))
    assert code == 1
    assert payload["valid"] is False
    assert payload["axiom"] == "intersection-numbers"
    assert payload["witness"]["count_a"] != payload["witness"]["count_b"]


def test_scheme_axiom_gate(tmp_path, capsys):
    path = tmp_path / "diag.txt"
    path.write_text("2 2\n1 1\n1 0\n")
    code, payload, _ = run_json(capsys, "scheme", str(path))
    assert code == 1
    assert payload["axiom"] == "diagonal"


def test_scheme_label_beyond_the_point_pairs(tmp_path, capsys):
    # 3 points carry at most 2 classes
    path = tmp_path / "labels.txt"
    path.write_text("3 3\n0 1 5\n1 0 1\n5 1 0\n")
    code, payload, _ = run_json(capsys, "scheme", str(path))
    assert code == 1
    assert payload["axiom"] == "labels"
    assert payload["reason"] == (
        "largest label 5 exceeds v - 1 = 2: a scheme on 3 points has at most 2 classes")


def test_scheme_of_a_class_for_every_pair_is_rejected_at_once(tmp_path):
    # 60 points with every pair in a class of its own: 1,770 labels where
    # at most 59 can be classes. The (d+1)^3 int64 intersection tensor
    # would take 41 GiB, so the labels gate must run before it is built;
    # the run has a 3 GB address space, lest a regression fill the memory
    v = 60
    pairs = [(x, y) for x in range(v) for y in range(x + 1, v)]
    rel = [[0] * v for _ in range(v)]
    for label, (x, y) in enumerate(pairs, start=1):
        rel[x][y] = rel[y][x] = label
    path = tmp_path / "pairs.txt"
    path.write_text(f"{v} {v}\n" + "".join(" ".join(map(str, row)) + "\n" for row in rel))
    script = (
        "import resource, sys, time\n"
        "resource.setrlimit(resource.RLIMIT_AS, (3 * 10**9, 3 * 10**9))\n"
        "from biplane_schemes.cli import main\n"
        "start = time.perf_counter()\n"
        "code = main(['scheme', sys.argv[1]])\n"
        "print(code, time.perf_counter() - start, file=sys.stderr)\n"
    )
    done = subprocess.run([sys.executable, "-c", script, str(path)], env=package_env(),
                          capture_output=True, text=True, timeout=60)
    code, seconds = done.stderr.split()
    assert code == "1" and float(seconds) < 1, done.stderr
    payload = json.loads(done.stdout)
    assert payload["axiom"] == "labels"
    assert payload["reason"] == (
        "largest label 1770 exceeds v - 1 = 59: a scheme on 60 points has at most 59 classes")


@pytest.mark.parametrize("text,dims", [("0 0\n", "0x0"), ("-1 -2\n1 1\n", "-1x-2"),
                                       ("0 5\n", "0x5")])
def test_scheme_nonpositive_dimensions_exit_2(tmp_path, capsys, text, dims):
    # the entry count fits each header, so the dimension check rejects it
    path = tmp_path / "empty.txt"
    path.write_text(text)
    code, out, err = run_cli(capsys, "scheme", str(path))
    assert (code, out) == (2, "")
    assert err == f"error: {path}: dimensions must be positive, got {dims}\n"


@pytest.mark.parametrize("label", ["1000000", "100000000000000000000"])
def test_scheme_huge_label_exits_2(tmp_path, capsys, label):
    # a label above the entry count of the table is rejected while parsing:
    # no report that lists the absent labels, no int64 overflow
    path = tmp_path / "huge.txt"
    path.write_text(f"3 3\n0 1 {label}\n1 0 1\n{label} 1 0\n")
    code, out, err = run_cli(capsys, "scheme", str(path))
    assert code == 2
    assert out == ""
    assert err == (f"error: {path}: entry token '{label}' cannot be a class label"
                   " of a 3x3 table\n")


@pytest.mark.parametrize("label", ["+1", "0_1", "\u0661"])
def test_scheme_label_not_in_ascii_digits_exits_2(tmp_path, capsys, label):
    # int() reads each of these as 1, which would make a valid scheme
    path = tmp_path / "labels.txt"
    path.write_text(f"2 2\n0 {label}\n{label} 0\n", encoding="utf-8")
    code, out, err = run_cli(capsys, "scheme", str(path))
    assert code == 2
    assert out == ""
    assert err == f"error: {path}: bad entry token {label!r}\n"


@pytest.mark.parametrize("verb", ["verify", "scheme"])
@pytest.mark.parametrize("header", ["+2 2", "2_0 1", "\u0662 2"])
def test_header_not_in_ascii_digits_exits_2(tmp_path, capsys, verb, header):
    # int() reads +2 and the Arabic-Indic two as 2, which would make
    # "+2 2" a valid 2x2 grid, and 2_0 as 20
    path = tmp_path / "header.txt"
    path.write_text(f"{header}\n0 1\n1 0\n", encoding="utf-8")
    code, out, err = run_cli(capsys, verb, str(path))
    assert (code, out) == (2, "")
    assert err == f"error: {path}: malformed header {header.split()!r}\n"


def test_fixtures_listing(tmp_path, capsys):
    target = tmp_path / "fx"
    code, payload, _ = run_json(capsys, "fixtures", "--out", str(target))
    assert code == 0
    assert "b4c.txt" in payload["files"]
    assert "metadata.json" in payload["files"]
    assert (target / "relation6.txt").exists()


def test_every_report_carries_schema_version(fixture_dir, capsys):
    for argv in (
        ["verify", str(fixture_dir / "b4c.txt")],
        ["extract", str(fixture_dir / "b4c.txt")],
        ["family", "--m", "4"],
        ["search", "--k", "3"],
        ["scheme", str(fixture_dir / "relation6.txt")],
    ):
        _, payload, _ = run_json(capsys, *argv)
        assert payload["schema_version"] == 2
