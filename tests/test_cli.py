import random
from importlib import resources

import pytest

from mfnrel import Arc, GenConfig, Network, generate_instance, parse_file, write
import mfnrel.cli as cli
from mfnrel.cli import main

from helpers import random_dist


@pytest.fixture(scope="module")
def fig3_file(tmp_path_factory):
    text = resources.files("mfnrel").joinpath("data/fig3_mplevel.net").read_text(encoding="utf-8")
    path = tmp_path_factory.mktemp("data") / "fig3.net"
    path.write_text(text, encoding="utf-8")
    return path


@pytest.fixture()
def small_file(tmp_path):
    # oracle-tractable instance with explicit distributions
    rng = random.Random(77)
    arcs = []
    for i, (t, h) in enumerate([(1, 2), (1, 2), (2, 3), (1, 3)], 1):
        mc = rng.randint(1, 3)
        arcs.append(
            Arc(id=i, tail=t, head=h, max_cap=mc, lead=rng.randint(1, 3),
                unit_cost=rng.randint(1, 3), dist=random_dist(rng, mc))
        )
    net = Network(n=3, arcs=tuple(arcs))
    path = tmp_path / "small.net"
    path.write_text(write(net), encoding="utf-8")
    return path


def run(capsys, *argv):
    code = main([str(a) for a in argv])
    out = capsys.readouterr()
    return code, out.out, out.err


def test_mps_lists_catalog(capsys, fig3_file):
    code, out, _ = run(capsys, "mps", fig3_file)
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "mp,arcs,lp,cp,kp_max"
    assert lines[1] == "1,1;6,4,3,4"
    assert len(lines) == 10


_FIG3_COUNTERS_A1 = """\
# algorithm=a1
# q=9
# k=4
# sigma=1
# removed_cost=3
# removed_time=2
# removed_capacity=3
"""

FIG3_STDOUT = {
    "mps": """\
mp,arcs,lp,cp,kp_max
1,1;6,4,3,4
2,1;4;7,6,5,3
3,1;4;5;8,6,9,2
4,2;4;6,5,5,3
5,2;7,5,5,3
6,2;5;8,5,9,2
7,3;8,4,6,3
8,3;5;7,8,8,2
9,2;3;4;5,8,8,2
""",
    "solve a1": "mp,vector\n1,3;0;0;0;0;3;0;0\n" + _FIG3_COUNTERS_A1,
    "solve a2": """\
mp,vector
1,3;0;0;0;0;3;0;0
# algorithm=a2
# q=9
# k=2
# sigma=1
# removed_cost=1
# removed_time=2
# removed_capacity=5
""",
    "rel": "0.680000000000\n" + _FIG3_COUNTERS_A1,
    "oracle": """\
0.680000000000
vector
3;0;0;0;0;3;0;0
# states=172800
""",
}


def test_default_stdout_pinned(capsys, fig3_file):
    query = ["--d", 10, "--T", 8, "--b", 50]
    argvs = {
        "mps": ["mps", fig3_file],
        "solve a1": ["solve", fig3_file, *query, "--algorithm", "a1"],
        "solve a2": ["solve", fig3_file, *query, "--algorithm", "a2"],
        "rel": ["rel", fig3_file, *query],
        "oracle": ["oracle", fig3_file, *query],
    }
    for key, argv in argvs.items():
        assert run(capsys, *argv) == (0, FIG3_STDOUT[key], ""), key


def test_solve_worked_example(capsys, fig3_file):
    code, out, _ = run(capsys, "solve", fig3_file, "--d", 10, "--T", 8, "--b", 50)
    assert code == 0
    assert out.splitlines()[:2] == ["mp,vector", "1,3;0;0;0;0;3;0;0"]
    assert "# k=4" in out and "# sigma=1" in out and "# q=9" in out


def test_solve_exit_zero_when_empty(capsys, fig3_file):
    code, out, _ = run(capsys, "solve", fig3_file, "--d", 10, "--T", 8, "--b", 1)
    assert code == 0
    assert out.splitlines()[0] == "mp,vector"
    assert "# sigma=0" in out


def test_solve_algorithms_agree(capsys, fig3_file):
    _, out1, _ = run(capsys, "solve", fig3_file, "--d", 10, "--T", 8, "--b", 50, "--algorithm", "a1")
    _, out2, _ = run(capsys, "solve", fig3_file, "--d", 10, "--T", 8, "--b", 50, "--algorithm", "a2")
    rows1 = [l for l in out1.splitlines() if not l.startswith("#") and l != "mp,vector"]
    rows2 = [l for l in out2.splitlines() if not l.startswith("#") and l != "mp,vector"]
    assert rows1 == rows2


def test_rel_prints_twelve_decimals(capsys, fig3_file):
    code, out, _ = run(capsys, "rel", fig3_file, "--d", 10, "--T", 8, "--b", 50)
    assert code == 0
    assert out.splitlines()[0] == "0.680000000000"
    code, out, _ = run(capsys, "rel", fig3_file, "--d", 10, "--T", 1, "--b", 50)
    assert out.splitlines()[0] == "0.000000000000"


def test_oracle_matches_rel(capsys, small_file):
    code, rel_out, _ = run(capsys, "rel", small_file, "--d", 2, "--T", 6, "--b", 12)
    assert code == 0
    code, oracle_out, _ = run(capsys, "oracle", small_file, "--d", 2, "--T", 6, "--b", 12)
    assert code == 0
    r1 = float(rel_out.splitlines()[0])
    r2 = float(oracle_out.splitlines()[0])
    assert abs(r1 - r2) <= 1e-9
    assert any(line.startswith("# states=") for line in oracle_out.splitlines())


def test_oracle_worked_example(capsys, fig3_file):
    code, out, _ = run(capsys, "oracle", fig3_file, "--d", 10, "--T", 8, "--b", 50)
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "0.680000000000"
    assert lines[1] == "vector"
    assert lines[2] == "3;0;0;0;0;3;0;0"
    assert lines[3] == "# states=172800"


def test_rel_requires_probabilities(capsys, tmp_path):
    path = tmp_path / "noprob.net"
    path.write_text("nodes 2\narc 1 1 2 2 1 1\n", encoding="utf-8")
    code, _, err = run(capsys, "rel", path, "--d", 1, "--T", 5, "--b", 5)
    assert code == 2
    assert "distribution" in err
    # the packaged backbone has no probability blocks; its derived query has
    # sigma = 32, over the union's term cap, and is still reported as bad input
    pan = resources.files("mfnrel").joinpath("data/pan_european.net")
    code, out, err = run(capsys, "rel", str(pan), "--d", 13, "--T", 80, "--b", 1595)
    assert code == 2 and out == ""
    assert err == "error: arc 1 has no capacity distribution: its arc line has no probability block\n"


def test_rel_rejects_nan_probabilities(capsys, tmp_path):
    path = tmp_path / "nan.net"
    path.write_text("nodes 2\narc 1 1 2 1 1 1 nan nan\n", encoding="utf-8")
    code, out, err = run(capsys, "rel", path, "--d", 1, "--T", 5, "--b", 5)
    assert code == 2 and out == ""
    assert "line 2" in err and "probabilities" in err


def test_rel_on_directory_exit_code(capsys, tmp_path):
    code, _, err = run(capsys, "rel", tmp_path, "--d", 1, "--T", 5, "--b", 5)
    assert code == 2 and err.startswith("error: ")


def test_unexpected_error_exit_code(capsys, monkeypatch, fig3_file):
    def boom(args):
        raise RuntimeError("boom")

    monkeypatch.setattr(cli, "cmd_mps", boom)
    code, _, err = run(capsys, "mps", fig3_file)
    assert code == 4
    assert err == "internal error: boom\n"


def test_parse_error_exit_code(capsys, tmp_path):
    path = tmp_path / "broken.net"
    path.write_text("nodes 2\narc 7 1 2 1 1 1\n", encoding="utf-8")
    code, _, err = run(capsys, "mps", path)
    assert code == 2 and "line 2" in err


def test_oracle_resource_cap(capsys):
    pan = resources.files("mfnrel").joinpath("data/pan_european.net")
    code, _, err = run(capsys, "oracle", str(pan), "--d", 5, "--T", 50, "--b", 500)
    assert code == 3
    assert "states" in err


def test_gen_roundtrip(capsys, tmp_path):
    out_path = tmp_path / "gen.net"
    code, out, _ = run(capsys, "gen", "--n", 11, "--seed", 4, "--out", out_path)
    assert code == 0 and "wrote" in out
    net = parse_file(out_path).network
    assert net == generate_instance(GenConfig(n=11, seed=4)).network
    # the seed defaults to 0
    default_path, zero_path = tmp_path / "default.net", tmp_path / "zero.net"
    run(capsys, "gen", "--n", 11, "--out", default_path)
    run(capsys, "gen", "--n", 11, "--seed", 0, "--out", zero_path)
    assert default_path.read_text() == zero_path.read_text() != out_path.read_text()


def test_bench_and_profile_pipeline(capsys, tmp_path):
    d = tmp_path / "suite"
    d.mkdir()
    for s in (1, 2, 3):
        run(capsys, "gen", "--n", 12, "--seed", s, "--out", d / f"i{s}.net")
    times_csv = tmp_path / "times.csv"
    code, _, _ = run(capsys, "bench", "--dir", d, "--out", times_csv)
    assert code == 0
    lines = times_csv.read_text().splitlines()
    assert lines[0] == "instance,algorithm,seconds,sigma,k,q"
    # rows keep directory order, a1 before a2
    assert [tuple(l.split(",")[:2]) for l in lines[1:]] == [
        (f"i{s}.net", alg) for s in (1, 2, 3) for alg in ("a1", "a2")
    ]
    code, out, _ = run(capsys, "profile", "--times", times_csv)
    assert code == 0
    rows = out.splitlines()
    assert rows[0] == "algorithm,tau,pr"
    last_by_alg = {}
    for row in rows[1:]:
        alg, tau, pr = row.split(",")
        last_by_alg[alg] = float(pr)
    assert set(last_by_alg) == {"a1", "a2"}
    assert all(v == 1.0 for v in last_by_alg.values())


def test_bench_empty_dir(capsys, tmp_path):
    code, _, err = run(capsys, "bench", "--dir", tmp_path)
    assert code == 2 and "no .net files" in err


def test_usage_error_exit_code(capsys, fig3_file):
    with pytest.raises(SystemExit) as exc:
        main(["solve", str(fig3_file), "--d", "10"])
    assert exc.value.code == 2


def test_profile_missing_or_malformed_input(capsys, tmp_path):
    code, _, _ = run(capsys, "profile", "--times", tmp_path / "absent.csv")
    assert code == 2
    bad = tmp_path / "bad.csv"
    bad.write_text("foo,bar\n1,2\n", encoding="utf-8")
    code, _, err = run(capsys, "profile", "--times", bad)
    assert code == 2 and "columns" in err
    short = tmp_path / "short.csv"
    short.write_text("instance,algorithm,seconds\ni1,a1,0.5\ni1,a1\n", encoding="utf-8")
    code, _, err = run(capsys, "profile", "--times", short)
    assert code == 2 and "line 3" in err and "missing cell" in err and "short.csv" in err
    for cell in ("", "abc"):
        short.write_text(f"instance,algorithm,seconds\ni1,a1,0.5\ni1,a2,{cell}\n", encoding="utf-8")
        code, _, err = run(capsys, "profile", "--times", short)
        assert code == 2 and "line 3" in err and "not a number" in err and "short.csv" in err
    short.write_text("instance,algorithm,seconds\ni1,a1,0.5\ni1,a2,inf\n", encoding="utf-8")
    code, out, err = run(capsys, "profile", "--times", short)
    assert code == 2 and out == "" and "not finite and positive" in err
    short.write_text("instance,algorithm,seconds\ni1,a1,0.5\ni1,a2,1.0\ni1,a1,2.0\n", encoding="utf-8")
    code, out, err = run(capsys, "profile", "--times", short)
    assert code == 2 and out == "" and "line 4" in err and "repeated" in err and "short.csv" in err


def test_nested_catalog_exit_code(capsys, tmp_path):
    # a pinned catalog whose members nest breaks the solver's minimality
    # invariant, which the CLI reports as an internal error
    path = tmp_path / "nested.net"
    path.write_text(
        "nodes 3\narc 1 1 2 2 1 1\narc 2 2 3 2 1 1\narc 3 1 3 2 1 1\n"
        "mp 1 2\nmp 1 2 3\n",
        encoding="utf-8",
    )
    code, _, err = run(capsys, "solve", path, "--d", 1, "--T", 9, "--b", 9)
    assert code == 4 and "catalog" in err
