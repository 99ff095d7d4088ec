import dataclasses
import random
import time
from importlib import resources

import pytest

from mfnrel import (
    Arc,
    GenConfig,
    Network,
    capacity_distribution,
    generate_instance,
    pan_european_fixture,
    parse_file,
    write,
)
import mfnrel.cli as cli
import mfnrel.paths as paths
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
    # the second query is beyond int64, where the oracle must stay exact
    for d, T, b in ((2, 6, 12), (10**20, 10**21, 10**22)):
        query = ["--d", d, "--T", T, "--b", b]
        code, rel_out, _ = run(capsys, "rel", small_file, *query)
        assert code == 0
        code, oracle_out, _ = run(capsys, "oracle", small_file, *query)
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
    # with a distribution on every arc the same query reaches the cap
    net = pan_european_fixture()
    arcs = tuple(dataclasses.replace(a, dist=capacity_distribution(a.max_cap)) for a in net.arcs)
    pan_file = tmp_path / "pan.net"
    pan_file.write_text(write(dataclasses.replace(net, arcs=arcs)), encoding="utf-8")
    code, out, err = run(capsys, "rel", pan_file, "--d", 13, "--T", 80, "--b", 1595)
    assert (code, out) == (3, "")
    assert err == "error: fixed cap SIGMA_CAP = 30 exceeded: this input needs at least 32\n"


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
    code, out, err = run(capsys, "oracle", str(pan), "--d", 5, "--T", 50, "--b", 500)
    assert (code, out) == (3, "")
    states = pan_european_fixture().state_space_size
    assert err == f"error: fixed cap STATE_CAP = 5000000 exceeded: this input needs at least {states}\n"


def test_mps_path_cap(capsys, monkeypatch):
    # the backbone has 76 minimal paths; enumeration stops at the 11th
    pan = resources.files("mfnrel").joinpath("data/pan_european.net")
    monkeypatch.setattr(paths, "MP_CAP", 10)
    code, out, err = run(capsys, "mps", str(pan))
    assert (code, out) == (3, "")
    assert err == "error: fixed cap MP_CAP = 10 exceeded: this input needs at least 11\n"


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
    # a bad file in the directory is named in the error
    bad = tmp_path / "bad.net"
    for text, reason in (
        ("nodes 2\narc 1 1 2 1 1 1 1.0\n", "line 2: arc 1: expected 2 probabilities, got 1"),
        ("nodes 3\narc 1 1 2 1 1 1\n", "cannot derive a query from an empty catalog"),
    ):
        bad.write_text(text, encoding="utf-8")
        code, out, err = run(capsys, "bench", "--dir", tmp_path)
        assert (code, out, err) == (2, "", f"error: {bad}: {reason}\n")


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
    # a pinned catalog whose paths nest or repeat is bad input, refused at
    # parse for every command and every query, even one where only one of
    # the two paths would emit a vector (--T 3 --b 2)
    head = "nodes 3\narc 1 1 2 2 1 1\narc 2 2 3 2 1 1\narc 3 1 3 2 1 1\nmp 1 2\n"
    for name, last in (("nested", "mp 1 2 3"), ("permuted", "mp 2 1")):
        path = tmp_path / f"{name}.net"
        path.write_text(f"{head}{last}\n", encoding="utf-8")
        for argv in (
            ["mps", path],
            ["solve", path, "--d", 1, "--T", 9, "--b", 9],
            ["solve", path, "--d", 1, "--T", 3, "--b", 2],
            ["rel", path, "--d", 1, "--T", 9, "--b", 9],
            ["oracle", path, "--d", 1, "--T", 9, "--b", 9],
        ):
            code, out, err = run(capsys, *argv)
            assert (code, out) == (2, ""), (name, argv)
            assert err.startswith("error: line 6: ") and "line 5" in err, (name, argv)


def test_huge_node_count_answers_like_small_twin(capsys, tmp_path):
    # enumeration is keyed by the nodes that arcs touch, so a node count far
    # beyond memory costs nothing when few nodes carry arcs
    arcs = "sink 3\narc 1 1 2 2 1 1 0.2 0.3 0.5\narc 2 2 3 2 1 1 0.1 0.1 0.8\narc 3 1 3 1 2 1 0.4 0.6\n"
    outputs = []
    start = time.perf_counter()
    for n in (3, 99999999999):
        path = tmp_path / f"n{n}.net"
        path.write_text(f"nodes {n}\n{arcs}", encoding="utf-8")
        outputs.append(
            [
                run(capsys, *argv)
                for argv in (
                    ["mps", path],
                    ["solve", path, "--d", 2, "--T", 4, "--b", 9],
                    ["solve", path, "--d", 2, "--T", 4, "--b", 9, "--algorithm", "a2"],
                    ["rel", path, "--d", 2, "--T", 4, "--b", 9],
                )
            ]
        )
    assert time.perf_counter() - start < 1.0
    assert outputs[0] == outputs[1]
    assert [code for code, _, _ in outputs[0]] == [0] * 4
    assert "# sigma=2" in outputs[0][3][1]


_FUZZ_TOKENS = (
    "0", "1", "-1", "2", "3", "99999999999", str(10**20), "0.5", "nan", "inf", "1e309", "x", "mp", "arc", "#",
)


def _mutate(rng, lines):
    kind = rng.randrange(7)
    i = rng.randrange(len(lines))
    fields = lines[i].split()
    if kind == 0:  # replace a token
        fields[rng.randrange(len(fields))] = rng.choice(_FUZZ_TOKENS + (str(rng.randint(0, 12)),))
    elif kind == 1:  # drop a token
        del fields[rng.randrange(len(fields))]
    elif kind == 2:  # insert a token
        fields.insert(rng.randint(0, len(fields)), rng.choice(_FUZZ_TOKENS))
    elif kind == 3:  # drop the line
        del lines[i]
        return
    elif kind == 4:  # repeat the line
        lines.insert(rng.randint(0, len(lines)), lines[i])
        return
    elif kind == 5:  # swap two lines
        j = rng.randrange(len(lines))
        lines[i], lines[j] = lines[j], lines[i]
        return
    else:  # add an mp line over a few arc ids, maybe a reordered copy of one
        mps = [l for l in lines if l.startswith("mp ")]
        if mps and rng.random() < 0.5:
            ids = rng.choice(mps).split()[1:]
            rng.shuffle(ids)
        else:
            ids = [str(rng.randint(1, 9)) for _ in range(rng.randint(1, 4))]
        lines.append("mp " + " ".join(ids))
        return
    lines[i] = " ".join(fields)


def test_cli_fuzz_never_exits_4(capsys, tmp_path, fig3_file):
    # mutated instance files are bad input or answerable, never an internal
    # error, and every refusal is one line on stderr
    gen = generate_instance(GenConfig(n=11, seed=3))  # q = 8, so rel stays small
    bases = [
        (fig3_file.read_text(encoding="utf-8").splitlines(), (10, 8, 50)),
        (write(gen.network).splitlines(), (gen.query.d, gen.query.T, gen.query.b)),
    ]
    rng = random.Random(20211)
    path = tmp_path / "fuzz.net"
    codes = []
    for case in range(300):
        base, query = rng.choice(bases)
        lines = list(base)
        for _ in range(rng.randint(1, 2)):
            _mutate(rng, lines)
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        flags = []
        for name, value in zip(("--d", "--T", "--b"), query):
            if rng.random() < 0.1:
                value = rng.choice((0, -1, 1, 99999999999, 10**20))
            flags += [name, value]
        command = "oracle" if case % 30 == 0 else rng.choice(("mps", "solve", "rel"))
        argv = ["mps", path] if command == "mps" else [command, path, *flags]
        code, _, err = run(capsys, *argv)
        assert code in (0, 2, 3), (code, err, lines, argv)
        assert err.count("\n") <= 1 and err.endswith("\n") == (code != 0), (err, argv)
        codes.append(code)
    # the mutations reach past parse often enough to mean something
    assert codes.count(0) >= 30 and codes.count(2) >= 100
