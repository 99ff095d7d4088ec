from importlib import resources

import pytest

from mfnrel import ParseError, parse, write


def _data_text(name):
    return resources.files("mfnrel").joinpath(f"data/{name}").read_text(encoding="utf-8")


def test_roundtrip_is_stable():
    for name in ("fig3_mplevel.net", "pan_european.net"):
        text = _data_text(name)
        inst = parse(text)
        once = write(inst.network, inst.catalog)
        again = write(parse(once).network, parse(once).catalog)
        assert once == again
        reparsed = parse(once)
        assert reparsed.network == inst.network
        assert (reparsed.catalog is None) == (inst.catalog is None)


def test_parse_preserves_values():
    text = """
# demo
nodes 3
source 1
sink 3
arc 1 1 2 2 1 1 0.25 0.25 0.5
arc 2 2 3 1 2 3
mp 1 2
"""
    inst = parse(text)
    net = inst.network
    assert net.n == 3 and net.m == 2
    assert net.arcs[0].dist == (0.25, 0.25, 0.5)
    assert net.arcs[1].dist is None
    assert inst.catalog.q == 1
    assert inst.catalog[0].arc_ids == (1, 2)
    assert inst.catalog[0].lp == 3


def test_parse_defaults_source_sink():
    inst = parse("nodes 2\narc 1 1 2 1 1 1\n")
    assert inst.network.source == 1 and inst.network.sink == 2


def test_parse_errors_carry_line_numbers():
    with pytest.raises(ParseError, match="line 2"):
        parse("nodes 2\nbogus 3\n")
    with pytest.raises(ParseError, match="contiguous"):
        parse("nodes 3\narc 2 1 2 1 1 1\n")
    with pytest.raises(ParseError, match="probabilities"):
        parse("nodes 2\narc 1 1 2 2 1 1 0.5 0.5\n")
    with pytest.raises(ParseError, match="sum"):
        parse("nodes 2\narc 1 1 2 1 1 1 0.5 0.6\n")
    with pytest.raises(ParseError, match="line 2: bad probability: '0.5x'$"):
        parse("nodes 2\narc 1 1 2 2 1 1 0.5 0.5x 0\n")
    with pytest.raises(ParseError, match="missing 'nodes'"):
        parse("source 1\n")
    with pytest.raises(ParseError, match="duplicate"):
        parse("nodes 2\nnodes 2\narc 1 1 2 1 1 1\n")
    with pytest.raises(ParseError, match="bad integer"):
        parse("nodes x\n")
    with pytest.raises(ParseError, match="arc id"):
        parse("nodes 2\narc 1 1 2 1 1 1\nmp 7\n")
    with pytest.raises(ParseError, match="sink -1 outside"):
        parse("nodes 2\nsink -1\narc 1 1 2 1 1 1\n")


_NESTED_HEAD = "nodes 3\narc 1 1 2 2 1 1\narc 2 2 3 2 1 1\narc 3 1 3 2 1 1\n"


def test_parse_rejects_nested_catalog():
    # a later path that contains an earlier one, lies within it, or repeats
    # it in another order; the error names the later line and the earlier
    for mps in ("mp 1 2\nmp 1 2 3\n", "mp 1 2 3\nmp 1 2\n", "mp 1 2\nmp 2 1\n"):
        with pytest.raises(ParseError, match="^line 6: .* on line 5;") as exc:
            parse(_NESTED_HEAD + mps)
        assert exc.value.line == 6
    # incomparable paths stay legal, as do the placeholder paths of fig3
    assert parse(_NESTED_HEAD + "mp 1 2\nmp 3\n").catalog.q == 2
    assert parse(_data_text("fig3_mplevel.net")).catalog.q == 9


def test_float_repr_roundtrips():
    probs = tuple((0.2 / 9) for _ in range(9)) + (0.1, 0.7)
    text = "nodes 2\narc 1 1 2 10 5 5 " + " ".join(repr(p) for p in probs) + "\n"
    inst = parse(text)
    assert inst.network.arcs[0].dist == probs
    assert write(inst.network) == "nodes 2\nsource 1\nsink 2\n" + "arc 1 1 2 10 5 5 " + " ".join(
        repr(p) for p in probs
    ) + "\n"
