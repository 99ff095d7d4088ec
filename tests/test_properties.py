"""Property test: on small random networks the exhaustive oracle, the
inclusion-exclusion union and both solvers give the same answer.

The networks cover what the seeded random suites rarely draw: parallel
arcs, any source and sink, and capacity levels of zero or full mass. Most
draws first chain source to sink, so most examples have a path to query.
"""

import math

from hypothesis import given, settings, strategies as st

from mfnrel import (
    Arc,
    Network,
    Query,
    TailTable,
    brute_force_reliability,
    enumerate_mps,
    solve_a1,
    solve_a2,
    union_prob_ie,
)


@st.composite
def networks(draw):
    n = draw(st.integers(2, 4))
    source = draw(st.integers(1, n))
    sink = draw(st.integers(1, n).filter(lambda v: v != source))
    chain = []
    if draw(st.integers(0, 3), label="chain"):  # most examples get a path to query
        inner = draw(st.permutations([v for v in range(1, n + 1) if v not in (source, sink)]))
        hops = (source, *inner[: draw(st.integers(0, len(inner)))], sink)
        chain = list(zip(hops, hops[1:]))
    ends = []
    arcs = []
    for i in range(1, len(chain) + draw(st.integers(0 if chain else 1, 6 - len(chain))) + 1):
        if i <= len(chain):
            tail, head = chain[i - 1]
        elif ends and draw(st.booleans()):
            tail, head = draw(st.sampled_from(ends))  # parallel to an earlier arc
        else:
            tail = draw(st.integers(1, n))
            head = draw(st.integers(1, n).filter(lambda v: v != tail))
        ends.append((tail, head))
        # a chain arc at capacity 0 would leave its path unable to carry any demand
        max_cap = draw(st.integers(1 if i <= len(chain) else 0, 3))
        # zero weights give zero-mass levels; a single nonzero one, a point mass
        weights = draw(st.lists(st.integers(0, 3), min_size=max_cap + 1, max_size=max_cap + 1).filter(any))
        arcs.append(
            Arc(
                id=i,
                tail=tail,
                head=head,
                max_cap=max_cap,
                lead=draw(st.integers(1, 4)),
                unit_cost=draw(st.integers(1, 4)),
                dist=tuple(w / sum(weights) for w in weights),
            )
        )
    return Network(n=n, arcs=tuple(arcs), source=source, sink=sink)


@settings(max_examples=120, deadline=None, derandomize=True, database=None)
@given(net=networks(), data=st.data())
def test_oracle_ie_a1_and_a2_agree(net, data):
    cat = enumerate_mps(net)
    if cat.q:
        # limits just under, at and just over what one path needs at full capacity
        p = data.draw(st.sampled_from(cat.paths), label="path")
        if data.draw(st.booleans(), label="d from T"):
            # alpha lands under, at and over the path's top level
            T = p.lp + data.draw(st.integers(1, 3), label="T - lp")
            d = max(1, p.kp_max * (T - p.lp) + data.draw(st.integers(-1, 1), label="dd"))
        else:
            d = data.draw(st.integers(1, 6), label="d")
            T = max(1, p.lp + math.ceil(d / max(p.kp_max, 1)) + data.draw(st.integers(-1, 1), label="dT"))
        b = max(1, d * p.cp + data.draw(st.integers(-1, 1), label="db"))
    else:
        d = data.draw(st.integers(1, 6), label="d")
        T = data.draw(st.integers(1, 10), label="T")
        b = data.draw(st.integers(1, 30), label="b")
    query = Query(d=d, T=T, b=b)
    oracle_r, oracle_min = brute_force_reliability(net, cat, query)
    a1 = solve_a1(net, cat, query)
    assert abs(union_prob_ie(TailTable.from_network(net), a1.vectors) - oracle_r) <= 1e-12
    assert frozenset(oracle_min) == a1.vector_set() == solve_a2(net, cat, query).vector_set()
