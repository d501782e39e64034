import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphmoments import (
    DomainError,
    Graph,
    GraphFormatError,
    average_degree,
    lambda_hat,
    load_edge_list,
    rho_hat,
    write_edge_list,
)


def test_from_edges_basic():
    g = Graph.from_edges([(0, 1), (1, 2), (2, 3)], 4)
    assert g.n == 4
    assert g.edge_count == 3
    assert list(g.neighbors(1)) == [0, 2]
    assert list(g.degrees) == [1, 2, 2, 1]


def test_from_edges_dedup_and_order():
    g = Graph.from_edges([(2, 1), (1, 2), (0, 2)], 3)
    assert g.edge_count == 2
    assert list(g.neighbors(2)) == [0, 1]


def test_rejects_self_loop_and_range():
    with pytest.raises(GraphFormatError):
        Graph.from_edges([(1, 1)], 3)
    with pytest.raises(GraphFormatError):
        Graph.from_edges([(0, 3)], 3)
    tiny = Graph.from_edges([], 0)
    with pytest.raises(DomainError):
        average_degree(tiny)
    with pytest.raises(DomainError):
        rho_hat(Graph.from_edges([], 1))


def test_density_and_degree_normalizers():
    g = Graph.from_edges([(0, 1), (1, 2), (2, 3)], 4)
    assert rho_hat(g) == 2 * 3 / (4 * 3)
    assert average_degree(g) == 6 / 4
    assert lambda_hat(g) == average_degree(g)
    empty = Graph.from_edges([], 5)
    assert rho_hat(empty) == 0.0
    assert lambda_hat(empty) == 0.0


def test_edge_list_round_trip(tmp_path):
    rng = np.random.default_rng(0)
    a = rng.random((12, 12)) < 0.3
    edges = [(i, j) for i in range(12) for j in range(i + 1, 12) if a[i, j]]
    g = Graph.from_edges(edges, 12)
    path = tmp_path / "g.el"
    write_edge_list(g, path)
    h = load_edge_list(path)
    assert h.n == g.n
    assert np.array_equal(h.indptr, g.indptr)
    assert np.array_equal(h.indices, g.indices)


def test_edge_list_header_sets_isolated_tail(tmp_path):
    path = tmp_path / "g.el"
    path.write_text("# n=6\n0 1\n")
    g = load_edge_list(path)
    assert g.n == 6
    assert g.edge_count == 1
    assert g.degrees[5] == 0


@pytest.mark.parametrize(
    "text, n",
    [
        ("0 1\n# a comment\n  # n = 4\n1 2\n", 4),  # a header on a later line, indented
        ("# n=5\n0 1\n# n=7\n1 2\n", 7),  # the last header wins
        ("# n=5\n0 1\n1 2 # n=9\n", 5),  # after an edge, "# n=" is a comment
        ("0 1\n1 2 # n=9\n", 3),  # ... so without a header the ids are compacted
        ("# see # n=6\n0 1\n", 2),  # nor is a "#" later in a comment line
        ("0 1\r\n\t#n=6\r\n", 6),  # tabs and CRLF line ends
    ],
)
def test_edge_list_header_is_the_last_header_line(text, n):
    assert load_edge_list(text.splitlines(keepends=True)).n == n


def test_edge_list_without_header_compacts_labels(tmp_path):
    path = tmp_path / "g.el"
    path.write_text("0 1\n1 4\n")
    g = load_edge_list(path)
    assert g.n == 3
    assert g.labels == (0, 1, 4)


def test_bad_lines_rejected(tmp_path):
    path = tmp_path / "bad.el"
    path.write_text("0 1 2\n")
    with pytest.raises(GraphFormatError):
        load_edge_list(path)
    path.write_text("0 zero\n")
    with pytest.raises(GraphFormatError):
        load_edge_list(path)


@pytest.mark.parametrize(
    "text, line",
    [
        ("0 1\n1 2 3\n", 2),  # three tokens
        ("# n=4\n0 1\n\n2\n", 4),  # one token
        ("0 1\n1 x\n", 2),  # non-integer token
        ("0 1\n1 2.5\n", 2),
        ("0 1\n1 1_0\n", 2),  # int() would take it; numpy's reader does not
        ("0 1\n٣ 2\n", 2),  # a non-ASCII digit, likewise
        ("0 1\n-1 2\n", 2),  # negative id
        ("0 1\n1 2 # ok\n2 2\n", 3),  # self-loop
        ("# n=3\n0 1\n1 2\n2 3\n", 4),  # id >= declared n
        ("0 1\n1 99999999999999999999\n", 2),  # beyond int64
    ],
)
def test_malformed_edge_lists_name_their_line(tmp_path, text, line):
    path = tmp_path / "bad.el"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(GraphFormatError, match=rf"^line {line}: "):
        load_edge_list(path)
    with pytest.raises(GraphFormatError, match=rf"^line {line}: "):
        load_edge_list(text.splitlines())


def test_edge_list_accepted_forms():
    text = ["0 1  # trailing comment\n", "\n", "   \n", "# a comment\n", "1 2\n", "# n=5\n", "2\t0"]
    g = load_edge_list(text)  # an iterable of lines; the header follows the data
    assert g.n == 5 and g.labels is None
    assert g.edges().tolist() == [[0, 1], [0, 2], [1, 2]]
    assert load_edge_list(text, num_vertices=7).n == 7  # the argument wins over the header
    # without a header ids are compacted in ascending order and kept as labels
    h = load_edge_list(["5 3", "3 10"])
    assert h.labels == (3, 5, 10)
    assert h.edges().tolist() == [[0, 1], [0, 2]]
    empty = load_edge_list([])
    assert empty.n == 0 and empty.edge_count == 0


def test_labelled_write_load_round_trip(tmp_path):
    # integer labels are interned in ascending order, so a round trip is byte-identical
    g = load_edge_list(["40 9", "9 17", "4 40", "23 9"])
    assert g.labels == (4, 9, 17, 23, 40)
    first, second = tmp_path / "a.el", tmp_path / "b.el"
    write_edge_list(g, first)
    assert first.read_text() == "4 40\n9 17\n9 23\n9 40\n"
    h = load_edge_list(first)
    assert h == g
    write_edge_list(h, second)
    assert second.read_bytes() == first.read_bytes()
    # compacted ids are labels too: a default write must read back, which a
    # "# n=<count>" header over label ids would forbid
    g = load_edge_list(["0 1", "1 4"])
    write_edge_list(g, first)
    assert load_edge_list(first) == g


@st.composite
def edge_inputs(draw):
    """Raw pairs with duplicates, both orientations and an isolated tail."""
    n = draw(st.integers(0, 12))
    if n < 2:
        return n, []
    pair = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(lambda p: p[0] != p[1])
    pairs = draw(st.lists(pair, max_size=40))
    pairs += draw(st.lists(st.sampled_from(pairs), max_size=10)) if pairs else []
    return n + draw(st.integers(0, 3)), pairs


@settings(max_examples=200, deadline=None)
@given(edge_inputs())
def test_from_edges_matches_set_oracle(case):
    n, pairs = case
    g = Graph.from_edges(np.array(pairs, dtype=np.int64).reshape(-1, 2), n)
    edges = {frozenset(p) for p in pairs}
    nbrs = [sorted(j for e in edges if i in e for j in e if j != i) for i in range(n)]
    assert g.n == n
    assert g.indptr.tolist() == np.cumsum([0] + [len(x) for x in nbrs]).tolist()
    assert g.indices.tolist() == [j for x in nbrs for j in x]
    assert g.indptr.dtype == g.indices.dtype == np.int64


@pytest.mark.parametrize(
    "edges, n", [([(0, -1)], 3), ([(0, 3)], 3), ([(2, 2)], 3), ([(0, 1)], 1), ([(0, 1)], 0)]
)
def test_from_edges_rejects_bad_pairs(edges, n):
    with pytest.raises(GraphFormatError):
        Graph.from_edges(edges, n)
