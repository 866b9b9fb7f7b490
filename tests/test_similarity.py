import numpy as np
import pytest

from smallarea import (
    SimilaritySpec,
    SmoothnessMatrix,
    ValidationError,
    build_omega,
    connected_components,
    load_adjacency,
    read_edge_list,
)
from smallarea.datasets import US_STATE_LABELS, us_state_borders_path

from oracles import double_sum_penalty, random_similarity


class TestSimilaritySpec:
    def test_all_zero_similarity_gives_zero_penalty(self):
        spec = SimilaritySpec(3, [])
        omega = build_omega(spec).omega
        assert np.array_equal(omega, np.zeros((3, 3)))

    def test_path_graph_matches_frozen_matrix(self):
        spec = SimilaritySpec(3, [(0, 1, 1.0), (1, 2, 1.0)])
        omega = build_omega(spec).omega
        expected = np.array([[2.0, -2.0, 0.0], [-2.0, 4.0, -2.0], [0.0, -2.0, 2.0]])
        assert np.array_equal(omega, expected)
        # cross-check against the explicit double sum for random vectors
        rng = np.random.default_rng(7)
        q = spec.matrix()
        for _ in range(20):
            d = rng.normal(size=3)
            assert d @ omega @ d == pytest.approx(double_sum_penalty(d, q), rel=1e-10)
        # and against twice the path-graph Laplacian
        adjacency = q
        lap = np.diag(adjacency.sum(axis=1)) - adjacency
        assert np.array_equal(omega, 2.0 * lap)

    def test_asymmetric_entries_rejected(self):
        with pytest.raises(ValidationError, match=r"asymmetric similarity at \(1, 2\)"):
            SimilaritySpec(3, [(1, 2, 1.0), (2, 1, 0.5)])

    def test_negative_entry_rejected(self):
        with pytest.raises(ValidationError, match=r"negative similarity at \(0, 1\)"):
            SimilaritySpec(2, [(0, 1, -0.25)])

    def test_diagonal_entries_ignored(self):
        spec = SimilaritySpec(2, [(0, 0, 5.0), (0, 1, 1.0)])
        assert spec.pairs == ((0, 1, 1.0),)

    def test_index_out_of_range(self):
        with pytest.raises(ValidationError, match="out of range"):
            SimilaritySpec(2, [(0, 2, 1.0)])

    def test_from_matrix_asymmetric_named_pair(self):
        # the first asymmetric pair in row-major order is the one named
        q = np.zeros((4, 4))
        q[1, 2] = 1.0
        q[2, 1] = 0.5
        q[2, 3] = 1.0
        q[3, 2] = 2.0
        with pytest.raises(ValidationError, match=r"asymmetric similarity at \(1, 2\)"):
            SimilaritySpec.from_matrix(q)

    def test_duplicate_consistent_entries_accepted(self):
        spec = SimilaritySpec(2, [(0, 1, 2.0), (1, 0, 2.0)])
        assert spec.pairs == ((0, 1, 2.0),)


class TestSmoothnessInvariants:
    def test_random_similarity_quadratic_form_identity(self):
        rng = np.random.default_rng(42)
        for _ in range(100):
            m = int(rng.integers(2, 11))
            q = random_similarity(rng, m)
            omega = build_omega(SimilaritySpec.from_matrix(q)).omega
            d = rng.normal(0.0, 3.0, size=m)
            expected = double_sum_penalty(d, q)
            assert d @ omega @ d == pytest.approx(expected, rel=1e-10, abs=1e-12)
            # ones vector in the kernel
            assert np.max(np.abs(omega @ np.ones(m))) <= 1e-12
            # positive semi-definite
            assert np.linalg.eigvalsh(omega).min() >= -1e-10
            # constant shifts leave the penalty unchanged
            c = rng.normal()
            shifted = (d + c) @ omega @ (d + c)
            assert shifted == pytest.approx(d @ omega @ d, rel=1e-10, abs=1e-10)

    def test_binary_adjacency_equals_twice_laplacian(self):
        rng = np.random.default_rng(3)
        for _ in range(25):
            m = int(rng.integers(2, 11))
            a = np.triu((rng.random((m, m)) < 0.5).astype(float), k=1)
            a = a + a.T
            omega = build_omega(SimilaritySpec.from_matrix(a)).omega
            lap = np.diag(a.sum(axis=1)) - a
            assert np.array_equal(omega, 2.0 * lap)

    def test_smoothness_matrix_validation(self):
        with pytest.raises(ValidationError, match="symmetric"):
            SmoothnessMatrix(np.array([[1.0, 2.0], [0.0, 1.0]]))
        with pytest.raises(ValidationError, match="square"):
            SmoothnessMatrix(np.zeros((2, 3)))


class TestLoadAdjacency:
    def test_single_edge(self):
        spec = load_adjacency([("A", "B")], ("A", "B", "C"))
        q = spec.matrix()
        assert q[0, 1] == q[1, 0] == 1.0
        assert np.count_nonzero(q) == 2

    def test_duplicate_edge_rejected(self):
        with pytest.raises(ValidationError, match="duplicate edge A-B"):
            load_adjacency([("A", "B"), ("B", "A")], ("A", "B"))

    def test_self_edge_rejected(self):
        # the matrix and entries APIs ignore a diagonal entry; an edge list
        # line naming one area twice is a mistake, and says so
        with pytest.raises(ValidationError, match="self-edge a-a in edge list"):
            load_adjacency([("a", "a")], ("a", "b"))

    def test_unknown_label(self):
        with pytest.raises(ValidationError, match="unknown label 'Z'"):
            load_adjacency([("A", "Z")], ("A", "B"))

    def test_negative_weight(self):
        with pytest.raises(ValidationError, match="negative weight"):
            load_adjacency([("A", "B", -1.0)], ("A", "B"))

    def test_explicit_weight(self):
        spec = load_adjacency([("A", "B", 0.25)], ("A", "B"))
        assert spec.matrix()[0, 1] == 0.25


class TestComponents:
    def test_path_graph_one_component(self):
        spec = SimilaritySpec(3, [(0, 1, 1.0), (1, 2, 1.0)])
        assert connected_components(spec) == [[0, 1, 2]]

    def test_empty_graph_singletons(self):
        spec = SimilaritySpec(3, [])
        assert connected_components(spec) == [[0], [1], [2]]

    def test_zero_weight_edge_does_not_connect(self):
        spec = SimilaritySpec(2, [(0, 1, 0.0)])
        assert connected_components(spec) == [[0], [1]]


@pytest.fixture(scope="module")
def us_spec():
    edges = read_edge_list(us_state_borders_path())
    return load_adjacency(edges, US_STATE_LABELS)


class TestUsStateFixture:

    def test_entry_tally_against_raw_file(self, us_spec):
        # independent tally: count non-comment lines in the raw file
        raw = us_state_borders_path().read_text().splitlines()
        n_edges = sum(1 for line in raw if line.strip() and not line.startswith("#"))
        q = us_spec.matrix()
        assert q.shape == (51, 51)
        assert np.count_nonzero(q) == 2 * n_edges

    def test_alaska_and_hawaii_isolated(self, us_spec):
        q = us_spec.matrix()
        for state in ("AK", "HI"):
            i = US_STATE_LABELS.index(state)
            assert not q[i].any()
            assert not q[:, i].any()

    def test_components_against_independent_union_find(self, us_spec):
        # union-find written here, straight from the raw file
        raw = us_state_borders_path().read_text().splitlines()
        parent = {s: s for s in US_STATE_LABELS}

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for line in raw:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            a, b = line.split(",")[:2]
            parent[find(a)] = find(b)
        groups = {}
        for s in US_STATE_LABELS:
            groups.setdefault(find(s), set()).add(s)
        expected = sorted(
            (sorted(US_STATE_LABELS.index(s) for s in g) for g in groups.values()),
            key=lambda g: g[0],
        )
        assert connected_components(us_spec) == expected
        sizes = sorted(len(g) for g in expected)
        assert sizes == [1, 1, 49]


class TestReadEdgeList:
    def test_comments_and_blanks_skipped(self, tmp_path):
        path = tmp_path / "edges.txt"
        path.write_text("# header\n\nA,B\nB,C,0.5\n")
        assert read_edge_list(path) == [("A", "B", 1.0), ("B", "C", 0.5)]

    def test_bad_weight_reports_line(self, tmp_path):
        path = tmp_path / "edges.txt"
        path.write_text("A,B,heavy\n")
        with pytest.raises(ValidationError, match="1: bad weight"):
            read_edge_list(path)

    @pytest.mark.parametrize("line", ["AK,", ",AK", "AK, ,2"])
    def test_empty_label_reports_line(self, tmp_path, line):
        path = tmp_path / "edges.txt"
        path.write_text(f"A,B\n{line}\n")
        with pytest.raises(ValidationError, match=r"edges\.txt:2: empty label$"):
            read_edge_list(path)

    def test_wrong_field_count(self, tmp_path):
        path = tmp_path / "edges.txt"
        path.write_text("A\n")
        with pytest.raises(ValidationError, match="expected 2 or 3"):
            read_edge_list(path)
