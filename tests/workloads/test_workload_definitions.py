"""Structural tests for every Table 1 workload definition."""

import numpy as np
import pytest

from repro.workloads import WORKLOAD_FACTORIES, all_workloads
from repro.accelerator import KernelModel, RTX2080


@pytest.fixture(params=list(WORKLOAD_FACTORIES), ids=list(WORKLOAD_FACTORIES))
def workload(request):
    return WORKLOAD_FACTORIES[request.param]()


class TestTable1Inventory:
    def test_all_ten_present(self):
        assert list(WORKLOAD_FACTORIES) == [
            "BFS", "SSSP", "GEMM", "Hotspot", "KMeans", "KNN",
            "PageRank", "Conv2D", "TTV", "TC"]

    def test_categories_match_table1(self):
        categories = {w.name: w.category for w in all_workloads()}
        assert categories["BFS"] == "Graph Traversal"
        assert categories["GEMM"] == "Linear Algebra"
        assert categories["Hotspot"] == "Physics Simulation"
        assert categories["KMeans"] == "Data Mining"
        assert categories["Conv2D"] == "Image Processing"
        assert categories["TTV"] == "Tensor Algebra"

    def test_tensor_core_workloads(self):
        uses = {w.name: w.uses_tensor_cores for w in all_workloads()}
        assert uses["GEMM"] and uses["TC"]
        assert not uses["BFS"]

    def test_shared_input_pairs(self):
        """§6.2: BFS/SSSP, KMeans/KNN and TTV/TC share inputs."""
        groups = {w.name: w.shared_input_group() for w in all_workloads()}
        assert groups["BFS"] == groups["SSSP"] is not None
        assert groups["KMeans"] == groups["KNN"] is not None
        assert groups["TTV"] == groups["TC"] is not None
        assert groups["GEMM"] is None


class TestPlans:
    def test_plan_nonempty_and_within_bounds(self, workload):
        plan = workload.tile_plan()
        assert plan
        dims_by_name = {ds.name: ds.dims for ds in workload.datasets()}
        for fetch in plan:
            dims = dims_by_name[fetch.dataset]
            assert len(fetch.origin) == len(dims)
            for o, e, d in zip(fetch.origin, fetch.extents, dims):
                assert 0 <= o and o + e <= d and e >= 1

    def test_plan_respects_max_tiles(self, workload):
        assert len(workload.tile_plan()) <= workload.max_tiles

    def test_kernel_times_positive(self, workload):
        kernels = KernelModel(RTX2080)
        for fetch in workload.tile_plan()[:4]:
            assert workload.kernel_time(kernels, fetch) >= 0.0

    def test_tile_bytes(self, workload):
        fetch = workload.tile_plan()[0]
        expected = workload.dataset(fetch.dataset).element_size
        for extent in fetch.extents:
            expected *= extent
        assert workload.tile_bytes(fetch) == expected


class TestFunctionalKernels:
    """Reference kernels at miniature scale."""

    def test_bfs_levels(self, rng):
        from repro.workloads import BfsWorkload
        wl = BfsWorkload(nodes=32, batch_rows=8)
        levels = wl.reference(wl.generate(rng))
        assert levels[0] == 0
        assert (levels >= -1).all()
        # chain edge guarantees broad reachability
        assert (levels >= 0).sum() > 16

    def test_sssp_distances(self, rng):
        from repro.workloads import SsspWorkload
        wl = SsspWorkload(nodes=32, segment=8)
        dist = wl.reference(wl.generate(rng))
        assert dist[0] == 0.0
        finite = np.isfinite(dist)
        assert finite.sum() > 16

    def test_hotspot_step(self, rng):
        from repro.workloads import HotspotWorkload
        wl = HotspotWorkload(n=32, tile_rows=8, tile_cols=16)
        out = wl.reference(wl.generate(rng))
        assert out.shape == (32, 32)
        assert np.isfinite(out).all()

    def test_kmeans_assignment(self, rng):
        from repro.workloads import KMeansWorkload
        wl = KMeansWorkload(points=64, attributes=16, clusters=4, stripe=8)
        assignment = wl.reference(wl.generate(rng))
        assert assignment.shape == (64,)
        assert set(np.unique(assignment)) <= set(range(4))

    def test_knn_neighbours(self, rng):
        from repro.workloads import KnnWorkload
        wl = KnnWorkload(points=64, attributes=16, neighbours=5,
                         batch_points=8)
        order = wl.reference(wl.generate(rng))
        assert order.shape == (5,)
        assert 0 not in order  # the query itself is excluded

    def test_pagerank_sums_to_one(self, rng):
        from repro.workloads import PageRankWorkload
        wl = PageRankWorkload(nodes=64, stripe=16)
        rank = wl.reference(wl.generate(rng))
        assert rank.sum() == pytest.approx(1.0, abs=1e-6)
        assert (rank > 0).all()

    def test_conv2d_preserves_constant(self):
        from repro.workloads import Conv2dWorkload
        wl = Conv2dWorkload(n=32, tile_rows=8, tile_cols=16)
        const = {"image": np.full((32, 32), 5.0, dtype=np.float32)}
        out = wl.reference(const)
        assert np.allclose(out, 5.0)

    def test_ttv_contraction(self, rng):
        from repro.workloads import TtvWorkload
        wl = TtvWorkload(rows=8, cols=8, depth=16,
                         tile_rows=4, tile_cols=4, tile_depth=8)
        inputs = wl.generate(rng)
        out = wl.reference(inputs)
        expected = np.einsum("ijk,k->ij",
                             inputs["tensor"].astype(np.float64),
                             wl.vector())
        assert np.allclose(out, expected)

    def test_tc_contraction_shape(self, rng):
        from repro.workloads import TcWorkload
        wl = TcWorkload(rows=8, cols=8, depth=16, tile_rows=4,
                        tile_cols=4, tile_depth=8, contract_dim=4)
        out = wl.reference(wl.generate(rng))
        assert out.shape == (8, 8, 4)
