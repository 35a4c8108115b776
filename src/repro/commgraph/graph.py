"""The :class:`CommGraph` container.

Edges are stored deduplicated in arrays (srcs, dsts, vols) sorted by
(src, dst); all transformation methods (contraction, subgraphs,
relabeling, symmetrization) are vectorized. Self-loops represent
intra-task (or after contraction, intra-cluster) volume; they are kept by
default because phase-1 clustering *wants* to maximize them, and mappers
ignore them since co-located traffic never enters the network.
"""

from __future__ import annotations

import numpy as np

from repro.errors import CommGraphError

__all__ = ["CommGraph"]


class CommGraph:
    """A weighted directed communication graph over ``num_tasks`` ranks.

    Parameters
    ----------
    num_tasks:
        Number of vertices (MPI ranks / clusters).
    srcs, dsts, vols:
        Parallel edge arrays. Duplicate (src, dst) pairs are summed.
    grid_shape:
        Optional logical process-grid shape with ``prod == num_tasks``;
        enables structure-preserving tiling in RAHTM phase 1.
    """

    def __init__(self, num_tasks: int, srcs, dsts, vols,
                 grid_shape: tuple[int, ...] | None = None):
        if num_tasks <= 0:
            raise CommGraphError(f"num_tasks must be positive, got {num_tasks}")
        self.num_tasks = int(num_tasks)
        srcs = np.asarray(srcs, dtype=np.int64).ravel()
        dsts = np.asarray(dsts, dtype=np.int64).ravel()
        vols = np.asarray(vols, dtype=np.float64).ravel()
        if not (len(srcs) == len(dsts) == len(vols)):
            raise CommGraphError("srcs, dsts, vols must have equal length")
        if len(srcs) and (
            srcs.min() < 0 or srcs.max() >= num_tasks
            or dsts.min() < 0 or dsts.max() >= num_tasks
        ):
            raise CommGraphError("edge endpoint out of range")
        if np.any(vols < 0):
            raise CommGraphError("communication volumes must be >= 0")
        if len(srcs) == 0:
            self.srcs = np.empty(0, dtype=np.int64)
            self.dsts = np.empty(0, dtype=np.int64)
            self.vols = np.empty(0)
            self.grid_shape = self._check_grid(grid_shape)
            return
        # Deduplicate: sum volumes of repeated (src, dst) pairs.
        keys = srcs * num_tasks + dsts
        order = np.argsort(keys, kind="stable")
        keys = keys[order]
        vols = vols[order]
        uniq_mask = np.r_[True, keys[1:] != keys[:-1]]
        uniq_keys = keys[uniq_mask]
        seg_ids = np.cumsum(uniq_mask) - 1
        summed = np.zeros(len(uniq_keys))
        np.add.at(summed, seg_ids, vols)
        keep = summed > 0
        uniq_keys = uniq_keys[keep]
        self.srcs = (uniq_keys // num_tasks).astype(np.int64)
        self.dsts = (uniq_keys % num_tasks).astype(np.int64)
        self.vols = summed[keep]
        self.grid_shape = self._check_grid(grid_shape)

    def _check_grid(self, grid_shape):
        if grid_shape is None:
            return None
        grid_shape = tuple(int(g) for g in grid_shape)
        if int(np.prod(grid_shape)) != self.num_tasks:
            raise CommGraphError(
                f"grid_shape {grid_shape} does not cover {self.num_tasks} tasks"
            )
        return grid_shape

    # -- constructors ---------------------------------------------------------
    @classmethod
    def from_edges(cls, num_tasks: int, edges, grid_shape=None) -> "CommGraph":
        """Build from an iterable of ``(src, dst, vol)`` triples."""
        edges = list(edges)
        if not edges:
            return cls(num_tasks, [], [], [], grid_shape=grid_shape)
        srcs, dsts, vols = zip(*edges)
        return cls(num_tasks, srcs, dsts, vols, grid_shape=grid_shape)

    @classmethod
    def from_matrix(cls, matrix, grid_shape=None) -> "CommGraph":
        """Build from a dense or scipy-sparse volume matrix (row=src)."""
        import scipy.sparse as sp

        if sp.issparse(matrix):
            coo = matrix.tocoo()
            n = coo.shape[0]
            if coo.shape[0] != coo.shape[1]:
                raise CommGraphError(f"matrix must be square, got {coo.shape}")
            return cls(n, coo.row, coo.col, coo.data, grid_shape=grid_shape)
        matrix = np.asarray(matrix, dtype=np.float64)
        if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
            raise CommGraphError(f"matrix must be square 2-D, got {matrix.shape}")
        srcs, dsts = np.nonzero(matrix)
        return cls(matrix.shape[0], srcs, dsts, matrix[srcs, dsts],
                   grid_shape=grid_shape)

    # -- views ---------------------------------------------------------------
    def to_matrix(self, dense: bool = False):
        """Volume matrix as CSR (or dense when ``dense=True``)."""
        import scipy.sparse as sp

        m = sp.csr_matrix(
            (self.vols, (self.srcs, self.dsts)),
            shape=(self.num_tasks, self.num_tasks),
        )
        return m.toarray() if dense else m

    def to_networkx(self):
        """Directed networkx graph with ``volume`` edge attributes."""
        import networkx as nx

        g = nx.DiGraph()
        g.add_nodes_from(range(self.num_tasks))
        g.add_weighted_edges_from(
            zip(self.srcs.tolist(), self.dsts.tolist(), self.vols.tolist()),
            weight="volume",
        )
        return g

    @property
    def num_edges(self) -> int:
        return len(self.vols)

    @property
    def total_volume(self) -> float:
        return float(self.vols.sum())

    @property
    def offdiagonal_volume(self) -> float:
        """Volume between *distinct* tasks (what can hit the network)."""
        mask = self.srcs != self.dsts
        return float(self.vols[mask].sum())

    def without_self_loops(self) -> "CommGraph":
        mask = self.srcs != self.dsts
        return CommGraph(
            self.num_tasks, self.srcs[mask], self.dsts[mask], self.vols[mask],
            grid_shape=self.grid_shape,
        )

    def task_volumes(self) -> np.ndarray:
        """Per-task total (in + out) off-diagonal volume."""
        out = np.zeros(self.num_tasks)
        mask = self.srcs != self.dsts
        np.add.at(out, self.srcs[mask], self.vols[mask])
        np.add.at(out, self.dsts[mask], self.vols[mask])
        return out

    # -- transforms ------------------------------------------------------------
    def symmetrized(self) -> "CommGraph":
        """Undirected view: ``W' = W + W.T`` (self-loops doubled too)."""
        return CommGraph(
            self.num_tasks,
            np.r_[self.srcs, self.dsts],
            np.r_[self.dsts, self.srcs],
            np.r_[self.vols, self.vols],
            grid_shape=self.grid_shape,
        )

    def contract(self, labels, num_clusters: int | None = None,
                 grid_shape=None) -> "CommGraph":
        """Contract tasks into clusters given per-task cluster labels.

        Volumes between clusters sum; intra-cluster volume becomes the
        cluster's self-loop. ``grid_shape`` annotates the contracted graph
        (it cannot be inferred).
        """
        labels = np.asarray(labels, dtype=np.int64)
        if labels.shape != (self.num_tasks,):
            raise CommGraphError(
                f"labels must have shape ({self.num_tasks},), got {labels.shape}"
            )
        if num_clusters is None:
            num_clusters = int(labels.max()) + 1 if len(labels) else 0
        if len(labels) and (labels.min() < 0 or labels.max() >= num_clusters):
            raise CommGraphError("cluster label out of range")
        return CommGraph(
            num_clusters, labels[self.srcs], labels[self.dsts], self.vols,
            grid_shape=grid_shape,
        )

    def relabeled(self, perm) -> "CommGraph":
        """Rename task ``t`` to ``perm[t]`` (perm must be a permutation)."""
        perm = np.asarray(perm, dtype=np.int64)
        if perm.shape != (self.num_tasks,) or (
            np.sort(perm) != np.arange(self.num_tasks)
        ).any():
            raise CommGraphError("perm must be a permutation of all tasks")
        new_grid = self.grid_shape  # permutation invalidates grid structure
        return CommGraph(
            self.num_tasks, perm[self.srcs], perm[self.dsts], self.vols,
            grid_shape=new_grid,
        )

    def subgraph(self, task_ids) -> "CommGraph":
        """Induced subgraph over ``task_ids``, reindexed to 0..len-1."""
        task_ids = np.asarray(task_ids, dtype=np.int64)
        if len(np.unique(task_ids)) != len(task_ids):
            raise CommGraphError("task_ids must be unique")
        lookup = np.full(self.num_tasks, -1, dtype=np.int64)
        lookup[task_ids] = np.arange(len(task_ids))
        mask = (lookup[self.srcs] >= 0) & (lookup[self.dsts] >= 0)
        return CommGraph(
            len(task_ids),
            lookup[self.srcs[mask]],
            lookup[self.dsts[mask]],
            self.vols[mask],
        )

    def scaled(self, factor: float) -> "CommGraph":
        """All volumes multiplied by ``factor`` (> 0)."""
        if factor <= 0:
            raise CommGraphError(f"scale factor must be > 0, got {factor}")
        return CommGraph(
            self.num_tasks, self.srcs, self.dsts, self.vols * factor,
            grid_shape=self.grid_shape,
        )

    def __add__(self, other: "CommGraph") -> "CommGraph":
        if not isinstance(other, CommGraph):
            return NotImplemented
        if other.num_tasks != self.num_tasks:
            raise CommGraphError("cannot add graphs with different task counts")
        return CommGraph(
            self.num_tasks,
            np.r_[self.srcs, other.srcs],
            np.r_[self.dsts, other.dsts],
            np.r_[self.vols, other.vols],
            grid_shape=self.grid_shape or other.grid_shape,
        )

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, CommGraph)
            and self.num_tasks == other.num_tasks
            and np.array_equal(self.srcs, other.srcs)
            and np.array_equal(self.dsts, other.dsts)
            and np.allclose(self.vols, other.vols)
        )

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        grid = f", grid={self.grid_shape}" if self.grid_shape else ""
        return (
            f"CommGraph(tasks={self.num_tasks}, edges={self.num_edges}, "
            f"volume={self.total_volume:g}{grid})"
        )
