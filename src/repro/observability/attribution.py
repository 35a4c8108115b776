"""Per-flow link-load attribution: the sparse flow x link matrix.

:mod:`repro.metrics.core` reports MCL as one opaque scalar; this module
decomposes the per-channel load vector into *who* put the bytes there.
For a set of node-level flows under a :class:`~repro.routing.base.Router`
it builds a sparse ``(flows x channel-slots)`` matrix of route fractions
from :meth:`~repro.routing.base.Router.entries`, the same channel-slot
expansion :meth:`~repro.routing.base.Router.link_loads` scatters, so the
attribution sums back to the load vector exactly — up to floating-point
reassociation — by construction. The tests check each row against the
plain per-offset loop in :mod:`repro.routing.reference`.

Construction is chunked: triplets are flushed into CSR parts whenever the
pending chunk exceeds ``chunk_nnz`` entries, so graphs with tens of
thousands of processes never materialize one giant COO buffer.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from repro.errors import ReproError

if TYPE_CHECKING:  # typing only: routing.base imports observability.metrics,
    # so a runtime import here would close an import cycle; scipy is
    # imported by the functions that build matrices, not at start-up.
    import scipy.sparse as sp

    from repro.commgraph.graph import CommGraph
    from repro.mapping.mapping import Mapping
    from repro.routing.base import Router

__all__ = [
    "FlowLinkAttribution",
    "attribute_flows",
    "attribute_mapping",
]

#: Default cap on pending (row, col, frac) triplets before a chunk flush.
DEFAULT_CHUNK_NNZ = 1 << 21


@dataclass(frozen=True)
class FlowLinkAttribution:
    """Per-flow channel-load decomposition for one (router, flows) pair.

    Attributes
    ----------
    router:
        The router the routes came from.
    srcs, dsts, vols:
        The attributed *network* flows (off-node, positive volume), in
        the order the matrix rows use.
    fractions:
        ``(F x num_channel_slots)`` CSR matrix; ``fractions[i, s]`` is
        the fraction of flow ``i``'s volume crossing channel slot ``s``.
    """

    router: Router
    srcs: np.ndarray
    dsts: np.ndarray
    vols: np.ndarray
    fractions: sp.csr_matrix

    @property
    def num_flows(self) -> int:
        return len(self.vols)

    def channel_loads(self) -> np.ndarray:
        """Dense per-slot load vector: column sums of the load matrix."""
        return np.asarray(self.fractions.T @ self.vols).ravel()

    def load_matrix(self) -> sp.csr_matrix:
        """``(F x S)`` matrix of absolute per-flow loads (vols * fracs)."""
        import scipy.sparse as sp

        return sp.diags(self.vols) @ self.fractions

    def usage_matrix(self) -> sp.csr_matrix:
        """``(S x F)`` route-fraction matrix, the fluid simulator's shape."""
        return self.fractions.T.tocsr()

    def flows_through(self, slot: int):
        """Flows crossing channel ``slot``: (flow_indices, contributions).

        Contributions are absolute loads (``vol * fraction``), sorted
        descending, and sum to the slot's entry in
        :meth:`channel_loads`.
        """
        col = self.fractions.getcol(int(slot)).tocoo()
        idx = col.row
        contrib = col.data * self.vols[idx]
        order = np.argsort(-contrib, kind="stable")
        return idx[order], contrib[order]

    def max_residual(self) -> float:
        """Largest |attributed - direct| channel load (consistency check)."""
        direct = self.router.link_loads(self.srcs, self.dsts, self.vols)
        return float(np.abs(self.channel_loads() - direct).max(initial=0.0))


def attribute_flows(
    router: Router,
    srcs,
    dsts,
    vols,
    chunk_nnz: int = DEFAULT_CHUNK_NNZ,
) -> FlowLinkAttribution:
    """Build the flow x link attribution for explicit node-level flows.

    Flows with ``src == dst`` or zero volume carry no network load and
    are dropped (matching :meth:`Router.link_loads` semantics); the
    returned attribution's ``srcs/dsts/vols`` reflect the kept flows.
    """
    import scipy.sparse as sp

    topo = router.topology
    srcs = np.asarray(srcs, dtype=np.int64).ravel()
    dsts = np.asarray(dsts, dtype=np.int64).ravel()
    vols = np.asarray(vols, dtype=np.float64).ravel()
    if not (srcs.shape == dsts.shape == vols.shape):
        raise ReproError("srcs, dsts, vols must be equal-length 1-D arrays")
    keep = (srcs != dsts) & (vols > 0)
    srcs, dsts, vols = srcs[keep], dsts[keep], vols[keep]
    shape = (len(srcs), topo.num_channel_slots)
    if len(srcs) == 0:
        return FlowLinkAttribution(
            router, srcs, dsts, vols, sp.csr_matrix(shape)
        )

    parts: list[sp.csr_matrix] = []
    rows_buf: list[np.ndarray] = []
    cols_buf: list[np.ndarray] = []
    data_buf: list[np.ndarray] = []
    pending = 0

    def flush() -> None:
        nonlocal pending
        if not pending:
            return
        parts.append(
            sp.csr_matrix(
                (
                    np.concatenate(data_buf),
                    (np.concatenate(rows_buf), np.concatenate(cols_buf)),
                ),
                shape=shape,
            )
        )
        rows_buf.clear()
        cols_buf.clear()
        data_buf.clear()
        pending = 0

    order, blocks = router.entries(srcs, dsts)
    for lo, hi, slots, fracs in blocks:
        rows_buf.append(order[lo:hi].repeat(len(fracs)))
        cols_buf.append(slots.ravel())
        data_buf.append(np.tile(fracs, hi - lo))
        pending += slots.size
        if pending >= chunk_nnz:
            flush()
    flush()

    if not parts:
        matrix = sp.csr_matrix(shape)
    elif len(parts) == 1:
        matrix = parts[0]
    else:
        # Chunks partition the flow rows, so summing is a disjoint union.
        matrix = parts[0]
        for part in parts[1:]:
            matrix = matrix + part
    matrix.sum_duplicates()
    return FlowLinkAttribution(router, srcs, dsts, vols, matrix.tocsr())


def attribute_mapping(
    router: Router,
    mapping: Mapping,
    graph: CommGraph,
    chunk_nnz: int = DEFAULT_CHUNK_NNZ,
) -> FlowLinkAttribution:
    """Attribution for the network flows of ``graph`` under ``mapping``."""
    srcs, dsts, vols = mapping.network_flows(graph)
    return attribute_flows(router, srcs, dsts, vols, chunk_nnz=chunk_nnz)
