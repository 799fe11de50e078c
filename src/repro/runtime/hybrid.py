"""The heterogeneous executor — the paper's Algorithm 2 and Figure 8.

``SW_het``: sort and split the database at a workload fraction, launch
the device share through an asynchronous offload region, compute the
host share concurrently, wait on the signal, merge.  Total time is
``max(host, device-including-transfers)`` plus the (negligible) merge —
which is why Figure 8 peaks where the two sides finish together, near
55 % on the Phi for this device pair (the Phi is slightly faster, and
pays the PCIe transfers out of its share).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..db.preprocess import split_indices
from ..exceptions import OffloadError
from ..perfmodel.model import DevicePerformanceModel, RunConfig, Workload
from .offload import OffloadRegion
from .pcie import PCIE_GEN2_X16, PCIeLink

__all__ = ["require_work", "split_lengths", "HybridResult", "HybridExecutor"]


def require_work(lengths: np.ndarray, *, what: str = "lengths") -> np.ndarray:
    """Validate that a length distribution carries actual residues.

    Returns the array as ``int64``; raises :class:`OffloadError` naming
    the offending input when it is empty or sums to zero residues (both
    previously surfaced as a ``ZeroDivisionError`` or an opaque
    "produced no work" failure deep inside the split).
    """
    arr = np.asarray(lengths, dtype=np.int64)
    if arr.size == 0:
        raise OffloadError(f"{what} is empty — there is no work to distribute")
    if int(arr.sum()) <= 0:
        raise OffloadError(
            f"{what} sums to zero residues ({arr.size} entries, all zero) — "
            "there is no work to distribute"
        )
    return arr


def split_lengths(
    lengths: np.ndarray, device_fraction: float
) -> tuple[np.ndarray, np.ndarray]:
    """Partition a length distribution at a residue fraction.

    The :func:`repro.db.preprocess.split_indices` walk over bare
    lengths, so full-scale model experiments stay cheap.  Returns
    ``(host_lengths, device_lengths)``.
    """
    if not 0.0 <= device_fraction <= 1.0:
        raise OffloadError(
            f"device fraction must be within [0, 1], got {device_fraction}"
        )
    arr = np.asarray(lengths, dtype=np.int64)
    if 0.0 < device_fraction < 1.0:
        require_work(arr, what="lengths")
    host, device = split_indices(arr, device_fraction)
    return arr[host], arr[device]


@dataclass(frozen=True)
class HybridResult:
    """Timing breakdown of one heterogeneous search."""

    device_fraction: float
    total_seconds: float
    host_seconds: float
    device_seconds: float  # includes transfers and launch
    cells: int

    @property
    def gcups(self) -> float:
        """Combined throughput — the paper's Figure 8 y-axis."""
        return self.cells / self.total_seconds / 1e9

    @property
    def overlap_efficiency(self) -> float:
        """How close the two sides finish together (1.0 = perfectly)."""
        slower = max(self.host_seconds, self.device_seconds)
        faster = min(self.host_seconds, self.device_seconds)
        return faster / slower if slower > 0 else 1.0


class HybridExecutor:
    """Runs the modelled SW search across host + coprocessor."""

    def __init__(
        self,
        host: DevicePerformanceModel,
        device: DevicePerformanceModel,
        *,
        link: PCIeLink = PCIE_GEN2_X16,
        host_lanes: int | None = None,
        device_lanes: int | None = None,
    ) -> None:
        self.host = host
        self.device = device
        self.link = link
        self.host_lanes = host_lanes or host.spec.lanes32
        self.device_lanes = device_lanes or device.spec.lanes32

    # ------------------------------------------------------------------
    def run(
        self,
        lengths: np.ndarray,
        query_len: int,
        device_fraction: float,
        config: RunConfig | None = None,
    ) -> HybridResult:
        """One Algorithm 2 execution at a fixed split fraction."""
        cfg = config or RunConfig()
        arr = require_work(lengths, what="database length distribution")
        total_cells = int(query_len) * int(arr.sum())
        host_l, dev_l = split_lengths(arr, device_fraction)

        host_s = 0.0
        if host_l.size:
            wl = Workload.from_lengths(host_l, self.host_lanes)
            host_s = self.host.run_seconds(wl, query_len, cfg)

        dev_s = 0.0
        if dev_l.size:
            wl = Workload.from_lengths(dev_l, self.device_lanes)
            compute = self.device.run_seconds(wl, query_len, cfg)
            region = OffloadRegion(self.link)
            handle = region.run_async(
                in_bytes=int(dev_l.sum()) + query_len + 24 * 24 * 4,
                out_bytes=4 * len(dev_l),
                compute_seconds=compute,
            )
            dev_s = region.wait(handle)

        total = max(host_s, dev_s)
        if total <= 0:
            raise OffloadError("hybrid run produced no work")
        return HybridResult(
            device_fraction=device_fraction,
            total_seconds=total,
            host_seconds=host_s,
            device_seconds=dev_s,
            cells=total_cells,
        )

    def sweep(
        self,
        lengths: np.ndarray,
        query_len: int,
        fractions: list[float],
        config: RunConfig | None = None,
    ) -> dict[float, HybridResult]:
        """Figure 8: one run per workload-distribution point."""
        return {
            f: self.run(lengths, query_len, f, config) for f in fractions
        }

    def best_split(
        self,
        lengths: np.ndarray,
        query_len: int,
        config: RunConfig | None = None,
        *,
        resolution: float = 0.05,
    ) -> HybridResult:
        """The optimal static distribution (the paper's ~55 % on the Phi)."""
        if not 0 < resolution <= 0.5:
            raise OffloadError(f"resolution must be in (0, 0.5], got {resolution}")
        steps = int(round(1.0 / resolution))
        fractions = [k * resolution for k in range(steps + 1)]
        results = self.sweep(lengths, query_len, fractions, config)
        return max(results.values(), key=lambda r: r.gcups)
