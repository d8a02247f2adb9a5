"""Tri-state verdicts shared by the independent fatness criteria."""

from __future__ import annotations

from dataclasses import dataclass

FAT = "fat"
NOT_FAT = "not_fat"
NOT_APPLICABLE = "not_applicable"


@dataclass(frozen=True, slots=True)
class Verdict:
    """Outcome of one fatness criterion with its witness data.

    ``witness_root`` is a vanishing forbidden root (root criterion),
    ``null_vector`` an exact kernel vector of the curvature Gram in
    m-coordinates, primitive integers (oracle), ``witness_vector`` an exact
    nonzero element of ker(ad) intersected with m (centralizer criterion).
    The oracle decides by the exact rank of the Gram; its singular values
    are margins, None past the float range, and ``tol`` only sets
    ``well_conditioned`` (smin > tol * smax, the float SVD's fat).
    """

    status: str
    witness_root: tuple | None = None
    null_vector: tuple | None = None
    witness_vector: tuple | None = None
    min_singular_value: float | None = None
    max_singular_value: float | None = None
    well_conditioned: bool | None = None
    note: str = ""


FAT_VERDICT = Verdict(FAT)  # witness-free, so one frozen instance serves
