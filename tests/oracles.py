"""Oracles and fixtures that several test files share: the three fitters'
specs, the default slice, a brute-force cover and packing count, and
synthetic maps on stacked slice points (m, 2)."""

import numpy as np

from singlab.datamaps import BatchOutcome, DataMapSpec, MapKind, UndefinedReason
from singlab.geometry import LineDirection, reduce_mod_pi
from singlab.slices import SliceSpec, slice_map

LS = DataMapSpec(kind=MapKind.LS_LINE)
PC = DataMapSpec(kind=MapKind.PC_LINE)
LAD = DataMapSpec(kind=MapKind.LAD_LINE)
SLICE = SliceSpec()


def exact_cover_and_packing(cloud, delta):
    """Brute-force N(delta), the fewest closed delta-balls centred on cloud
    points that cover it, and D(delta), the most cloud points pairwise more
    than delta apart, over all 2^m subsets."""
    m = len(cloud)
    near = (np.linalg.norm(cloud[:, None, :] - cloud[None, :, :], axis=2) <= delta).astype(int)
    members = ((np.arange(1 << m)[:, None] >> np.arange(m)) & 1).astype(int)
    sizes = members.sum(axis=1)
    covers = (members @ near > 0).all(axis=1)
    close_pairs = np.einsum("si,ij,sj->s", members, np.triu(near, 1), members)
    return int(sizes[covers].min()), int(sizes[close_pairs == 0].max())


def fitter_on_slice(kind):
    """The fitter of this kind on the default slice, as a batch map."""
    return slice_map(SLICE, DataMapSpec(kind=kind))


def origin_batch(value, gap, origin, feature=LineDirection):
    """A BatchOutcome of the given values and gaps, Undefined (ORIGIN) on
    the rows where origin is set."""
    return BatchOutcome(value=value, gap=gap, reason=np.where(origin, UndefinedReason.ORIGIN, 0), feature=feature)


def half_angle_map(k=1, singularity=(0.0, 0.0), atan2=np.arctan2):
    """Synthetic map u -> LineDirection(k * arg(u - x0) / 2) on stacked
    points (m, 2), gap |u - x0|: degree k, with the given two-argument
    arctangent."""
    x0 = np.asarray(singularity, dtype=float)

    def fn(us):
        v = np.asarray(us, dtype=float) - x0
        r = np.linalg.norm(v, axis=1)
        return origin_batch(reduce_mod_pi(0.5 * k * atan2(v[:, 1], v[:, 0])), r, r == 0.0)

    return fn
