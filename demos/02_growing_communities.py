"""
Growing communities from a ranked pair list
===========================================

Detection consumes node pairs in order of decreasing similarity. A pair of
two unknown nodes founds a core community; a pair with one known node
joins the newcomer to that core; a pair bridging two existing cores is a
"tide" and merges them only at the coarser real level.

The ten pairs below walk through every case: (2,3) and (5,10) found cores,
(1,2) joins, (6,9) founds a third, and (9,5) is a tide - so cores stay
{2,3,1,7} / {5,10,8,4} / {6,9} while the real level sees the last two as
one community.

A ranked pair list is three columns: selector, selected and similarity.
"""

import numpy as np

from simpair import (
    CORE,
    REAL,
    build_communities,
    extract_partition,
    partition_stats,
)

pairs = (
    np.array([2, 3, 5, 10, 1, 6, 9, 8, 4, 7]),  # selector
    np.array([3, 2, 10, 5, 2, 9, 5, 10, 8, 1]),  # selected
    np.array([0.4988, 0.4988, 0.3311, 0.3311, 0.2211,
              0.2209, 0.2109, 0.1667, 0.1521, 0.1456]),  # similarity, decreasing
)

# a level is arrays: node -> core, core -> real, members by core, tide rows
result = build_communities(pairs, n_nodes=11)  # node 0 is never mentioned

print("core communities (insertion order preserved):")
for cid, members in enumerate(result.member_lists(CORE)):
    # a core's first two members are the pair that founded it
    print(f"  core {cid}: {members}  (founded by {members[0]}-{members[1]})")

print("\ntides:")
for selector, selected, core_a, core_b in result.tides.tolist():
    print(f"  ({selector},{selected}) bridges core {core_a} and core {core_b}")

print("\nreal communities:")
for rid, members in enumerate(result.member_lists(REAL)):
    print(f"  real {rid}: {members}  (cores {np.flatnonzero(result.real == rid).tolist()})")

print("\nunassigned nodes:", result.unassigned.tolist())
print("\nheadline counts:", {k: v for k, v in partition_stats(result).items()
                             if k in ("cores", "reals", "tides", "unassigned")})

core_part = extract_partition(result, CORE)
real_part = extract_partition(result, REAL)
print("\ncore labels:", core_part.labels.tolist())
print("real labels:", real_part.labels.tolist())
