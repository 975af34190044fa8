"""The verification engine, on an honest cover and a sabotaged one.

Each check family compares a quantity computed from the cover's edges
(or the clopen-set engine built on them) against the same quantity
recomputed from survivor sets and their letter-prepend map, never the
transition semigroup.  Damaging the cover makes the two routes
disagree, and the report says where.
"""

from soficshift import (build_cover, corrupt_cover, parse_presentation,
                        verify_all)

even = parse_presentation("""
alphabet 0 1
vertex a
vertex b
edge a a 1
edge a b 0
edge b a 0
""")
cover = build_cover(even)

print("honest cover:")
print(verify_all(cover, max_len=8).render())

# Move one edge's range to a different class.  The damaged cover still
# looks plausible locally, but the word-level checks see through it.
bad = corrupt_cover(cover, "reassign-range")
print("\nafter reassigning an edge range:")
print(verify_all(bad, max_len=6).render())

# Duplicating a (label, range) pair destroys left-resolving
# uniqueness, which a different set of families guards.
worse = corrupt_cover(cover, "duplicate-label")
print("\nafter duplicating a label into one class:")
print(verify_all(worse, max_len=6).render())
