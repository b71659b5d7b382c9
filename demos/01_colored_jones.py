"""Colored Jones values: unknot, torus knots, and their cables.

Everything is an exact Laurent polynomial in t.  The normalization makes
the unknot's value at color n the balanced quantum integer [n], values at
color 0 vanish, and negative colors carry the odd extension.
"""

from ajcable.jones import CablingParams, cabled_jones, quantum_integer, torus_jones

print("Unknot (quantum integers):")
for n in range(0, 5):
    print(f"  n={n}:  {quantum_integer(n).text()}")
print(f"  n=-3: {quantum_integer(-3).text()}   (odd extension)")

print("\nTrefoil = (3,2) torus knot:")
for n in range(1, 4):
    print(f"  n={n}:  {torus_jones(3, 2, n).text()}")

print("\nMirror trefoil = (-3,2):")
print(f"  n=2:  {torus_jones(-3, 2, 2).text()}")

params = CablingParams(3, 2, 13, 2)
print(f"\n(13,2)-cable of the trefoil, {params}:")
for n in range(1, 4):
    print(f"  n={n}:  {cabled_jones(params, n).text()}")

print("\nThe cable value at color 2 is a reindexed torus value:")
print("  t^-26 * J_torus(3,2; n=3) - t^-78  ==  J_cable(n=2)")
