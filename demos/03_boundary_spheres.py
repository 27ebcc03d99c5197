"""Boundary polytope complexes and their sphere certificates.

Slicing the cone of admissible colorings by the degree hyperplane gives a
polytope; the faces that avoid every peripheral ray assemble into the
relative boundary complex.  For the small surfaces that complex is a
circle; for the five-punctured sphere it is a 3-sphere glued from four
tetrahedra and two square pyramids.
"""

import multicurve as mc

for name in ("ex11", "n4ex", "n4ex2"):
    cpx = mc.relative_complex(mc.fixture(name))
    betti = [b for b, _ in cpx.homology()]
    print(f"{name}: f-vector {cpx.f_vector()}, betti {betti} -> "
          f"{mc.sphere_certificate(cpx, 1).statement}")

daisy = mc.flower(5)
cpx = mc.relative_complex(daisy)
print(f"\nflower:5: f-vector {cpx.f_vector()}")
print("  top cells by vertex count:",
      sorted(cpx.order[c].bit_count() for c in cpx.cells_of_dim(3)))
cert = mc.sphere_certificate(cpx, 3)
print("  connected:", cert.connected,
      "| pseudomanifold:", cert.pseudomanifold,
      "| betti:", cert.betti)
print(" ", cert.statement)

# the lowest case is genuinely empty
try:
    mc.relative_complex(mc.fixture("flower:3"))
except mc.errors.EmptyRelativeComplex as err:
    print("\nflower:3:", err)

# flips do not change the topology of the boundary complex
tetra = mc.fixture("n4ex")
for e in range(tetra.num_edges):
    flipped = mc.flip(tetra, e)
    betti = [b for b, _ in mc.relative_complex(flipped).homology()]
    assert betti == [1, 1]
print("\nrelative Betti numbers survive all six flips of the tetrahedron")

# the cone face lattice underneath it all
lattice = mc.cone_face_lattice(daisy)
print(f"\nflower:5 coloring cone: {len(lattice.rays)} extremal rays, "
      f"{sum(map(len, lattice.faces_by_dim))} faces, "
      f"dimension {lattice.dimension}")
