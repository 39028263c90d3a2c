"""Reference values the benchmark checks outputs against.

Every value here was computed by the package at the commit that introduced
the benchmark, with the default (effectively unlimited) search budget, and
every certificate was exact.  The README value table is checked against
``CATALOG`` at run time wherever it lists a group.
"""

# spec -> (order, enapp, affapp) for the whole catalog up to order 15
CATALOG = {
    "cyclic(1)": (1, 1, 1),
    "cyclic(2)": (2, 1, 2),
    "cyclic(3)": (3, 1, 2),
    "cyclic(4)": (4, 1, 2),
    "elemabelian(2,2)": (4, 2, 3),
    "cyclic(5)": (5, 1, 2),
    "cyclic(6)": (6, 1, 2),
    "sym(3)": (6, 0, 2),
    "cyclic(7)": (7, 1, 2),
    "cyclic(8)": (8, 1, 2),
    "product(cyclic(4),cyclic(2))": (8, 1, 2),
    "elemabelian(2,3)": (8, 3, 4),
    "dihedral(8)": (8, 1, 2),
    "dicyclic(8)": (8, 1, 3),
    "cyclic(9)": (9, 1, 2),
    "elemabelian(3,2)": (9, 2, 3),
    "cyclic(10)": (10, 1, 2),
    "dihedral(10)": (10, 0, 2),
    "cyclic(11)": (11, 1, 2),
    "cyclic(12)": (12, 1, 2),
    "product(cyclic(6),cyclic(2))": (12, 1, 3),
    "dihedral(12)": (12, 1, 3),
    "alt(4)": (12, 0, 3),
    "dicyclic(12)": (12, 0, 2),
    "cyclic(13)": (13, 1, 2),
    "cyclic(14)": (14, 1, 2),
    "dihedral(14)": (14, 0, 2),
    "cyclic(15)": (15, 1, 2),
}

# (spec, metric) -> exact value, for the large-family ops the package can
# settle; the others stayed open after 3,000,000 nodes
LARGE_FAMILY_EXACT = {
    ("sym(4)", "endo"): 0,
    ("dihedral(32)", "endo"): 1,
    ("product(dihedral(8),cyclic(2))", "endo"): 1,
    ("product(dihedral(8),cyclic(2))", "affine"): 3,
    ("cyclic(64)", "endo"): 1,
    ("cyclic(64)", "affine"): 2,
}
