"""
Citation patterns and cosine similarity
=======================================

A node's citation pattern is its row of outgoing citation counts divided
by the row total, so journals of very different sizes become comparable.
Similarity between two nodes is the cosine of the angle between their
patterns: 1.0 for proportional rows, 0.0 for rows citing disjoint targets.
"""

import numpy as np

from simpair import CitationMatrix, build_similarity_matrix

# Six journals: 0-2 cite within one field, 3-5 within another, and
# journal 2 occasionally cites across the aisle.
counts = np.array([
    [0, 8, 4, 0, 0, 0],
    [6, 0, 5, 0, 0, 0],
    [4, 6, 0, 2, 0, 0],
    [0, 0, 0, 0, 9, 3],
    [0, 0, 1, 7, 0, 5],
    [0, 0, 0, 4, 8, 0],
])
matrix = CitationMatrix.from_dense(counts)

print("citation patterns (each row divided by its total):")
print(np.round(counts / counts.sum(axis=1, keepdims=True), 3))

sim = build_similarity_matrix(matrix)
print("\nsimilarity matrix (stored sparse without its diagonal; shown dense):")
print(np.round(sim.values.toarray(), 3))

# Scaling a row leaves its pattern unchanged: similarities are about
# citation *habits*, not volume.
doubled = counts.copy()
doubled[0] *= 10
sim2 = build_similarity_matrix(CitationMatrix.from_dense(doubled))
print("\nmax change after scaling row 0 by 10:",
      np.abs(sim.values.toarray() - sim2.values.toarray()).max())
