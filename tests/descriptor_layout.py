"""The coordinate layout of a 4x4 matrix descriptor, for tests that read an
element entry by entry: the entries row by row, each the ``k`` payloads of
one entry of the ring (the E block comes first for the exchange algebra)."""


def entries(desc, x):
    """The 4x4 rows of entry payloads of x: k-tuples, or bare payloads for k = 1."""
    n, k = desc.n, desc.k
    cells = [x[p * k : (p + 1) * k] for p in range(n * n)]
    if k == 1:
        cells = [c[0] for c in cells]
    return [cells[i * n : (i + 1) * n] for i in range(n)]
