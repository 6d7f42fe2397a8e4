"""Work counters threaded through the compute kernels.

Counting conventions (these are the closed forms asserted by the
instrumentation tests):

* ``matvecs``: one per sparse matrix-vector product with the problem matrix.
* ``inner_products``: one per N-dimensional projection coefficient and one
  per N-dimensional norm computed during orthogonalization.  The initial
  normalization of the Arnoldi start vector is setup and is not counted.
* ``sketches``: one per application of the sketching operator to a vector.
"""


class Counters:
    """Accumulator for matvec / inner-product / sketch counts."""

    __slots__ = ("matvecs", "inner_products", "sketches")

    def __init__(self):
        self.matvecs = 0
        self.inner_products = 0
        self.sketches = 0

    def add_matvecs(self, n=1):
        self.matvecs += n

    def add_inner_products(self, n=1):
        self.inner_products += n

    def add_sketches(self, n=1):
        self.sketches += n

    def snapshot(self):
        return (self.matvecs, self.inner_products, self.sketches)

    def __repr__(self):
        m, p, s = self.snapshot()
        return f"Counters(matvecs={m}, inner_products={p}, sketches={s})"
