"""Oracle for the log-sum-exp stack of `mimo_d2d.gp`.

`SparseStack` evaluates the stack with scipy.sparse matrix products: the
gradients as `agg @ E`, with `agg` scattering each row's softmax weight onto
its segment, and the weighted Hessian as `E^T diag E - G^T diag G` over every
segment, affine ones included. The source reads the same stack through index
arrays and skips the affine segments, whose two terms cancel.

`newton_matrix` is the primal-dual Newton matrix as three terms, the formula
the source's one-product assembly replaced.
"""

import numpy as np
import scipy.sparse as sparse


class SparseStack:
    def __init__(self, E, offsets, seg_ptr):
        self.E = sparse.csr_matrix(E)
        self.ET = self.E.T.tocsr()
        self.d = np.asarray(offsets, dtype=float)
        self.ptr = np.asarray(seg_ptr, dtype=int)
        self.m = len(self.ptr) - 1
        self.seg_index = np.repeat(np.arange(self.m), np.diff(self.ptr))

    def values(self, y):
        z = self.E @ y + self.d
        zmax = np.maximum.reduceat(z, self.ptr[:-1])
        w = np.exp(z - zmax[self.seg_index])
        sums = np.add.reduceat(w, self.ptr[:-1])
        return np.log(sums) + zmax, w / sums[self.seg_index]

    def gradients(self, weights):
        agg = sparse.csr_matrix(
            (weights, (self.seg_index, np.arange(weights.size))),
            shape=(self.m, weights.size))
        return np.asarray((agg @ self.E).todense())

    def hessian_terms(self, weights, seg_scale, grads):
        """The two terms `E^T diag E` and `G^T diag G` of the weighted Hessian."""
        term_scale = weights * seg_scale[self.seg_index]
        h1 = np.asarray((self.ET @ sparse.diags(term_scale) @ self.E).todense())
        h2 = grads.T @ (seg_scale[:, None] * grads)
        return h1, h2


def newton_matrix(obj, con, w0, grads0, w, grads, lam, u):
    """Hess f0 + sum_i lam_i Hess f_i + sum_i u_i grad f_i grad f_i^T as the
    objective's Hessian, the constraints' lam-weighted Hessian and the
    u-weighted gradient outer products, each from its own dense product."""
    h1, h2 = obj.hessian_terms(w0, np.ones(obj.m), grads0)
    c1, c2 = con.hessian_terms(w, lam, grads)
    return (h1 - h2) + (c1 - c2) + grads.T @ (u[:, None] * grads)
