"""Oracle for the log-sum-exp stack of `mimo_d2d.gp`.

`SparseStack` evaluates the stack with scipy.sparse matrix products: the
gradients as `agg @ E`, with `agg` scattering each row's softmax weight onto
its segment, and the weighted Hessian as `E^T diag E - G^T diag G` over every
segment, affine ones included. The source reads the same stack through index
arrays and skips the affine segments, whose two terms cancel.

`newton_matrix` is the primal-dual Newton matrix as three terms, the formula
the source's one-product assembly replaced. `two_stack_newton_system` is
the primal-dual Newton system and dual residual as the source formed them
from an objective stack and a constraint stack, before the two became one.
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


def two_stack_newton_system(obj, con, box, y, lam, t):
    """The primal-dual Newton matrix, right-hand side and dual residual at
    the point y, the duals lam (constraints, upper box, lower box) and the
    barrier parameter t: both stacks' pair maps plus one dense product over
    the stacked gradients, whose weight is -1 on a curved objective
    segment, u_i - lam_i on a curved constraint and u_i on an affine one;
    the right-hand side and the residual each start from the objective's
    summed gradients."""
    lo, hi = box
    nb, mc = lo.size, con.m
    diag = np.arange(nb)
    f, w = con.values(y)
    _, w0 = obj.values(y)
    grads0, grads = obj.gradients(w0), con.gradients(w)
    f_all = np.concatenate([f, y[:nb] - hi, lo - y[:nb]])
    u = lam / -f_all
    c = np.concatenate([np.zeros(obj.m), u[:mc]])
    c[obj.curved] = -1.0
    c[obj.m + con.curved] -= lam[con.curved]
    g = np.vstack([grads0, grads])
    hess = (obj.pair_hessian(w0, np.ones(obj.m)) + con.pair_hessian(w, lam[:mc])
            + g.T @ (c[:, None] * g))
    hess[diag, diag] += u[mc:mc + nb] + u[mc + nb:]

    def lagrangian_gradient(duals):
        r = grads0.sum(axis=0) + grads.T @ duals[:mc]
        r[:nb] += duals[mc:mc + nb] - duals[mc + nb:]
        return r

    return hess, lagrangian_gradient(1.0 / (t * -f_all)), lagrangian_gradient(lam)
