"""Oracles for the exact D2D SE bound, `spectral.d2d_se_exact`.

`d2d_rate_samples` is a Monte-Carlo sampler: it draws the despread pilot
observations themselves, so it checks the closed-form Laplace transforms
the quadrature relies on. `d2d_se_quad` integrates the same Hamdi integrand
adaptively. Both build the conditional-SINR parameters pair by pair with
loops, where the source builds them for all pairs with array algebra.
"""

import numpy as np
from scipy import integrate


def conditional_sinr_params(l, gains, alloc, pilots, dims):
    """Pair l's conditional SINR `a·Y_s / (c + Σ w_i·Y_i)`: returns
    `(a, c, w_cu, var_cu, w_set, var_set)`. `Y_i` is a despread pilot
    observation, exponential with mean `var_cu[k]` (cellular pilot k) or
    `var_set[i]` (D2D pilot set i); `Y_s` is pair l's own set."""
    tau = dims.pilot_len
    beta_c = gains.beta_cu_d2drx[l]    # (B, K)
    beta_d = gains.beta_d2dtx_d2drx[l]  # (L,)
    pc, pd = alloc.data_cu, alloc.data_d2d
    ppc, ppd = alloc.pilot_cu, alloc.pilot_d2d
    n_sets = dims.num_d2d_pilots

    # Despread pilot observations: one per cellular pilot, one per D2D set.
    var_cu = 1.0 + tau * np.einsum("bk,bk->k", ppc, beta_c)        # (K,)
    coeff_cu = np.sqrt(tau * ppc) * beta_c / var_cu                # (B, K)
    gamma_cu = tau * ppc * beta_c**2 / var_cu
    var_set = np.empty(n_sets)
    for i, grp in enumerate(pilots.d2d_pilot_sets):
        var_set[i] = 1.0 + tau * sum(ppd[j] * beta_d[j] for j in grp)
    coeff_d = np.sqrt(tau * ppd) * beta_d / var_set[pilots.pair_to_pilot]
    gamma_d = tau * ppd * beta_d**2 / var_set[pilots.pair_to_pilot]

    # |estimate|^2 terms collapse to weighted |observation|^2 sums.
    w_cu = np.einsum("bk,bk->k", pc, coeff_cu**2)                  # (K,)
    w_set = np.zeros(n_sets)
    for j in range(dims.num_d2d_pairs):
        if j != l:
            w_set[pilots.pair_to_pilot[j]] += pd[j] * coeff_d[j] ** 2
    const = (pd[l] * (beta_d[l] - gamma_d[l])
             + float(np.sum(pc * (beta_c - gamma_cu)))
             + float(pd @ (beta_d - gamma_d)) - pd[l] * (beta_d[l] - gamma_d[l])
             + 1.0)
    return pd[l] * coeff_d[l] ** 2, const, w_cu, var_cu, w_set, var_set


def d2d_rate_samples(l, gains, alloc, pilots, dims, num_samples, rng):
    """Conditional-SINR rates of pair l, one per joint channel-estimate
    realization; their mean is the exact SE bound.

    Estimates of transmitters sharing a pilot observation are drawn as
    scalings of the same observation, preserving their correlation.
    """
    if num_samples < 1:
        raise ValueError("num_samples must be >= 1")
    if alloc.data_d2d[l] == 0.0:
        return np.zeros(num_samples)
    rng = np.random.default_rng(rng) if not isinstance(rng, np.random.Generator) else rng
    a, const, w_cu, var_cu, w_set, var_set = conditional_sinr_params(
        l, gains, alloc, pilots, dims)
    n_cu, n_sets = len(var_cu), len(var_set)
    obs_cu = (rng.standard_normal((num_samples, n_cu))**2
              + rng.standard_normal((num_samples, n_cu))**2) * (var_cu / 2.0)
    obs_set = (rng.standard_normal((num_samples, n_sets))**2
               + rng.standard_normal((num_samples, n_sets))**2) * (var_set / 2.0)
    num = a * obs_set[:, pilots.pair_to_pilot[l]]
    den = const + obs_cu @ w_cu + obs_set @ w_set
    return dims.prelog * np.log2(1.0 + num / den)


def d2d_se_quad(l, gains, alloc, pilots, dims):
    """Pair l's exact SE bound as Hamdi's integral (IEEE Trans. Commun.
    58(2), 2010), `E ln(1 + A/B) = ∫₀^∞ (E e^{−zB} − E e^{−z(A+B)})/z dz`,
    by adaptive quadrature in u = ln z. Every Laplace transform is that of
    an exponential observation, so the integrand is closed form."""
    a, const, w_cu, var_cu, w_set, var_set = conditional_sinr_params(
        l, gains, alloc, pilots, dims)
    scales = np.concatenate([w_cu * var_cu, w_set * var_set])
    mean_s = var_set[pilots.pair_to_pilot[l]]
    joint = (w_set[pilots.pair_to_pilot[l]] + a) * mean_s

    def integrand(u):
        z = np.exp(u)
        return (z * np.exp(-z * const) / np.prod(1.0 + z * scales)
                * a * mean_s / (1.0 + z * joint))

    # below z = 1e-20/S the integral loses a fraction of at most 1e-20, and
    # above z = 800/c the integrand is below e^-800
    total = const + scales.sum() + joint
    corners = -np.log(np.concatenate([scales[scales > 0], [const, joint]]))
    lo, hi = np.log(1e-20 / total), np.log(800.0 / const)
    corners = corners[(corners > lo) & (corners < hi)]
    nats, _ = integrate.quad(integrand, lo, hi, points=corners,
                             epsabs=0.0, epsrel=1e-12, limit=500)
    return dims.prelog * nats / np.log(2.0)
