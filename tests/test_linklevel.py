"""The draws and the linear algebra the link-level oracles are built from."""

import tracemalloc

import numpy as np
from hypothesis import given, settings, strategies as st

from mimo_d2d import (Scenario, ScenarioConfig, full_power_allocation, linklevel,
                      wishart_inverse_diagonal_mean)


@settings(max_examples=25, deadline=None)
@given(data=st.data(), seed=st.integers(0, 2 ** 32 - 1))
def test_crandn_moments(data, seed):
    """Seeded draws over random shapes, with a scalar or a broadcast power
    array: E|z|^2 is the power, the pseudo-variance E z^2 is 0, and Re and
    Im each carry half the power, each within 5 standard errors."""
    n = 20_000
    dims = tuple(data.draw(st.lists(st.integers(1, 3), min_size=1, max_size=3)))
    rng = np.random.default_rng(seed)
    if data.draw(st.booleans()):
        power = float(np.exp(rng.uniform(np.log(1e-3), np.log(1e3))))
    else:
        trailing = dims[len(dims) - data.draw(st.integers(0, len(dims))):]
        p_shape = tuple(d if data.draw(st.booleans()) else 1 for d in trailing)
        power = np.exp(rng.uniform(np.log(1e-3), np.log(1e3), p_shape))

    z = linklevel._crandn(rng, n, *dims, power=power)
    assert z.shape == (n, *dims) and z.dtype == np.complex128
    p = np.broadcast_to(power, dims)
    se = p / np.sqrt(n)  # each of |z|^2, Re z^2 and Im z^2 has variance p^2
    assert np.all(np.abs(np.mean(np.abs(z) ** 2, axis=0) - p) <= 5 * se)
    pseudo = np.mean(z * z, axis=0)
    assert np.all(np.abs(pseudo.real) <= 5 * se)
    assert np.all(np.abs(pseudo.imag) <= 5 * se)
    for part in (z.real, z.imag):  # (Re z)^2 has variance p^2 / 2
        assert np.all(np.abs(np.mean(part ** 2, axis=0) - p / 2) <= 5 * se / np.sqrt(2))


def _zf_detector_full_inverse(hhat, gamma_diag):
    """Every column of hhat (hhat^H hhat)^{-1} diag(sqrt gamma), from the
    full inverse of each Gram matrix (oracle)."""
    gram = np.einsum("smi,smj->sij", np.conj(hhat), hhat)
    return np.einsum("smi,sij->smj", hhat, np.linalg.inv(gram)) \
        * np.sqrt(gamma_diag)[None, None, :]


@settings(max_examples=40, deadline=None)
@given(data=st.data(), seed=st.integers(0, 2 ** 32 - 1))
def test_zf_column_matches_full_inverse(data, seed):
    """Column k from one Gram solve equals column k of the full-inverse
    detector on random complex estimates (s, M, K+N)."""
    cols = data.draw(st.integers(1, 6))
    m = data.draw(st.integers(cols + 1, 24))
    k = data.draw(st.integers(0, cols - 1))
    rng = np.random.default_rng(seed)
    hhat = linklevel._crandn(rng, data.draw(st.integers(1, 50)), m, cols,
                             power=rng.uniform(0.01, 1.0, cols))
    gamma_diag = rng.uniform(0.01, 1.0, cols)

    got = linklevel._zf_column(hhat, k) * np.sqrt(gamma_diag[k])
    want = _zf_detector_full_inverse(hhat, gamma_diag)[:, :, k]
    assert got.shape == want.shape
    err = np.linalg.norm(got - want, axis=1)
    assert np.all(err <= 1e-12 * np.linalg.norm(want, axis=1))


def test_wishart_mean_reads_one_child_stream_per_batch():
    """Batch j reads child j of the caller's generator: a num_samples
    spanning three batches, the last one partial, gives the mean of exactly
    those draws up to summation order."""
    m, cols = 32, 10
    batch = linklevel._WISHART_BATCH_ENTRIES // (m * cols)
    n = 2 * batch + 250
    got = wishart_inverse_diagonal_mean(m, cols, num_samples=n,
                                        rng=np.random.default_rng(5))

    traces = []
    for child, nb in zip(np.random.default_rng(5).spawn(3), (batch, batch, 250)):
        z = child.standard_normal((nb, m, cols, 2)).view(np.complex128)[..., 0]
        z /= np.sqrt(2.0)
        inv = np.linalg.inv(np.einsum("smi,smj->sij", np.conj(z), z))
        traces.append(np.einsum("sii->s", inv).real)
    want = np.concatenate(traces).mean() / cols
    assert abs(got - want) <= 1e-12 * want


def test_thread_count_changes_no_bit(small_scenario, monkeypatch):
    """With 1, 2 and 3 threads the oracles and the Wishart mean return
    identical values, stderrs included, over three batches and a partial
    one."""
    scn = small_scenario
    alloc = full_power_allocation(scn.dims, scn.p_max)
    alloc.data_cu *= np.array([[0.8, 0.5], [0.9, 0.3]])
    n = 3 * linklevel._ORACLE_BATCH + 250
    wishart_n = 3 * (linklevel._WISHART_BATCH_ENTRIES // (8 * 4)) + 250
    results = []
    for threads in (1, 2, 3):
        monkeypatch.setattr(linklevel, "_THREADS", threads)
        results.append((
            linklevel.oracle_uatf_mr(scn.dims, scn.gains, scn.pilots, alloc, 1, 0,
                                     num_realizations=n, rng=np.random.default_rng(11)),
            linklevel.oracle_zf(scn.dims, scn.gains, scn.pilots, alloc, 1, 0,
                                num_realizations=n, rng=np.random.default_rng(12)),
            wishart_inverse_diagonal_mean(8, 4, num_samples=wishart_n,
                                          rng=np.random.default_rng(13))))
    assert results[0][0].num_realizations == n
    assert results[0] == results[1] == results[2]


def _traced_peak(fn):
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


# Criterion 2's config, where the MR oracle's channel batches are largest.
CRITERION_2_CFG = ScenarioConfig(num_cells=2, antennas_per_bs=64, cus_per_cell=2,
                                 num_d2d_pairs=2, num_d2d_pilots=2, coherence_len=200,
                                 area_side=600.0)


def test_wishart_batch_below_one_mr_oracle_batch(monkeypatch):
    """On one thread, the Wishart mean at criterion 1's config allocates less
    than one MR-oracle channel batch at criterion 2's config. At criteria 1
    and 2's sample counts both run at least 26 batches, so on up to 26
    threads as many Wishart batches as MR batches are in flight, and the
    Wishart case does not set the link-level peak memory."""
    monkeypatch.setattr(linklevel, "_THREADS", 1)
    scn = Scenario.build(CRITERION_2_CFG, seed=42)
    alloc = full_power_allocation(scn.dims, scn.p_max)
    mr = _traced_peak(lambda: linklevel.oracle_uatf_mr(
        scn.dims, scn.gains, scn.pilots, alloc, 0, 0,
        num_realizations=linklevel._ORACLE_BATCH, rng=2))
    wishart = _traced_peak(lambda: wishart_inverse_diagonal_mean(
        32, 10, num_samples=10_000, rng=np.random.default_rng(0)))
    assert wishart < mr, (wishart, mr)


# Bytes: the tracemalloc peak of one 2000-realization MR batch at criterion
# 2's config computed on one thread (numpy 2.4).
ONE_2000_BATCH_PEAK = 19_672_325


def test_two_threads_hold_no_more_than_one_2000_batch(monkeypatch):
    """Two threads over four MR-oracle batches at criterion 2's config
    allocate no more than one 2000-realization batch on one thread."""
    monkeypatch.setattr(linklevel, "_THREADS", 2)
    scn = Scenario.build(CRITERION_2_CFG, seed=42)
    alloc = full_power_allocation(scn.dims, scn.p_max)
    peak = _traced_peak(lambda: linklevel.oracle_uatf_mr(
        scn.dims, scn.gains, scn.pilots, alloc, 0, 0,
        num_realizations=4 * linklevel._ORACLE_BATCH, rng=2))
    assert peak <= ONE_2000_BATCH_PEAK, peak
