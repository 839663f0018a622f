import numpy as np
import pytest

from aqradius import Weight, radius


def clear_estimate_caches():
    """Empty the estimators' caches of (A, T): preparations and sphere searches; the next call runs cold."""
    for cache in (radius._prepare, radius._search):
        cache.cache_clear()


def crandn(rng, *shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def random_pd_weight(rng, n, spread=(0.1, 10.0)):
    """Random Hermitian PD weight: unitary conjugation of a log-uniform diagonal."""
    u = np.linalg.qr(crandn(rng, n, n))[0]
    d = np.exp(rng.uniform(np.log(spread[0]), np.log(spread[1]), n))
    return Weight((u * d) @ u.conj().T)


def phase_grid(b, smallest, points=4096):
    """Largest lambda_min (or lambda_max) of H(e^{i phi} B) over equispaced phases: a lower bound."""
    rot = np.exp(2j * np.pi * np.arange(points) / points)[:, None, None]
    vals = np.linalg.eigvalsh(0.5 * (rot * b + rot.conj() * b.conj().T))
    return float(vals[:, 0 if smallest else -1].max())


def nearly_normal(seed, n=None):
    """Nearly normal B with eigenvalues of near-equal modulus, so its phase function has several peaks."""
    rng = np.random.default_rng(seed)
    n = n or int(rng.choice([3, 4, 5, 6]))
    g = crandn(rng, n, n)
    u = np.linalg.qr(crandn(rng, n, n))[0]
    ev = np.exp(1j * rng.uniform(0, 2 * np.pi, n)) * (1 + 0.01 * rng.standard_normal(n))
    return (u * ev) @ u.conj().T + 1e-3 * g


def random_q(rng):
    modulus = 1.0 - rng.random()
    phase = rng.uniform(0.0, 2.0 * np.pi)
    return modulus * np.exp(1j * phase)


@pytest.fixture
def rng():
    return np.random.default_rng(0)
