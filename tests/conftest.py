import numpy as np

from sectorlab.ensemble import SectorSpec, random_accretive, random_hpd

# The canonical accretive pair used for frozen regression baselines.
PAIR_A = np.array([[2, 1j], [1j, 2]], dtype=complex)
PAIR_B = np.array([[1, 1], [-1, 1]], dtype=complex)

# geometric_mean(PAIR_A, PAIR_B, 0.3) at 1024 Jacobi nodes, stable to 7e-15
# against both the 512-node rule and scipy's spectral form A (A^-1 B)^0.3.
PAIR_GEOMETRIC_03 = np.array([
    [1.7754168584486452 + 0.0j, 0.46737919225481006 + 0.6540188330969174j],
    [-0.46737919225481017 + 0.6540188330969174j, 1.7754168584486452 + 0.0j],
])

#: The node counts that the error bound chooses from, up to a config's max_nodes:
#: 512 by default, 4096 for the *_adaptive functions.
LADDER = (8, 16, 24, 32, 48, 64, 96, 128, 192, 256, 384, 512, 768, 1024, 1536, 2048, 3072, 4096)


def hpd_pairs(count, dims, seed, cond_cap=100.0):
    """Deterministic list of (A, B) HPD pairs cycling through `dims`."""
    out = []
    for i in range(count):
        d = dims[i % len(dims)]
        a = random_hpd(d, cond_cap, seed * 1_000_003 + 2 * i)
        b = random_hpd(d, cond_cap, seed * 1_000_003 + 2 * i + 1)
        out.append((a, b))
    return out


def accretive_pairs(count, dims, angle, seed, cond_cap=100.0):
    """Deterministic list of (A, B) accretive pairs cycling through `dims`."""
    out = []
    for i in range(count):
        d = dims[i % len(dims)]
        a = random_accretive(SectorSpec(dim=d, angle=angle, cond_cap=cond_cap,
                                        seed=seed * 1_000_003 + 2 * i))
        b = random_accretive(SectorSpec(dim=d, angle=angle, cond_cap=cond_cap,
                                        seed=seed * 1_000_003 + 2 * i + 1))
        out.append((a.mat, b.mat))
    return out


def node_stacks(monkeypatch):
    """Spy on the integral engine: the list it returns gets the size, in complex
    entries, of each node stack that a means or entropy evaluation inverts, one
    per LAPACK call of its path.  The inverses that build a path or its ratio
    are not node stacks."""
    from sectorlab import entropy, means

    stacks, inside = [], []
    inv = means._inv

    def spy_inv(m, *args):
        if inside:
            stacks.append(m.size)
        return inv(m, *args)

    def spying(evaluate):
        def spy(path, *args, **kwargs):
            def built(ab):
                p = path(ab)

                def call(*a, **k):
                    inside.append(p)
                    try:
                        return p(*a, **k)
                    finally:
                        inside.pop()

                call.ratio = p.ratio
                return call

            return evaluate(built, *args, **kwargs)

        return spy

    monkeypatch.setattr(means, "_inv", spy_inv)
    for module in (means, entropy):
        monkeypatch.setattr(module, "_evaluate", spying(module._evaluate))
    return stacks
