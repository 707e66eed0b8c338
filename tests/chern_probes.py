"""The dual-basis probe rows of the ambient Chern pairings, over the library's public functions."""

from cayleygr.ambient import cg_hyperplane_powers, duality_pairing, lr_multiply, tangent_chern_ambient
from cayleygr.equivariant import basis_vector

PROBES = {"t11": (1, 1), "t2": (2,), "t111": (1, 1, 1), "t3": (3,)}


def probe_pairings():
    """{k: {name: int}}: c_k tau_lam paired with cg tau_1^(8-k-|lam|) by Poincare duality, for each probe that fits.

    Each probe multiplies the k-th piece of ``tangent_chern_ambient`` by one
    Littlewood-Richardson product; tau_(1,1,1) and tau_3 pin the two
    coefficients of c5, tau_2 and tau_(1,1) those of c6.
    """
    pieces = tangent_chern_ambient()
    cut = cg_hyperplane_powers()
    return {
        k: {name: duality_pairing(lr_multiply(pieces[k], basis_vector(lam)), cut[8 - k - sum(lam)])
            for name, lam in PROBES.items() if 8 - k - sum(lam) >= 0}
        for k in range(9)
    }
