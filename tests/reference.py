"""ExactPolynomial references that the tests hold the library against.
They use none of the library's packed arithmetic, so agreement with them is
evidence; nothing under src/ calls them."""

from modmacd.combinat import _at
from modmacd.errors import TruncationResidual
from modmacd.exactalg import ONE, P, T, ZERO, sym
from modmacd.lattice import weight_fused, weight_hl
from modmacd.qseries import gauss_binomial, pochhammer

Z = sym("z")


def phi_prime_series(sp):
    """Direct truncated series for Phi' (test oracle for phi_prime)."""
    N = sp.N
    nu, nut = sp.nu, sp.nutilde
    bound = nu[-1]
    D = bound + nut[-1] + 2
    acc = ZERO
    for s in range(D + 1):
        coef = ONE
        for k in range(1, N + 1):
            coef = coef * gauss_binomial(
                _at(nut, k) - _at(nu, k) + s,
                _at(nut, k - 1) - _at(nu, k) + s)
            if coef.is_zero():
                break
        if not coef.is_zero():
            acc = acc + Z ** s * coef
    acc = acc * pochhammer(Z, "t", nut[-1] + 1)
    out = ZERO
    for d in range(D + 1):
        c = acc.coefficient({"z": d})
        if c.is_zero():
            continue
        if d > bound:
            raise TruncationResidual(
                "nonzero z^%d coefficient above bound %d for Phi' of %r"
                % (d, bound, sp))
        out = out + Z ** d * c
    return out


def weight_hl_factorization_check(f, x="x"):
    """Fused weight at z=0 vs prefactor times product of rank-one weights."""
    lhs = weight_fused(f, x=x, z=P(0))
    n = len(f.sigma)
    expo = 0
    for l in range(n):
        for j in range(l + 1, n):
            expo += f.sigmatilde[l] * (f.rhotilde[j] + f.sigmatilde[j])
    rhs = T ** expo
    for j in range(n):
        rhs = rhs * weight_hl(f.sigma[j], f.sigmatilde[j],
                              f.rho[j], f.rhotilde[j], x=x)
    return lhs == rhs
