"""Two-state discrimination: error functionals, the quantum optimum, and
cone-restricted minimum error, plus the preceding-work criteria."""

from __future__ import annotations

import numpy as np

from .cones import ConeRep, Measurement, conic_program
from .dual import _min_over_effects
from .fixtures import appendix_measurement, appendix_states
from .herm import ValidationError, _inner, ensure_herm


def _effects(measurement) -> list:
    """The ``.effects`` of a Measurement, or a list of effects."""
    return list(getattr(measurement, "effects", measurement))


def err_of_measurement(rho1, rho2, measurement) -> float:
    """Sum of the two error probabilities ``Tr rho1 M2 + Tr rho2 M1``."""
    effects = _effects(measurement)
    if len(effects) != 2:
        raise ValidationError("error functional needs a 2-outcome measurement")
    rho1, rho2, m1, m2 = ensure_herm([rho1, rho2, *effects])
    return _inner(rho1, m2) + _inner(rho2, m1)


def _check_states(*rhos, dim=None):
    S = ensure_herm(list(rhos), dim=dim)
    traces = np.trace(S, axis1=1, axis2=2).real
    if np.linalg.eigvalsh(S)[:, 0].min() < -1e-8 \
            or np.abs(traces - 1.0).max() > 1e-8:
        raise ValidationError("input is not a density matrix")
    return S


def helstrom(rho1, rho2) -> tuple[float, Measurement]:
    """Minimum error sum ``1 - ||rho1 - rho2||_1 / 2`` and its optimal POVM.

    The optimizer takes M1 as the projector onto the nonnegative
    eigenspace of ``rho1 - rho2``.
    """
    rho1, rho2 = _check_states(rho1, rho2)
    delta = rho1 - rho2
    vals, vecs = np.linalg.eigh(delta)
    m1 = (vecs * (vals >= 0.0)) @ vecs.conj().T
    m2 = np.eye(delta.shape[0], dtype=complex) - m1
    value = 1.0 - 0.5 * float(np.sum(np.abs(vals)))
    return value, Measurement(effects=[m1, m2])


def min_error_over_cone(rho1, rho2,
                        dual_cone: ConeRep) -> tuple[float, Measurement]:
    """Minimum error sum when effects range over ``dual_cone``.

    The effect cone is its :func:`~gptcone.cones.conic_program`; a cone
    without a program raises :class:`ValidationError`.  The error sum of
    ``{M, I - M}`` is ``1 + <rho2 - rho1, M>``, minimised by
    :func:`~gptcone.dual.min_over_effects`.  In a cone that contains PSD
    its Helstrom tier answers without a solve when Helstrom's dual point
    is feasible: both parts of ``rho2 - rho1`` lie in the dual cone, so
    Helstrom's projector pair and that dual point have a zero gap and
    Helstrom's error is the optimum.  Otherwise one solve answers, to a
    certified duality gap.  The returned effects ``M`` and ``I - M`` are
    exactly Hermitian.
    """
    rho1, rho2 = _check_states(rho1, rho2, dim=dual_cone.dim)
    program = conic_program(dual_cone)
    if program is None:
        raise ValidationError(
            f"the {dual_cone.oracle} effect cone has no conic program")
    value, M = _min_over_effects(rho2 - rho1, *program)
    return 1.0 + value, Measurement(effects=[M, np.eye(len(M)) - M])


def _table_residual(states, measurement) -> float:
    """Largest deviation of the outcome table ``Tr rho_i M_j`` from I."""
    effects = _effects(measurement)
    if len(states) != len(effects):
        raise ValidationError("state and effect counts differ")
    S, n = ensure_herm([*states, *effects]), len(states)
    gram = np.array([[_inner(s, e) for e in S[n:]] for s in S[:n]])
    return float(np.max(np.abs(gram - np.eye(n))))


def perfectly_distinguishable(states, measurement, tol: float = 1e-9) -> bool:
    """True iff the outcome Gram matrix is the identity to ``tol``."""
    return _table_residual(states, measurement) <= tol


def arai_criterion(rhoA1, rhoB1, rhoA2, rhoB2) -> tuple[bool, float]:
    """Perfect-distinguishability criterion for pure product pairs.

    Returns ``(lhs <= 1, lhs)``, to 1e-9, with
    ``lhs = Tr rhoA1 rhoA2 + Tr rhoB1 rhoB2``.
    """
    pairs = ensure_herm([rhoA1, rhoA2]), ensure_herm([rhoB1, rhoB2])
    for vals in [*np.linalg.eigvalsh(pairs[0]), *np.linalg.eigvalsh(pairs[1])]:
        if vals[0] < -1e-9 or abs(vals[-1] - 1.0) > 1e-8 \
                or np.sum(vals > 1e-8) != 1:
            raise ValidationError("local states must be pure (rank-1, trace 1)")
    lhs = _inner(*pairs[0]) + _inner(*pairs[1])
    return lhs <= 1.0 + 1e-9, lhs


def yah_region(x: float, y: float, family: str, s: float | None = None,
               t: float | None = None) -> bool:
    """Sufficient regions of local overlaps for perfect distinguishability.

    ``NEG``: ``xy <= 16 s^2 (1-x)(1-y)`` for s in [0, 1/4].
    ``SCO``: ``xy <= t (1-x)(1-y)`` for t in [0, 1]; the corresponding
    negativity parameter is ``sqrt(t)/(1+t)``.
    """
    if not (0.0 <= x <= 1.0 and 0.0 <= y <= 1.0):
        raise ValidationError("x, y must lie in [0, 1]")
    if family == "NEG":
        if s is None or not 0.0 <= s <= 0.25:
            raise ValidationError("NEG family needs s in [0, 1/4]")
        return x * y <= 16.0 * s * s * (1.0 - x) * (1.0 - y)
    if family == "SCO":
        if t is None or not 0.0 <= t <= 1.0:
            raise ValidationError("SCO family needs t in [0, 1]")
        return x * y <= t * (1.0 - x) * (1.0 - y)
    raise ValidationError(f"unknown family {family!r}")


def sco_param_of_t(t: float) -> float:
    """Negativity parameter matching a SCO-region parameter t."""
    return float(np.sqrt(t) / (1.0 + t))


def entropy_example_audit() -> dict:
    """Audit of the two-entropy decomposition example.

    One mixed state decomposes into perfectly distinguishable pure pairs
    in two ways whose weight distributions have different Shannon
    entropies.
    """
    rho1, rho2, sigma1, sigma2 = appendix_states()
    e1, e2 = appendix_measurement()
    w = np.sqrt(3.0)
    mix1 = rho1 / 3.0 + 2.0 * rho2 / 3.0
    mix2 = (3.0 + w) / 6.0 * sigma1 + (3.0 - w) / 6.0 * sigma2
    residual = float(np.max(np.abs(mix1 - mix2)))

    pair1_ok = perfectly_distinguishable([rho1, rho2], [e1, e2], tol=1e-12)
    # sigma1, sigma2 are orthogonal pure states: their own projectors plus
    # the complement form a quantum measurement discriminating them.
    proj = [sigma1, np.eye(4) - sigma1]
    pair2_ok = perfectly_distinguishable([sigma1, sigma2], proj, tol=1e-9)

    def h2(p):
        q = 1.0 - p
        terms = [x * np.log2(x) for x in (p, q) if x > 0]
        return -float(sum(terms))

    H1 = h2(1.0 / 3.0)
    H2 = h2((3.0 + w) / 6.0)
    return {
        "decomposition_residual": residual,
        "pair1_distinguishable": pair1_ok,
        "pair2_distinguishable": pair2_ok,
        "entropy_first_bits": H1,
        "entropy_second_bits": H2,
        "entropy_gap_bits": abs(H1 - H2),
        "pass": residual <= 1e-12 and pair1_ok and pair2_ok
                and abs(H1 - H2) > 0.17,
    }
