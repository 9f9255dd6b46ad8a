"""Positive cones, GPT models, states, effects, and measurements.

A :class:`ConeRep` with the named cone K of its tag and generators G
denotes the hull ``K + cone(G)``, whose dual is ``K* intersect G*``; the
tag defaults to PSD, so a ConeRep without one is ``PSD + cone(G)``, the
form of :attr:`gptcone.pses.PsesParams.cone`, the deformed structures
SES + NPM_r.  Pure cone(G) and the cone G* cut out by halfspaces are
decided in :mod:`gptcone.dual`.  Each named cone and its dual are written
once, in one table (PSD is self-dual, SEP and SEP_DUAL are each other's
duals).  Membership returns In or Out with the deciding tier and, for
Out, a witness W with ``<W, x> < 0``; it returns Unknown honestly when no
tier is decisive (separability is not decidable at tolerance in general).
The named oracles decide to :data:`DEFAULT_TOL`, 1e-9.  A hull whose K
has a conic description (PSD, CLASSICAL_ORTHANT, SEP_DUAL at dA dB <= 6)
is decided by that description alone, at the one conic tolerance, 1e-8.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache, partial
from types import MappingProxyType

import numpy as np

from .dual import _dual_membership, _feasibility, identity
from .herm import (
    BipartiteDims,
    ValidationError,
    _as_bipartite,
    _inner,
    ensure_herm,
    partial_transpose,
)
from .sampling import random_pure_vector
from .verdict import IN, OUT, UNKNOWN, MembershipVerdict

PSD = "PSD"
SEP = "SEP"
SEP_DUAL = "SEP_DUAL"
CLASSICAL_ORTHANT = "CLASSICAL_ORTHANT"
SHRUNK_BLOCH = "SHRUNK_BLOCH"
CS_NEG = "CS_NEG"

DEFAULT_TOL = 1e-9


@dataclass(frozen=True, eq=False)
class ConeRep:
    """The cone ``K + cone(generators)`` of dim x dim Hermitian matrices,
    K named by the tag ``oracle``, which defaults to PSD; ``dim`` defaults
    to ``dims.total``, else to the generators' size.  Frozen, with read-only
    copies of ``generators`` (a tuple) and ``params``: a shared cone is fixed.
    Compared and hashed by identity."""

    dim: int | None = None
    generators: tuple = ()
    oracle: str | None = None
    params: dict = field(default_factory=dict)
    dims: BipartiteDims | None = None

    def __post_init__(self):
        if not self.oracle:
            object.__setattr__(self, "oracle", PSD)
        if self.dim is None and self.dims is not None:
            object.__setattr__(self, "dim", self.dims.total)
        gens = ()
        if len(self.generators):  # a list makes ensure_herm build a copy
            gens = ensure_herm(list(self.generators), dim=self.dim)
            gens.flags.writeable = False
            object.__setattr__(self, "dim", gens.shape[1])
        object.__setattr__(self, "generators", tuple(gens))
        if self.dim is None:
            raise ValidationError("dimension required")
        if self.dims is not None and self.dims.total != self.dim:
            raise ValidationError(f"dims {self.dims.dA}x{self.dims.dB} do "
                                  f"not match dimension {self.dim}")
        if self.oracle not in _NAMED:
            raise ValidationError(f"unknown cone tag {self.oracle!r}")
        if not isinstance(self.params, (dict, MappingProxyType)):
            raise ValidationError("params must be a dict")
        object.__setattr__(self, "params", MappingProxyType(dict(self.params)))
        _, _, valid, needs, _ = _NAMED[self.oracle]
        try:
            ok = valid is None or valid(self)
        except TypeError:  # a parameter of the wrong type
            ok = False
        if not ok:
            raise ValidationError(f"{self.oracle} needs {needs}")


@dataclass(frozen=True, eq=False)
class GptModel:
    """A GPT model: a proper cone together with an order unit.  Frozen,
    with a read-only copy of the unit, so a shared model cannot change.
    Compared and hashed by identity."""

    cone: ConeRep
    unit: np.ndarray

    def __post_init__(self):
        unit = np.array(ensure_herm(self.unit, dim=self.cone.dim))
        unit.flags.writeable = False
        object.__setattr__(self, "unit", unit)
        psd = self.cone.oracle == PSD
        if psd and np.linalg.eigvalsh(self.unit)[0] <= 0:
            raise ValidationError("order unit must be positive definite")
        for g in self.cone.generators:
            if np.linalg.norm(g) > 1e-12 and _inner(self.unit, g) <= 0:
                raise ValidationError("order unit not interior to the dual cone")
        # That spectrum puts a PSD unit in PSD* = PSD, and the loop above
        # in every generator's halfspace: only other tags need a verdict.
        if not psd and _evaluate(self.cone, self.unit,
                                 dual=True).status == OUT:
            raise ValidationError("order unit outside the dual cone")


class MeasurementValidationError(ValidationError):
    """Raised when an effect family fails measurement validation."""

    def __init__(self, message, index=None, verdict=None):
        super().__init__(message)
        self.index = index
        self.verdict = verdict


@dataclass
class Measurement:
    """Effects, checked when built with a model: nonempty, summing to its
    unit within 1e-10, one dual-cone verdict per effect and none of them
    Out (else :class:`MeasurementValidationError`, for an Out with
    ``index`` and ``verdict``).  Without a model they are taken as given."""

    effects: list
    model: GptModel | None = None

    def __post_init__(self):
        model = self.model
        if model is None:
            return
        if not len(self.effects):
            raise MeasurementValidationError("empty effect list")
        self.effects = list(ensure_herm(list(self.effects),
                                        dim=model.cone.dim))
        dev = float(np.max(np.abs(sum(self.effects) - model.unit)))
        if dev > 1e-10:
            raise MeasurementValidationError(
                f"effects sum to the unit only within {dev:.3e}")
        verdicts = list(self._dual_verdicts())
        if len(verdicts) != len(self.effects):
            raise MeasurementValidationError(
                f"{len(verdicts)} dual-cone verdicts for {len(self)} effects")
        for k, verdict in enumerate(verdicts):
            if verdict.status == OUT:
                raise MeasurementValidationError(
                    f"effect {k} is outside the dual cone "
                    f"(margin {verdict.margin:.3e})", index=k, verdict=verdict)

    def _dual_verdicts(self):
        """The verdict of each effect in the dual of the model's cone."""
        return (_evaluate(self.model.cone, e, dual=True) for e in self.effects)

    def __len__(self):
        return len(self.effects)


def make_named_cone(tag: str, params: dict | None = None,
                    dims: BipartiteDims | None = None, dim: int | None = None,
                    generators=None) -> ConeRep:
    """Build an oracle-backed ConeRep for one of the named cones."""
    return ConeRep(dim=dim, oracle=tag, dims=dims,
                   generators=() if generators is None else generators,
                   params={} if params is None else params)


def min_product_expectation(X, dims: BipartiteDims, restarts: int = 64):
    """Local search for the minimum of ``<a(x)b| X |a(x)b>`` over product
    unit vectors.

    Alternates smallest-eigenvector updates of the two local factors from
    ``restarts`` random starts.
    Returns ``(value, a, b)``; a negative value is a certified
    block-positivity violation, a nonnegative one is only evidence.
    Only X's shape is checked, as the search reads X's Hermitian part; a
    non-finite entry leaves no finite value and raises.
    """
    T = _as_bipartite(X, dims)
    rng = np.random.default_rng(0)
    best = (np.inf, None, None)
    for _ in range(max(1, restarts)):
        b = random_pure_vector(dims.dB, rng)
        val = np.inf
        for _ in range(60):
            MA = np.einsum("a,iajb,b->ij", b.conj(), T, b)
            vals, vecs = np.linalg.eigh((MA + MA.conj().T) / 2.0)
            a = vecs[:, 0]
            MB = np.einsum("i,iajb,j->ab", a.conj(), T, a)
            vals, vecs = np.linalg.eigh((MB + MB.conj().T) / 2.0)
            b = vecs[:, 0]
            new_val = float(vals[0])
            if val - new_val <= 1e-12:
                val = new_val
                break
            val = new_val
        if val < best[0]:
            best = (val, a, b)
    if best[1] is None:
        raise ValidationError("matrix has non-finite entries")
    return best


def gurvits_ball_contains(X) -> bool:
    """Sufficient separability condition ``||I - X d/Tr X||_2 <= 1 + 1e-9``."""
    return _gurvits(ensure_herm(X))


def _gurvits(X):
    d = X.shape[0]
    t = float(np.trace(X).real)
    if t <= DEFAULT_TOL:
        return False
    scaled = X * (d / t)
    return float(np.linalg.norm(np.eye(d) - scaled)) <= 1.0 + DEFAULT_TOL


def _block_positivity(x, dims, lam):
    """Membership of checked x, with least eigenvalue lam, in SEP_DUAL,
    the block-positive cone.

    PSD x is In, and at every size so is x with a PSD partial transpose
    (tier ``partial-transpose``, witness x^Gamma), as Gamma(PSD) lies in
    SEP*.  A product vector from :func:`min_product_expectation` with a
    negative expectation gives Out with its projector as witness.  At
    dA dB <= 6, where block positivity is decomposability (Woronowicz,
    Rep. Math. Phys. 10, 165, 1976), that search is one descent and a
    conic solve over PSD + PSD^Gamma decides the rest: ``x = P + Q^Gamma``
    or a separator W with W, W^Gamma PSD.  Above 6 the search makes 64
    descents, and a nonnegative minimum is Unknown.
    """
    if lam >= -DEFAULT_TOL:
        return MembershipVerdict(IN, margin=float(lam), tier="psd")
    xg = partial_transpose(x, dims)
    lam_pt = float(np.linalg.eigvalsh(xg)[0])
    if lam_pt >= -DEFAULT_TOL:
        return MembershipVerdict(IN, witness=xg, margin=lam_pt,
                                 tier="partial-transpose")
    exact = dims.total <= 6
    val, a, b = min_product_expectation(x, dims, restarts=1 if exact else 64)
    if val < -DEFAULT_TOL:
        ab = np.kron(a, b)
        return MembershipVerdict(OUT, witness=np.outer(ab, ab.conj()),
                                 margin=val, tier="product-search")
    if exact:  # SEP_DUAL's conic description decides
        return _feasibility(x, (), _decomposable(dims))
    return MembershipVerdict(UNKNOWN, margin=val, tier="product-search")


def _decomposable(dims):
    """The maps of PSD + PSD^Gamma, SEP_DUAL's description at dA dB <= 6."""
    return identity, partial(partial_transpose, dims=dims)


def _units(d):
    return [np.diag(e) for e in np.eye(d, dtype=complex)]


# The named oracles: ``oracle(x, cone)`` decides ``x in K`` to
# DEFAULT_TOL for the cone's tag, with x already validated against the cone.

def _psd(x, cone, tier="eigenvalue"):
    # The eigenvalues decide; only an Out witness needs an eigenvector.
    lam = float(np.linalg.eigvalsh(x)[0])
    if lam >= -DEFAULT_TOL:
        return MembershipVerdict(IN, margin=lam, tier=tier)
    v = np.linalg.eigh(x)[1][:, 0]
    return MembershipVerdict(OUT, witness=np.outer(v, v.conj()), margin=lam,
                             tier=tier)


def _sep(x, cone):
    if _gurvits(x):
        return MembershipVerdict(IN, margin=0.0, tier="gurvits")
    dims = cone.dims
    ppt = _psd(partial_transpose(x, dims), cone, "ppt")
    if ppt.status == OUT:
        ppt.witness = partial_transpose(ppt.witness, dims)
        return ppt
    v = _psd(x, cone)
    if v.status == OUT:
        return v
    if dims.total > 6:
        return MembershipVerdict(UNKNOWN, margin=ppt.margin, tier="ppt")
    # PPT is equivalent to separability for 2x2 and 2x3 (Horodecki,
    # Horodecki & Horodecki, Phys. Lett. A 223, 1996).
    return MembershipVerdict(IN, margin=min(v.margin, ppt.margin),
                             tier="ppt-exact")


def _block_positive(x, cone):
    return _block_positivity(x, cone.dims, np.linalg.eigvalsh(x)[0])


def _diagonal(x, cone):
    diag = x.diagonal().real
    k = int(np.argmin(diag))
    if diag[k] >= -DEFAULT_TOL:
        return MembershipVerdict(IN, margin=float(diag[k]), tier="diagonal")
    w = np.zeros_like(x)
    w[k, k] = 1.0
    return MembershipVerdict(OUT, witness=w, margin=float(diag[k]),
                             tier="diagonal")


def _orthant(x, cone):
    off = -x
    np.fill_diagonal(off, 0.0)
    worst = float(np.max(np.abs(off)))
    if worst > DEFAULT_TOL:
        return MembershipVerdict(OUT, witness=off, margin=-worst,
                                 tier="diagonal")
    return _diagonal(x, cone)


def _shrunk_bloch(x, cone, dual=False):
    # The cone is T(PSD) for the self-adjoint T(y) = p y + (1-p)/2 tr(y) I,
    # so x is in it when T^-1(x) is PSD and in its dual when T(x) is.  The
    # same map applied to the bottom eigenprojector is an Out witness.
    p = cone.params["p"]

    def shrink(y):
        t = (1 - p) / 2.0 * float(np.trace(y).real) * np.eye(cone.dim)
        return p * y + t if dual else (y - t) / p

    v = _psd(shrink(x), cone, "shrunk-bloch-dual" if dual else "affine-psd")
    if v.status == OUT:
        v.witness = shrink(v.witness)
    return v


def _cs_neg(x, cone):
    s = cone.params["s"]
    lam = np.linalg.eigvalsh(x)[0]
    excess = max(-float(lam), 0.0) - s * float(np.trace(x).real)
    if excess > DEFAULT_TOL:
        v = np.linalg.eigh(x)[1][:, 0]
        witness = np.outer(v, v.conj()) + s * np.eye(cone.dim)
        return MembershipVerdict(OUT, witness=witness, margin=-excess,
                                 tier="nege")
    bp = _block_positivity(x, cone.dims, lam)
    if bp.status == OUT:
        return bp
    tier = "nege+" + bp.tier if bp.status == IN else "nege"
    return MembershipVerdict(bp.status, margin=bp.margin, tier=tier)


def _no_dual(x, cone):
    return MembershipVerdict(UNKNOWN, tier="no-description")


def _bipartite(cone):
    return cone.dims is not None


# tag -> (oracle, oracle of the dual, parameter check, what it requires, K's
# conic description of K + cone(G) as cone -> (generators, maps), None
# without one).
_NAMED = {
    PSD: (_psd, _psd, None, "", lambda c: (c.generators, (identity,))),
    SEP: (_sep, _block_positive, _bipartite, "bipartite dims", None),
    SEP_DUAL: (_block_positive, _sep, _bipartite, "bipartite dims",
               lambda c: None if c.dim > 6
               else (c.generators, _decomposable(c.dims))),
    CLASSICAL_ORTHANT: (_orthant, _diagonal, None, "",
                        lambda c: ([*_units(c.dim), *c.generators], ())),
    SHRUNK_BLOCH: (_shrunk_bloch, partial(_shrunk_bloch, dual=True),
                   lambda c: c.dim == 2 and 0 < c.params.get("p", 0) < 1,
                   "dimension 2 and 0 < p < 1", None),
    CS_NEG: (_cs_neg, _no_dual,
             lambda c: _bipartite(c) and c.params.get("s", -1) >= 0,
             "bipartite dims and s >= 0", None),
}


def conic_program(cone: ConeRep):
    """``cone`` as the description ``(generators, maps)`` that
    :func:`~gptcone.dual.conic_feasibility` takes, or None for a tag
    without a description."""
    describe = _NAMED[cone.oracle][4]
    return describe(cone) if describe else None


_RANK = {OUT: 0, UNKNOWN: 1, IN: 2}  # the worst verdict first


def _evaluate(cone: ConeRep, x, dual: bool) -> MembershipVerdict:
    """Checked ``x`` in ``cone``, or in its dual when ``dual`` is set.

    Without generators K's oracle answers alone.  A hull ``K + cone(G)``
    is decided by its conic description alone, at 1e-8, so an In carries a
    :class:`~gptcone.dual.ConicCertificate`.  Without a description it is
    In when K says In, Out when K's Out witness clears every generator,
    else In only when x decomposes over G.  The intersection
    ``K* intersect G*`` takes the worst of its parts.
    """
    gens = cone.generators
    program = gens and not dual and conic_program(cone)
    if program:
        return _feasibility(x, *program)
    v = _NAMED[cone.oracle][dual](x, cone)
    if not gens:
        return v

    if dual:
        return min([v, _dual_membership(gens, x)],
                   key=lambda part: (_RANK[part.status], part.margin))

    if v.status == IN or v.status == OUT and all(
            _inner(v.witness, g) >= -DEFAULT_TOL for g in gens):
        return v
    w = _feasibility(x, gens, ())  # cone(G)'s separator certifies nothing
    if w.status == IN:
        return w
    return MembershipVerdict(UNKNOWN, margin=v.margin, tier=v.tier)


def membership(cone: ConeRep, x) -> MembershipVerdict:
    """Tiered membership oracle for ``x in cone``, to :data:`DEFAULT_TOL`
    (to 1e-8 where a conic solve decides)."""
    return _evaluate(cone, ensure_herm(x, dim=cone.dim), dual=False)


def dual_cone_membership(cone: ConeRep, x) -> MembershipVerdict:
    """Membership of ``x`` in the *dual* of ``cone``, to :data:`DEFAULT_TOL`.

    Used to validate effects: the effect space of a model lives in the
    dual of its state cone.
    """
    return _evaluate(cone, ensure_herm(x, dim=cone.dim), dual=True)


@cache
def ses_model(dims: BipartiteDims) -> GptModel:
    """Standard quantum theory on the composite space (PSD cone, unit I),
    one model per dims."""
    return GptModel(make_named_cone(PSD, dims=dims), np.eye(dims.total))


@cache
def sep_model(dims: BipartiteDims) -> GptModel:
    """States SEP, effects in SEP* and unit I, one model per dims."""
    return GptModel(make_named_cone(SEP, dims=dims), np.eye(dims.total))


def capacity_demo(model: GptModel):
    """Product-basis witness that the capacity equals the total dimension.

    Valid for any cone sandwiched between SEP and SEP* (caller asserts):
    returns dA*dB product basis states and the product projector
    measurement discriminating them perfectly.  The states are the
    diagonal matrix units ``|ij><ij|``, whose Gram matrix is the identity.
    """
    states = _units(model.cone.dim)  # |ij><ij| is the unit at i * dB + j
    return states, Measurement(effects=list(states), model=model)
