"""Cox-ring presentations for normal SL2/F-embeddings.

Four layers:

  * ``cox_u_presentation``: the U-invariant algebra by generators a, b, the
    canonical sections of the exceptional divisors, and one relation per
    exceptional point, with the section scalars solved exactly from the
    semi-invariant identities; ``eliminate`` removes a and b, and
    ``special_fiber_u`` cuts the invariant-divisor sections to zero.

  * ``full_cox_presentation_cyclic``: the full Cox ring for cyclic F.  The
    generators are weight bases of the simple modules spanned by the
    canonical sections of the exceptional colors, written by one formula
    from the point's coordinates (alpha, beta) and a sign eps.  Per pair of
    modules, the highest-weight vector of each non-leading Clebsch-Gordan
    component is the classical transvectant, coefficients (-1)^i C(k, i) up
    to the signs eps; its function on SL2, one monomial c g3^n0 g4^ninf
    written down from the points' coordinates, is matched against the
    unique monomial in the canonical sections of the same degree and
    weight.  Its exponents are read off the relation lattice of the class
    group (``ClassGroupResult.lattice``): each module's class is solved
    once, as integer numerators over one denominator, a row's class is a
    sum of those, and along a pair's rows it moves by one step per gap.
    The N-module scalars are ratios of coordinates, in integers.

  * ``verify_cox_u`` and ``verify_full_cox``: both constructions record each
    generator's function once, in ``GradedVariable.function`` (on SL2 for
    cyclic F, in the subregular semi-invariants for polyhedral F), and both
    verifiers substitute exactly those functions into the relations through
    the one ring map ``SparsePoly.evaluate``.  On SL2 the substitution runs
    in the free ring Q(i)[g1..g4], and vanishing is decided by homogenizing
    each torus-weight part with the determinant; in the polyhedral case the
    reduction modulo the exceptional relation is the same map again.
    Each also checks that every relation is homogeneous, on one packed
    integer key per term (``_check_homogeneous``).  The constructions only
    compute: the verifiers are the one place that checks, and the CLI runs
    them under ``--verify``.

  * ``batyrev_haddad``: height and hypersurface parameters of the affine
    shape (a single G-stable divisor over x0), cross-checked against the
    class group up to automorphism.

Every layer reads the generators, their classes, the pullback fibers and
the point keys from the class group's generator table
(``classgroup.ClassGroupResult``); only ``_augment`` looks at the divisors
of the embedding itself.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cache
from itertools import compress
from math import gcd, lcm
from operator import add, itemgetter

from . import classgroup as cg
from .embedding import (
    ROLE_POINTS,
    EmbeddingData,
    GStableDivisorSpec,
    exceptional_relation_scalar,
    point_coordinates,
)
from .exactmath import gmul, qi_div, require_nonneg
from .groups import FiniteSubgroup
from .hyperspace import BasePoint, X0, XD, XINF
from .ogpoly import G3, G4, GPOLY_ONE, GPoly, Num, gr_rref
from .presentation import (
    GradedPresentation,
    GradedVariable,
    SparsePoly,
    pretty_poly,
    term_degree,
)


class NotCyclic(Exception):
    pass


class NotLinearInTarget(Exception):
    pass


class NotAffineShape(Exception):
    pass


class HeightOutOfRange(Exception):
    pass


class TorsionAfterAugmentation(Exception):
    pass


def clebsch_gordan(n: int, m: int) -> list[int]:
    """Summands of V_n (x) V_m: [n+m, n+m-2, ..., |n-m|]."""
    if n < m:
        n, m = m, n
    return list(range(n + m, n - m - 1, -2))


# -- U-invariant presentation ---------------------------------------------------


def _b_weight_table(F: FiniteSubgroup) -> tuple[int, dict[str, int]]:
    """Common weight n0 of a, b (the order of F's image in PSL2: nbar, 2n, 12,
    24, 60) and the weight n0 // m of the subregular section over each
    canonical point of multiplicity m (``F.canonical_multiplicities()``)."""
    if F.is_cyclic:
        n0 = F.nbar
    elif F.kind == "dihedral":
        n0 = 2 * F.n
    else:
        n0 = {"tetrahedral": 12, "octahedral": 24, "icosahedral": 60}[F.kind]
    return n0, {t: n0 // m for t, m in F.canonical_multiplicities().items()}


def _r_names(R: cg.ClassGroupResult, prime: str) -> dict[str, str]:
    """Names of the invariant-divisor sections by class-group label, in
    generator order: r<key> over a point (r<prime><key> over an extra one)
    with the generator's suffix, and rdom."""
    names = {}
    for g in R.generators:
        if g.kind == "divisor":
            tick = "" if g.point.tag is not None else prime
            names[g.label] = "r" + tick + R.point_keys[g.point][1:] + g.suffix
        elif g.kind == "dominating":
            names[g.label] = "rdom"
    return names


def cox_u_presentation(E: EmbeddingData) -> GradedPresentation:
    """Generators a, b, s_i, s'_i, r_ij, r'_ij and one relation per
    exceptional point; the section of a divisor dominating P^1 appears as a
    free generator in no relation.

    Each generator carries its function: on SL2 for cyclic F (a = g3^nbar,
    b = g4^nbar, s over x0 = g3, s over xinf = g4), in the subregular
    semi-invariants fv, fe, ff otherwise (a = fv^nv, b = -fe^ne, s over xv,
    xe, xf = fv, fe, ff); s' over [alpha:beta] is beta*a - alpha*b and every
    r section is 1.
    """
    E.require_valid()
    R = cg.class_group(E)
    keys = R.point_keys
    F = E.group
    n0, wtable = _b_weight_table(F)
    if F.is_cyclic:
        one, a_fn, b_fn, s_fn = GPOLY_ONE, G3.pow(n0), G4.pow(n0), {"x0": G3, "xinf": G4}
    else:
        mult = F.canonical_multiplicities()
        s_fn = {t: SparsePoly.variable("f" + t[1:]) for t in mult}
        one = SparsePoly.term(1, {})
        a_fn = s_fn["xv"].pow(mult["xv"])
        b_fn = s_fn["xe"].pow(mult["xe"]).scale(-1)

    pts = list(E.exceptional_points())
    fiber_deg = R.image_of(R.fibers[pts[0] if pts else XD])

    variables: list[GradedVariable] = [
        GradedVariable("a", fiber_deg, n0, "coordinate", a_fn),
        GradedVariable("b", fiber_deg, n0, "coordinate", b_fn),
    ]
    names = _r_names(R, "p")  # class-group label -> variable name
    for p in pts:
        k, color = keys[p], R.color(p)
        if p.tag is not None:
            names[color], w, fn = f"s{k[1:]}", wtable[k], s_fn[p.tag]
        else:
            names[color], w, fn = f"sp{k[1:]}", n0, a_fn.scale(p.beta) - b_fn.scale(p.alpha)
        for lbl in R.fibers[p]:
            variables.append(GradedVariable(names[lbl], R.images[lbl], w if lbl == color else 0,
                                            lbl, fn if lbl == color else one))
    for g in R.generators:
        if g.kind == "dominating":
            variables.append(GradedVariable(names[g.label], R.images[g.label], 0, g.label, one))

    relations: list[SparsePoly] = []
    for p in pts:
        alpha, beta = point_coordinates(F, p)
        lam = 1
        if not F.is_cyclic and p.tag == "xf":
            lam = exceptional_relation_scalar(F)
        mono = {names[lbl]: e for lbl, e in R.fibers[p].items()}
        rel = (SparsePoly.term(beta, {"a": 1})
               - SparsePoly.term(alpha, {"b": 1})
               - SparsePoly.term(lam, mono))
        relations.append(rel)

    return GradedPresentation(variables, relations, R.group)


def eliminate(P: GradedPresentation, targets=("a", "b")) -> tuple[GradedPresentation, list[str]]:
    """Remove each target generator using a relation linear in it.

    A target that appears in no relation is kept; a target occurring only
    non-linearly raises NotLinearInTarget.  Returns the new presentation and
    the substitution log.
    """
    variables = list(P.variables)
    relations = list(P.relations)
    log: list[str] = []
    order, names = P.var_index(), P.pretty_names()
    for name in targets:
        used = next(((i, c) for i, rel in enumerate(relations)
                     if (c := rel.coefficient_of_linear(name)) is not None), None)
        if used is None:
            if any(name in rel.variables() for rel in relations):
                raise NotLinearInTarget(f"{name} never occurs linearly")
            continue
        i, c = used
        rest = relations[i] - SparsePoly.term(c, {name: 1})
        value = rest.scale(qi_div((-1, 0, 1), c))
        log.append(f"{name} = {pretty_poly(value, order, names)}")
        power, one = SparsePoly.substitution(name, value), value.pow(0)
        relations = [r.evaluate(power, one) for j, r in enumerate(relations) if j != i]
        variables = [v for v in variables if v.name != name]
    relations = [r for r in relations if not r.is_zero()]
    return GradedPresentation(variables, relations, P.grading), log


def special_fiber_u(P: GradedPresentation) -> GradedPresentation:
    """Quotient by all invariant-divisor sections (the r-variables)."""
    rnames = [v.name for v in P.variables if v.name.startswith("r")]
    variables = [v for v in P.variables if v.name not in rnames]
    cuts = (rel.kill_variables(rnames) for rel in P.relations)
    return GradedPresentation(variables, [c for c in cuts if not c.is_zero()], P.grading)


def classify_fiber_presentation(P: GradedPresentation) -> str:
    """Structural verdict on the special fiber: 'polynomial' (affine space),
    'reduced_reducible' (irredundant binomials a v^p + b w^q in two pure
    powers, each with gcd(p, q) > 1, so that it splits into gcd(p, q)
    components, planes for p = q), 'brieskorn_pham' (a single relation of
    three or more pure powers in distinct variables: normal and irreducible,
    with an isolated singularity), 'nonreduced' (the relations span a pure
    power), or 'other', which includes a binomial with coprime exponents.

    The non-linear relations are reduced against each other first, so that
    e.g. two independent combinations of s0^n and sinf^n are recognized as
    the non-reduced ideal (s0^n, sinf^n).
    """
    # linear relations just delete generators
    nontrivial = [rel for rel in P.relations if any(sum(e for _, e in m) > 1 for m in rel.num)]
    if not nontrivial:
        return "polynomial"
    support = sorted({m for rel in nontrivial for m in rel.num})
    if any(len(m) != 1 or m[0][1] < 2 for m in support):
        return "other"
    reduced, _ = gr_rref([[rel.num.get(m, (0, 0)) for m in support] for rel in nontrivial])
    supports = [[support[i][0] for i, c in enumerate(row) if c[0] or c[1]] for row in reduced]
    supports = [vs for vs in supports if vs]
    if any(len(vs) == 1 for vs in supports):
        return "nonreduced"
    if all(len(vs) == 2 for vs in supports):
        coprime = any(gcd(p, q) == 1 for (_, p), (_, q) in supports)
        return "other" if coprime else "reduced_reducible"
    if len(supports) == 1 and len({v for v, _ in supports[0]}) == len(supports[0]):
        return "brieskorn_pham"
    return "other"


# -- full presentation for cyclic F ----------------------------------------------


@dataclass(frozen=True)
class SectionModule:
    """Simple module spanned by the canonical section of one exceptional
    color: variable names, color class, and its functions on SL2,
    fn_i = eps_i (beta g1^i g3^(d-i) - alpha g2^i g4^(d-i)), built from the
    point's ``coords`` (alpha, beta over one denominator) and sign ``eps`` = eps_i
    for i >= 1 (eps_0 = 1; eps is -1 only on a uniform module, n <= 2).  The
    raising operator g3 d/dg1 + g4 d/dg2 maps fn_i to i eps_i / eps_(i-1)
    fn_(i-1)."""

    point_key: str  # "x0", "xinf", "x1", ... or a parametric designate
    color_combo: dict
    names: tuple[str, ...]
    fns: tuple[GPoly, ...]
    coords: tuple[Num, Num, int]
    eps: int

    @property
    def dim(self) -> int:
        return len(self.names)

    @property
    def weights(self) -> tuple[int, ...]:
        return tuple(self.dim - 1 - 2 * i for i in range(self.dim))


@dataclass(frozen=True)
class ModuleRow:
    iso_m: int  # the component is isomorphic to V_m
    b_weight: int
    poly: SparsePoly
    in_kernel: bool = False


@dataclass(frozen=True)
class RelationModule:
    kind: str  # "M" | "N"
    points: tuple[str, ...]
    rows: tuple[ModuleRow, ...]


@dataclass
class FullCoxResult:
    presentation: GradedPresentation
    modules: list[RelationModule]
    preprocessing_log: list[str]
    class_group: cg.ClassGroupResult
    embedding: EmbeddingData  # after augmentation, if any


_LETTERS = "stuvwz"


def _basis_names(nbar: int, idx: str) -> tuple[str, ...]:
    return tuple(_LETTERS[k] + idx if k < len(_LETTERS) else f"m{k}_{idx}" for k in range(nbar + 1))


def _augment(E: EmbeddingData) -> tuple[EmbeddingData, list[str]]:
    """Add a virtual divisor over x0 / xinf when that family is empty (E itself
    when neither is), making the special fiber normal; Cox(X) is the quotient
    of the augmented ring by (r - 1) over the virtual sections."""
    log: list[str] = []
    divisors = list(E.divisors)
    for p, nm in ((X0, "r0"), (XINF, "rinf")):
        if not E.divisors_over(p):
            divisors.append(GStableDivisorSpec(p, 1, Fraction(-1)))
            log.append(f"augmented with a virtual divisor over {p.tag} with (h,l) = (1,-1); "
                       f"Cox(X) is the quotient of the result by ({nm} - 1)")
    if log:
        E = EmbeddingData(E.group, E.extra_points, tuple(divisors), E.section)
    return E, log


@dataclass
class _Ctx:
    """Shared state of one full-presentation computation."""

    E: EmbeddingData
    R: cg.ClassGroupResult
    mod0: SectionModule
    modinf: SectionModule
    rvar: dict[str, str]
    p0_point: BasePoint | None
    pinf_point: BasePoint | None
    classes: dict[str, tuple[int, ...]]  # point key -> the module's lattice numerators
    steps: dict[int, tuple[int, ...]] = field(default_factory=dict)  # gap g -> g (X0 + Xinf)

    def r_exponents(self, A: SectionModule, B: SectionModule, k: int, n0: int, ninf: int,
                    last) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """(X, x): the lattice numerators X of [A] + [B] - n0 [s0] - ninf
        [sinf] and the exponents x over ``R.divisor_labels`` they give, the
        unique ones with s0^n0 sinf^ninf r^x of the class of A (x) B.  From
        ``last`` = (k', X') of the same pair, X = X' + g (X0 + Xinf), g =
        k - k'; no row or pair solves anything.  Raises EmptySolutionSet
        with the row's own message when x is not a non-negative integer."""
        X0, Xinf = self.classes[self.mod0.point_key], self.classes[self.modinf.point_key]
        if last is None:
            X = tuple(a + b - n0 * c - ninf * d for a, b, c, d in
                      zip(self.classes[A.point_key], self.classes[B.point_key], X0, Xinf))
        else:
            g = k - last[0]
            step = self.steps.get(g)
            if step is None:
                step = self.steps[g] = tuple(g * (a + b) for a, b in zip(X0, Xinf))
            X = tuple(map(add, last[1], step))
        return X, require_nonneg(self.R.lattice.solve(X))


def _transvectant(A: SectionModule, B: SectionModule, k: int, sym: bool) -> dict:
    """Coefficients {(i, j): c_ij}, i + j = k >= 1, in ascending i, of the
    highest-weight vector sum c_ij fn_i (x) fn_j in A (x) B.  As raise(fn_i)
    = i eps_i / eps_(i-1) fn_(i-1), it is the k-th transvectant (Olver,
    Classical Invariant Theory, ch. 5), c_i,(k-i) = (-1)^i C(k, i) eps^A_i
    eps^B_k eps^B_(k-i), led by c_0k = 1: eps^A_i is eps^A but for i = 0,
    and eps^B_k eps^B_(k-i) is 1 but for i = k, where it is eps^B; C(k, i)
    comes from C(k, i - 1) along the chain.  When ``sym`` (A is B, k even)
    the equal terms i and k - i fold onto i <= j, the monomials of Sym^2,
    and the sum is halved: only the middle term (-1)^(k/2) C(k, k/2)
    changes."""
    chain, c = {(0, k): 1}, 1
    for i in range(1, k // 2 + 1 if sym else k + 1):
        c = -c * (k - i + 1) // i
        chain[i, k - i] = c * A.eps * (B.eps if i == k else 1)
    if sym:
        chain[k // 2, k // 2] //= 2  # C(k, k/2) is even
    return chain


def _product_monomial(A: SectionModule, B: SectionModule, k: int,
                      sym: bool) -> tuple[int, int, int, int, int] | None:
    """The function on SL2 of the chain ``_transvectant(A, B, k, sym)``,
    k >= 1: (x, y, r, n0, ninf) for (x + y i)/r g3^n0 g4^ninf, or None for 0.
    With fn_i = eps_i P_i as in ``SectionModule``, the chain is
    eps^B_k sum_i (-1)^i C(k, i) P^A_i P^B_(k-i), halved when A is B; the
    transvectant identity (l1^p, l2^q)_k = [l1, l2]^k l1^(p-k) l2^(q-k), with
    bracket g1 g4 - g2 g3 = 1 between the columns (g1, g3), (g2, g4) and 0
    within one, makes it -(-1)^k eps^B_k (beta_A alpha_B g3^(dA-k) g4^(dB-k)
    + (-1)^k alpha_A beta_B g3^(dB-k) g4^(dA-k)).  For dA != dB one module is
    x0 or xinf, so one of the two products is 0."""
    alpha_a, beta_a, den_a = A.coords
    alpha_b, beta_b, den_b = B.coords
    da, db = A.dim - 1, B.dim - 1
    t1, t2 = gmul(beta_a, alpha_b), gmul(alpha_a, beta_b)
    if k % 2:
        t2 = (-t2[0], -t2[1])
    if da == db:
        c, n0, ninf = (t1[0] + t2[0], t1[1] + t2[1]), da - k, da - k
    elif any(t1) and any(t2):
        raise RuntimeError("internal invariant broken: a product semi-invariant of "
                           "section modules of different degrees has two monomials")
    else:
        c, n0, ninf = (t1, da - k, db - k) if any(t1) else (t2, db - k, da - k)
    if not any(c):
        return None
    sign = (-1) ** (k + 1) * B.eps  # eps^B_k, k >= 1
    return sign * c[0], sign * c[1], den_a * den_b * (2 if sym else 1), n0, ninf


def _pair_rows(A: SectionModule, B: SectionModule, ctx: _Ctx) -> list[ModuleRow]:
    """Rows of M_{AB}: one per non-leading Clebsch-Gordan component V_m, its
    highest-weight vector (the transvectant of order k = (w_A0 + w_B0 - m)/2)
    minus its function c g3^n0 g4^ninf (``_product_monomial``) times the
    section monomial s0^n0 sinf^ninf r^...  That monomial is g3^n0 g4^ninf
    on SL2: s0 = g3 and sinf = g4 for n >= 3, and n0 = ninf = 0 on the
    degree-1 modules of n <= 2.  No polynomial on SL2 is formed.  The rows
    run in k order, and n0, ninf both drop by one per unit of k, so the
    r-exponents are walked along the pair (``_Ctx.r_exponents``)."""
    sym = A is B
    comps = clebsch_gordan(A.dim - 1, B.dim - 1)[1:]  # drop the Cartan component
    if sym:
        comps = comps[1::2]  # Sym^2(V_d) = V_2d + V_{2d-4} + ...
    rows: list[ModuleRow] = []
    last = None  # (k, lattice numerators) of the last row with a section monomial
    for m in comps:
        k = (A.dim + B.dim - 2 - m) // 2
        closed = _product_monomial(A, B, k, sym)
        r = closed[2] if closed else 1
        num = {}
        for (i, j), c in _transvectant(A, B, k, sym).items():
            a, b = sorted((A.names[i], B.names[j]))
            num[((a, 2),) if a == b else ((a, 1), (b, 1))] = (c * r, 0)
        if closed is None:
            rows.append(ModuleRow(m, m, SparsePoly._canonical(num, 1), True))
            continue
        x, y, _, n0, ninf = closed
        X, exps = ctx.r_exponents(A, B, k, n0, ninf, last)
        last = k, X
        mono = [(ctx.rvar[lbl], e) for lbl, e in zip(ctx.R.divisor_labels, exps) if e]
        mono += [(s.names[0], e) for s, e in ((ctx.mod0, n0), (ctx.modinf, ninf)) if e]
        # a chain monomial has a basis vector of index >= 1, never this key
        num[tuple(sorted(mono))] = (-x, -y)
        rows.append(ModuleRow(m, m, SparsePoly._canonical(num, r)))
    return rows


def _n_rows(mod: SectionModule, ctx: _Ctx, p: BasePoint) -> list[ModuleRow]:
    """The N-module of one non-designated exceptional point: the row
    c0 s0^nbar r0^h + cinf sinf^nbar rinf^h - s_i r_i^h, with s_i =
    beta g3^nbar - alpha g4^nbar and s0^nbar, sinf^nbar = g3^nbar, g4^nbar
    for n >= 3 or beta_x0 g3, -alpha_xinf g4 for n <= 2 (nbar = 1), so
    c0 = beta / beta_x0 and cinf = alpha / alpha_xinf (``qi_div``); for
    nbar = 1 the lowered (t-)row completes the module."""
    mod0, modinf = ctx.mod0, ctx.modinf
    nb = ctx.E.group.nbar
    alpha, beta, den = mod.coords
    (_, beta0, den0), (alphainf, _, deninf) = mod0.coords, modinf.coords
    c0, cinf = qi_div((*beta, den), (*beta0, den0)), qi_div((*alpha, den), (*alphainf, deninf))

    def r_items(q: BasePoint | None) -> list[tuple[str, int]]:
        fiber = ctx.R.fibers[q] if q is not None else {}
        return [(ctx.rvar[lbl], h) for lbl, h in fiber.items() if lbl in ctx.rvar]

    r0, rinf, rp = r_items(ctx.p0_point), r_items(ctx.pinf_point), r_items(p)

    def build(index: int) -> SparsePoly:
        return SparsePoly({tuple(sorted([(m.names[index], e), *rs])): c for m, e, rs, c in
                           ((mod0, nb, r0, c0), (modinf, nb, rinf, cinf), (mod, 1, rp, -1))})

    rows = [ModuleRow(nb, nb, build(0))]
    if nb == 1:
        rows.append(ModuleRow(nb, nb - 2, build(1)))
    return rows


def full_cox_presentation_cyclic(E: EmbeddingData) -> FullCoxResult:
    """The full Cox ring for cyclic F by generators and relations, with the
    relation modules.  The relations are not checked here:
    ``verify_full_cox`` checks their homogeneity and vanishing."""
    F = E.group
    if not F.is_cyclic:
        raise NotCyclic(f"{F} is not cyclic")
    E.require_valid()
    n, nb = F.n, F.nbar
    log: list[str] = []

    many_points = len(E.exceptional_points()) >= 3
    if many_points and n >= 3:
        E, log = _augment(E)
    R = cg.class_group(E)
    if many_points and R.group.torsion:
        raise TorsionAfterAugmentation(
            f"class group {R.group} keeps torsion; the reduction to a "
            f"torsion-free model is not combinatorial here")

    keys = R.point_keys
    pts = list(E.exceptional_points())

    # designate the x0 / xinf roles: for n <= 2 a listed point plays one
    # when it equals the role's point in ROLE_POINTS
    if n >= 3:
        p0, pinf = X0, XINF
    else:
        x0, xinf = ROLE_POINTS.values()
        p0, pinf = (next((p for p in pts if p == q), None) for q in (x0, xinf))
        if many_points and (p0 is None or pinf is None):
            raise NotAffineShape(
                "for n <= 2 the presentation assumes exceptional points at "
                f"{x0} and {xinf}; move them there by a coordinate change")
        if len(pts) == 2 and not (p0 is not None and pinf is not None):
            raise NotAffineShape(f"with two exceptional points they must sit at {x0} and {xinf}")
        if len(pts) == 1 and p0 is None:
            raise NotAffineShape(f"a single exceptional point must sit at {x0}")

    uniform = n <= 2
    base_fiber = R.fibers[pts[0] if pts else XD]

    def make_module(p: BasePoint | None, role: str) -> SectionModule:
        """The section module of the point p in the given role, with (alpha,
        beta) from ``point_coordinates`` of p, or of the role's point in
        ``ROLE_POINTS`` when no listed point plays it (n <= 2; there s0 = g3
        and sinf = -g4)."""
        key = keys[p] if p is not None else role
        combo = {R.color(p): 1} if p is not None else dict(base_fiber)
        (ar, ai, ad), (br, bi, bd) = point_coordinates(F, ROLE_POINTS[role] if p is None else p)
        den = lcm(ad, bd)
        ar, ai, br, bi = ar * (den // ad), ai * (den // ad), br * (den // bd), bi * (den // bd)
        coords = (ar, ai), (br, bi), den
        d = 1 if uniform or p.tag is not None else nb
        eps = -1 if uniform else 1  # for n <= 2, t is -(beta g1 - alpha g2)
        fns = []
        for k, s in enumerate([1] + [eps] * d):
            num = {(k, 0, d - k, 0): (s * br, s * bi), (0, k, 0, d - k): (-s * ar, -s * ai)}
            fns.append(GPoly._canonical({m: xy for m, xy in num.items() if any(xy)}, den))
        return SectionModule(key, combo, _basis_names(d, key[1:]), tuple(fns), coords, eps)

    mod0 = make_module(p0, "x0")
    modinf = make_module(pinf, "xinf")
    extra_modules = {p: make_module(p, "extra") for p in pts if p not in (p0, pinf)}

    # generator order follows the paper: the points in their listed order
    point_order = [mod0 if p == p0 else modinf if p == pinf else extra_modules[p] for p in pts]
    point_order += [m for m, q in ((mod0, p0), (modinf, pinf)) if q is None]

    variables: list[GradedVariable] = []
    degree = {m.point_key: R.image_of(m.color_combo) for m in point_order}
    for m in point_order:
        for nm, w, f in zip(m.names, m.weights, m.fns):
            variables.append(GradedVariable(nm, degree[m.point_key], w, f"V(E^{m.point_key})", f))
    rvar = _r_names(R, "")
    for lbl, nm in rvar.items():
        variables.append(GradedVariable(nm, R.images[lbl], 0, lbl, GPOLY_ONE))

    # each module's class is solved once in the relation lattice
    classes = {m.point_key: R.numerators(m.color_combo) for m in point_order}
    ctx = _Ctx(E, R, mod0, modinf, rvar, p0, pinf, classes)

    rel_modules: list[RelationModule] = []
    relations: list[SparsePoly] = []
    for i, A in enumerate(point_order):
        for B in point_order[i:]:
            rows = _pair_rows(A, B, ctx)
            if rows:
                rel_modules.append(RelationModule("M", (A.point_key, B.point_key), tuple(rows)))
                relations.extend(r.poly for r in rows)
    for p, m in extra_modules.items():
        rows = _n_rows(m, ctx, p)
        rel_modules.append(RelationModule("N", (m.point_key,), tuple(rows)))
        relations.extend(r.poly for r in rows)

    return FullCoxResult(GradedPresentation(variables, relations, R.group), rel_modules, log, R, E)


# -- Batyrev-Haddad parameters ----------------------------------------------------


@dataclass(frozen=True)
class BatyrevHaddadParams:
    p: int
    q: int
    k: int
    a: int
    b: int
    height: Fraction


def _affine_divisor(E: EmbeddingData) -> GStableDivisorSpec:
    F = E.group
    if not F.is_cyclic:
        raise NotAffineShape("the affine shape requires cyclic F")
    if E.dominating_divisor() is not None or len(E.divisors) != 1:
        raise NotAffineShape("the affine shape has exactly one G-stable divisor")
    d = E.divisors[0]
    if F.n >= 3:
        if d.over != X0 or E.extra_points:
            raise NotAffineShape("the divisor must lie over x0 with no extra points")
    elif E.extra_points != (d.over,) or d.over != ROLE_POINTS["x0"]:
        raise NotAffineShape(f"for n <= 2 the divisor must lie over the point {ROLE_POINTS['x0']}")
    return d


def batyrev_haddad(E: EmbeddingData) -> BatyrevHaddadParams:
    """Height h_P = p/q and the hypersurface data (k, a, b) of the affine
    total coordinate space y^b = t1 t4 - t2 t3."""
    E.require_valid()
    F = E.group
    d = _affine_divisor(E)
    n, nb, u = F.n, F.nbar, F.u
    h, l = d.h, d.l
    alpha_num = h * (nb + 1) + 2 * l * nb
    alpha_den = h * (1 - nb) - 2 * l * nb
    if alpha_den == 0:
        raise HeightOutOfRange("height undefined (denominator vanishes)")
    height = Fraction(alpha_num) / Fraction(alpha_den)
    if not (0 < height <= 1):
        raise HeightOutOfRange(f"alpha = {height} is outside (0, 1]")
    if gcd(h, int(u * l)) != 1:
        raise NotAffineShape(f"h and u*l must be coprime, got ({h}, {u * l})")
    p, q = height.numerator, height.denominator
    k = gcd(q - p, n)
    a = n // k
    b = (q - p) // k
    if b != -(h + 2 * l):
        raise RuntimeError("identity b = -(h + 2l) failed; data outside the affine regime")
    _check_bh_grading(E, d, p, q, k)
    return BatyrevHaddadParams(p, q, k, a, b, height)


def _check_bh_grading(E: EmbeddingData, d: GStableDivisorSpec, p: int, q: int, k: int):
    """The classes of the color and the divisor d over d's point and of
    E^{xinf} (n >= 3) match the hypersurface degrees (-p, ub - v), (k, u),
    (q, v) with -qu + kv = 1, up to an automorphism of Z x Z/d (the
    automorphisms are (x, y) -> (sx, cy + tx), c invertible)."""
    R = cg.class_group(E)
    grp = R.group
    if grp.free_rank != 1 or len(grp.torsion) > 1:
        raise RuntimeError(f"affine class group should be Z x Z/d, got {grp}")
    dtor = grp.torsion[0] if grp.torsion else 1
    lbl_e0, lbl_x0 = R.fibers[d.over]  # the color, then d
    lbl_einf = R.color(XINF) if E.group.n >= 3 else None
    img = {lbl: R.images[lbl] for lbl in (lbl_e0, lbl_x0, lbl_einf) if lbl is not None}
    free = {lbl: v[0] for lbl, v in img.items()}
    tor = {lbl: (v[1] if grp.torsion else 0) for lbl, v in img.items()}
    targets = {lbl_e0: -p, lbl_x0: k}
    if lbl_einf is not None:
        targets[lbl_einf] = q
    sign = next((s for s in (1, -1) if all(s * free[lbl] == t for lbl, t in targets.items())),
                None)
    if sign is None:
        raise RuntimeError("free parts of the degrees do not match (-p, k, q)")
    if dtor == 1:
        return
    b = int(-(d.h + 2 * d.l))
    # one Bezout pair (u, v) with -q*u + k*v = 1 (gcd(q, k) = 1, as k | q - p
    # and gcd(p, q) = 1); any other pair adds a multiple of (-p, k, q), the
    # free part, which the shear t already ranges over
    uu = -pow(q, -1, k) % k
    vv = (1 + q * uu) // k
    expected = {lbl_e0: uu * b - vv, lbl_x0: uu}
    if lbl_einf is not None:
        expected[lbl_einf] = vv
    for c in range(1, dtor):
        if gcd(c, dtor) != 1:
            continue
        for t in range(dtor):
            if all((c * tor[lbl] + t * sign * free[lbl]) % dtor == e % dtor
                   for lbl, e in expected.items()):
                return
    raise RuntimeError("torsion parts of the degrees do not match any "
                       "automorphism of Z x Z/d")


# -- exact verification of emitted relations --------------------------------------


def _check_homogeneous(P: GradedPresentation) -> None:
    """Every relation is homogeneous in Cl(X) and in the B-weight; raises
    RuntimeError otherwise, like a relation that does not vanish.

    Both gradings are linear in the exponents, so variable v gets the key
    K_v = sum_i c_i B^i (Kronecker substitution), with digits c_i its free
    coordinates, its B-weight, then its torsion coordinates, and a term
    the key sum_v e_v K_v.  B is a power of two above 4 T C, T the largest
    total degree of a term and C the largest |c_i|: the digits of a key lie
    in [-T C, T C], those of a difference of two keys in (-B/2, B/2), where
    an integer has one base-B expansion.  So two terms have equal degrees
    iff their keys differ by zero free and weight digits and torsion digits
    divisible by their d_i; equal keys, the common case, cost nothing more."""
    grading, free = P.grading, P.grading.free_rank
    T = max((sum(map(itemgetter(1), m)) for rel in P.relations for m in rel.num), default=0)
    digits = {v.name: (*v.degree[:free], v.b_weight, *v.degree[free:]) for v in P.variables}
    C = max((max(map(abs, c)) for c in digits.values()), default=0)
    bits = (4 * T * C).bit_length()
    B = 1 << bits
    exact = (1 << (bits * (free + 1))) - 1  # the free and weight digits
    # most degrees have a single non-zero coordinate; only those enter a key
    K = {name: sum(c[i] << (bits * i) for i in compress(range(len(c)), c))
         for name, c in digits.items()}
    for rel in P.relations:
        keys = {sum([e * K[v] for v, e in m]): m for m in rel.num}
        if len(keys) < 2:
            continue
        first, *others = keys
        for key in others:
            diff = key - first
            same = not diff & exact
            diff >>= bits * (free + 1)
            for d in grading.torsion:
                digit = ((diff + B // 2) & (B - 1)) - B // 2  # balanced
                same = same and not digit % d
                diff = (diff - digit) >> bits
            if not same:
                degs, wts = P.degree_map(), P.weight_map()
                a, b = ((term_degree(m, degs, grading), sum(e * wts[v] for v, e in m))
                        for m in (keys[first], keys[key]))
                raise RuntimeError(f"relation not homogeneous: (Cl-degree, B-weight) {a} vs {b}")


def _require_vanishing(P: GradedPresentation, one, message: str, vanishes) -> None:
    """Evaluate every relation at the generators' functions
    (``GradedVariable.function``, in the ring with unit ``one``) and raise
    RuntimeError(message) unless ``vanishes`` holds for the result: the
    transvectant identity behind a cyclic M-row is checked, not assumed.
    Each power is computed once per call; the r sections, whose function is
    1, are skipped."""
    functions = {v.name: None if v.function == one else v.function for v in P.variables}
    power = cache(lambda v, e: None if functions[v] is None else functions[v].pow(e))
    for rel in P.relations:
        if not vanishes(rel.evaluate(power, one)):
            raise RuntimeError(message)


def _exceptional_reduction(F: FiniteSubgroup):
    """Normal form in k[fv, fe, ff] modulo the exceptional relation
    c_v fv^nv + c_e fe^ne + lam ff^nf = 0: the ring map ff^(q nf + r) ->
    ff^r R^q, v^e -> v^e otherwise, with R = -(c_v fv^nv + c_e fe^ne) / lam,
    which has no ff, so one step is enough."""
    mult = F.canonical_multiplicities()
    c_v = -1 if F.kind == "dihedral" else 1  # c_e = 1
    R = (SparsePoly.term(c_v, {"fv": mult["xv"]}) + SparsePoly.term(1, {"fe": mult["xe"]})
         ).scale(qi_div((-1, 0, 1), exceptional_relation_scalar(F)))
    one = SparsePoly.term(1, {})

    @cache
    def power(v: str, e: int) -> SparsePoly:
        if v != "ff":
            return SparsePoly._canonical({((v, e),): (1, 0)}, 1)
        q, r = divmod(e, mult["xf"])
        return SparsePoly.term(1, {v: r}) * R.pow(q)

    return lambda f: f.evaluate(power, one)


def verify_full_cox(result: FullCoxResult) -> None:
    """Check every emitted relation, which the construction does not: Cl-
    and B-homogeneity, then the exact vanishing on SL2 of the function part,
    with the generator functions recorded by the construction, decided by
    ``GPoly.vanishes_on_sl2``."""
    _check_homogeneous(result.presentation)
    _require_vanishing(result.presentation, GPOLY_ONE,
                       "relation does not vanish identically on the orbit", GPoly.vanishes_on_sl2)


def verify_cox_u(E: EmbeddingData, P: GradedPresentation) -> None:
    """Exact vanishing of the cox_u relations with the generator functions
    recorded by the construction: cyclic groups in the matrix coordinates
    (``GPoly.vanishes_on_sl2``), polyhedral ones in the subregular
    semi-invariants modulo the single exceptional relation."""
    _check_homogeneous(P)
    if E.group.is_cyclic:
        _require_vanishing(P, GPOLY_ONE, "cox_u relation does not vanish on the orbit",
                           GPoly.vanishes_on_sl2)
    else:
        reduce = _exceptional_reduction(E.group)
        _require_vanishing(P, SparsePoly.term(1, {}), "polyhedral cox_u relation does not vanish",
                           lambda f: reduce(f).is_zero())
