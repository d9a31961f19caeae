"""Seeded input families of the benchmark workloads.

``generate(workload, seed)`` returns the inputs of one workload.  Problem
sizes (group orders, numbers of extra points, divisors per point, the
subcommand mix) are fixed per workload; the seed picks only point
coordinates and divisor data (h, l), so every seed gives a family of the
same shape (on many_divisors only the coordinates vary, see there).
Every input is built valid by construction and checked with
``EmbeddingData.validate()`` by ``check_inputs`` before any timing; the few
deliberately invalid files of ``cli_mix`` must fail validation instead.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from sl2cox.embedding import (
    EmbeddingData,
    GStableDivisorSpec,
    SchemaError,
    affine_embedding,
    embedding_from_dict,
    embedding_to_dict,
)
from sl2cox.groups import ICOSA, OCTA, TETRA, cyclic, dihedral
from sl2cox.hyperspace import X0, XE, XF, XINF, XV, point

WORKLOADS = ("full_cyclic_sweep", "many_divisors", "cli_mix")

# Coordinates [a:b] of extra points: coprime, a != b, both non-zero, so no
# pair collides with a canonical point of any group ([0:1], [1:0], [-1:0],
# [-1:1], [-1:-1]) or with another pair projectively.
_COORDS = tuple((a, b) for a in range(1, 8) for b in range(1, 8)
                if a != b and gcd(a, b) == 1)


class GeneratorError(Exception):
    """A generated input broke its construction invariant."""


@dataclass(frozen=True)
class Input:
    """One benchmark input.

    ``doc`` is the embedding file written for the input.  For ``cli_mix``,
    ``argv`` is the subcommand with its flags (the file path is appended)
    and ``expect_exit`` the exit code the command must return;
    ``expect_valid`` is False for the deliberately invalid files.
    """

    name: str
    doc: dict
    argv: tuple[str, ...] = ()
    expect_exit: int = 0
    expect_valid: bool = True


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}:{seed}")


def _l_values(n: int, h: int) -> list[Fraction]:
    """l in (1/u)Z with 2l + h <= 0 and l >= -h - 1, for cyclic(n)."""
    u = 1 if n % 2 else 2
    return [Fraction(-j, u) for j in range(1, (h + 1) * u + 1)
            if Fraction(-j, u) <= Fraction(-h, 2)]


def _half_odd(n: int, rng) -> Fraction:
    """An l with odd u*l for the first divisor of an even-n input: it keeps
    the 2-torsion that an all-even u*l-row gives out of Cl(X)."""
    return rng.choice([l for l in _l_values(n, 1) if l.denominator == 2])


def _cyclic_with_extras(n: int, coords, hls) -> EmbeddingData:
    """cyclic(n), divisors hls[0] over x0, hls[1] over xinf, hls[2+i] over
    the i-th extra point, each a list of (h, l)."""
    extras = tuple(point(a, b) for a, b in coords)
    divs = []
    for p, hl in zip((X0, XINF) + extras, hls):
        divs.extend(GStableDivisorSpec(p, h, l) for h, l in hl)
    return EmbeddingData(cyclic(n), extras, tuple(divs))


# -- full_cyclic_sweep --------------------------------------------------------

# (n, number of extra points): n rises into the range where the GPoly normal
# form dominates; n = 24 with two extras is the slowest input.
FULL_SWEEP_SIZES = ((4, 3), (8, 2), (12, 3), (16, 2), (20, 3), (24, 2))


def full_cyclic_sweep(seed: int) -> list[Input]:
    rng = _rng("full_cyclic_sweep", seed)
    out = []
    for n, k in FULL_SWEEP_SIZES:
        coords = rng.sample(_COORDS, k)
        hls = [[(1, rng.choice(_l_values(n, 1)))] for _ in range(2 + k)]
        if n % 2 == 0:
            hls[0] = [(1, _half_odd(n, rng))]
        E = _cyclic_with_extras(n, coords, hls)
        out.append(Input(f"c{n}+{k}", embedding_to_dict(E)))
    return out


# -- many_divisors ------------------------------------------------------------

# (n, number of extra points, divisors per point): small groups, many
# divisors, so the work moves into the non-negative exponent solver.  Every
# divisor is (h, l) = (1, -2) for odd n and (1, -3/2) for even n (odd u*l,
# see _half_odd).  The seed picks only the coordinates here: the solver's
# cost depends on the l-values (measured: up to a factor of two between
# assignments), so varying them would let the seed change the size of the
# work, while the coordinates do not enter the solver at all.
MANY_DIVISORS_SIZES = ((3, 2, 5), (4, 2, 4), (5, 3, 2), (3, 2, 3))


def many_divisors(seed: int) -> list[Input]:
    rng = _rng("many_divisors", seed)
    out = []
    for n, k, d in MANY_DIVISORS_SIZES:
        coords = rng.sample(_COORDS, k)
        l = Fraction(-2) if n % 2 else Fraction(-3, 2)
        E = _cyclic_with_extras(n, coords, [[(1, l)] * d for _ in range(2 + k)])
        out.append(Input(f"c{n}+{k}x{d}", embedding_to_dict(E)))
    return out


# -- cli_mix --------------------------------------------------------------------

_CYCLIC_COMMANDS = (("validate",), ("classgroup",), ("cox-u", "--verify", "--special-fiber"),
                    ("cox-full", "--verify"), ("diagnose",), ("iterate",))
_POLY_COMMANDS = (("validate",), ("classgroup",), ("cox-u", "--verify", "--special-fiber"),
                  ("diagnose",), ("iterate",))
_AFFINE_COMMANDS = (("batyrev-haddad",), ("iterate",), ("classgroup",),
                    ("cox-full", "--verify"), ("diagnose",))

# cyclic(n) with k extra points, two per (n, k)
CLI_CYCLIC = ((3, 1), (3, 2), (4, 1), (4, 2), (5, 1), (5, 2), (6, 1), (6, 2), (7, 1))
# cyclic n <= 2: points [0:1] and [1:0] plus k further points
CLI_SMALL_CYCLIC = ((1, 0), (1, 1), (2, 0), (2, 1))
CLI_POLYHEDRAL = ("dihedral2", "dihedral3", "dihedral4", "dihedral5", "dihedral6",
                  "tetrahedral", "octahedral", "icosahedral")
CLI_AFFINE_N = tuple(range(1, 13))
# wide inputs: cyclic(3) with all-h=1 divisors over four extra points; the
# cross-tuple count is 2 * 2 * (d + 1)^4
CLI_WIDE_DIVISORS = (7, 9, 11)


def _cyclic_mix(rng, n: int, k: int) -> EmbeddingData:
    coords = rng.sample(_COORDS, k)
    hls = []
    for _ in range(2 + k):
        h = rng.randint(1, 2)
        hls.append([(h, rng.choice(_l_values(n, h)))] if h == 1 else [(1, -1), (h, -h)])
    if n % 2 == 0:
        hls[0][0] = (1, _half_odd(n, rng))
    return _cyclic_with_extras(n, coords, hls)


def _small_cyclic(rng, n: int, k: int) -> EmbeddingData:
    coords = [(0, 1), (1, 0)] + rng.sample(_COORDS, k)
    extras = tuple(point(a, b) for a, b in coords)
    ls = [rng.choice(_l_values(n, 1)) for _ in extras]
    if n % 2 == 0:
        ls[0] = _half_odd(n, rng)
    divs = tuple(GStableDivisorSpec(p, 1, l) for p, l in zip(extras, ls))
    return EmbeddingData(cyclic(n), extras, divs)


def _polyhedral(rng, name: str) -> EmbeddingData:
    F = {"tetrahedral": TETRA, "octahedral": OCTA, "icosahedral": ICOSA}.get(name)
    if F is None:
        F = dihedral(int(name[len("dihedral"):]))
    (a, b), = rng.sample(_COORDS, 1)
    extra = point(a, b)
    divs = [GStableDivisorSpec(p, 1, -rng.randint(1, 3)) for p in (XV, XE, XF)]
    divs.append(GStableDivisorSpec(extra, 1, -rng.randint(1, 2)))
    return EmbeddingData(F, (extra,), tuple(divs))


def _affine(rng, n: int) -> EmbeddingData:
    """Affine mu_n with a divisor (h, l) in the Batyrev-Haddad range
    -1/2 - 1/(2 nbar) < l/h <= -1/2, gcd(h, u l) = 1."""
    nb = n if n % 2 else n // 2
    u = 1 if n % 2 else 2
    pairs = []
    for h in range(1, 9):
        lo = -Fraction(h, 2) - Fraction(h, 2 * nb)
        for l in _l_values(n, h):
            if l > lo and gcd(h, abs(int(u * l))) == 1:
                pairs.append((h, l))
    h, l = rng.choice(pairs)
    return affine_embedding(n, h, l)


def _wide(rng, d: int) -> EmbeddingData:
    coords = rng.sample(_COORDS, 4)
    return _cyclic_with_extras(3, coords, [[(1, -1)]] * 2 + [[(1, -1)] * d] * 4)


def _invalid_docs(rng) -> list[tuple[str, dict]]:
    """Embedding files that parse but fail validation, plus schema errors."""
    a, b = rng.choice(_COORDS)
    n = rng.randint(3, 7)
    base = embedding_to_dict(_cyclic_with_extras(n, [(a, b)], [[(1, -1)]] * 3))
    docs = []
    bad_l = dict(base, divisors=[dict(d) for d in base["divisors"]])
    bad_l["divisors"][0]["l"] = "1"  # 2l + h > 0: outside the valuation cone
    docs.append(("cone", bad_l))
    bad_h = dict(base, divisors=[dict(d) for d in base["divisors"]])
    bad_h["divisors"][1]["h"] = 0
    docs.append(("h0", bad_h))
    dup = dict(base, extra_points=base["extra_points"] * 2)
    dup["divisors"] = base["divisors"] + [{"over": "extra:1", "h": 1, "l": "-1"}]
    docs.append(("duplicate", dup))
    bare = dict(base, extra_points=base["extra_points"] + [{"alpha": str(b), "beta": str(a)}])
    docs.append(("bare_point", bare))  # an extra point without a divisor
    docs.append(("schema", dict(base, colour="blue")))
    dom = dict(base, divisors=base["divisors"] + [{"over": "dominating", "h": 0, "l": "1"}])
    docs.append(("dominating", dom))
    return docs


def cli_mix(seed: int) -> list[Input]:
    rng = _rng("cli_mix", seed)
    out: list[Input] = []

    def add(stem: str, E: EmbeddingData, commands):
        doc = embedding_to_dict(E)
        for argv in commands:
            out.append(Input(f"{stem}:{argv[0]}", doc, argv))

    for n, k in CLI_CYCLIC:
        for rep in range(2):
            add(f"c{n}+{k}.{rep}", _cyclic_mix(rng, n, k), _CYCLIC_COMMANDS)
    for n, k in CLI_SMALL_CYCLIC:
        for rep in range(2):
            add(f"s{n}+{k}.{rep}", _small_cyclic(rng, n, k), _CYCLIC_COMMANDS)
    for name in CLI_POLYHEDRAL:
        for rep in range(2):
            add(f"{name}.{rep}", _polyhedral(rng, name), _POLY_COMMANDS)
    for n in CLI_AFFINE_N:
        add(f"a{n}", _affine(rng, n), _AFFINE_COMMANDS)
    for d in CLI_WIDE_DIVISORS:
        add(f"wide{d}", _wide(rng, d), (("validate",), ("diagnose",)))
    for stem, doc in _invalid_docs(rng):
        out.append(Input(f"invalid_{stem}:validate", doc, ("validate",),
                         expect_exit=1, expect_valid=False))
    return out


_GENERATORS = {
    "full_cyclic_sweep": full_cyclic_sweep,
    "many_divisors": many_divisors,
    "cli_mix": cli_mix,
}


def generate(workload: str, seed: int) -> list[Input]:
    if workload not in _GENERATORS:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    return _GENERATORS[workload](seed)


def check_inputs(inputs: list[Input]) -> None:
    """Re-read every generated file and validate it; a valid-by-construction
    input that fails (or an invalid one that passes) aborts the benchmark."""
    names = set()
    for inp in inputs:
        if inp.name in names:
            raise GeneratorError(f"duplicate input name {inp.name}")
        names.add(inp.name)
        try:
            violations = embedding_from_dict(inp.doc).validate()
        except SchemaError:
            violations = ["schema error"]
        if bool(violations) == inp.expect_valid:
            raise GeneratorError(
                f"input {inp.name}: expected {'valid' if inp.expect_valid else 'invalid'}, "
                f"validate() gave {violations}")
