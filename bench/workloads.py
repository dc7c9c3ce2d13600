"""The three benchmark workloads: input generation, requests and gates.

Each workload is a closed loop with one client: a pool of requests is
generated from the seed in the parent process, and the worker process
replays that pool in order, one request at a time.  The pool composition
(exponents, precisions, matrix sizes and ranks, commands and presets) is
fixed by construction and only the values inside it come from the seed, so
runs with different seeds cost about the same.  See NOTES.md for why each
workload exists and which layer metrics it should move.

A workload is an object with
  setup_samples                          (fresh processes timed for setup_s)
  generate(seed) -> pool                 (parent, before any clock starts)
  setup() -> state                       (worker; counted in setup_s)
  request(state, item) -> output         (worker; timed)
  gate(state, item, output) -> outcome   (worker; after the timed loop)
  plain(output) -> hashable, comparable  (for the traced-vs-untraced check)
where outcome is "ok", "internal-error" (the expected known crash) or a
string describing the mismatch.
"""

from __future__ import annotations

import contextlib
import io
import random

from skewseries import cli, exprparse, k0, rings, series, skewpoly


def ready(ctx):
    """The first ideal_power / is_unit / is_local calls a long-lived
    context pays before its first request."""
    ctx.ideal_power(1)
    ctx.is_unit(ctx.one())
    ctx.is_local()
    return ctx


def commutation_power_product(ctx, u, e, g):
    """(u + x)^e * g through the iterated-commutation oracle only.

    Left-multiplying by the linear factor keeps each oracle product at one
    commutation step, so the oracle stays cheap even for e = 48."""
    lin = skewpoly.SkewPoly(ctx, (u, ctx.one()))
    acc = skewpoly.SkewPoly.one(ctx)
    for _ in range(e):
        acc = skewpoly.poly_mul_commutation(lin, acc)
    return skewpoly.poly_mul_commutation(acc, skewpoly.SkewPoly(ctx, g))


def matmul(scalars, a, b):
    """Plain schoolbook matrix product, independent of k0.mat_mul."""
    out = []
    for row in a:
        out_row = []
        for j in range(len(b[0])):
            acc = scalars.zero()
            for x, b_row in zip(row, b):
                acc = scalars.add(acc, scalars.mul(x, b_row[j]))
            out_row.append(acc)
        out.append(tuple(out_row))
    return tuple(out)


def idempotent_of_rank(scalars, n, rank, rng):
    """A random_idempotent of size n whose rank is `rank`.  random_idempotent
    draws its rank first; choosing the sub-seed so that the draw is `rank`
    keeps the rank mix fixed while the seed still picks the matrix."""
    while True:
        sub_seed = rng.getrandbits(32)
        if random.Random(sub_seed).randint(0, n) == rank:
            break
    e, ones = k0.random_idempotent(scalars, n, random.Random(sub_seed))
    if ones != rank:
        raise RuntimeError("random_idempotent no longer draws its rank first")
    return e


def _balanced(values, count, rng):
    """count draws that use every value equally often (whole shuffled
    blocks, the last one cut short)."""
    out = []
    while len(out) < count:
        block = list(values)
        rng.shuffle(block)
        out += block
    return out[:count]


def _power(ctx, a, k):
    acc = ctx.one()
    for _ in range(k):
        acc = ctx.mul(acc, a)
    return acc


def _literal_text(ctx, payload):
    return f"({ctx.render(payload)})"


# -- expr-warm ----------------------------------------------------------------


class ExprWarm:
    """parse_expression + eval_expression of (u + x)^e * g on one warm
    truncpoly:3:6:c=2 context; half the requests in R[x; sigma, delta] and
    half in S/G_N."""

    name = "expr-warm"
    setup_samples = 3       # about 2.5 s each
    preset = "truncpoly:3:6:c=2"
    # 60 exponents spread evenly over 4..48, each once in R[x] and once in
    # S/G_N: 120 requests, enough for a p90 with 10 samples beyond it
    exponents = [4 + i * 45 // 60 for i in range(60)]
    precisions = range(4, 17)
    max_g_degree = 6

    def generate(self, seed):
        rng = random.Random(seed)
        ctx = rings.parse_ring_preset(self.preset)
        literals = [ctx.from_int(i) for i in range(1, ctx.q)]
        literals += list(ctx.named_literals().values())
        # g's coefficients are monomials c*t^i: as cheap as the literals,
        # but a dozen of them, so which M_{k,l} rectangles the memo fills
        # (and skewpoly.mkl_memo_entries) depends on the seed
        t = ctx.named_literals()["t"]
        monomials = [ctx.mul(ctx.from_int(c), _power(ctx, t, i))
                     for c in range(1, ctx.q) for i in range(ctx.m)]
        precisions = _balanced(self.precisions, len(self.exponents), rng)
        pool = []
        for e, n_prec in zip(self.exponents, precisions):
            for precision in (None, n_prec):
                # u and the degree of g cycle with the position, so the cost
                # mix is the same for every seed; the seed picks g's
                # coefficients, the lower ones zero a quarter of the time
                j = len(pool)
                u = literals[j % len(literals)]
                g = [ctx.zero() if rng.random() < 0.25 else rng.choice(monomials)
                     for _ in range(j % (self.max_g_degree + 1))]
                g.append(rng.choice(monomials))
                g_text = " + ".join(f"{_literal_text(ctx, c)}*x^{k}"
                                    for k, c in enumerate(g) if c != ctx.zero())
                text = f"({_literal_text(ctx, u)} + x)^{e} * ({g_text})"
                pool.append((text, precision, u, e, tuple(g)))
        rng.shuffle(pool)
        return pool

    def setup(self):
        return ready(rings.parse_ring_preset(self.preset))

    def request(self, ctx, item):
        text, precision = item[0], item[1]
        node = exprparse.parse_expression(text, ctx)
        return exprparse.eval_expression(node, ctx, precision)

    def gate(self, ctx, item, output):
        _, precision, u, e, g = item
        expected = commutation_power_product(ctx, u, e, g)
        if precision is not None:
            expected = series.TruncatedSeries.from_poly(expected, precision)
        return "ok" if output == expected else f"oracle mismatch on {item[0]}"

    def plain(self, output):
        return output.coeffs


# -- rank-mixed -------------------------------------------------------------


class RankMixed:
    """idempotent_rank (and for every seventh request also
    stable_iso_witness against a second seeded idempotent of the same rank)
    on idempotents of size 2..6 over zmod:2^10 and truncpoly:3:3:c=2, half
    over R and half over S/G_N."""

    name = "rank-mixed"
    setup_samples = 5       # about 0.4 s each
    presets = ("zmod:2^10", "truncpoly:3:3:c=2")
    sizes = range(2, 7)
    precisions = range(2, 9)
    repeats = 3     # 180 requests
    iso_every = 7   # coprime to the 4 (kind, preset) pairs, so all get some

    def generate(self, seed):
        rng = random.Random(seed)
        gens = {p: ready(rings.parse_ring_preset(p)) for p in self.presets}
        strata = [(rep, n, r, kind, p)
                  for rep in range(self.repeats)
                  for n in self.sizes for r in range(1, n)
                  for kind in ("base", "series") for p in self.presets]
        pool = []
        series_count = 0
        for index, (_, n, r, kind, preset) in enumerate(strata):
            ctx = gens[preset]
            if kind == "series":
                precision = self.precisions[series_count % len(self.precisions)]
                series_count += 1
                scalars = k0.SeriesScalars(ctx, precision)
            else:
                precision = None
                scalars = k0.BaseScalars(ctx)
            first = self._idempotent(scalars, n, r, rng)
            second = (self._idempotent(scalars, n, r, rng)
                      if index % self.iso_every == 0 else None)
            pool.append((preset, precision, r, first, second))
        return pool

    @staticmethod
    def _idempotent(scalars, n, rank, rng):
        e = idempotent_of_rank(scalars, n, rank, rng)
        if isinstance(scalars, k0.SeriesScalars):
            return tuple(tuple(x.coeffs for x in row) for row in e.entries)
        return e.entries

    def setup(self):
        return {p: ready(rings.parse_ring_preset(p)) for p in self.presets}

    @staticmethod
    def _matrix(ctx, precision, payload):
        if precision is None:
            return payload
        return tuple(tuple(series.TruncatedSeries(ctx, precision, c) for c in row)
                     for row in payload)

    def request(self, contexts, item):
        preset, precision, _, first, second = item
        ctx = contexts[preset]
        scalars = (k0.BaseScalars(ctx) if precision is None
                   else k0.SeriesScalars(ctx, precision))
        e1 = k0.IdempotentMatrix(scalars, self._matrix(ctx, precision, first))
        witness = k0.idempotent_rank(e1)
        iso = None
        if second is not None:
            e2 = k0.IdempotentMatrix(scalars, self._matrix(ctx, precision, second))
            iso = k0.stable_iso_witness(e1, e2)
        return witness, iso

    def gate(self, contexts, item, output):
        preset, precision, rank, first, second = item
        witness, iso = output
        # the idempotents are rebuilt from the generated inputs, not taken
        # from the certificate, so a certificate for other matrices fails
        ctx = contexts[preset]
        e1 = self._matrix(ctx, precision, first)
        s = witness.scalars
        n = len(e1)
        ident = k0.mat_identity(s, n)
        diag = k0.mat_diag(s, [1] * rank + [0] * (n - rank))
        u, u_inv = witness.conjugator, witness.conjugator_inv
        if witness.rank != rank:
            return f"rank {witness.rank} != generating rank {rank}"
        if matmul(s, u, u_inv) != ident:
            return "U * U^-1 != I"
        if matmul(s, matmul(s, u, e1), u_inv) != diag:
            return "U * e * U^-1 != diag"
        if second is not None:
            if iso is None:
                return "no stable isomorphism between equal-rank idempotents"
            e2 = self._matrix(ctx, precision, second)
            w, w_inv = iso.conjugator, iso.conjugator_inv
            if matmul(s, w, w_inv) != ident:
                return "W * W^-1 != I"
            if matmul(s, matmul(s, w, e1), w_inv) != e2:
                return "W * e1 * W^-1 != e2"
        return "ok"

    def plain(self, output):
        witness, iso = output

        def flat(m):
            return tuple(tuple(getattr(x, "coeffs", x) for x in row) for row in m)
        return (witness.rank, flat(witness.conjugator), flat(witness.conjugator_inv),
                None if iso is None else (flat(iso.conjugator), flat(iso.conjugator_inv)))


# -- cli-cold ---------------------------------------------------------------

_BROKEN = "truncpoly:3:3:c=2:delta=broken"
_KNOWN_CRASH = ("raises", "AssertionError: geometric inverse failed to verify")

# sigma_nilpotence_bound(ctx, 3, L) for every word limit L >= 4 used here
_NILBOUND = {"zmod:3^5": 1, "truncpoly:3:3:c=2": 2, "truncpoly:3:4:c=2": 2,
             _BROKEN: 3}

# Spelled out rather than taken from skewseries.suites.SUITE_NAMES, so that
# a change adding a suite does not change this workload under it.
_ALL_SUITES = ("ring-axioms", "sigma-derivation", "mkl-oracle", "poly-assoc",
               "series-assoc", "ideal-closure", "graded-iso", "k0-rank",
               "serre-transfer")

# Commands per preset in one copy of the table (command, times).  The light presets carry
# most of the mix; zmod:2^10 and truncpoly:5:4:c=2 appear less often because
# every command of theirs that needs ideal powers or units re-enumerates
# 1024 / 625 elements.  On the delta=broken control only commands with a
# known verdict appear: the closed-form product and the commutation oracle
# legitimately disagree there, so normalize is left out.
_EXPRESSIONS = (("normalize", 3), ("normalize-prec", 3), ("degree", 2), ("symbol", 2))
_TABLE = {
    "truncpoly:3:3:c=2": tuple((s, 1) for s in _ALL_SUITES) + _EXPRESSIONS + (
        ("nilbound", 2), ("rank", 2), ("rank-prec", 2), ("stable-iso", 2),
        ("complete-row", 2)),
    "zmod:3^5": tuple((s, 1) for s in _ALL_SUITES) + _EXPRESSIONS + (
        ("nilbound", 1), ("rank", 2), ("rank-prec", 2), ("stable-iso-prec", 2),
        ("complete-row", 2)),
    "truncpoly:3:4:c=2": tuple((s, 1) for s in _ALL_SUITES[1:8]) + _EXPRESSIONS + (
        ("nilbound", 1), ("rank", 2), ("rank-prec", 1), ("stable-iso", 2),
        ("complete-row", 2)),
    "zmod:2^10": (("ring-axioms", 1), ("poly-assoc", 1), ("sigma-derivation", 1),
                  ("normalize", 2), ("normalize-prec", 1), ("degree", 1),
                  ("rank", 1), ("complete-row", 1)),
    "truncpoly:5:4:c=2": (("ring-axioms", 1), ("poly-assoc", 1), ("normalize", 2),
                          ("normalize-prec", 1), ("rank", 1)),
    _BROKEN: (("sigma-derivation", 3), ("serre-transfer", 1), ("mkl-oracle", 1),
              ("nilbound", 1)),
}


class CliCold:
    """One in-process skewseries.cli.main(argv) call per request; every call
    builds its ring from the preset string with empty tables and memo."""

    name = "cli-cold"
    setup_samples = 15      # about 0.1 s each: interpreter start and imports
    max_exponent = 40
    # The table twice per pass (206 requests), each copy with its own
    # positions and values, so that the seed's values move the p50 less
    copies = 2

    def generate(self, seed):
        rng = random.Random(seed)
        queues = {}
        for preset, commands in _TABLE.items():
            ctx = rings.parse_ring_preset(preset)
            listed = [command for command, times in commands
                      for _ in range(times)] * self.copies
            queues[preset] = [self._command(ctx, preset, command, k, rng)
                              for k, command in enumerate(listed)]
        # fixed round-robin order over presets, so that every prefix of a
        # pass has the same preset mix whatever the seed
        pool = []
        while any(queues.values()):
            for preset in _TABLE:
                if queues[preset]:
                    pool.append(queues[preset].pop(0))
        return pool

    def _command(self, ctx, preset, command, k, rng):
        # Sizes, ranks, exponents, precisions, word limits, suite seeds and
        # the literal u follow the command's position k, so only values (the
        # coefficients of g, matrix entries, ring-axioms' sample count) come
        # from rng.
        ring = ["--ring", preset]
        if command in _ALL_SUITES:
            if preset == _BROKEN and command == "serre-transfer":
                # the known crash, exactly as reported: default seed/samples
                return ["check", command] + ring, _KNOWN_CRASH
            # A suite's own --seed moves its cost by up to a third, so it
            # follows the position.  ring-axioms is a few milliseconds at any
            # sample count, so only its count is drawn: suites.checked then
            # follows the seed without moving the cost mix
            samples = rng.randint(10, 100) if command == "ring-axioms" else 8
            argv = ["check", command, "--samples", str(samples),
                    "--seed", str(k)] + ring
            if preset == _BROKEN and command == "sigma-derivation":
                return argv, (1, "result: FAIL")
            return argv, (0, "result: PASS")
        if command == "nilbound":
            limit = 4 + k % 4
            return (["nilbound", "--n", "3", "--word-limit", str(limit)] + ring,
                    (0, f"m = {_NILBOUND[preset]}"))
        if command in ("normalize", "normalize-prec", "degree", "symbol"):
            return self._expression(ctx, command, ring, k, rng)
        precision = 2 + k % 3 if command.endswith("-prec") else None
        scalars = (k0.BaseScalars(ctx) if precision is None
                   else k0.SeriesScalars(ctx, precision))
        prec = [] if precision is None else ["--prec", str(precision)]
        n = 2 + k % 2
        r1 = 1 + k % (n - 1)   # 0 or n would give the trivial 0 or I
        if command.startswith("rank"):
            e = idempotent_of_rank(scalars, n, r1, rng)
            return (["rank", _matrix_arg(scalars, e.entries)] + ring + prec,
                    (0, f"RANK {r1} VERIFIED"))
        if command.startswith("stable-iso"):
            r2 = r1 if k % 2 else r1 + 1
            e1 = idempotent_of_rank(scalars, n, r1, rng)
            e2 = idempotent_of_rank(scalars, n, r2, rng)
            verdict = ("STABLE ISO VERIFIED" if r1 == r2
                       else f"NO STABLE ISO (rank {r1} != rank {r2})")
            return (["stable-iso", _matrix_arg(scalars, e1.entries),
                     _matrix_arg(scalars, e2.entries)] + ring + prec,
                    (0, verdict))
        if command != "complete-row":
            raise ValueError(f"unknown command {command!r} in the table")
        row = [scalars.sample(rng) for _ in range(n)]
        unit = scalars.sample(rng)
        while not scalars.is_unit(unit):
            unit = scalars.sample(rng)
        row[rng.randrange(n)] = unit
        return (["complete-row", ", ".join(scalars.render(x) for x in row)]
                + ring + prec, (0, "COMPLETION VERIFIED"))

    def _expression(self, ctx, command, ring, k, rng):
        one = ctx.one()
        literals = [ctx.from_int(i) for i in range(1, 4)]
        literals += list(ctx.named_literals().values())
        u = literals[k % len(literals)]
        e = 1 + k * 17 % self.max_exponent
        g = [rng.choice(literals) for _ in range(1 + k % 3)]
        text = (f"({_literal_text(ctx, u)} + x)^{e} * ("
                + " + ".join(f"{_literal_text(ctx, c)}*x^{j}" for j, c in enumerate(g))
                + ")")
        poly = commutation_power_product(ctx, u, e, g)
        if command == "normalize":
            return ["normalize", text] + ring, (0, poly.render())
        precision = 3 + k % 4
        prec = ["--prec", str(precision)]
        if command == "normalize-prec":
            value = series.TruncatedSeries.from_poly(
                poly + skewpoly.SkewPoly(ctx, (one,)), precision)
            return (["normalize", f"{text} + 1"] + ring + prec,
                    (0, value.render()))
        value = series.TruncatedSeries.from_poly(poly, precision)
        ready(ctx)
        # degree and symbol are worked out here from the oracle's
        # coefficients, not with filtration_degree / principal_symbol
        zero = ctx.zero()
        slots = [(i, ctx.ideal_valuation(c)) for i, c in enumerate(value.coeffs)
                 if c != zero]
        degree = min([precision] + [v + i for i, v in slots])
        if command == "degree":
            return ["degree", text] + ring + prec, (0, str(degree))
        if not slots:
            return (["symbol", text] + ring + prec,
                    (1, "error: zero has no principal symbol"))
        return (["symbol", text] + ring + prec,
                (0, "symbol: " + _symbol_text(ctx, value.coeffs, slots, degree)))

    def setup(self):
        return None

    def request(self, _, item):
        argv = item[0]
        out, err = io.StringIO(), io.StringIO()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(argv)
        except Exception as exc:  # a traceback is an outcome to gate, not a harness error
            return ("raises", f"{type(exc).__name__}: {exc}")
        lines = out.getvalue().splitlines() or err.getvalue().splitlines() or [""]
        return code, lines[-1]

    def gate(self, _, item, output):
        expected = item[1]
        if output != expected:
            return f"{' '.join(item[0])}: expected {expected}, got {output}"
        return "internal-error" if expected == _KNOWN_CRASH else "ok"

    def plain(self, output):
        return output


def _symbol_text(ctx, coeffs, slots, degree):
    """The principal symbol of a nonzero class of filtration degree
    `degree`, as the CLI renders it: the slots i whose valuation v is
    exactly degree - i, each reduced into radical layer v, in x-degree
    order."""
    parts = []
    for i, v in slots:
        if v + i != degree:
            continue
        text = ctx.render(ctx.reduce_mod_ideal_power(coeffs[i], v + 1))
        if " + " in text or " - " in text:
            text = f"({text})"
        xbar = "" if i == 0 else "*xbar" if i == 1 else f"*xbar^{i}"
        parts.append(f"{text} (layer {v}){xbar}")
    return " + ".join(parts)


def _matrix_arg(scalars, entries):
    return "; ".join(", ".join(scalars.render(x) for x in row) for row in entries)


WORKLOADS = {w.name: w for w in (ExprWarm(), RankMixed(), CliCold())}
