"""The three benchmark workloads.

Each workload turns the seed into a fixed round of operations. The
harness calls `prepare(i)` outside the timed region and times the
zero-argument call it returns; `record(i, output)` then checks that
output (untimed) and `verify()` runs the checks that need an independent
computation after the measurement. The composition of a round (checks,
dimensions, field sizes, functions) does not depend on the seed; the seed
only draws the matrices, weights and the `verify --seed`.

opdiv functions are looked up on their modules at call time, so the
tracer's wrappers see every call. The modules come from importlib
because the package rebinds the name `opdiv.perspective` to the
function of that name.
"""

from __future__ import annotations

import importlib
import json
import math
import os

import numpy as np

CLI = importlib.import_module("opdiv.cli")
HERM = importlib.import_module("opdiv.hermitian")
PERSP = importlib.import_module("opdiv.perspective")
FUNCS = importlib.import_module("opdiv.funcatalog")

# Fixed so that a check added to the registry later does not change the
# workload; these are the registry's 20 ids.
CHECKS = (
    "THM2_1", "COR2_2_SUBADD", "COR2_2_II", "COR2_3_SPLIT", "THM2_4_MIXTURE",
    "THM2_6_CDJ_DELTA", "COR2_7_SINGLE", "EX2_8_POWER", "COR2_9_VECTOR",
    "THM2_10_DOM", "THM_DELTA_NABLA", "THM2_12_GRAD", "THM3_1_CHAIN",
    "THM3_1_II", "COR3_4_ISOM", "THM3_8_NORM", "LEMMA_JADJIT", "KL_SUITE",
    "SCALAR_CSISZAR", "EX3_3_EXACT",
)
TRIALS = 100

# The operator convex catalog of the divergence workloads, as
# (id, params) specs.
CONVEX = (
    ("square", ()),
    ("neg_log", ()),
    ("t_log_t", ()),
    ("power", (-1.0,)),
    ("power", (-0.5,)),
    ("power", (1.5,)),
)

# Relative Frobenius distance allowed between opdiv and the reference.
REF_RTOL = 1e-8
# Loewner slack, as opdiv's default ToleranceConfig: abs + rel * scale.
ORDER_TOL = 1e-8
# Two runs of one operation in one process must agree to this.
REPEAT_RTOL = 1e-10


class RegistrySweep:
    """`opdiv verify` of each check, 100 trials, through `opdiv.cli.main`.

    A round runs every check once; check i runs at dim 2 + i % 4, so each
    of dims 2-5 carries five checks. An item is one trial.
    """

    name = "registry_sweep"
    items_per_op = TRIALS

    def __init__(self, seed: int, out_dir: str):
        self.seed = seed
        self.out = os.path.join(out_dir, f"verify-{os.getpid()}.json")
        self.ops = [(cid, 2 + i % 4) for i, cid in enumerate(CHECKS)]
        self.first = {}

    def _argv(self, cid, dim, trials, seed, extra=()):
        return [
            "verify", "--suite", cid, "--dim", str(dim), "--trials", str(trials),
            "--seed", str(seed), "--out", self.out, *extra,
        ]

    def prepare(self, i):
        cid, dim = self.ops[i]
        argv = self._argv(cid, dim, TRIALS, self.seed)
        return lambda: CLI.main(argv)

    def _report(self):
        """The report verify wrote, or None if it wrote none."""
        try:
            with open(self.out, encoding="utf-8") as handle:
                report = json.load(handle)
        except OSError:
            return None
        os.remove(self.out)
        return report

    def record(self, i, code):
        cid, dim = self.ops[i]
        report = self._report()
        if report is None:
            return [f"{cid} dim {dim}: exit {code} and no report"]
        errors = []
        if code != 0:
            errors.append(f"{cid} dim {dim}: exit {code}")
        for check in report["checks"]:
            if check["trials"] != TRIALS or check["violations"] != 0:
                errors.append(f"{cid} dim {dim}: {check['violations']} violations "
                              f"in {check['trials']} trials")
            if not math.isfinite(check["worst_margin"]):
                errors.append(f"{cid} dim {dim}: worst_margin {check['worst_margin']}")
        if [c["id"] for c in report["checks"]] != [cid]:
            errors.append(f"{cid} dim {dim}: report lists {report['checks']}")
        del report["wall_ms"]
        text = json.dumps(report, sort_keys=True)
        if self.first.setdefault(i, text) != text:
            errors.append(f"{cid} dim {dim}: repeated run gave another report")
        return errors

    def verify(self):
        """Negative control: the quartic t^4 is not operator convex, and
        THM2_1 must find that within 1000 trials."""
        argv = self._argv("THM2_1", 2, 1000, 1, ("--function", '{"id": "quartic"}'))
        code = CLI.main(argv)
        report = self._report()
        found = report["checks"][0]["violations"] if report else None
        if code != 1 or not found:
            return [f"negative control: exit {code}, {found} violations (want exit 1, >= 1)"]
        return []


def _unitary(rng, n):
    z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def _positive(rng, n):
    """Hermitian with spectrum drawn from [0.1, 4], exactly symmetric."""
    u = _unitary(rng, n)
    m = (u * rng.uniform(0.1, 4.0, n)) @ u.conj().T
    return (m + m.conj().T) / 2


class _DivergenceWorkload:
    """Theorem 2.1 verdicts on weighted fields, and x^2/y calculus.

    Each dimension has a pool of (A, B) pairs and a field takes a subset
    of them. Every operation wraps its pairs in new HermitianMatrix and
    PositiveDefiniteMatrix objects before the timed call, so no
    square-root cache is warm.
    """

    items_per_op = 1
    pool = 16

    def __init__(self, seed: int, field_ops, bivariate_ops):
        rng = np.random.default_rng(seed)
        dims = sorted({d for d, _, _ in field_ops} | {d for pair in bivariate_ops for d in pair})
        self.pairs = {d: [(_positive(rng, d), _positive(rng, d)) for _ in range(self.pool)]
                      for d in dims}
        self.functions = [FUNCS.builtin(fid, params) for fid, params in CONVEX]
        self.spec = PERSP.BivariateSpec(
            fn=lambda x, y: x * x / y,
            domain_x=FUNCS.Interval.nonnegative(),
            domain_y=FUNCS.Interval.positive(),
        )
        self.ops = []
        for dim, size, fidx in field_ops:
            ix = rng.choice(self.pool, size, replace=False)
            self.ops.append(("field", dim, fidx, ix, rng.uniform(0.2, 2.0, size)))
        for da, db in bivariate_ops:
            self.ops.append(("bivariate", da, db, int(rng.integers(self.pool)),
                             int(rng.integers(self.pool))))
        self.first = {}

    def prepare(self, i):
        op = self.ops[i]
        if op[0] == "bivariate":
            _, da, db, ia, ib = op
            left = HERM.HermitianMatrix(self.pairs[da][ia][0])
            right = HERM.HermitianMatrix(self.pairs[db][ib][1])
            return lambda: PERSP.bivariate_calculus(self.spec, left, right)
        _, dim, fidx, ix, weights = op
        field = PERSP.WeightedOperatorField(
            [(w, HERM.HermitianMatrix(self.pairs[dim][j][0]),
              HERM.PositiveDefiniteMatrix(self.pairs[dim][j][1]))
             for w, j in zip(weights, ix)]
        )
        f = self.functions[fidx]
        return lambda: _thm2_1_verdict(f, field)

    def record(self, i, output):
        op = self.ops[i]
        if op[0] == "bivariate":
            m = output.entries
            fingerprint = np.array([np.trace(m).real, np.linalg.norm(m)])
            errors = []
        else:
            theta, lhs, verdict = output
            fingerprint = np.array([
                np.trace(theta.entries).real, np.linalg.norm(theta.entries),
                np.trace(lhs.entries).real, verdict.margin_low,
            ])
            errors = [] if verdict.holds_le else [f"op {i}: verdict {verdict}"]
        first = self.first.setdefault(i, fingerprint)
        if not np.allclose(first, fingerprint, rtol=REPEAT_RTOL, atol=1e-12):
            errors.append(f"op {i}: repeated run gave another result")
        return errors

    def verify(self):
        """Recompute one round and compare it with computations made apart
        from opdiv (see _reference_term) and with numpy's eigenvalues of
        Theta minus the perspective of the sums."""
        errors = []
        terms = {}
        for i, op in enumerate(self.ops):
            output = self.prepare(i)()
            errors += self.record(i, output)
            if op[0] == "bivariate":
                _, da, db, ia, ib = op
                a, b = self.pairs[da][ia][0], self.pairs[db][ib][1]
                errors += _close(f"op {i} x^2/y", output.entries,
                                 np.kron(a @ a, np.linalg.inv(b)))
                continue
            theta, lhs, verdict = output
            _, dim, fidx, ix, weights = op
            label = f"op {i} {CONVEX[fidx]} dim {dim}"
            want = 0
            for w, j in zip(weights, ix):
                if (fidx, dim, j) not in terms:
                    terms[fidx, dim, j] = _reference_term(CONVEX[fidx], *self.pairs[dim][j])
                want = want + w * terms[fidx, dim, j]
            errors += _close(f"{label} theta", theta.entries, want)
            sum_a = sum(w * self.pairs[dim][j][0] for w, j in zip(weights, ix))
            sum_b = sum(w * self.pairs[dim][j][1] for w, j in zip(weights, ix))
            errors += _close(f"{label} perspective", lhs.entries,
                             _reference_term(CONVEX[fidx], sum_a, sum_b))
            gap = np.linalg.eigvalsh(theta.entries - lhs.entries)[0]
            scale = max(np.abs(np.linalg.eigvalsh(theta.entries)).max(),
                        np.abs(np.linalg.eigvalsh(lhs.entries)).max())
            tol = ORDER_TOL * (1.0 + scale)
            if gap < -tol:
                errors.append(f"{label}: Theorem 2.1 order fails, min eigenvalue {gap}")
            if abs(verdict.margin_low - gap) > tol:
                errors.append(f"{label}: margin {verdict.margin_low} vs numpy {gap}")
        return errors


def _thm2_1_verdict(f, field):
    theta = PERSP.theta_divergence(f, field)
    lhs = PERSP.perspective(
        f, field.weighted_sum_a(), HERM.PositiveDefiniteMatrix(field.weighted_sum_b())
    )
    return theta, lhs, HERM.loewner_compare(lhs, theta)


def _reference_term(spec, a, b):
    """B^{1/2} f(B^{-1/2} A B^{-1/2}) B^{1/2}, without opdiv.

    t^2 and t^-1 use their closed forms A B^-1 A and B A^-1 B, neg_log
    uses scipy's sqrtm and logm, and t_log_t and the fractional powers
    diagonalize with numpy.
    """
    from scipy import linalg

    fid, params = spec
    if fid == "square":
        return a @ np.linalg.solve(b, a)
    if fid == "power" and params == (-1.0,):
        return b @ np.linalg.solve(a, b)
    half = linalg.sqrtm(b) if fid == "neg_log" else _eig_apply(b, np.sqrt)
    inv_half = np.linalg.inv(half)
    x = inv_half @ a @ inv_half
    x = (x + x.conj().T) / 2
    if fid == "neg_log":
        fx = -linalg.logm(x)
    elif fid == "t_log_t":
        fx = _eig_apply(x, lambda t: t * np.log(t))
    else:
        fx = _eig_apply(x, lambda t: t ** params[0])
    return half @ fx @ half


def _eig_apply(x, fn):
    lam, v = np.linalg.eigh(x)
    return (v * fn(lam)) @ v.conj().T


def _close(label, got, want):
    dev = np.linalg.norm(got - want) / max(1.0, np.linalg.norm(want))
    return [] if dev <= REF_RTOL else [f"{label}: relative deviation {dev:.3e}"]


class DivergenceField(_DivergenceWorkload):
    """Fields of 2-16 entries at dims 2-8 over the whole catalog: 630
    verdicts a round, one per (dim, size, function). An item is a field."""

    name = "divergence_field"

    def __init__(self, seed: int, out_dir: str):
        field_ops = [(d, n, f) for d in range(2, 9) for n in range(2, 17) for f in range(len(CONVEX))]
        super().__init__(seed, field_ops, [])


class LargeDim(_DivergenceWorkload):
    """Fields of 2-4 entries at dims 48-64 (90 verdicts a round) plus 30
    x^2/y calculus calls at dims 7-8, tensor dims 49-64. An item is a
    field or a calculus call."""

    name = "large_dim"
    pool = 4

    def __init__(self, seed: int, out_dir: str):
        field_ops = [(d, n, f) for d in (48, 52, 56, 60, 64) for n in (2, 3, 4) for f in range(len(CONVEX))]
        bivariate_ops = [(7 + k % 2, 7 + k // 2 % 2) for k in range(30)]
        super().__init__(seed, field_ops, bivariate_ops)


WORKLOADS = {w.name: w for w in (RegistrySweep, DivergenceField, LargeDim)}
