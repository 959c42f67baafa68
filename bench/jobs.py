"""Seed-generated job lists for the three workloads, and output checks.

Job ``k`` of a workload is a pure function of ``(seed, workload, k)``:
it draws from its own numpy generator, so any prefix of the job list is
the same whatever the run length. A job is one CLI invocation; its
input, if any, is a JSON document in the format the CLI reads, built
here with numpy and the stdlib only.

``check`` re-derives every verdict from ``oracles`` and returns one of
``OK``, ``MISS`` (correct, but the known answer was not reached) or
``FAIL`` (wrong exit code, malformed output or a wrong verdict).
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

import oracles as orc

OK, MISS, FAIL = "ok", "miss", "fail"

INPUT = "{input}"
WORKLOADS = ("search", "classify", "states")

# Search jobs: several restarts so restart batching has work, and a
# one-step budget; see README.md for why it is not 300 iterations.
SEARCH_RESTARTS = 8
SEARCH_ITERATIONS = 1

# Largest seed-drawn shift of a low-discrepancy coordinate (_spread).
JITTER = 0.002

# Classify jobs keep the default 500 iterations per restart but run 16
# restarts, not 64; see README.md.
CLASSIFY_RESTARTS = 16

CLASSIFY_REGIONS = ("cp", "boundary", "copositive", "nonpositive")
STATE_KINDS = ("alpha", "eb", "pure", "decompose")

# Verdicts whose deciding eigenvalue lies within this band of zero are
# not checked: either answer is right up to rounding.
AMBIGUOUS = 1e-8


@dataclass
class Job:
    kind: str
    argv: list[str]
    doc: str | None = None
    meta: dict = field(default_factory=dict)


def _rng(seed: int, workload: str, k: int) -> np.random.Generator:
    return np.random.default_rng([seed, WORKLOADS.index(workload), k])


def _spread(k: int, strata: int, dim: int, rng: np.random.Generator) -> np.ndarray:
    """Job k's point of a low-discrepancy sequence in [0, 1)^dim.

    Job k belongs to stratum k % strata and is point k // strata of the
    R_d sequence (Roberts 2018). The points set the scalars a job's cost
    depends on, and they do not depend on the seed: every run covers
    each region of the parameter space in the same proportions, heavy
    corners included. Seed-drawn parameters made a 30-second classify
    run swing by 22%, because two near-symmetric copositive maps at 3-4 s
    each could be a quarter of it. The seed adds a jitter of at most
    JITTER to each coordinate, and draws every random matrix and every
    CLI --seed.
    """
    phi = 2.0
    for _ in range(64):
        phi = (1.0 + phi) ** (1.0 / (dim + 1))
    gen = (1.0 / phi ** np.arange(1, dim + 1)) % 1.0
    base = (0.5 + (k // strata + 1) * gen) % 1.0
    return np.clip(base + rng.uniform(-JITTER, JITTER, dim), 0.0, np.nextafter(1.0, 0.0))


def _cli_seed(rng: np.random.Generator) -> str:
    return str(int(rng.integers(0, 2**31)))


def make_job(workload: str, seed: int, k: int) -> Job:
    rng = _rng(seed, workload, k)
    if workload == "search":
        return Job(
            "search",
            [
                "search-ppt-entangled", "choi3",
                "--seed", _cli_seed(rng),
                "--budget-restarts", str(SEARCH_RESTARTS),
                "--budget-iters", str(SEARCH_ITERATIONS),
            ],
            meta={"restarts": SEARCH_RESTARTS},
        )
    if workload == "classify":
        region = CLASSIFY_REGIONS[k % len(CLASSIFY_REGIONS)]
        u = _spread(k, len(CLASSIFY_REGIONS), 4, rng)
        a, b, c = (float(x) for x in _phi_parameters(u, region))
        doc = {
            "dim_in": 3, "dim_out": 3, "repr": "choi",
            "choi": orc.matrix_doc(orc.generalized_choi(a, b, c)),
        }
        return Job(
            region,
            ["classify-map", INPUT, "--seed", _cli_seed(rng),
             "--budget-restarts", str(CLASSIFY_RESTARTS)],
            orc.dumps_doc(doc),
            {"abc": (a, b, c)},
        )
    if workload == "states":
        kind = STATE_KINDS[k % len(STATE_KINDS)]
        u = _spread(k, len(STATE_KINDS), 10, rng)
        if kind == "decompose":
            doc, meta = _planted_ensemble(rng, u)
            return Job(kind, ["decompose", INPUT], orc.dumps_doc(doc), meta)
        meta = {}
        if kind == "alpha":
            meta["alpha"] = 2.0 + 3.0 * float(u[0])
            h, dims = orc.alpha_state(meta["alpha"]), (3, 3)
        elif kind == "eb":
            h, dims = _product_mixture(rng, u)
        else:
            h, dims = _pure_mixture(rng, u)
        doc = {"dims": list(dims), "repr": "density", "density": orc.matrix_doc(h)}
        return Job(kind, ["analyze-state", INPUT], orc.dumps_doc(doc), meta)
    raise ValueError(f"unknown workload {workload!r}")


# ----------------------------------------------------------------------
# Input generators. ``u`` is the job's low-discrepancy point; it sets
# the parameters the job's cost depends on, and ``rng`` the rest.


def _lerp(x: float, lo: float, hi: float) -> float:
    return lo + (hi - lo) * float(x)


def _phi_parameters(u: np.ndarray, region: str) -> tuple[float, float, float]:
    """Phi[a,b,c] parameters (b, c >= 0) in one region, with margins on
    the verdicts decided by a sign: CP at a = 3, copositive at bc = 1."""
    if region == "cp":
        a, b, c = _lerp(u[0], 3.05, 4.5), _lerp(u[1], 0.0, 2.5), _lerp(u[2], 0.0, 2.5)
        if abs(b * c - 1.0) < 0.05:
            c = (0.94 if b * c < 1.0 else 1.06) / b
        return a, b, c
    if region == "boundary":
        # a + b + c = 3 with bc >= (2 - a)^2: positive, not CP, and not
        # copositive since bc <= ((3 - a) / 2)^2 <= 0.64.
        a = _lerp(u[0], 1.2, 2.0)
        mid = (3.0 - a) / 2.0
        half = np.sqrt(max(mid * mid - (2.0 - a) ** 2, 0.0))
        t = _lerp(u[1], -half, half)
        return a, mid + t, mid - t
    if region == "copositive":
        a, b = _lerp(u[0], 1.05, 2.9), _lerp(u[1], 1.05, 3.0)
        return a, b, _lerp(u[2], 1.05 / b, 3.0)
    # Clearly non-positive: either a + b + c <= 2.7 or a <= 0.7.
    if u[3] < 0.5:
        total = _lerp(u[0], 1.5, 2.7)
        a = _lerp(u[1], 0.0, min(2.0, total))
        return a, (total - a) * float(u[2]), (total - a) * (1.0 - float(u[2]))
    return _lerp(u[0], 0.0, 0.7), _lerp(u[1], 0.0, 2.5), _lerp(u[2], 0.0, 2.5)


def _random_density(rng: np.random.Generator, n: int, rank: int) -> np.ndarray:
    g = rng.normal(size=(n, rank)) + 1j * rng.normal(size=(n, rank))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def _haar_unitary(rng: np.random.Generator, n: int) -> np.ndarray:
    z = (rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))) / np.sqrt(2.0)
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def _weights(rng: np.random.Generator, k: int) -> np.ndarray:
    w = rng.random(k) + 0.1
    return w / w.sum()


def _pick(x: float, count: int) -> int:
    return min(int(x * count), count - 1)


def _dims(x: float) -> tuple[int, int]:
    """One of 2x2, 2x3, 3x2, 3x3."""
    i = _pick(x, 4)
    return 2 + i // 2, 2 + i % 2


def _product_mixture(rng: np.random.Generator, u: np.ndarray) -> tuple[np.ndarray, tuple[int, int]]:
    """Separable sum_k p_k rho_k (x) sigma_k with 1 to 4 terms: the Choi
    state of an entanglement-breaking (Holevo-form) map."""
    n, m = _dims(u[0])
    h = np.zeros((n * m, n * m), dtype=np.complex128)
    for p in _weights(rng, 1 + _pick(u[1], 4)):
        rho = _random_density(rng, n, int(rng.integers(1, n + 1)))
        sigma = _random_density(rng, m, int(rng.integers(1, m + 1)))
        h += p * np.kron(rho, sigma)
    return h, (n, m)


def _pure_mixture(rng: np.random.Generator, u: np.ndarray) -> tuple[np.ndarray, tuple[int, int]]:
    """Mixture of 1 to 3 random (generally entangled) pure states."""
    n, m = _dims(u[0])
    d = n * m
    h = np.zeros((d, d), dtype=np.complex128)
    for p in _weights(rng, 1 + _pick(u[1], 3)):
        v = rng.normal(size=d) + 1j * rng.normal(size=d)
        v /= np.linalg.norm(v)
        h += p * np.outer(v, v.conj())
    return h, (n, m)


def _planted_ensemble(rng: np.random.Generator, u: np.ndarray) -> tuple[dict, dict]:
    """Separable ensemble of 2 to 4 planted blocks with 3 to 6 terms each
    (6 to 24 terms), orthogonal on both factors in a Haar-rotated basis.
    Blocks are 1 or 2 dimensional on each factor, at most 6 in total."""
    k = 2 + _pick(u[0], 3)
    per_block = 3 + _pick(u[1], 4)
    sizes_a = _block_sizes(u[2:2 + k])
    sizes_b = _block_sizes(u[6:6 + k])
    n, m = sum(sizes_a), sum(sizes_b)
    ua, ub = _haar_unitary(rng, n), _haar_unitary(rng, m)
    raw = []
    off_a = off_b = 0
    for block, (size_a, size_b) in enumerate(zip(sizes_a, sizes_b)):
        cols_a = ua[:, off_a:off_a + size_a]
        cols_b = ub[:, off_b:off_b + size_b]
        for _ in range(per_block):
            rho = _random_density(rng, size_a, size_a)
            sigma = _random_density(rng, size_b, size_b)
            raw.append((block, cols_a @ rho @ cols_a.conj().T, cols_b @ sigma @ cols_b.conj().T))
        off_a += size_a
        off_b += size_b
    weights = _weights(rng, len(raw))
    terms, labels = [], []
    for i in rng.permutation(len(raw)):
        block, a, b = raw[i]
        terms.append({"weight": float(weights[i]), "a": orc.matrix_doc(a), "b": orc.matrix_doc(b)})
        labels.append(block)
    doc = {"dims": [n, m], "repr": "ensemble", "terms": terms}
    return doc, {"blocks": k, "labels": labels}


def _block_sizes(u: np.ndarray) -> list[int]:
    sizes = [1 + _pick(x, 2) for x in u]
    while sum(sizes) > 6:
        sizes[sizes.index(2)] = 1
    return sizes


# ----------------------------------------------------------------------
# Output checks.


class CheckFailed(Exception):
    pass


def _require(cond: bool, reason: str) -> None:
    if not cond:
        raise CheckFailed(reason)


def check(job: Job, code: int, stdout: str) -> tuple[str, str]:
    """Verify one job's exit code and stdout; returns (status, reason)."""
    try:
        out = json.loads(stdout) if stdout.strip() else None
        if job.kind == "search":
            return _check_search(code, out)
        _require(code == 0, f"exit code {code}")
        _require(isinstance(out, dict), "no JSON report on stdout")
        if job.kind in CLASSIFY_REGIONS:
            return _check_classify(job, out)
        if job.kind == "decompose":
            return _check_decompose(job, out)
        return _check_state(job, out)
    except CheckFailed as exc:
        return FAIL, str(exc)
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        return FAIL, f"malformed output: {exc!r}"


def _check_search(code: int, out) -> tuple[str, str]:
    _require(code in (0, 4), f"exit code {code}")
    _require(isinstance(out, dict), "no JSON report on stdout")
    violation = float(out["violation"])
    converged = bool(out["converged"])
    found = violation >= 1e-3 and converged
    _require((code == 0) == found, f"exit code {code} with violation {violation}")
    h = orc.matrix_from_doc(out["state"]["density"])
    _require(h.shape == (9, 9), f"state shape {h.shape}")
    _require(abs(np.trace(h).real - 1.0) <= 1e-9, "state trace is not one")
    _require(orc.least_eigenvalue(h) >= -1e-9, "state is not PSD")
    _require(orc.least_eigenvalue(orc.partial_transpose(h, (3, 3))) >= -1e-9,
             "state is not PPT")
    witness = orc.generalized_choi(2.0, 0.0, 1.0)
    low = orc.least_eigenvalue(orc.apply_second_literal(h, witness, 3, 3))
    _require(abs(low + violation) <= 1e-6,
             f"witness output least eigenvalue {low} != -violation {violation}")
    if not converged or violation < orc.SEARCH_OPTIMUM - orc.SEARCH_OPTIMUM_SLACK:
        return MISS, f"violation {violation:.6f}, converged {converged}"
    return OK, ""


def _check_classify(job: Job, out: dict) -> tuple[str, str]:
    a, b, c = job.meta["abc"]
    _require(out["cp"] is orc.phi_is_cp(a, b, c), f"cp {out['cp']} for {a, b, c}")
    _require(out["copositive"] is orc.phi_is_copositive(a, b, c),
             f"copositive {out['copositive']} for {a, b, c}")
    _require((out["eb_verdict"] == "not-applicable") is (not out["cp"]),
             f"eb verdict {out['eb_verdict']} with cp {out['cp']}")
    verdict = out["positive_verdict"]
    _require(verdict in ("certified-nonpositive", "probably-positive"),
             f"positive verdict {verdict!r}")
    if verdict == "certified-nonpositive":
        _require(not orc.phi_is_positive(a, b, c),
                 f"positive map {a, b, c} certified non-positive")
        v = np.kron(orc.matrix_from_doc(out["block_x"]).ravel(),
                    orc.matrix_from_doc(out["block_y"]).ravel())
        value = float(np.real(v.conj() @ orc.generalized_choi(a, b, c) @ v))
        # block_min is the value before the last x half-step, which can
        # only lower it. Converged, the two agree; at the iteration cap
        # the certificate may be the stronger of the two.
        gap = out["block_min"] - value
        agree = abs(gap) <= 1e-9 if out["block_converged"] else gap >= -1e-9
        _require(value < 0.0 and agree,
                 f"certificate value {value} vs block_min {out['block_min']}, "
                 f"converged {out['block_converged']}")
    elif job.kind == "nonpositive":
        return MISS, f"non-positive map {a, b, c} labelled probably-positive"
    return OK, ""


def _check_state(job: Job, out: dict) -> tuple[str, str]:
    doc = json.loads(job.doc)
    n, m = doc["dims"]
    h = orc.matrix_from_doc(doc["density"])
    pt = orc.partial_transpose(h, (n, m))
    low_pt = orc.least_eigenvalue(pt)
    _require(out["peres_crosscheck"] is True, "Peres cross-check failed")
    _require(abs(out["ppt_min_eigenvalue"] - low_pt) <= AMBIGUOUS,
             f"PT least eigenvalue {out['ppt_min_eigenvalue']} vs {low_pt}")
    if abs(low_pt) > AMBIGUOUS:
        _require(out["ppt"] is (low_pt >= 0.0), f"ppt {out['ppt']} with PT eig {low_pt}")
    verdict = out["entanglement"]
    _require(verdict in ("certified-entangled", "inconclusive"), f"verdict {verdict!r}")
    if verdict == "certified-entangled":
        _check_certificate(out, h, pt, (n, m))
    if job.kind == "eb":
        _require(verdict != "certified-entangled", "separable state certified entangled")
    elif job.kind == "alpha":
        cls = orc.alpha_class(job.meta["alpha"])
        if cls == orc.SEPARABLE:
            _require(verdict != "certified-entangled",
                     f"separable alpha-state {job.meta['alpha']} certified entangled")
        elif cls == orc.NPT:
            _require(verdict == "certified-entangled",
                     f"NPT alpha-state {job.meta['alpha']} not certified")
        elif verdict == "inconclusive":
            return MISS, f"PPT-entangled alpha-state {job.meta['alpha']} inconclusive"
    return OK, ""


def _check_certificate(out: dict, h: np.ndarray, pt: np.ndarray, dims) -> None:
    """Re-evaluate the certificate where the witness is known in closed form."""
    name = out["certificate_name"]
    _require(name is not None, "entangled verdict without a certificate")
    n, m = dims
    if name in ("partial-transpose", f"transpose{m}"):
        operator = pt
    elif name == "choi3" and m == 3:
        operator = orc.apply_second_literal(h, orc.generalized_choi(2.0, 0.0, 1.0), n, 3)
    else:
        return
    v = orc.matrix_from_doc(out["certificate_vector"]).ravel()
    value = float(np.real(v.conj() @ operator @ v))
    _require(value < 0.0 and abs(value - out["certificate_value"]) <= AMBIGUOUS,
             f"{name} certificate value {value} vs {out['certificate_value']}")


def _check_decompose(job: Job, out: dict) -> tuple[str, str]:
    doc = json.loads(job.doc)
    n, m = doc["dims"]
    original = np.zeros((n * m, n * m), dtype=np.complex128)
    for term in doc["terms"]:
        original += term["weight"] * np.kron(
            orc.matrix_from_doc(term["a"]), orc.matrix_from_doc(term["b"])
        )
    components = out["components"]
    _require(len(components) == job.meta["blocks"],
             f"{len(components)} blocks, planted {job.meta['blocks']}")
    labels = job.meta["labels"]
    planted = {frozenset(i for i, lab in enumerate(labels) if lab == block)
               for block in set(labels)}
    found = {frozenset(c["indices"]) for c in components}
    _require(found == planted, "components do not match the planted blocks")
    rebuilt = sum(c["weight"] * orc.matrix_from_doc(c["state"]["density"])
                  for c in components)
    err = float(np.linalg.norm(rebuilt - original))
    _require(err <= 1e-9 * max(1.0, float(np.linalg.norm(original))),
             f"reconstruction error {err:.2e}")
    _require(out["max_cross_overlap"] <= 1e-9, "blocks overlap")
    return OK, ""
