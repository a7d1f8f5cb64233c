"""30-digit mpmath references and the per-op correctness check.

References never come from struveint.  L_nu is mpmath's ``struvel``.
The damped integral uses the termwise expansion

    I(gamma, nu, n, x) = exp(-z) * sum_k c_k S(s_k),   z = gamma x,
    c_k = (x/2)^(nu+n+2k+1) x^(1-nu) / (Gamma(k+3/2) Gamma(k+nu+n+3/2)),
    s_k = n + 2k + 2,
    S(s) = sum_j z^j / (s (s+1) ... (s+j)),

in which every term is positive, so working precision is not lost to
cancellation even at x = 1e4.  S is the Kummer form of the lower
incomplete gamma, gamma(s, z) = z^s exp(-z) S(s); it is summed directly
once, above every s_k, and carried down by S(s) = (1 + z S(s+1)) / s,
which is stable in that direction.  It costs milliseconds where
``mpmath.quad`` takes seconds at large x.
"""

from __future__ import annotations

import json
import math
import subprocess
import sys
from pathlib import Path

import mpmath
from mpmath import mpf

DPS = 30
_GUARD = 5  # extra digits while summing
#: Relative size below which a series term is dropped.
_TINY = mpf(10) ** -(DPS + 2)

#: An op fails when its relative error exceeds this (verify's oracle_rel).
REL_TOL = 1e-9

#: Ops of these kinds share one reference quantity.
REF_KIND = {
    "struve_l": "struve",
    "struve_l_scaled": "struve_scaled",
    "quadrature": "integral",
    "series": "integral",
    "bound_report": "integral",
    "log_quadrature": "log_integral",
}
LOWER_BOUNDS = ("bi1", "bi2", "bi4", "bi5")
UPPER_BOUNDS = ("bi3", "bi7", "bi8")


def integral(gamma: float, nu: float, n: float, x: float) -> mpf:
    """I(gamma, nu, n, x) to DPS digits, from the expansion above."""
    with mpmath.workdps(DPS + _GUARD):
        g, nu, n, x = mpf(gamma), mpf(nu), mpf(n), mpf(x)
        mu = nu + n
        z = g * x
        c = (x / 2) ** (mu + 1) * x ** (1 - nu) / (mpmath.gamma(1.5) * mpmath.gamma(mu + 1.5))
        q = x * x / 4
        cs = []
        peak = c
        k = 0
        while True:
            cs.append(c)
            ratio = q / ((k + 1.5) * (k + mu + 1.5))
            peak = max(peak, c)
            # S(s_k) falls with k, so past the largest c_k the tail of
            # sum c_k S(s_k) is below c_k / peak of the total.
            if ratio < 0.5 and c <= _TINY * peak:
                break
            c *= ratio
            k += 1
        # Start S far enough above z that its series converges quickly,
        # at an s that the downward steps of 1 take through every s_k.
        steps = max(2 * len(cs), 2 * int(math.ceil((float(z) + 20.0) / 2.0)))
        s = n + 2 + steps
        S = term = 1 / s
        j = 0
        while term > _TINY * S:
            j += 1
            term *= z / (s + j)
            S += term
        total = mpf(0)
        for i in range(steps - 1, -1, -1):
            s -= 1
            S = (1 + z * S) / s
            if i % 2 == 0 and i // 2 < len(cs):
                total += cs[i // 2] * S
        return +(mpmath.exp(-z) * total)


def reference(ref_kind: str, args: tuple) -> str:
    """The reference value for one op as a DPS-digit decimal string."""
    with mpmath.workdps(DPS):
        if ref_kind == "struve":
            value = mpmath.struvel(*args)
        elif ref_kind == "struve_scaled":
            nu, x = args
            value = mpmath.exp(-mpf(x)) * mpmath.struvel(nu, x)
        elif ref_kind == "integral":
            value = integral(*args)
        elif ref_kind == "log_integral":
            value = mpmath.log(integral(*args))
        else:
            raise ValueError(f"unknown reference kind {ref_kind!r}")
        return mpmath.nstr(value, DPS, min_fixed=1, max_fixed=0)


def op_key(kind: str, args) -> str:
    return json.dumps([REF_KIND[kind], list(args)])


def references(ops, cache_path: Path, workers: int = 2) -> dict[str, str]:
    """References for ``ops`` (pairs ``(kind, args)``), keyed by op_key.

    Values already in the JSON file at ``cache_path`` are reused; new
    ones are computed in ``workers`` child processes and added to it.
    """
    cache = json.loads(cache_path.read_text()) if cache_path.exists() else {}
    missing = sorted({op_key(k, a) for k, a in ops} - cache.keys())
    if missing:
        cache_path.parent.mkdir(parents=True, exist_ok=True)
        cache.update(_compute(missing, cache_path, workers))
        tmp = cache_path.with_suffix(".tmp")
        tmp.write_text(json.dumps(cache))
        tmp.replace(cache_path)
    return cache


def _compute(keys: list[str], stem: Path, workers: int) -> dict[str, str]:
    """Values for ``keys``, split over child processes that run this file
    on a JSON list of keys.  Every child is waited for on every way out."""
    jobs = []
    try:
        for i in range(min(workers, len(keys))):
            part = keys[i::workers]  # interleaved: sorted keys group by kind
            src = stem.with_suffix(f".job{i}.in")
            dst = stem.with_suffix(f".job{i}.out")
            src.write_text(json.dumps(part))
            jobs.append((subprocess.Popen([sys.executable, __file__, str(src), str(dst)]),
                         part, dst))
        for proc, _, _ in jobs:
            if proc.wait() != 0:
                raise RuntimeError(f"reference child failed (exit status {proc.returncode})")
    finally:
        for proc, _, _ in jobs:
            if proc.poll() is None:
                proc.kill()
            proc.wait()
    values = {}
    for _, part, dst in jobs:
        values.update(zip(part, json.loads(dst.read_text())))
        dst.unlink()
        dst.with_suffix(".in").unlink()
    return values


def check(kind: str, outcome: dict, ref: str) -> dict:
    """Judge one op's outcome against its reference.

    ``outcome`` holds ``error`` if the op raised, else ``value``, and
    ``est`` (the claimed absolute error) and ``bounds`` where the op
    returns them.  Returns ``rel_err`` (for ``log_quadrature``, the
    absolute error of the log, which is the relative error of the
    integral), ``failed`` and ``est_violation`` (true error above the
    claimed estimate; reported, never a failure).
    """
    if "error" in outcome:
        return {"rel_err": math.inf, "failed": True, "est_violation": False,
                "why": outcome["error"]}
    with mpmath.workdps(DPS):
        want = mpf(ref)
        err = abs(mpf(outcome["value"]) - want)
        rel = err if kind == "log_quadrature" else err / abs(want)
        est = outcome.get("est")
        result = {
            "rel_err": float(rel),
            "failed": not rel <= REL_TOL,
            "est_violation": est is not None and err > mpf(est),
            "why": "",
        }
        if result["failed"]:
            result["why"] = f"relative error {float(rel):.3g} > {REL_TOL:g}"
        for name, value in outcome.get("bounds", {}).items():
            gap = (mpf(value) - want) / want
            if (name in LOWER_BOUNDS and gap > REL_TOL) or (
                name in UPPER_BOUNDS and gap < -REL_TOL
            ):
                result["failed"] = True
                result["why"] = f"{name} on the wrong side of the integral ({float(gap):.3g})"
    return result


def main(src: str, dst: str) -> None:
    """Write the references for the op keys listed in ``src`` to ``dst``."""
    keys = json.loads(Path(src).read_text())
    values = []
    for key in keys:
        ref_kind, args = json.loads(key)
        values.append(reference(ref_kind, tuple(args)))
    Path(dst).write_text(json.dumps(values))


if __name__ == "__main__":
    main(*sys.argv[1:])
