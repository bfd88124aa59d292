"""Correctness gate: every request's output is checked, outside the timing.

The family reference uses scipy.integrate.quad (from the package's test
extra) on an integrand written here, never susy_fisheye.numerics, so the
check does not share code with the program it checks.
"""

from __future__ import annotations

import json
import math
import re
import xml.etree.ElementTree as ET

import numpy as np

# Checks that `verify --suite all` reports as FAIL by design (see README).
VERIFY_EXPECTED_FAIL = frozenset({"riccati-absolute", "index-ratio-percent-bound"})
FAMILY_RTOL = 1e-9

_NONFINITE = re.compile(rb"\b(nan|inf|infinity)\b", re.IGNORECASE)


def _rows_csv(data: bytes, req):
    lines = data.decode("ascii").splitlines()
    if len(lines) != req.samples + 1:
        return f"{len(lines) - 1} rows, expected {req.samples}"
    width = lines[0].count(",")
    if any(line.count(",") != width for line in lines):
        return "ragged csv rows"
    return None


def _rows_json(data: bytes, req):
    payload = json.loads(data)
    if req.command == "langer":
        return None if payload.get("eigenvalues") else "no eigenvalues"
    lengths = {len(col) for col in payload["data"].values()}
    if lengths != {req.samples}:
        return f"column lengths {sorted(lengths)}, expected {req.samples}"
    return None


def check_output(req, rc, data, golden_bytes):
    """Reason the request failed, or None.  `data` is bytes or an ndarray."""
    if req.command == "verify":
        return check_verify(rc, data)
    if rc != 0:
        return f"exit code {rc}"
    if isinstance(data, np.ndarray):
        if data.shape != (req.samples,):
            return f"shape {data.shape}, expected ({req.samples},)"
        return None if np.all(np.isfinite(data)) else "non-finite value"
    if _NONFINITE.search(data):
        return "non-finite value"
    if req.golden:
        return None if data == golden_bytes[req.golden] else f"differs from {req.golden}"
    if req.fmt == "csv":
        return _rows_csv(data, req)
    if req.fmt == "json":
        return _rows_json(data, req)
    if req.fmt == "svg":
        try:
            ET.fromstring(data)
        except ET.ParseError as exc:
            return f"malformed svg: {exc}"
        return None
    return f"unexpected format {req.fmt!r}"


def check_verify(rc, data: bytes):
    """All checks PASS except the two that fail by design, and exit code 1."""
    if rc != 1:
        return f"exit code {rc}, expected 1"
    status = {}
    for line in data.decode("ascii").splitlines():
        parts = line.split()
        if len(parts) >= 2 and parts[0] in ("PASS", "FAIL"):
            status[parts[1]] = parts[0]
    failed = {name for name, s in status.items() if s == "FAIL"}
    if not status or failed != VERIFY_EXPECTED_FAIL:
        return f"failing checks {sorted(failed)}"
    return None


def check_edge(rc, data):
    """Edge-domain rule: refusal (exit 2) is fine, exit 0 must be finite."""
    if rc == 2:
        return None
    if rc != 0:
        return f"exit code {rc}"
    return "non-finite value" if _NONFINITE.search(data) else None


def family_probes(req, data: bytes):
    """(rho, f, f_bos) at the request's probe rows of a family CSV."""
    lines = data.decode("ascii").splitlines()
    out = []
    for i in req.probe:
        rho, _u_minus, _u_bos, f, f_bos = (float(v) for v in lines[i + 1].split(","))
        out.append((rho, f, f_bos))
    return out


def family_reference_error(req, probes):
    """Largest relative error of f and f_bos = f / (I0 + lam) at the probes."""
    from scipy.integrate import quad

    l, kappa, lam = req.l, req.kappa, req.lam

    def f_ref(s):
        return s ** (l + 1) * (1.0 + s ** (2.0 * kappa)) ** (-(2 * l + 1) / (2.0 * kappa))

    worst = 0.0
    for rho, f, f_bos in probes:
        i0, _ = quad(lambda s: f_ref(s) ** 2, 0.0, rho, epsabs=0.0, epsrel=1e-13, limit=500)
        f_exact = f_ref(rho)
        for got, want in ((f, f_exact), (f_bos, f_exact / (i0 + lam))):
            err = abs(got - want) / abs(want) if want else abs(got)
            worst = max(worst, err if math.isfinite(err) else math.inf)
    return worst
