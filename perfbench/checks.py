"""Payload checker: every CLI record against its seed-independent answer.

`check_step` returns a list of problems (empty when the step is right).  It
never raises on a bad payload, so one wrong case cannot abort a pass.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

from inputs import signed_pfaffian


def read_records(path: Path) -> list[dict]:
    if not path.exists():
        return []
    return [json.loads(line) for line in path.read_text().splitlines() if line.strip()]


def cone_digest(table: list[dict]) -> str:
    lines = sorted(f"{row['lambda']};{row['mu']};{row['nu']};{row['K']}" for row in table)
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def _expect_equal(problems: list[str], label: str, got, want) -> None:
    if got != want:
        problems.append(f"{label}: got {got!r}, want {want!r}")


def _check_payloads(expect: dict, payloads: list[dict]) -> list[str]:
    kind = expect["kind"]
    out: list[str] = []
    if kind == "scan":
        first = expect.get("first_r", 1)
        _expect_equal(out, "cells", [(p["r"], p["computed_affine_dim"], p["defect"]) for p in payloads],
                      [(first + k, c, d) for k, (c, d) in
                       enumerate(zip(expect["computed"], expect["defects"]))])
        _expect_equal(out, "variety", {p["variety"] for p in payloads}, {expect["variety"]})
        return out
    if len(payloads) != 1:
        return [f"expected one record, got {len(payloads)}"]
    p = payloads[0]
    if kind == "generic_rank":
        _expect_equal(out, "generic_rank", p["generic_rank"], expect["generic_rank"])
        _expect_equal(out, "profile", [(c["r"], c["computed_affine_dim"], c["defect"], c["variety"])
                                       for c in p["profile"]],
                      [(r + 1, c, d, expect["variety"]) for r, (c, d) in
                       enumerate(zip(expect["computed"], expect["defects"]))])
    elif kind == "cone":
        _expect_equal(out, "rows", len(p["table"]), expect["rows"])
        _expect_equal(out, "table sha256", cone_digest(p["table"]), expect["sha256"])
    elif kind == "triple":
        _expect_equal(out, "partitions", [p["lambda"], p["mu"], p["nu"]], expect["partitions"])
        _expect_equal(out, "K", p["K"], expect["K"])
    elif kind == "rectangular":
        _expect_equal(out, "K", p["K"], expect["K"])
        _expect_equal(out, "K_conjugate_orientation", p["K_conjugate_orientation"], expect["K"])
        _expect_equal(out, "exceeds_length_bound", p["exceeds_length_bound"],
                      expect["exceeds_length_bound"])
    elif kind == "weyl":
        _expect_equal(out, "invariant_exists", p["invariant_exists"], expect["invariant_exists"])
    elif kind == "orientation":
        orient = p["orientation"]
        _expect_equal(out, "shape", (p["nodes"], p["edges"]), (expect["nodes"], expect["edges"]))
        _expect_equal(out, "matchings", p["matchings"], expect["matchings"])
        _expect_equal(out, "found", orient["found"], expect["found"])
        _expect_equal(out, "candidates_tried", orient["candidates_tried"], expect["candidates_tried"])
        if orient["found"]:
            edges = [tuple(e) for e in expect["graph"]]
            signs = orient["signs"] or []
            if len(signs) != len(edges) or any(s not in (1, -1) for s in signs):
                out.append(f"bad sign vector {signs!r}")
            else:
                _expect_equal(out, "|Pf| of the found orientation",
                              abs(signed_pfaffian(expect["nodes"], edges, signs)), expect["matchings"])
    elif kind == "subpfaffian":
        _expect_equal(out, "wires", p["wires"], expect["wires"])
        _expect_equal(out, "signature", p["signature"], expect["signature"])
    elif kind == "mgi":
        _expect_equal(out, "relations", p["relations"], expect["relations"])
        _expect_equal(out, "satisfies_identities", p["satisfies_identities"], expect["satisfied"])
        _expect_equal(out, "nonzero_residuals > 0", p["nonzero_residuals"] > 0, not expect["satisfied"])
    elif kind == "min_rank":
        _expect_equal(out, "min_rank", (p["min_rank"], p["dim"], p["field"], p["certainty"]),
                      (expect["min_rank"], expect["dim"], expect["field"], "exact"))
    elif kind == "bruteforce":
        bf = p["bruteforce"]
        _expect_equal(out, "rank", (bf["rank"], bf["field"], bf["exceeds_r_max"]),
                      (expect["rank"], expect["field"], False))
        _expect_equal(out, "multilinear_rank", p["multilinear_rank"], expect["multilinear_rank"])
        _expect_equal(out, "border_rank_lower_bound", p["border_rank_lower_bound"],
                      expect["border_rank_lower_bound"])
        _expect_equal(out, "tensor_canonical", p["tensor_canonical"], expect["tensor"])
    elif kind == "kruskal":
        _expect_equal(out, "kruskal", (p["k_ranks"], p["r"], p["unique"]),
                      (expect["k_ranks"], expect["r"], expect["unique"]))
    elif kind == "gurvits":
        for key in ("n", "minrank_x", "witness_rank_minus", "witness_rank_plus", "decrement"):
            _expect_equal(out, key, p[key], expect[key])
    else:
        out.append(f"unknown expectation kind {kind!r}")
    return out


def check_step(expect: dict, exit_code: int, records: list[dict], error: str | None = None) -> list[str]:
    """Problems with one CLI invocation: an exception, a non-zero exit code,
    or a payload that differs from the expectation."""
    if error is not None:
        return [f"raised {error}"]
    if exit_code != 0:
        return [f"exit code {exit_code}"]
    if not records:
        return ["no record written"]
    try:
        return _check_payloads(expect, [r["payload"] for r in records])
    except (KeyError, TypeError, ValueError) as exc:
        return [f"malformed payload: {type(exc).__name__}: {exc}"]
