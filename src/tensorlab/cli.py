"""Command-line surface: experiment configs, dispatch, and persistence.

Every run appends JSON-lines records to the declared output path, each as
soon as it is ready, or prints them to stdout.  A record embeds the config
echo, the seed, and the tool version; payloads are deterministic functions
of (config, seed, version).
Exit codes: 0 success, 2 validation error, 3 cap exceeded, 4 any other
tensorlab error (a sampling failure or a failed internal invariant).
"""

from __future__ import annotations

import argparse
import csv as csv_module
import io
import json
import os
import sys
import time
from dataclasses import dataclass, fields, replace
from datetime import datetime, timezone
from fractions import Fraction
from pathlib import Path
from typing import Iterable, Iterator, Optional

import numpy as np

from . import __version__, decomp, kronecker, matchgate, minrank, ranks, rings, secants, tensors
from .errors import CapExceeded, TensorlabError, ValidationError

FORMATS = ("json", "csv", "text")
# argparse dests that are not experiment parameters
NOT_PARAMS = {"help", "command", "config", "seed", "output", "format"}
# parameters that each select a different mode of their command, each with the
# parameters only that mode reads: one mode may be given, and none of the
# parameters of another
MODES = {
    "terracini": {"r": (), "scan": ("r_max",), "generic_rank": ()},
    "rank": {"tensor": (), "w_state": ()},
    "decompose": {"form": (), "decomposition": ("kruskal", "tensor")},
    "kron": {"triple": (), "rectangular": ("d", "n"), "cone": (), "weyl": ("dim",)},
    "matchgate": {"graph": ("subpfaffian",), "signature": ("basis", "side")},
    "minrank": {"gurvits": (), "friedland": (), "subspace": ()},
}


@dataclass
class ExperimentConfig:
    command: str
    parameters: dict
    seed: int = 0
    output: Optional[str] = None
    format: str = "json"


@dataclass
class ResultRecord:
    config: ExperimentConfig
    payload: dict
    timestamp: str
    wall_time_s: float

    def as_dict(self) -> dict:
        return {
            "command": self.config.command,
            "parameters": dict(sorted(self.config.parameters.items())),
            "payload": self.payload,
            "seed": self.config.seed,
            "timestamp": self.timestamp,
            "version": __version__,
            "wall_time_s": self.wall_time_s,
        }


def jsonable(x):
    """Render payload values JSON-safe: fractions as p/q strings, complex as
    [re, im] pairs, tuples as lists."""
    if isinstance(x, Fraction):
        return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"
    if isinstance(x, complex):
        return [x.real, x.imag]
    if isinstance(x, dict):
        return {str(k): jsonable(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [jsonable(v) for v in x]
    return x


# ---------------------------------------------------------------------------
# config parsing
# ---------------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tensorlab",
        description="Exact desk-scale experiments on tensor rank, secant "
        "varieties, Kronecker coefficients, matchgates, and min-rank.",
    )
    parser.add_argument("--config", help="JSON config file instead of subcommand flags")
    sub = parser.add_subparsers(dest="command")

    def common(p):
        p.add_argument("--seed", type=int, default=0, help="64-bit experiment seed")
        p.add_argument("--output", help="JSON-lines output path (appended)")
        p.add_argument("--format", choices=FORMATS, default="json", help="stdout format")

    p = sub.add_parser(
        "terracini",
        help="secant-variety dimensions",
        description="Variety grammar: segre:d1,d2,... | veronese:n,d | "
        "segver:d1,d2@e1,e2 | sub:d1,d2,d3@r1,r2,r3 | symsub:n@r,d",
    )
    p.add_argument("--variety", required=True)
    p.add_argument("--r", type=int)
    p.add_argument("--r-max", dest="r_max", type=int)
    p.add_argument("--scan", action="store_true", help="scan r = 1.. until saturation")
    p.add_argument("--generic-rank", dest="generic_rank", action="store_true")
    p.add_argument("--trials", type=int, default=3)
    common(p)

    p = sub.add_parser("rank", help="rank diagnostics for a dense tensor")
    p.add_argument("--tensor", help="tensor text file")
    p.add_argument("--w-state", dest="w_state", type=int, help="use the n-factor W state")
    p.add_argument("--bruteforce", type=int, help="exhaustive F_p rank search up to r_max")
    p.add_argument("--field", type=int, help="recast entries into F_p first")
    p.add_argument("--tol", type=float, default=1e-8, help="relative tolerance on float tensors")
    common(p)

    p = sub.add_parser("decompose", help="binary-form and decomposition certificates")
    p.add_argument("--form", help="comma-separated binary form coefficients")
    p.add_argument("--tensor", help="tensor text file (symmetry certificate)")
    p.add_argument("--decomposition", help="decomposition JSON file")
    p.add_argument("--kruskal", action="store_true", help="uniqueness test only")
    common(p)

    p = sub.add_parser("kron", help="Kronecker coefficients and scans")
    p.add_argument("--triple", help='three partitions, e.g. "2,1;2,1;2,1"')
    p.add_argument("--rectangular", help="partition lambda for the rectangle case")
    p.add_argument("--d", type=int, help="rectangle part size")
    p.add_argument("--n", type=int, help="rectangle part count")
    p.add_argument("--cone", help='positivity scan bounds "p,q,r,n_max"')
    p.add_argument("--weyl", help="partition for the zero-weight invariant test")
    p.add_argument("--dim", type=int, help="dimension for the zero-weight test")
    common(p)

    p = sub.add_parser("matchgate", help="matchings, signatures, identities")
    p.add_argument("--graph", help="graph text file")
    p.add_argument("--signature", help="signature JSON file")
    p.add_argument("--subpfaffian", action="store_true", help="emit the sub-Pfaffian vector")
    p.add_argument("--basis", help='2xc wire basis change "a,b;c,d"')
    p.add_argument("--side", choices=("generator", "recognizer"))
    common(p)

    p = sub.add_parser("minrank", help="matrix-subspace minimum rank")
    p.add_argument("--gurvits", type=int, help="multiplicativity counterexample size n")
    p.add_argument("--friedland", type=int, help="entropy additivity check size n")
    p.add_argument("--subspace", help="subspace JSON file")
    p.add_argument("--trials", type=int, default=200, help="samples for upper bounds")
    common(p)
    return parser


def _actions(parser: argparse.ArgumentParser) -> dict[str, dict[str, argparse.Action]]:
    """Each command's options by dest, read off the subparsers."""
    (sub,) = (a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return {name: {a.dest: a for a in p._actions if a.dest != "help"} for name, p in sub.choices.items()}


_PARSER = _build_parser()
ACTIONS = _actions(_PARSER)
KNOWN_PARAMS = {name: actions.keys() - NOT_PARAMS for name, actions in ACTIONS.items()}
COMMANDS = tuple(ACTIONS)


def _given(items: dict) -> dict:
    """Drop the options not given: None (JSON null) and False (a flag not set), but not 0."""
    return {k: v for k, v in items.items() if v is not None and v is not False}


def _config_from_file(path: str) -> ExperimentConfig:
    try:
        obj = json.loads(Path(path).read_text())
    except FileNotFoundError:
        raise ValidationError(f"config file not found: {path}")
    except json.JSONDecodeError as exc:
        raise ValidationError(f"malformed config JSON: {exc}")
    if not isinstance(obj, dict):
        raise ValidationError("config must be a JSON object")
    allowed = {"command", "parameters", "seed", "output", "format"}
    for key in obj:
        if key not in allowed:
            raise ValidationError(f"unknown config key {key!r}")
    command = obj.get("command")
    if command not in COMMANDS:
        raise ValidationError(f"unknown command {command!r}")
    params = obj.get("parameters", {})
    if not isinstance(params, dict):
        raise ValidationError("config field 'parameters' must be an object")
    for key in params:
        if key not in KNOWN_PARAMS[command]:
            raise ValidationError(f"unknown parameter {key!r} for command {command!r}")
    top = {k: obj[k] for k in ("seed", "output", "format") if obj.get(k) is not None}  # checked in run
    return ExperimentConfig(command, _given(params), **top)


def parse_config(argv: list[str]) -> ExperimentConfig:
    """Experiment config from CLI flags or from a --config JSON file."""
    ns = _PARSER.parse_args(argv)
    if ns.config:
        return _config_from_file(ns.config)
    if not ns.command:
        _PARSER.error("a command or --config is required")
    params = {k: v for k, v in _given(vars(ns)).items() if k not in NOT_PARAMS}
    return ExperimentConfig(ns.command, params, ns.seed, ns.output, ns.format)


# ---------------------------------------------------------------------------
# dispatch
# ---------------------------------------------------------------------------

def _require(params: dict, key: str):
    if key not in params:
        raise ValidationError(f"missing required parameter {key!r}")
    return params[key]


def _read_input(params: dict, key: str, what: str) -> str:
    """Text of the input file named by a parameter; unreadable is a validation error."""
    path = _require(params, key)
    try:
        return Path(path).read_text()
    except OSError as exc:
        raise ValidationError(f"cannot read {what} file {path}: {exc.strerror or exc}") from exc


def _run_terracini(config: ExperimentConfig) -> Iterable[dict]:
    params = config.parameters
    spec = secants.parse_variety(_require(params, "variety"))
    trials = params["trials"]
    if params.get("generic_rank"):
        result = secants.generic_rank(spec, trials=trials, seed=config.seed)
        return [
            {
                "mode": "generic_rank",
                "generic_rank": result.rank,
                "profile": [r.as_dict() for r in result.profile],
            }
        ]
    if params.get("scan") or params.get("r_max") is not None:
        return _terracini_scan(config, spec, trials, params.get("r_max"))
    r = _require(params, "r")
    return [secants.secant_dimension(spec, r, trials=trials, seed=config.seed).as_dict()]


def _terracini_scan(
    config: ExperimentConfig, spec, trials: int, r_max: Optional[int]
) -> Iterator[dict]:
    """Yield the report of each cell of secants.scan as soon as it is
    computed; cells already in the output file under this config are known
    to the scan, which skips them."""
    known = _completed_scan_cells(config, (str(spec), config.seed, trials, __version__))
    for report in secants.scan(spec, trials, config.seed, r_max, known):
        yield report.as_dict()


def _completed_scan_cells(config: ExperimentConfig, key: tuple) -> dict[int, int]:
    """r -> computed dim for the cells already in the output file whose
    (variety, seed, trials, version) is key; a cell computed under another
    config is not reused."""
    done: dict[int, int] = {}
    if not config.output or not Path(config.output).exists():
        return done
    for line in Path(config.output).read_text().splitlines():
        try:
            rec = json.loads(line)
            payload = rec["payload"]
            if (payload["variety"], rec["seed"], payload["trials"], rec["version"]) == key:
                done[payload["r"]] = payload["computed_affine_dim"]
        except (json.JSONDecodeError, KeyError, TypeError):
            continue
    return done


def _load_tensor_param(params: dict) -> tensors.DenseTensor:
    if "tensor" in params:
        return tensors.loads_tensor(_read_input(params, "tensor", "tensor"))
    if "w_state" in params:
        return ranks.w_state(params["w_state"])
    raise ValidationError("missing required parameter 'tensor' (or 'w_state')")


def _run_rank(config: ExperimentConfig) -> list[dict]:
    t = _load_tensor_param(config.parameters)
    if "field" in config.parameters:
        t = tensors.to_ring(t, rings.fp(config.parameters["field"]))
    tol = config.parameters["tol"]
    mode_ranks = ranks.multilinear_rank(t, tol).ranks  # each flattening is ranked once
    payload = {
        "shape": list(t.shape),
        "ring": str(t.ring),
        "multilinear_rank": list(mode_ranks),
        "border_rank_lower_bound": ranks.border_rank_lower_bound(t, tol, mode_ranks),
        "tensor_canonical": tensors.dumps_tensor(t),
    }
    if "bruteforce" in config.parameters:
        r_max = config.parameters["bruteforce"]
        found = ranks.exact_rank_bruteforce(t, r_max, mode_ranks)
        payload["bruteforce"] = {
            "r_max": r_max,
            "rank": found,
            "field": str(t.ring),
            "exceeds_r_max": found is None,
        }
    return [payload]


def _run_decompose(config: ExperimentConfig) -> list[dict]:
    params = config.parameters
    if "form" in params:
        raw = _require(params, "form")
        try:
            coeffs = [Fraction(x) for x in raw.split(",")]
        except (ValueError, ZeroDivisionError) as exc:
            raise ValidationError(f"malformed value for parameter 'form': {raw!r}") from exc
        out = decomp.sylvester_decompose_binary(coeffs)
        return [
            {
                "mode": "sylvester",
                "degree": out.degree,
                "rank": len(out.nodes),  # the catalecticant level, one node per root
                "nodes": jsonable(out.nodes),
                "coefficients": jsonable(out.coefficients),
                "exact": out.exact,
                "residual": out.residual,
            }
        ]
    if "decomposition" not in params:
        raise ValidationError("missing required parameter 'form' or 'decomposition'")
    dec = decomp.Decomposition.from_json(_read_input(params, "decomposition", "decomposition"))
    if params.get("kruskal"):
        ks = [decomp.kruskal_rank(dec.factor_matrix(j)) for j in range(len(dec.shape))]
        return [
            {
                "mode": "kruskal",
                "k_ranks": ks,
                "r": len(dec),
                "unique": decomp.kruskal_uniqueness(dec, ks),
            }
        ]
    t = _load_tensor_param(params)
    report = decomp.gross_check(t, dec)
    return [
        {
            "mode": "gross",
            "independence": {
                ",".join(map(str, key)): bool(v) for key, v in sorted(report.independence.items())
            },
            "hypothesis_met": report.hypothesis_met,
            "verdict": report.verdict,
            "certificates": jsonable(report.certificates),
            "minimality": decomp.gross_minimality_check(t, dec),
        }
    ]


def _parse_partition(text: str) -> kronecker.Partition:
    text = text.strip()
    if text in ("", "-"):
        return kronecker.Partition(())
    try:
        return kronecker.Partition.of([int(x) for x in text.split(",")])
    except (ValueError, ValidationError) as exc:
        raise ValidationError(f"malformed partition {text!r}") from exc


def _run_kron(config: ExperimentConfig) -> list[dict]:
    params = config.parameters
    if "triple" in params:
        raw = _require(params, "triple")
        parts = raw.split(";")
        if len(parts) != 3:
            raise ValidationError("parameter 'triple' needs three ;-separated partitions")
        lam, mu, nu = (_parse_partition(p) for p in parts)
        value = kronecker.kronecker_coefficient(lam, mu, nu)
        return [{"mode": "coefficient", "lambda": str(lam), "mu": str(mu), "nu": str(nu), "K": value}]
    if "rectangular" in params:
        lam = _parse_partition(_require(params, "rectangular"))
        d = _require(params, "d")
        n = _require(params, "n")
        rec = kronecker.rectangular_kronecker(lam, d, n)
        return [
            {
                "mode": "rectangular",
                "lambda": str(lam),
                "d": d,
                "n": n,
                "K": rec.value,
                "K_conjugate_orientation": rec.conjugate_value,
                "exceeds_length_bound": rec.exceeds_length_bound,
            }
        ]
    if "cone" in params:
        raw = _require(params, "cone")
        try:
            p, q, r, n_max = (int(x) for x in raw.split(","))
        except ValueError as exc:
            raise ValidationError(f"malformed value for parameter 'cone': {raw!r}") from exc
        return [
            {
                "mode": "cone",
                "bounds": [p, q, r],
                "n_max": n_max,
                "columns": ["lambda", "mu", "nu", "K"],
                "table": kronecker.cone_sample(p, q, r, n_max),  # per-size blocks, see _labelled
            }
        ]
    if "weyl" in params:
        lam = _parse_partition(_require(params, "weyl"))
        dim = _require(params, "dim")
        return [
            {
                "mode": "weyl_zero_weight",
                "lambda": str(lam),
                "dim": dim,
                "invariant_exists": kronecker.weyl_zero_weight_invariant_exists(lam, dim),
            }
        ]
    raise ValidationError("missing required parameter: one of 'triple', 'rectangular', 'cone', 'weyl'")


def _run_matchgate(config: ExperimentConfig) -> list[dict]:
    params = config.parameters
    if "graph" in params:
        g = matchgate.loads_graph(_read_input(params, "graph", "graph"))
        if params.get("subpfaffian"):
            sv = matchgate.sub_pfaffian_vector(g.skew_matrix())
            return [
                {
                    "mode": "subpfaffian",
                    "wires": sv.wires,
                    "signature": json.loads(sv.to_json()),
                }
            ]
        orient = matchgate.pfaffian_orientation_search(g)  # checks the work cap, then counts
        return [
            {
                "mode": "matchings",
                "nodes": g.nodes,
                "edges": len(g.edges),
                "matchings": jsonable(orient.matchings),
                "orientation": {
                    "found": orient.found,
                    "signs": list(orient.signs) if orient.signs is not None else None,
                    "candidates_tried": orient.candidates_tried,
                },
            }
        ]
    if "signature" not in params:
        raise ValidationError("missing required parameter 'graph' or 'signature'")
    sv = matchgate.SignatureVector.from_json(_read_input(params, "signature", "signature"))
    if "basis" in params:
        raw = _require(params, "basis")
        try:
            rows = [[Fraction(x) for x in row.split(",")] for row in raw.split(";")]
        except (ValueError, ZeroDivisionError) as exc:
            raise ValidationError(f"malformed value for parameter 'basis': {raw!r}") from exc
        side = _require(params, "side")
        out = matchgate.transform_signature(sv, rows, side)
        return [
            {
                "mode": "transform",
                "side": side,
                "arity": out.arity,
                "wires": out.wires,
                "signature": jsonable(list(out.entries)),
            }
        ]
    residuals = matchgate.mgi_residuals(sv)
    nonzero = int(np.count_nonzero(residuals))
    return [
        {
            "mode": "mgi",
            "relations": len(residuals),
            "nonzero_residuals": nonzero,
            "satisfies_identities": nonzero == 0,
        }
    ]


def _run_minrank(config: ExperimentConfig) -> list[dict]:
    params = config.parameters
    if "gurvits" in params:
        n = params["gurvits"]
        rec = minrank.gurvits_construction(n)
        return [
            {
                "mode": "gurvits",
                "n": n,
                "minrank_x": rec.minrank_x,
                "witness_rank_minus": rec.witness_rank_minus,
                "witness_rank_plus": rec.witness_rank_plus,
                "decrement": rec.decrement,
                "space": json.loads(rec.space.to_json()),
            }
        ]
    if "friedland" in params:
        n = params["friedland"]
        rec = minrank.friedland_check(n, seed=config.seed)
        return [
            {
                "mode": "friedland",
                "n": n,
                "sum_of_mins": rec.sum_of_mins,
                "joint_min_upper": rec.joint_min_upper,
                "margin": rec.margin,
                "violated": rec.violated,
            }
        ]
    if "subspace" not in params:
        raise ValidationError("missing required parameter: one of 'gurvits', 'friedland', 'subspace'")
    spc = minrank.MatrixSubspace.from_json(_read_input(params, "subspace", "subspace"))
    if spc.ring.kind == "fp":
        return [
            {
                "mode": "min_rank",
                "dim": spc.dim,
                "field": str(spc.ring),
                "min_rank": minrank.min_rank_exact_fp(spc),
                "certainty": "exact",
            }
        ]
    trials = params["trials"]
    return [
        {
            "mode": "min_rank",
            "dim": spc.dim,
            "field": str(spc.ring),
            "min_rank": minrank.min_rank_sample(spc, trials=trials, seed=config.seed),
            "certainty": "upper_bound",
        }
    ]


_DISPATCH = {
    "terracini": _run_terracini,
    "rank": _run_rank,
    "decompose": _run_decompose,
    "kron": _run_kron,
    "matchgate": _run_matchgate,
    "minrank": _run_minrank,
}


def run(config: ExperimentConfig) -> list[ResultRecord]:
    """Check a config's modes, value types and output path, in that order,
    then dispatch it; one record per emitted payload.

    With an output path, each record is appended to it as soon as its
    payload is ready (a scan has one per cell), so an interrupted run keeps
    what it finished.  wall_time_s counts from the start of the run.
    """
    if config.command not in _DISPATCH:
        raise ValidationError(f"unknown command {config.command!r}")
    _check_modes(config)
    config = _with_parser_types(config)
    if config.output:
        _check_output_path(config.output)
    start = time.perf_counter()
    records = []
    for payload in _DISPATCH[config.command](config):
        stamp = datetime.now(timezone.utc).isoformat()
        records.append(ResultRecord(config, payload, stamp, time.perf_counter() - start))
        if config.output:
            _append_record(config.output, records[-1])
    return records


def _check_modes(config: ExperimentConfig) -> None:
    """Refuse two modes of one command, or a parameter that only another
    mode reads: the record would echo it, and nothing would read it."""
    modes = MODES.get(config.command, {})
    given = [k for k in modes if k in config.parameters]
    if len(given) > 1:
        raise ValidationError(f"parameters {', '.join(map(repr, given))} select different modes; give one")
    owner = {key: mode for mode, owned in modes.items() for key in owned}
    for key in sorted(config.parameters.keys() & owner.keys()):
        if given and owner[key] != given[0]:
            raise ValidationError(f"parameter {key!r} belongs to mode {owner[key]!r}, not to mode {given[0]!r}")


def _with_parser_types(config: ExperimentConfig) -> ExperimentConfig:
    """Check each value (seed, format and output too) as the parser reads its
    flag: true for a flag, an integer for an int option, any number for a
    float option (neither a bool), else a string, and choices hold.  Fill in
    the options' defaults, so that every record echoes what it ran with."""
    actions = ACTIONS[config.command]
    values = {**config.parameters, "seed": config.seed, "format": config.format, "output": config.output}
    for key, value in values.items():
        action = actions[key]
        kind = {int: int, float: (int, float)}.get(action.type, str)
        typed = isinstance(value, kind) and not isinstance(value, bool) and value in (action.choices or [value])
        if value is not None and not (value is True if action.nargs == 0 else typed):
            raise ValidationError(f"malformed value for parameter {key!r}: {value!r}")
    defaults = _given({k: a.default for k, a in actions.items() if k not in NOT_PARAMS})
    return replace(config, parameters={**defaults, **config.parameters})


# ---------------------------------------------------------------------------
# emission
# ---------------------------------------------------------------------------

def emit(records: list[ResultRecord], fmt: str) -> str:
    """Render records: canonical JSON lines, CSV for tabular payloads, or
    aligned text columns."""
    if fmt == "json":
        return "\n".join(_record_json(r) for r in records) + "\n"
    rows, columns = _tabulate(records)
    if fmt == "csv":
        if columns is None:
            raise ValidationError("csv format needs a tabular payload")
        buf = io.StringIO()
        writer = csv_module.writer(buf, lineterminator="\n")
        writer.writerow(columns)
        writer.writerows(rows)
        return buf.getvalue()
    if fmt == "text":
        if columns is None:
            out = []
            for r in records:
                for k, v in sorted(r.payload.items()):
                    out.append(f"{k}: {json.dumps(jsonable(v), sort_keys=True)}")
                out.append("")
            return "\n".join(out)
        cells = [columns] + [[str(v) for v in row] for row in rows]
        widths = [max(len(row[i]) for row in cells) for i in range(len(columns))]
        return "\n".join("  ".join(v.ljust(w) for v, w in zip(row, widths)) for row in cells) + "\n"
    raise ValidationError(f"unsupported format {fmt!r}")


def _record_json(record: ResultRecord) -> str:
    """One record as a canonical JSON line, keys sorted at every level.

    A cone table is dumped as "table": [] and its rows, rendered as text,
    are put in its place.  That is the last unescaped `"table": []` of the
    line: quotes inside JSON strings are escaped, "table" is the last key of
    the payload, and only scalars follow the payload.  It need not be the
    only one in a record built with an object-valued parameter.
    """
    blocks = record.payload.get("table")
    if blocks is None:
        return json.dumps(record.as_dict(), sort_keys=True)
    line = json.dumps({**record.as_dict(), "payload": {**record.payload, "table": []}}, sort_keys=True)
    head, _, tail = line.rpartition('"table": []')
    rows = ", ".join(  # one block's row strings at a time
        ", ".join(
            f'{{"K": {v}, "lambda": "{ls[i]}", "mu": "{ms[j]}", "nu": "{ns[k]}"}}'
            for (i, j, k), v in zip(ijk, ks)
        )
        for ls, ms, ns, ijk, ks in _labelled(blocks)
    )
    return f'{head}"table": [{rows}]{tail}'


def _labelled(blocks) -> Iterator[tuple]:
    """cone_sample's blocks with their partitions formatted as labels, once
    per block: row t of a block is (ls[i], ms[j], ns[k], ks[t]) with
    (i, j, k) = ijk[t]."""
    for lams, mus, nus, ijk, ks in blocks:
        yield [str(x) for x in lams], [str(x) for x in mus], [str(x) for x in nus], ijk, ks


def _tabulate(records: list[ResultRecord]):
    """(rows, columns) when the records form a table, each row its values in
    column order, else (None, None)."""
    if len(records) == 1 and "table" in records[0].payload:
        rows = (
            [ls[i], ms[j], ns[k], v]
            for ls, ms, ns, ijk, ks in _labelled(records[0].payload["table"])
            for (i, j, k), v in zip(ijk, ks)
        )
        return rows, records[0].payload["columns"]
    if records and all("variety" in r.payload and "r" in r.payload for r in records):
        columns = [f.name for f in fields(secants.SecantReport)]
        return [[r.payload.get(c, "") for c in columns] for r in records], columns
    return None, None


def _check_output_path(path: str) -> None:
    """Reject an output path that cannot be appended to, before any work."""
    out = Path(path)
    if out.is_dir():
        raise ValidationError(f"output path is a directory: {path}")
    if not out.parent.is_dir():
        raise ValidationError(f"output directory does not exist: {out.parent}")
    # records are appended with "ab+" and a scan rereads the file to resume
    if out.exists() and not os.access(out, os.R_OK | os.W_OK):
        raise ValidationError(f"output file is not readable and writable: {path}")
    if not out.exists() and not os.access(out.parent, os.W_OK | os.X_OK):
        raise ValidationError(f"output directory is not writable: {out.parent}")


def _append_record(path: str, record: ResultRecord) -> None:
    """Append one record as a JSON line; closing the file flushes it."""
    with open(path, "ab+") as fh:
        # a run killed mid-write can leave a torn last line; end it first
        if fh.seek(0, io.SEEK_END):
            fh.seek(-1, io.SEEK_END)
            if fh.read(1) != b"\n":
                fh.write(b"\n")
        fh.write(_record_json(record).encode() + b"\n")


def main(argv: Optional[list[str]] = None) -> int:
    try:
        config = parse_config(sys.argv[1:] if argv is None else argv)
        records = run(config)
        if not config.output or config.format != "json":
            sys.stdout.write(emit(records, config.format))
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except CapExceeded as exc:
        print(f"cap exceeded: {exc}", file=sys.stderr)
        return 3
    except TensorlabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    return 0


if __name__ == "__main__":
    sys.exit(main())
