import argparse
import csv
import io
import itertools
import json
import math
import os
import random
import time
from fractions import Fraction
from pathlib import Path

import pytest

from helpers import cone_rows
from tensorlab import cli
from tensorlab.cli import ExperimentConfig, emit, parse_config, run
from tensorlab import decomp, kronecker, matchgate, minrank, ranks, secants
from tensorlab.errors import TensorlabError, ValidationError
from tensorlab.matchgate import complete_bipartite, complete_graph, dumps_graph
from tensorlab.minrank import gurvits_space
from tensorlab.ranks import w_state
from tensorlab.rings import RATIONAL, fp
from tensorlab.tensors import MAX_FACTORS, DenseTensor, dumps_tensor


def payload_bytes(records):
    return [json.dumps(r.payload, sort_keys=True).encode() for r in records]


# --- config parsing -----------------------------------------------------------

def test_parse_flags_terracini():
    cfg = parse_config(["terracini", "--variety", "segre:2,2,2", "--r", "2"])
    assert cfg.command == "terracini"
    assert cfg.parameters == {"variety": "segre:2,2,2", "r": 2, "trials": 3}
    assert cfg.seed == 0 and cfg.format == "json"


def test_parse_config_file(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(
        json.dumps(
            {
                "command": "minrank",
                "parameters": {"gurvits": 2},
                "seed": 7,
                "format": "text",
            }
        )
    )
    cfg = parse_config(["--config", str(path)])
    assert cfg.command == "minrank"
    assert cfg.parameters == {"gurvits": 2}
    assert cfg.seed == 7 and cfg.format == "text"


def test_config_rejects_unknown_parameter_key(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(
        json.dumps({"command": "terracini", "parameters": {"rmax_typo": 3}})
    )
    with pytest.raises(ValidationError, match="rmax_typo"):
        parse_config(["--config", str(path)])


def test_config_rejects_unknown_command(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"command": "solve_everything"}))
    with pytest.raises(ValidationError, match="solve_everything"):
        parse_config(["--config", str(path)])


def test_config_rejects_unknown_top_level_key(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"command": "rank", "threads": 4}))
    with pytest.raises(ValidationError, match="threads"):
        parse_config(["--config", str(path)])


def test_one_parser_serves_consecutive_configs_without_leaking(capsys):
    assert cli.parse_config(["terracini", "--variety", "segre:2,2", "--r", "2"]).parameters == {
        "variety": "segre:2,2",
        "r": 2,
        "trials": 3,
    }
    cfg = cli.parse_config(["kron", "--cone", "2,2,2,3", "--seed", "5"])
    assert (cfg.command, cfg.parameters, cfg.seed) == ("kron", {"cone": "2,2,2,3"}, 5)
    assert cli.parse_config(["rank", "--w-state", "3"]).seed == 0
    with pytest.raises(SystemExit) as exc:
        cli.parse_config(["kron", "--bogus", "1"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        cli.parse_config([])
    assert exc.value.code == 2
    assert "a command or --config is required" in capsys.readouterr().err
    assert cli.parse_config(["kron", "--weyl", "2,2", "--dim", "2"]).parameters == {"weyl": "2,2", "dim": 2}


def test_every_subcommand_option_is_accepted_from_a_config_file(tmp_path, capsys):
    parser = cli._build_parser()
    (sub,) = (a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    assert set(sub.choices) == set(cli.KNOWN_PARAMS)
    for command, subparser in sub.choices.items():
        argv = [command]
        for action in subparser._actions:
            if action.dest in ("help", "seed", "output", "format"):
                continue
            argv.append(action.option_strings[0])
            if action.nargs != 0:
                argv.append(action.choices[0] if action.choices else "7")
        flags = parse_config(argv)
        assert set(flags.parameters) == cli.KNOWN_PARAMS[command]
        path = tmp_path / f"{command}.json"
        path.write_text(json.dumps({"command": command, "parameters": flags.parameters}))
        assert parse_config(["--config", str(path)]).parameters == flags.parameters
        path.write_text(json.dumps({"command": command, "parameters": {**flags.parameters, "bogus": 1}}))
        assert cli.main(["--config", str(path)]) == 2
        assert f"unknown parameter 'bogus' for command '{command}'" in capsys.readouterr().err


# each mode parameter of a command, with a flag value; no input file is read
MODE_FLAGS = {
    "terracini": {
        "r": ["--variety", "segre:2,2,2", "--r", "3"],
        "scan": ["--variety", "segre:2,2,2", "--scan"],
        "generic_rank": ["--variety", "segre:2,2,2", "--generic-rank"],
    },
    "rank": {"tensor": ["--tensor", "t.tensor"], "w_state": ["--w-state", "3"]},
    "decompose": {"form": ["--form", "1,2,1"], "decomposition": ["--decomposition", "d.json"]},
    "kron": {
        "triple": ["--triple", "2,1;2,1;2,1"],
        "rectangular": ["--rectangular", "2,2", "--d", "2", "--n", "2"],
        "cone": ["--cone", "1,1,1,1"],
        "weyl": ["--weyl", "2,2", "--dim", "2"],
    },
    "matchgate": {"graph": ["--graph", "g.graph"], "signature": ["--signature", "s.json"]},
    "minrank": {
        "gurvits": ["--gurvits", "2"],
        "friedland": ["--friedland", "3"],
        "subspace": ["--subspace", "s.json"],
    },
}


@pytest.mark.parametrize("command", sorted(MODE_FLAGS))
def test_conflicting_modes_exit_2_from_flags_and_config_files(command, tmp_path, monkeypatch, capsys):
    assert set(MODE_FLAGS[command]) == set(cli.MODES[command])
    for name in cli._DISPATCH:
        monkeypatch.setitem(cli._DISPATCH, name, lambda config: pytest.fail("a mode was run"))
    flags = MODE_FLAGS[command]
    for count in range(2, len(flags) + 1):
        for modes in itertools.combinations(flags, count):
            argv = [command] + [x for mode in modes for x in flags[mode]]
            assert cli.main(argv) == 2
            err = capsys.readouterr().err
            assert all(repr(mode) in err for mode in modes) and "different modes" in err
            path = tmp_path / "cfg.json"
            path.write_text(json.dumps({"command": command, "parameters": parse_config(argv).parameters}))
            assert cli.main(["--config", str(path)]) == 2
            assert capsys.readouterr().err == err


# (argv, a parameter only another mode reads, that mode, the mode given)
STRAY_PARAMETERS = [
    (["terracini", "--variety", "segre:2,2,2", "--r", "2", "--r-max", "5"], "r_max", "scan", "r"),
    (["terracini", "--variety", "segre:2,2,2", "--generic-rank", "--r-max", "2"], "r_max", "scan", "generic_rank"),
    (["kron", "--cone", "1,1,1,1", "--dim", "2"], "dim", "weyl", "cone"),
    (["kron", "--triple", "2,1;2,1;2,1", "--n", "2"], "n", "rectangular", "triple"),
    (["kron", "--rectangular", "2,2", "--d", "2", "--n", "2", "--dim", "2"], "dim", "weyl", "rectangular"),
    (["decompose", "--form", "1,2,1", "--kruskal"], "kruskal", "decomposition", "form"),
    (["decompose", "--form", "1,2,1", "--tensor", "t.tensor"], "tensor", "decomposition", "form"),
    (["matchgate", "--signature", "s.json", "--subpfaffian"], "subpfaffian", "graph", "signature"),
    (["matchgate", "--graph", "g.graph", "--basis", "1,0;0,1"], "basis", "signature", "graph"),
]


@pytest.mark.parametrize(
    "argv,key,owner,mode", STRAY_PARAMETERS, ids=[f"{argv[0]}-{mode}-{key}" for argv, key, _, mode in STRAY_PARAMETERS]
)
def test_a_parameter_of_another_mode_exits_2_before_any_work(argv, key, owner, mode, tmp_path, monkeypatch, capsys):
    for name in cli._DISPATCH:
        monkeypatch.setitem(cli._DISPATCH, name, lambda config: pytest.fail("a mode was run"))
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert f"parameter {key!r} belongs to mode {owner!r}, not to mode {mode!r}" in err
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"command": argv[0], "parameters": parse_config(argv).parameters}))
    assert cli.main(["--config", str(path)]) == 2
    assert capsys.readouterr().err == err


def test_mode_parameters_are_parameters_of_their_command():
    for command, modes in cli.MODES.items():
        for mode, owned in modes.items():
            assert {mode, *owned} <= cli.KNOWN_PARAMS[command]
            assert mode not in {k for other in modes.values() for k in other}


def test_missing_required_parameter_named():
    cfg = ExperimentConfig("terracini", {})
    with pytest.raises(ValidationError, match="variety"):
        run(cfg)
    cfg2 = ExperimentConfig("kron", {})
    with pytest.raises(ValidationError, match="triple"):
        run(cfg2)


def test_malformed_value_named():
    cfg = ExperimentConfig("decompose", {"form": "1,oops,3"})
    with pytest.raises(ValidationError, match="form"):
        run(cfg)


# --- exit codes -----------------------------------------------------------------

def test_main_exit_codes(tmp_path, capsys):
    assert cli.main(["minrank", "--friedland", "1"]) == 0
    capsys.readouterr()
    assert cli.main(["kron", "--triple", "bad partition"]) == 2
    capsys.readouterr()
    assert cli.main(["kron", "--triple", "15;15;15"]) == 3  # size above the cap
    capsys.readouterr()


def test_main_cap_exit_code(capsys):
    # 2,853,720 triples, over the cone's work cap; refused before any row
    code = cli.main(["kron", "--cone", "8,8,8,14"])
    assert code == 3
    assert "over the limit of 1500000" in capsys.readouterr().err
    # past n = 14 the int64 character sums are no longer exact
    assert cli.main(["kron", "--cone", "2,2,2,15"]) == 3
    assert "n_max <= 14" in capsys.readouterr().err


def test_decompose_form_exit_codes(capsys):
    # rank d is emitted; a root search over its work cap and a constant form are refused
    assert cli.main(["decompose", "--form", "1,2"]) == 0
    assert '"rank": 1' in capsys.readouterr().out
    big = "2,600000000066,60000000013200000001110,2000000000660000000111000000006886"
    assert cli.main(["decompose", "--form", big]) == 3
    assert "ROOT_SEARCH_WORK_CAP" in capsys.readouterr().err
    assert cli.main(["decompose", "--form", "5"]) == 2
    assert "degree at least 1" in capsys.readouterr().err


def test_decompose_seeded_degree_60_form_exits_3_quickly(capsys):
    # the square-free test and the Sylvester level are exact ranks: the run
    # reaches the root search's work cap, where Euclid on its 1400-bit
    # kernel form did not finish in 300 s
    rng = random.Random(60)
    form = ",".join(str(rng.randint(-9, 9)) for _ in range(61))
    started = time.perf_counter()
    assert cli.main(["decompose", f"--form={form}"]) == 3
    assert time.perf_counter() - started < 5
    assert "ROOT_SEARCH_WORK_CAP" in capsys.readouterr().err


def test_terracini_degree_cap_exit_code(capsys):
    # ambient dimensions 1 and 2, at a degree refused before any point is drawn
    for variety in ("veronese:1,3000000", "segver:1,2@3000000,1"):
        started = time.perf_counter()
        assert cli.main(["terracini", "--variety", variety, "--r", "1"]) == 3
        assert time.perf_counter() - started < 1
        assert "degree 3000000 exceeds the cap 20000" in capsys.readouterr().err


def test_terracini_memory_cap_exits_3_before_any_point_is_drawn(monkeypatch, capsys):
    def no_points(*args):
        raise AssertionError("a point was drawn")

    monkeypatch.setattr(secants, "sample_params", no_points)
    # N = 19881 is under AMBIENT_CAP, but 3 trials' tails reach 9940 x 9941 int64 each
    started = time.perf_counter()
    assert cli.main(["terracini", "--variety", "segre:141,141", "--generic-rank"]) == 3
    assert time.perf_counter() - started < 1
    err = capsys.readouterr().err
    assert "estimated at 4743049920 bytes (3 trials + 3 products of 9940 x 9941 int64)" in err
    assert "over the cap of 1073741824 bytes" in err


def test_one_factor_segre_beyond_the_recursion_limit(capsys):
    # exponents() once recursed per variable: 1200 variables raised RecursionError
    assert cli.main(["terracini", "--variety", "segre:1200", "--r", "1", "--trials", "1"]) == 0
    assert '"computed_affine_dim": 1200' in capsys.readouterr().out


def test_main_validation_exit_code(capsys):
    assert cli.main(["terracini", "--variety", "nope:1"]) == 2
    capsys.readouterr()


@pytest.mark.parametrize(
    "argv,message",
    [
        (["terracini", "--variety", "segre:2,2", "--r", "2", "--trials", "0"], "trials must be >= 1"),
        (["terracini", "--variety", "segre:2,2", "--scan", "--trials", "0"], "trials must be >= 1"),
        (["terracini", "--variety", "segre:2,2", "--r", "0"], "r must be >= 1"),
        (["terracini", "--variety", "segre:2,2", "--r-max", "0"], "r_max must be >= 1"),
        (["kron", "--weyl", "2,2", "--dim", "0"], "dimension must be >= 1"),
    ],
    ids=["trials", "scan-trials", "r", "r_max", "dim"],
)
def test_explicit_zero_is_validated_not_dropped(argv, message, capsys):
    assert cli.main(argv) == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv,old_message",
    [
        # |lambda| = 0 = d*n, then a rectangle of zero-length parts
        (["kron", "--rectangular", "-", "--d", "0", "--n", "3"], "partition parts must be positive"),
        # |lambda| = 6 = d*n, then the empty rectangle (-2,) * -3
        (["kron", "--rectangular", "6", "--d", "-2", "--n", "-3"], "partition sizes differ"),
    ],
    ids=["zero", "negative"],
)
def test_rectangle_sides_below_one_exit_2_with_a_clear_reason(argv, old_message, capsys):
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "d and n must be >= 1" in captured.err and old_message not in captured.err


def test_weyl_of_the_empty_partition_is_an_invariant(capsys):
    assert cli.main(["kron", "--weyl", "-", "--dim", "2"]) == 0
    assert '"invariant_exists": true' in capsys.readouterr().out


@pytest.mark.parametrize("key", ["trials", "r_max"])
def test_malformed_config_integer_exits_2(key, tmp_path, capsys):
    path = tmp_path / "cfg.json"
    params = {"variety": "segre:2,2", "scan": True, key: "three"}
    path.write_text(json.dumps({"command": "terracini", "parameters": params}))
    assert cli.main(["--config", str(path)]) == 2
    assert repr(key) in capsys.readouterr().err


# config-file values the parser would not produce from a flag
BAD_CONFIG_VALUES = {
    "r-float": ("terracini", {"variety": "segre:2,2", "r": 2.7}, {}, "r"),
    "field-float": ("rank", {"w_state": 3, "field": 3.9}, {}, "field"),
    "dim-float": ("kron", {"weyl": "2,2", "dim": 2.9}, {}, "dim"),
    "r-bool": ("terracini", {"variety": "segre:2,2", "r": True}, {}, "r"),
    "seed-bool": ("minrank", {"gurvits": 1}, {"seed": True}, "seed"),
    "scan-string": ("terracini", {"variety": "segre:2,2", "scan": "false"}, {}, "scan"),
    "subpfaffian-string": ("matchgate", {"graph": "g.graph", "subpfaffian": "no"}, {}, "subpfaffian"),
    "tol-string": ("rank", {"w_state": 3, "tol": "abc"}, {}, "tol"),
    "variety-number": ("terracini", {"variety": 5, "r": 1}, {}, "variety"),
    "side-choice": ("matchgate", {"signature": "s.json", "basis": "1,0;0,1", "side": "left"}, {}, "side"),
    "format-choice": ("rank", {"w_state": 3}, {"format": "xml"}, "format"),
    "output-number": ("rank", {"w_state": 3}, {"output": 5}, "output"),
}


@pytest.mark.parametrize("case", sorted(BAD_CONFIG_VALUES))
def test_config_values_take_the_parser_types(case, tmp_path, monkeypatch, capsys):
    for name in cli._DISPATCH:
        monkeypatch.setitem(cli._DISPATCH, name, lambda config: pytest.fail("a mode was run"))
    command, params, top, key = BAD_CONFIG_VALUES[case]
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"command": command, "parameters": params, **top}))
    assert cli.main(["--config", str(path)]) == 2
    assert f"malformed value for parameter {key!r}" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, extra",
    [
        (["terracini", "--variety", "segre:2,2", "--r", "1"], {"scan": False, "r_max": None}),
        (["rank", "--w-state", "3"], {"field": None}),
        (["minrank", "--gurvits", "1"], {}),
    ],
    ids=["terracini", "rank", "minrank"],
)
def test_config_file_record_echoes_the_defaults_it_ran_with(argv, extra, tmp_path, capsys):
    # false and null stand for an option not given, as on the command line
    def record():
        (line,) = capsys.readouterr().out.splitlines()
        rec = json.loads(line)
        return rec["parameters"], rec["payload"]

    assert cli.main(argv) == 0
    flags = record()
    path = tmp_path / "cfg.json"
    params = {k: v for k, v in parse_config(argv).parameters.items() if k not in ("trials", "tol")}
    path.write_text(json.dumps({"command": argv[0], "parameters": {**params, **extra}, "seed": None}))
    assert cli.main(["--config", str(path)]) == 0
    assert record() == flags


def test_explicit_zero_is_echoed():
    cfg = parse_config(["terracini", "--variety", "segre:2,2", "--r", "0", "--trials", "0"])
    assert cfg.parameters == {"variety": "segre:2,2", "r": 0, "trials": 0}


def test_other_tensorlab_errors_exit_4(monkeypatch, capsys):
    def broken(*args, **kwargs):
        raise TensorlabError("Terracini rank 9 exceeds the expected dimension 8; this is a bug")

    monkeypatch.setattr(secants, "secant_dimension", broken)
    assert cli.main(["terracini", "--variety", "segre:2,2,2", "--r", "2"]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: Terracini rank 9 exceeds the expected dimension 8; this is a bug\n"


# --- determinism ------------------------------------------------------------------

COMMANDS_FOR_DETERMINISM = [
    ["terracini", "--variety", "segre:2,2,2", "--r", "2", "--seed", "42"],
    ["terracini", "--variety", "veronese:3,4", "--r", "5", "--seed", "9"],
    ["rank", "--w-state", "3", "--field", "2", "--bruteforce", "3"],
    ["decompose", "--form", "1,0,0,1"],
    ["kron", "--triple", "2,1;2,1;2,1"],
    ["minrank", "--gurvits", "2", "--seed", "5"],
    ["minrank", "--friedland", "3", "--seed", "5"],
]


@pytest.mark.parametrize("argv", COMMANDS_FOR_DETERMINISM, ids=lambda a: a[0] + ":" + a[-1])
def test_payloads_byte_identical_across_reruns(argv):
    first = payload_bytes(run(parse_config(argv)))
    second = payload_bytes(run(parse_config(argv)))
    assert first == second


def test_records_embed_seed_and_version():
    records = run(parse_config(["minrank", "--gurvits", "1", "--seed", "11"]))
    rec = records[0].as_dict()
    assert rec["seed"] == 11
    assert rec["version"] == cli.__version__
    assert "timestamp" in rec and "wall_time_s" in rec


# --- output files and resume ---------------------------------------------------------

def test_output_appends_json_lines(tmp_path):
    out = tmp_path / "results.jsonl"
    argv = ["minrank", "--friedland", "1", "--output", str(out)]
    assert cli.main(argv) == 0
    assert cli.main(argv) == 0
    lines = [json.loads(l) for l in out.read_text().splitlines()]
    assert len(lines) == 2
    assert lines[0]["payload"] == lines[1]["payload"]


def test_terracini_scan_resumes_from_output(tmp_path):
    out = tmp_path / "scan.jsonl"
    argv = ["terracini", "--variety", "segre:2,2,2", "--scan", "--output", str(out)]
    assert cli.main(argv) == 0
    first = out.read_text().splitlines()
    assert len(first) == 2  # r = 1 and the saturating r = 2
    assert cli.main(argv) == 0
    assert out.read_text().splitlines() == first  # nothing recomputed


def test_terracini_partial_scan_completes(tmp_path):
    out = tmp_path / "scan.jsonl"
    # complete r = 1 only, then ask for the full scan
    assert cli.main(
        ["terracini", "--variety", "segre:2,2", "--r-max", "1", "--output", str(out)]
    ) == 0
    assert len(out.read_text().splitlines()) == 1
    assert cli.main(
        ["terracini", "--variety", "segre:2,2", "--scan", "--output", str(out)]
    ) == 0
    lines = [json.loads(l)["payload"] for l in out.read_text().splitlines()]
    assert [p["r"] for p in lines] == [1, 2]


# --- payload content round trips ---------------------------------------------------------

def test_rank_payload_tensor_canonical_round_trip(tmp_path):
    t = w_state(3)
    path = tmp_path / "w.tensor"
    path.write_text(dumps_tensor(t))
    records = run(parse_config(["rank", "--tensor", str(path)]))
    payload = records[0].payload
    assert payload["tensor_canonical"] == dumps_tensor(t)
    assert payload["multilinear_rank"] == [2, 2, 2]
    assert payload["border_rank_lower_bound"] == 2


def test_matchgate_payload(tmp_path):
    gpath = tmp_path / "k4.graph"
    gpath.write_text(dumps_graph(complete_graph(4)))
    records = run(parse_config(["matchgate", "--graph", str(gpath)]))
    payload = records[0].payload
    assert payload["matchings"] == 3
    assert payload["orientation"]["found"] is True

    g33 = tmp_path / "k33.graph"
    g33.write_text(dumps_graph(complete_bipartite(3, 3)))
    payload = run(parse_config(["matchgate", "--graph", str(g33)]))[0].payload
    assert payload["matchings"] == 6
    assert payload["orientation"]["found"] is False
    assert payload["orientation"]["candidates_tried"] == 512


def test_matchgate_counts_once_and_checks_the_edge_cap_first(tmp_path, monkeypatch, capsys):
    calls = []
    counted = matchgate.count_matchings

    def count(g):
        calls.append(g.nodes)
        return counted(g)

    monkeypatch.setattr(matchgate, "count_matchings", count)
    k4 = tmp_path / "k4.graph"
    k4.write_text(dumps_graph(complete_graph(4)))
    assert cli.main(["matchgate", "--graph", str(k4)]) == 0
    assert calls == [4]
    k8 = tmp_path / "k8.graph"
    k8.write_text(dumps_graph(complete_graph(8)))  # 2^21 cosets x 105 matchings, over the work cap
    capsys.readouterr()
    started = time.perf_counter()
    assert cli.main(["matchgate", "--graph", str(k8)]) == 3
    assert time.perf_counter() - started < 1
    assert "estimated at 220200960 Pfaffian terms (2^21 cosets x 105 matchings), over the cap of" in (
        capsys.readouterr().err
    )
    assert calls == [4]


def test_orientation_work_cap_admits_the_grid_and_refuses_before_any_pfaffian(tmp_path, monkeypatch, capsys):
    grid = tmp_path / "grid.graph"  # 4 x 4 grid: 24 edges, 2^9 cosets x 36 matchings
    grid.write_text(dumps_graph(matchgate.WeightedGraph.build(
        16, [(v, v + d, 1) for v in range(16) for d in (1, 4) if v + d < 16 and (d == 4 or v % 4 < 3)])))
    assert cli.main(["matchgate", "--graph", str(grid)]) == 0
    orientation = json.loads(capsys.readouterr().out)["payload"]["orientation"]
    assert orientation["found"] is True and orientation["candidates_tried"] == 86024
    work = []
    for name in ("_signed_matchings", "_block_pfaffians"):
        monkeypatch.setattr(matchgate, name, lambda *args, name=name: work.append(name))
    k8 = tmp_path / "k8.graph"
    k8.write_text(dumps_graph(complete_graph(8)))
    assert cli.main(["matchgate", "--graph", str(k8)]) == 3
    assert work == []


@pytest.mark.parametrize("nodes", [2, 0])
def test_edgeless_graph_has_an_empty_orientation(nodes, tmp_path, capsys):
    path = tmp_path / "edgeless.graph"
    path.write_text(f"graph v1\n{nodes}\n")
    assert cli.main(["matchgate", "--graph", str(path)]) == 0
    out = capsys.readouterr().out
    assert '"orientation": {"candidates_tried": 1, "found": true, "signs": []}' in out


def test_transform_work_cap_refuses_before_any_entry(tmp_path, monkeypatch, capsys):
    read = []
    monkeypatch.setattr(matchgate.SignatureVector, "__getitem__", lambda self, i: read.append(i))
    sig = tmp_path / "sig9.json"
    sig.write_text(json.dumps(["1"] * 2**9))
    argv = ["matchgate", "--signature", str(sig), "--basis", "1,0,1;0,1,1", "--side", "generator"]
    assert cli.main(argv) == 3
    assert (
        "estimated at 90699264 steps (3^9 entries x 2^9 subsets x 9 wires), over the cap of 30000000"
        in capsys.readouterr().err
    )
    assert read == []


def test_subpfaffian_checks_the_node_cap_before_any_pfaffian(tmp_path, monkeypatch, capsys):
    calls = []
    pfaffian_table = matchgate._pfaffian_table
    monkeypatch.setattr(matchgate, "_pfaffian_table", lambda a: calls.append(a.size) or pfaffian_table(a))
    path = tmp_path / "path17.graph"
    path.write_text(dumps_graph(matchgate.WeightedGraph.build(17, [(i, i + 1, 1) for i in range(16)])))
    assert cli.main(["matchgate", "--graph", str(path), "--subpfaffian"]) == 3
    assert "capped at 16 nodes" in capsys.readouterr().err
    assert calls == []
    k4 = tmp_path / "k4.graph"
    k4.write_text(dumps_graph(complete_graph(4)))
    assert cli.main(["matchgate", "--graph", str(k4), "--subpfaffian"]) == 0
    assert calls == [4]


def test_matchgate_signature_modes(tmp_path):
    gpath = tmp_path / "k4.graph"
    gpath.write_text(dumps_graph(complete_graph(4)))
    payload = run(parse_config(["matchgate", "--graph", str(gpath), "--subpfaffian"]))[0].payload
    sig = payload["signature"]
    assert len(sig) == 16

    spath = tmp_path / "sig.json"
    spath.write_text(json.dumps(sig))
    payload = run(parse_config(["matchgate", "--signature", str(spath)]))[0].payload
    assert payload["satisfies_identities"] is True

    nae = tmp_path / "nae.json"
    nae.write_text(json.dumps(["0", "1", "1", "1", "1", "1", "1", "0"]))
    payload = run(parse_config(["matchgate", "--signature", str(nae)]))[0].payload
    assert payload["satisfies_identities"] is False
    assert payload["relations"] == 28 and payload["nonzero_residuals"] == 8

    first = tmp_path / "first.json"  # only the first relation, s[1] s[0], is violated
    first.write_text(json.dumps(["1", "1", "0", "0"]))
    payload = run(parse_config(["matchgate", "--signature", str(first)]))[0].payload
    assert payload["relations"] == 6 and payload["nonzero_residuals"] == 1

    payload = run(
        parse_config(
            [
                "matchgate",
                "--signature",
                str(spath),
                "--basis",
                "1,1;1,-1",
                "--side",
                "recognizer",
            ]
        )
    )[0].payload
    assert payload["mode"] == "transform" and len(payload["signature"]) == 16


def test_emit_json_parses_back_losslessly():
    records = run(parse_config(["minrank", "--gurvits", "1"]))
    text = emit(records, "json")
    parsed = [json.loads(line) for line in text.strip().splitlines()]
    assert parsed[0]["payload"] == records[0].as_dict()["payload"]


def test_emit_csv_row_count():
    records = run(parse_config(["kron", "--cone", "2,2,2,3"]))
    table = cone_rows(records[0].payload["table"])
    text = emit(records, "csv")
    lines = text.strip().splitlines()
    assert len(lines) == len(table) + 1
    assert lines[0] == "lambda,mu,nu,K"


def test_emit_csv_rejects_non_tabular():
    records = run(parse_config(["minrank", "--friedland", "1"]))
    with pytest.raises(ValidationError):
        emit(records, "csv")


def test_emit_scan_csv_and_text():
    records = run(parse_config(["terracini", "--variety", "segre:2,2", "--scan"]))
    csv_text = emit(records, "csv")
    assert csv_text.splitlines()[0].startswith("variety,r,")
    assert len(csv_text.strip().splitlines()) == len(records) + 1
    txt = emit(records, "text")
    assert "segre:2,2" in txt


# --- cone tables, rendered from cone_sample's per-size blocks ---------------------------

CONE_BOUNDS = ["4,4,4,10", "3,3,3,10", "2,5,3,9", "1,1,1,6", "0,2,2,3", "2,2,2,0"]


def row_dict_record(record):
    """The record as a dict whose cone table is one dict per row."""
    rows = [
        {"lambda": str(lam), "mu": str(mu), "nu": str(nu), "K": k}
        for lam, mu, nu, k in cone_rows(record.payload["table"])
    ]
    return {**record.as_dict(), "payload": {**record.payload, "table": rows}}


def row_dict_emit(records, fmt):
    """Test-local copy of emit from before cone rows were rendered straight
    from their blocks: json.dumps of the row dicts, and csv and text read
    from the same dicts."""
    if fmt == "json":
        return "\n".join(json.dumps(row_dict_record(r), sort_keys=True) for r in records) + "\n"
    payload = row_dict_record(records[0])["payload"]
    rows, columns = payload["table"], payload["columns"]
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(columns)
        for row in rows:
            writer.writerow([row.get(c, "") for c in columns])
        return buf.getvalue()
    widths = {c: max(len(c), *(len(str(row.get(c, ""))) for row in rows)) for c in columns}
    header = "  ".join(c.ljust(widths[c]) for c in columns)
    body = ["  ".join(str(row.get(c, "")).ljust(widths[c]) for c in columns) for row in rows]
    return "\n".join([header] + body) + "\n"


def pieces(text):
    """Text cut at every row, so a failed comparison reports the first row
    that differs rather than diffing a megabyte-long line."""
    return text.replace("}, {", "}, \n{").splitlines(keepends=True)


@pytest.mark.parametrize("bounds", CONE_BOUNDS)
def test_cone_record_json_matches_the_row_dict_dump(bounds, tmp_path):
    records = run(parse_config(["kron", "--cone", bounds]))
    expected = pieces(row_dict_emit(records, "json"))
    assert pieces(cli._record_json(records[0]) + "\n") == expected
    assert pieces(emit(records, "json")) == expected
    # the --output line and the stdout line are the same bytes
    out = tmp_path / "cone.jsonl"
    cli._append_record(str(out), records[0])
    assert pieces(out.read_text()) == expected


@pytest.mark.parametrize("bounds", CONE_BOUNDS)
def test_cone_csv_and_text_match_the_row_dict_output(bounds):
    records = run(parse_config(["kron", "--cone", bounds]))
    assert pieces(emit(records, "csv")) == pieces(row_dict_emit(records, "csv"))
    if records[0].payload["table"]:
        assert pieces(emit(records, "text")) == pieces(row_dict_emit(records, "text"))
    else:  # the row-dict text path raised on an empty table
        assert emit(records, "text") == "lambda  mu  nu  K\n"


def test_cone_stdout_line_equals_the_output_line(tmp_path, capsys):
    def canonical(line):
        rec = json.loads(line)
        del rec["timestamp"], rec["wall_time_s"]
        return rec

    assert cli.main(["kron", "--cone", "2,5,3,9"]) == 0
    stdout = capsys.readouterr().out
    out = tmp_path / "cone.jsonl"
    assert cli.main(["kron", "--cone", "2,5,3,9", "--output", str(out)]) == 0
    assert capsys.readouterr().out == ""
    written = out.read_text()
    assert stdout.count("\n") == written.count("\n") == 1
    assert canonical(stdout) == canonical(written)
    # byte for byte up to the two fields that differ between runs
    assert stdout.split('"timestamp"')[0] == written.split('"timestamp"')[0]


@pytest.mark.parametrize(
    "params",
    [
        {"cone": "2,2,2,3", "weyl": '"table": []'},
        {"cone": "2,2,2,3", "triple": '{"table": []}, "table": [], '},
        # run refuses an object value, but a record built with one echoes it as is
        {"cone": "2,2,2,3", "weyl": {"table": []}},
        {"cone": "2,2,2,3", "weyl": {"payload": {"table": [], "x": "\"table\": []"}}},
    ],
)
def test_cone_record_json_with_table_text_in_the_parameters(params):
    (payload,) = cli._run_kron(ExperimentConfig("kron", {"cone": params["cone"]}))
    record = cli.ResultRecord(ExperimentConfig("kron", params), payload, "t", 0.5)
    line = cli._record_json(record)
    assert line == json.dumps(row_dict_record(record), sort_keys=True)
    assert json.loads(line)["parameters"] == params


def test_cone_config_file_with_a_table_parameter(tmp_path, capsys):
    # only the weyl mode reads 'dim', so the cone mode refuses it, whatever its
    # value; the _record_json tests above cover object-valued parameters
    cfg = tmp_path / "cfg.json"
    params = {"cone": "2,2,2,4", "dim": {"table": []}}
    cfg.write_text(json.dumps({"command": "kron", "parameters": params}))
    assert cli.main(["--config", str(cfg)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "parameter 'dim' belongs to mode 'weyl', not to mode 'cone'" in captured.err


@pytest.mark.parametrize("bounds", ["2,2,2,0", "0,2,2,3"])
def test_empty_cone_tables_in_every_format(bounds, capsys):
    assert cli.main(["kron", "--cone", bounds, "--format", "text"]) == 0
    assert capsys.readouterr().out == "lambda  mu  nu  K\n"
    assert cli.main(["kron", "--cone", bounds, "--format", "csv"]) == 0
    assert capsys.readouterr().out == "lambda,mu,nu,K\n"
    assert cli.main(["kron", "--cone", bounds]) == 0
    assert json.loads(capsys.readouterr().out)["payload"]["table"] == []


@pytest.mark.parametrize("bounds", ["2,2,2,-3", "-1,2,2,3", "2,-1,2,3", "2,2,-1,3"])
def test_negative_cone_bounds_exit_2_before_any_work(bounds, monkeypatch, capsys):
    def no_work(*args):
        raise AssertionError("partitions were enumerated")

    monkeypatch.setattr(kronecker, "_partition_tuples", no_work)
    assert cli.main(["kron", f"--cone={bounds}"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "cone bounds must be non-negative" in captured.err


def test_cone_caps_exit_3_before_any_block_is_built(monkeypatch, capsys):
    def no_tables(n):
        raise AssertionError("a character table was built")

    monkeypatch.setattr(kronecker, "_character_table", no_tables)
    assert cli.main(["kron", "--cone", "8,8,8,14"]) == 3
    assert capsys.readouterr().err == (
        "cap exceeded: cone sampling would enumerate 2853720 triples, over the limit of 1500000\n"
    )
    assert cli.main(["kron", "--cone", "2,2,2,15"]) == 3
    assert capsys.readouterr().err == (
        "cap exceeded: cone sampling capped at n_max <= 14, where int64 character sums are exact\n"
    )


def test_rationals_serialized_as_strings_never_floats(tmp_path):
    from tensorlab.tensors import DenseTensor, dumps_tensor
    from tensorlab.rings import RATIONAL

    t = DenseTensor((2, 2), (Fraction(1, 3), Fraction(2, 3), 1, 0), RATIONAL)
    path = tmp_path / "t.tensor"
    path.write_text(dumps_tensor(t))
    payload = run(parse_config(["rank", "--tensor", str(path)]))[0].payload
    text = json.dumps(payload)
    assert "1/3" in payload["tensor_canonical"]
    assert "0.333" not in text
    # jsonable renders fractions as p/q strings
    assert cli.jsonable(Fraction(1, 3)) == "1/3"
    assert cli.jsonable(Fraction(4, 2)) == "2"


def test_minrank_subspace_mode(tmp_path):
    sp = gurvits_space(1)
    path = tmp_path / "x.json"
    path.write_text(sp.to_json())
    payload = run(parse_config(["minrank", "--subspace", str(path)]))[0].payload
    assert payload["certainty"] == "upper_bound"
    assert payload["min_rank"] == 2


def test_decompose_modes(tmp_path):
    payload = run(parse_config(["decompose", "--form", "1,0,0,1"]))[0].payload
    assert payload["rank"] == 2 and payload["exact"] is True

    from tensorlab.decomp import Decomposition
    from tensorlab.ranks import w_state_certificate

    dec = Decomposition.from_vectors(w_state_certificate(3))
    dpath = tmp_path / "dec.json"
    dpath.write_text(dec.to_json())
    tpath = tmp_path / "w.tensor"
    tpath.write_text(dumps_tensor(w_state(3)))
    payload = run(
        parse_config(
            ["decompose", "--tensor", str(tpath), "--decomposition", str(dpath)]
        )
    )[0].payload
    assert payload["mode"] == "gross"
    assert payload["minimality"] is False

    payload = run(parse_config(["decompose", "--decomposition", str(dpath), "--kruskal"]))[0].payload
    # repeated factor columns give k-ranks (1,1,1), far below 2r + 2 = 8
    assert payload["unique"] is False
    assert payload["k_ranks"] == [1, 1, 1]


def test_decompose_form_runs_the_catalecticant_ladder_once(monkeypatch):
    rng = random.Random("decompose:ladder")
    forms = ["1,0,0,1", "0,1,0,0", "1,0,-3,0,1"] + [
        ",".join(str(rng.randint(-3, 3)) for _ in range(rng.randint(3, 8))) for _ in range(40)
    ]
    forms = [f for f in forms if any(int(x) for x in f.split(","))]
    # the rank decompose reported when it ran the ladder a second time for it
    expected = {f: ranks.sylvester_symmetric_rank_binary([Fraction(x) for x in f.split(",")]) for f in forms}
    calls = []
    apolar = ranks.apolar_kernel_form
    counted = lambda coeffs: calls.append(coeffs) or apolar(coeffs)  # noqa: E731
    monkeypatch.setattr(ranks, "apolar_kernel_form", counted)
    monkeypatch.setattr(decomp, "apolar_kernel_form", counted)
    paths = set()
    for f in forms:
        calls.clear()
        payload = run(ExperimentConfig("decompose", {"form": f}))[0].payload
        assert payload["rank"] == expected[f] == len(payload["nodes"])
        paths.add(payload["exact"])
        assert len(calls) == 1
    assert paths == {True, False}
    payload = run(ExperimentConfig("decompose", {"form": "1,0,0,1"}))[0].payload
    assert json.dumps(payload, sort_keys=True) == (
        '{"coefficients": [1, 1], "degree": 3, "exact": true, "mode": "sylvester", '
        '"nodes": [["0", "1"], ["1", "0"]], "rank": 2, "residual": 0.0}'
    )


def test_decompose_kruskal_computes_each_k_rank_once(tmp_path, monkeypatch, capsys):
    from tensorlab.decomp import Decomposition

    calls = []
    kruskal_rank = decomp.kruskal_rank
    monkeypatch.setattr(decomp, "kruskal_rank", lambda m: calls.append(m.cols) or kruskal_rank(m))
    es = [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
    dpath = tmp_path / "dec.json"
    dpath.write_text(Decomposition.from_vectors([[e] * 3 for e in es]).to_json())
    assert cli.main(["decompose", "--decomposition", str(dpath), "--kruskal"]) == 0
    payload = json.loads(capsys.readouterr().out)["payload"]
    assert payload["k_ranks"] == [3, 3, 3] and payload["unique"] is True
    assert calls == [3, 3, 3]  # one per factor matrix, none again for the uniqueness test


# --- unreadable files, bad output paths, config-keyed resume ---------------------------

def test_unreadable_input_file_exits_2(tmp_path, capsys):
    assert cli.main(["rank", "--tensor", str(tmp_path)]) == 2  # a directory
    assert "tensor file" in capsys.readouterr().err
    assert cli.main(["matchgate", "--graph", str(tmp_path / "missing.graph")]) == 2
    assert "graph file" in capsys.readouterr().err


@pytest.mark.parametrize(
    "where", ["missing-parent", "directory", "unwritable-file", "unwritable-directory"]
)
def test_bad_output_path_exits_2_before_computing(where, tmp_path, monkeypatch, capsys):
    def never(*args, **kwargs):
        raise AssertionError("computed before the output path was checked")

    monkeypatch.setattr(secants, "secant_dimension", never)
    out = {
        "missing-parent": tmp_path / "absent" / "r.jsonl",
        "directory": tmp_path,
        "unwritable-file": tmp_path / "r.jsonl",
        "unwritable-directory": tmp_path / "new.jsonl",
    }[where]
    if where == "unwritable-file":
        out.write_text("")
    if where.startswith("unwritable"):
        # permission bits do not bind root, so deny the access check itself
        denied = out if where == "unwritable-file" else tmp_path
        real_access = os.access
        monkeypatch.setattr(os, "access", lambda p, mode: Path(p) != denied and real_access(p, mode))
    argv = ["terracini", "--variety", "segre:2,2", "--r", "1", "--output", str(out)]
    assert cli.main(argv) == 2
    assert "output" in capsys.readouterr().err


def test_malformed_minrank_trials_exits_2(tmp_path, capsys):
    space = tmp_path / "space.json"
    space.write_text(gurvits_space(1).to_json())
    path = tmp_path / "cfg.json"
    params = {"subspace": str(space), "trials": "abc"}
    path.write_text(json.dumps({"command": "minrank", "parameters": params}))
    assert cli.main(["--config", str(path)]) == 2
    assert "'trials'" in capsys.readouterr().err


@pytest.mark.parametrize(
    "option, text",
    [
        ("graph", "graph v1\n3\na 1 1\n"),
        ("graph", "graph v1\n3\n0 1.5 1\n"),
        ("signature", '{"wires": 2}'),
        ("signature", "5"),
        ("signature", '{"wires": "x", "arity": 2, "entries": ["1", "0", "0", "1"]}'),
    ],
    ids=["graph-letter-endpoint", "graph-fraction-endpoint", "signature-no-entries", "signature-number", "signature-bad-wires"],
)
def test_malformed_graph_and_signature_files_exit_2(option, text, tmp_path, capsys):
    path = tmp_path / "input.txt"
    path.write_text(text)
    assert cli.main(["matchgate", f"--{option}", str(path)]) == 2
    assert ("bad edge line" if option == "graph" else "bad signature JSON") in capsys.readouterr().err


@pytest.mark.parametrize(
    "wires, arity, message",
    [
        (1000000000, 3, "signature length must be arity**wires"),
        (-1, 3, "arity and wires must be >= 0"),
        (2, -3, "arity and wires must be >= 0"),
    ],
)
def test_signature_wires_are_checked_before_the_power(wires, arity, message, tmp_path, capsys):
    path = tmp_path / "s.json"
    path.write_text(json.dumps({"wires": wires, "arity": arity, "entries": ["1"]}))
    started = time.perf_counter()
    assert cli.main(["matchgate", "--signature", str(path)]) == 2
    assert time.perf_counter() - started < 0.1
    assert message in capsys.readouterr().err


def test_rank_over_fp_refuses_non_integral_floats(tmp_path, capsys):
    path = tmp_path / "t.tensor"
    path.write_text("tensor v1\n2 2\nfloat\n1.5 0 0 2.7\n")
    assert cli.main(["rank", "--tensor", str(path), "--field", "3"]) == 2
    assert "float entry 1.5 is not an integer" in capsys.readouterr().err
    path.write_text("tensor v1\n2 2\nfloat\n2.0 0 0 4.0\n")
    payload = run(parse_config(["rank", "--tensor", str(path), "--field", "3"]))[0].payload
    assert payload["tensor_canonical"] == "tensor v1\n2 2\nfp 3\n2 0 0 1\n"


@pytest.mark.parametrize("n", [13, 64])
def test_w_state_beyond_max_factors_exits_2_before_building(n, capsys):
    assert cli.main(["rank", "--w-state", str(n)]) == 2
    assert f"w_state needs 2 <= n <= {MAX_FACTORS}" in capsys.readouterr().err


@pytest.mark.parametrize("n", [17, 10**6])
def test_friedland_above_the_cap_exits_3_before_building(n, monkeypatch, capsys):
    def never(*args):
        raise AssertionError("built the Gurvits space above the cap")

    monkeypatch.setattr(minrank, "gurvits_space", never)
    assert cli.main(["minrank", "--friedland", str(n)]) == 3
    assert f"exceeds FRIEDLAND_CAP {minrank.FRIEDLAND_CAP}" in capsys.readouterr().err


@pytest.mark.parametrize("n, code, message", [
    (0, 2, "n must be >= 1"),
    (-1, 2, "n must be >= 1"),
    (9, 3, f"exceeds GURVITS_CAP {minrank.GURVITS_CAP}"),
])
def test_gurvits_size_below_1_exits_2_and_above_the_cap_exits_3(n, code, message, capsys):
    # a malformed size is a validation error, as for --friedland; only a size over the cap is a cap
    assert cli.main(["minrank", "--gurvits", str(n)]) == code
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("change", ["seed", "trials", "version"])
def test_scan_resume_reuses_only_cells_of_the_same_config(change, tmp_path, monkeypatch):
    out = tmp_path / "scan.jsonl"
    argv = ["terracini", "--variety", "segre:2,2,2", "--scan", "--output", str(out)]
    assert cli.main(argv) == 0
    assert len(out.read_text().splitlines()) == 2
    if change == "version":
        monkeypatch.setattr(cli, "__version__", cli.__version__ + "+other")
    rerun = argv + {"seed": ["--seed", "1"], "trials": ["--trials", "1"], "version": []}[change]
    assert cli.main(rerun) == 0
    assert len(out.read_text().splitlines()) == 4  # both cells recomputed
    assert cli.main(rerun) == 0
    assert len(out.read_text().splitlines()) == 4  # then resumed


# --- damaged output files ------------------------------------------------------------

def test_scan_resume_skips_lines_that_are_not_objects(tmp_path):
    out = tmp_path / "scan.jsonl"
    out.write_text('5\n[1, 2]\n"text"\nnull\n{"payload": 7}\n')
    argv = ["terracini", "--variety", "segre:2,2", "--scan", "--output", str(out)]
    assert cli.main(argv) == 0
    records = [json.loads(l) for l in out.read_text().splitlines()[5:]]
    assert [rec["payload"]["r"] for rec in records] == [1, 2]


def test_append_after_torn_last_line_starts_a_new_line(tmp_path):
    out = tmp_path / "scan.jsonl"
    argv = ["terracini", "--variety", "segre:2,2", "--output", str(out)]
    assert cli.main(argv + ["--r-max", "1"]) == 0
    whole = out.read_text()
    torn = whole.splitlines()[0][:40]
    out.write_text(whole + torn)  # a run killed mid-write
    assert cli.main(argv + ["--scan"]) == 0
    lines = out.read_text().splitlines()
    assert lines[:2] == [whole.strip(), torn]
    records = [json.loads(l) for l in lines[:1] + lines[2:]]
    assert [rec["payload"]["r"] for rec in records] == [1, 2]


# --- streamed scans --------------------------------------------------------------------

def test_interrupted_scan_keeps_finished_cells_and_resumes(tmp_path, monkeypatch):
    out = tmp_path / "scan.jsonl"
    argv = ["terracini", "--variety", "segre:2,2,2,2", "--scan", "--output", str(out)]
    whole = [r.payload for r in run(parse_config(argv[:-2]))]
    assert [p["r"] for p in whole] == [1, 2, 3, 4]
    scan = secants.scan

    def fails_at_3(*args):
        for report in scan(*args):
            if report.r == 3:
                raise TensorlabError("interrupted")
            yield report

    monkeypatch.setattr(secants, "scan", fails_at_3)
    assert cli.main(argv) == 4
    assert [json.loads(l)["payload"]["r"] for l in out.read_text().splitlines()] == [1, 2]
    monkeypatch.setattr(secants, "scan", scan)
    assert cli.main(argv) == 0
    lines = [json.loads(l)["payload"] for l in out.read_text().splitlines()]
    assert [p["r"] for p in lines] == [1, 2, 3, 4]  # the rerun appended r >= 3 only
    assert [json.dumps(p, sort_keys=True) for p in lines] == [
        json.dumps(p, sort_keys=True) for p in whole
    ]


@pytest.mark.parametrize("variety", ["segre:3,3,3", "segver:3,3@2,2", "veronese:3,4"])
def test_stopped_and_resumed_scan_writes_the_cells_of_one_run(variety, tmp_path):
    # the defective cells run every trial, the others stop at the first, so the
    # trial states a resumed run rebuilds have advanced unevenly in the first run
    whole = tmp_path / "whole.jsonl"
    argv = ["terracini", "--variety", variety, "--scan", "--output"]
    assert cli.main(argv + [str(whole)]) == 0
    expected = [json.loads(l)["payload"] for l in whole.read_text().splitlines()]
    for k in range(1, len(expected)):
        out = tmp_path / f"stopped-{k}.jsonl"
        assert cli.main(["terracini", "--variety", variety, "--r-max", str(k), "--output", str(out)]) == 0
        assert len(out.read_text().splitlines()) == k
        assert cli.main(argv + [str(out)]) == 0
        assert [json.loads(l)["payload"] for l in out.read_text().splitlines()] == expected


# the varieties of the benchmark's Terracini cases; segre:9,9,9,9 saturates
# near r = 199, out of a test's reach, so only its first cell is compared
BENCHMARK_TERRACINI = [
    ("segre:5,5,5", None),
    ("veronese:5,4", None),
    ("sub:4,4,4@2,2,2", None),
    ("symsub:5@2,3", None),
    ("segver:3,3@2,2", None),
    ("segre:2,2,2,2", None),
    ("segre:9,9,9,9", 1),
]


@pytest.mark.parametrize("variety,r_max", BENCHMARK_TERRACINI, ids=lambda x: str(x))
def test_cli_scans_report_the_library_scan(variety, r_max):
    spec = secants.parse_variety(variety)
    reports = [rep.as_dict() for rep in secants.defect_scan([spec], r_max=r_max, seed=7)]
    argv = ["terracini", "--variety", variety, "--seed", "7"]
    if r_max is None:
        scanned = [rec.payload for rec in run(parse_config(argv + ["--scan"]))]
        (rec,) = run(parse_config(argv + ["--generic-rank"]))
        assert rec.payload == {"mode": "generic_rank", "generic_rank": reports[-1]["r"], "profile": reports}
    else:
        scanned = [rec.payload for rec in run(parse_config(argv + ["--r-max", str(r_max)]))]
        (rec,) = run(parse_config(argv + ["--r", str(r_max)]))
        assert rec.payload == reports[-1]
    assert scanned == reports


# --- rational payloads that sum to integers ------------------------------------------------

HALF_WEIGHT_CASES = {
    # matchings 1/2 * 2 + 1/2 * 2 is the Fraction 2, rendered as the string "2"
    "graph": (
        ["matchgate", "--graph", "{graph}"],
        b'{"edges": 4, "matchings": "2", "mode": "matchings", "nodes": 4, "orientation": '
        b'{"candidates_tried": 1, "found": true, "signs": [1, 1, 1, 1]}}',
    ),
    "transform": (
        ["matchgate", "--signature", "{signature}", "--basis", "1/2,2;2,1/2", "--side", "generator"],
        b'{"arity": 2, "mode": "transform", "side": "generator", "signature": '
        b'["33/8", "3/2", "9", "33/8"], "wires": 2}',
    ),
}


@pytest.mark.parametrize("case", sorted(HALF_WEIGHT_CASES))
def test_fractional_weights_summing_to_integers_keep_their_payload(case, tmp_path):
    graph, signature = tmp_path / "half.graph", tmp_path / "half.json"
    graph.write_text("graph v1\n4\n0 1 1/2\n1 2 1/2\n2 3 2\n0 3 2\n")
    signature.write_text('["1/2", "2", "0", "1/2"]')
    template, expected = HALF_WEIGHT_CASES[case]
    argv = [a.format(graph=graph, signature=signature) for a in template]
    assert payload_bytes(run(parse_config(argv))) == [expected]


# --- exhaustive F_p rank ----------------------------------------------------------

def test_rank_bruteforce_matmul_222_and_the_work_cap(tmp_path, capsys):
    # <2,2,2>: rank 7 over F_2 (Hopcroft-Kerr 1971), r = 6 refuted on the way
    body = " ".join(
        "1" if (a % 2 == b // 2 and b % 2 == c // 2 and c % 2 == a // 2) else "0"
        for a in range(4) for b in range(4) for c in range(4)
    )
    path = tmp_path / "mm222.tensor"
    path.write_text(f"tensor v1\n4 4 4\nrational\n{body}\n")
    argv = ["rank", "--tensor", str(path), "--field", "2", "--bruteforce"]
    assert cli.main(argv + ["7"]) == 0
    bruteforce = json.loads(capsys.readouterr().out)["payload"]["bruteforce"]
    assert bruteforce == {"exceeds_r_max": False, "field": "fp 2", "r_max": 7, "rank": 7}
    # r_max 8 adds C(225, 3) search nodes: exit 3 before any candidate is built
    started = time.perf_counter()
    assert cli.main(argv + ["8"]) == 3
    assert time.perf_counter() - started < 1
    assert f"over the limit of {ranks.COVER_SEARCH_WORK_CAP}" in capsys.readouterr().err


@pytest.mark.parametrize(
    "field,shape", [(3, (2, 2, 2, 2)), (2, (2, 3, 2)), (5, (3, 2)), (None, (2, 2, 3)), (None, (3, 3))]
)
def test_rank_ranks_each_flattening_once(field, shape, tmp_path, monkeypatch):
    rng = random.Random(f"cli:rank-once:{field}:{shape}")
    ring = fp(field) if field else RATIONAL
    data = tuple(rng.randint(-2, 2) % (field or 7) for _ in range(math.prod(shape)))
    t = DenseTensor(shape, data, ring)
    path = tmp_path / "t.tensor"
    path.write_text(dumps_tensor(t))
    argv = ["rank", "--tensor", str(path)] + (["--bruteforce", "4"] if field else [])
    expected = {
        "multilinear_rank": list(ranks.multilinear_rank(t).ranks),
        "border_rank_lower_bound": ranks.border_rank_lower_bound(t),
    }
    if field:
        expected["bruteforce"] = ranks.exact_rank_bruteforce(t, 4)
    flattenings = []
    f_rank = ranks.f_rank
    monkeypatch.setattr(ranks, "f_rank", lambda t, b, tol=1e-8: flattenings.append(b) or f_rank(t, b, tol))
    exact = []
    rank_exact = ranks.rank_exact
    monkeypatch.setattr(ranks, "rank_exact", lambda m: exact.append(m) or rank_exact(m))
    (record,) = run(parse_config(argv))
    payload = record.payload
    assert {k: payload[k] for k in ("multilinear_rank", "border_rank_lower_bound")} == {
        k: expected[k] for k in ("multilinear_rank", "border_rank_lower_bound")
    }
    if field:
        assert payload["bruteforce"]["rank"] == expected["bruteforce"]
    # the mode flattenings, then each bipartition up to complement that splits off
    # more than one position: every bipartition once, and nothing ranked besides
    assert len(flattenings) == len(set(flattenings)) == max(len(shape), 2 ** (len(shape) - 1) - 1)
    assert len(exact) == len(flattenings)
