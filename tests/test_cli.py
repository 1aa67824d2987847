import argparse
import json
import os
import time
from fractions import Fraction
from pathlib import Path

import pytest

from tensorlab import cli
from tensorlab.cli import ExperimentConfig, emit, parse_config, run
from tensorlab import decomp, matchgate, secants
from tensorlab.errors import TensorlabError, ValidationError
from tensorlab.matchgate import complete_bipartite, complete_graph, dumps_graph
from tensorlab.minrank import gurvits_space
from tensorlab.ranks import w_state
from tensorlab.tensors import dumps_tensor


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


def test_terracini_degree_cap_exit_code(capsys):
    # ambient dimensions 1 and 2, at a degree refused before any point is drawn
    for variety in ("veronese:1,3000000", "segver:1,2@3000000,1"):
        started = time.perf_counter()
        assert cli.main(["terracini", "--variety", variety, "--r", "1"]) == 3
        assert time.perf_counter() - started < 1
        assert "degree 3000000 exceeds the cap 20000" in capsys.readouterr().err


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


@pytest.mark.parametrize("key", ["trials", "r_max"])
def test_malformed_config_integer_exits_2(key, tmp_path, capsys):
    path = tmp_path / "cfg.json"
    params = {"variety": "segre:2,2", "scan": True, key: "three"}
    path.write_text(json.dumps({"command": "terracini", "parameters": params}))
    assert cli.main(["--config", str(path)]) == 2
    assert repr(key) in capsys.readouterr().err


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


def test_subpfaffian_checks_the_node_cap_before_any_pfaffian(tmp_path, monkeypatch, capsys):
    calls = []
    pfaffian_on = matchgate._pfaffian_on
    monkeypatch.setattr(
        matchgate, "_pfaffian_on", lambda *args: calls.append(len(args[0])) or pfaffian_on(*args)
    )
    path = tmp_path / "path17.graph"
    path.write_text(dumps_graph(matchgate.WeightedGraph.build(17, [(i, i + 1, 1) for i in range(16)])))
    assert cli.main(["matchgate", "--graph", str(path), "--subpfaffian"]) == 3
    assert "capped at 16 nodes" in capsys.readouterr().err
    assert calls == []
    k4 = tmp_path / "k4.graph"
    k4.write_text(dumps_graph(complete_graph(4)))
    assert cli.main(["matchgate", "--graph", str(k4), "--subpfaffian"]) == 0
    assert calls


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
    table = records[0].payload["table"]
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
    secant_dimension = secants.secant_dimension

    def fails_at_3(spec, r, **kwargs):
        if r == 3:
            raise TensorlabError("interrupted")
        return secant_dimension(spec, r, **kwargs)

    monkeypatch.setattr(secants, "secant_dimension", fails_at_3)
    assert cli.main(argv) == 4
    assert [json.loads(l)["payload"]["r"] for l in out.read_text().splitlines()] == [1, 2]
    monkeypatch.setattr(secants, "secant_dimension", secant_dimension)
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
