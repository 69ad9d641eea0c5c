from __future__ import annotations

import contextlib
import csv
import inspect
import io
import json
from pathlib import Path

import pytest
from hypothesis import example, given, note, settings, strategies as st

from nestrec import cli
from nestrec import families as fam
from nestrec import frequency as freq
from nestrec import pruning
from nestrec import tree


def run(argv, capsys):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_spec(directory, doc) -> str:
    path = directory / "spec.json"
    path.write_text(json.dumps(doc))
    return str(path)


CONOLLY_DOC = {"arity": 2, "order": 1, "a": [0, 1], "b": [[1], [2]], "ic": [1, 2]}
RUNNING_DOC = {"k": 2, "s": 1, "j": 3, "per_cell": 1, "last_cell": 2, "regular": 2}  # order_one s=1 j=3 m=1


def test_eval_bfile(capsys):
    code, out, _ = run(["eval", "conolly", "--n", "3", "--format", "bfile"], capsys)
    assert code == 0
    assert out == "1 1\n2 2\n3 2\n"


def test_eval_h_bfile(capsys):
    code, out, _ = run(["eval", "h", "--n", "2", "--format", "bfile"], capsys)
    assert code == 0
    assert out == "1 1\n2 1\n"


def test_eval_json(capsys):
    code, out, _ = run(["eval", "order_one", "s=1", "j=3", "m=1", "--n", "9", "--format", "json"], capsys)
    assert code == 0
    assert json.loads(out) == [1, 2, 3, 3, 3, 4, 5, 6, 6]


def test_tree_matches_eval(capsys):
    _, tree_out, _ = run(["tree", "order_one", "s=1", "j=3", "m=1", "--n", "50", "--format", "csv"], capsys)
    _, eval_out, _ = run(["eval", "order_one", "s=1", "j=3", "m=1", "--n", "50", "--format", "csv"], capsys)
    assert tree_out == eval_out
    assert tree_out.startswith("n,value\n1,1\n")


def test_tree_spec_file(tmp_path, capsys):
    """`tree --spec` reads a tree document; a name and --spec together is a usage error."""
    path = write_spec(tmp_path, RUNNING_DOC)
    code, out, _ = run(["tree", "--spec", path, "--n", "9", "--format", "json"], capsys)
    assert code == 0
    assert json.loads(out) == [1, 2, 3, 3, 3, 4, 5, 6, 6]
    code, out, err = run(["tree", "conolly", "--spec", path, "--n", "9"], capsys)
    assert code == 2
    assert out == "" and err == "error: pass either a family name or --spec, not both\n"


def test_eval_reports_death_and_prints_the_prefix(tmp_path, capsys):
    """R(n) = 2 R(n - R(n - 1)) from 1, 2 dies at n = 7; the values before it are the output."""
    path = write_spec(tmp_path, {"arity": 2, "order": 1, "a": [0, 0], "b": [[1], [1]], "ic": [1, 2]})
    code, out, err = run(["eval", "--spec", path, "--n", "20", "--format", "json"], capsys)
    assert code == 0
    assert out == "[1, 2, 2, 4, 2, 8]\n"
    assert err == "sequence dies at n = 7 (outer_index_nonpositive)\n"


def test_eval_past_the_value_cap_is_an_input_error(tmp_path, capsys):
    path = write_spec(tmp_path, {"arity": 2, "order": 1, "a": [0, 0], "b": [[1], [1]],
                                 "ic": [1, 4611686018427387905, 1, 3]})
    code, out, err = run(["eval", "--spec", path, "--n", "5"], capsys)
    assert code == 2
    assert out == "" and err == "error: R(5) exceeds 2^63 - 1\n"


@pytest.mark.parametrize("command,doc", [
    ("eval", [1, 2]), ("eval", "x"), ("eval", 5), ("eval", dict(CONOLLY_DOC, a=5)),
    ("eval", dict(CONOLLY_DOC, b=[1, 2])), ("eval", dict(CONOLLY_DOC, ic=7)), ("eval", dict(CONOLLY_DOC, arity=None)),
    ("tree", [1, 2]), ("tree", "x"), ("tree", dict(RUNNING_DOC, k=None)), ("tree", dict(RUNNING_DOC, j=[3])),
    # digit strings, floats and booleans, which int() would have read
    ("eval", {"arity": "2", "order": 2.9, "a": "01", "b": ["12", "23"], "ic": "1223"}),
    ("eval", dict(CONOLLY_DOC, order=1.0)), ("eval", dict(CONOLLY_DOC, ic=[1, True])),
    ("eval", dict(CONOLLY_DOC, b=[[1], ["2"]])), ("tree", dict(RUNNING_DOC, k="2")), ("tree", dict(RUNNING_DOC, s=False)),
])
def test_malformed_spec_is_an_input_error(command, doc, tmp_path, capsys):
    """A document that is not an object, or a field of the wrong type: exit 2 with one error line."""
    path = write_spec(tmp_path, doc)
    code, out, err = run([command, "--spec", path, "--n", "5"], capsys)
    assert code == 2
    kind = "recursion" if command == "eval" else "tree"
    assert out == "" and err.startswith(f"error: malformed {kind} document: ") and err.count("\n") == 1


def test_verify_agreement(capsys):
    code, out, _ = run(["verify", "order_one", "s=1", "j=3", "m=1", "--n", "10000"], capsys)
    assert code == 0
    assert "AGREE" in out


def test_verify_dense_reports_first_divergence(capsys, monkeypatch):
    real = tree.cell_starts

    def lifted(spec, n):
        # label 701's byte one higher lifts every count from n = 701 on by one;
        # the short calls that build the ICs stay as they were
        starts = bytearray(real(spec, n))
        if n > 700:
            starts[700] += 1
        return bytes(starts)

    monkeypatch.setattr(tree, "cell_starts", lifted)
    r = sum(real(fam.tree_of(fam.conolly()), 701))
    code, out, _ = run(["verify", "conolly", "--n", "800"], capsys)
    assert code == 1
    assert out == f"DIVERGE at n = 701: recursion {r}, tree {r + 1}\n"


@pytest.mark.parametrize("at,by", [(4, -1), (1, 256)], ids=["-1", "256"])
def test_verify_dense_reports_a_step_that_is_no_byte(capsys, monkeypatch, at, by):
    """An initial condition moved so that the recursion's step into it is -1 or
    past 255, which no cell-start byte can be, gives the same DIVERGE line as any
    other mismatch.  Both runs live to --n, so the line names the moved IC."""
    family = fam.OrderOne(1, 3, 1)
    ic = fam.standard_ics(family)  # 1 2 3 3 3 4 ...
    moved = [*ic[:at], ic[at] + by, *ic[at + 1:]]
    assert moved[at] - moved[at - 1] in (-1, 257)
    monkeypatch.setattr(fam, "standard_ics", lambda family: moved)
    code, out, _ = run(["verify", "order_one", "s=1", "j=3", "m=1", "--n", "800"], capsys)
    assert code == 1
    assert out == f"DIVERGE at n = {at + 1}: recursion {moved[at]}, tree {ic[at]}\n"


def test_verify_dense_reports_a_death_past_the_first_difference(capsys, monkeypatch):
    """With R(9) one low the recursion leaves the tree at 9 and dies at 569: a run
    that dies by --n is reported by its death, and one that does not by n = 9."""
    ic = fam.standard_ics(fam.OrderOne(1, 3, 1))
    moved = [*ic[:8], ic[8] - 1, *ic[9:]]
    monkeypatch.setattr(fam, "standard_ics", lambda family: moved)
    code, out, _ = run(["verify", "order_one", "s=1", "j=3", "m=1", "--n", "800"], capsys)
    assert (code, out) == (1, "DIVERGE: recursion dies at n = 569 (outer_index_nonpositive)\n")
    code, out, _ = run(["verify", "order_one", "s=1", "j=3", "m=1", "--n", "568"], capsys)
    assert (code, out) == (1, f"DIVERGE at n = 9: recursion {ic[8] - 1}, tree {ic[8]}\n")


def test_verify_dense_reports_death(capsys, monkeypatch):
    monkeypatch.setattr(fam, "standard_ics", lambda family: [1])
    code, out, _ = run(["verify", "conolly", "--n", "50"], capsys)
    assert code == 1
    assert out == "DIVERGE: recursion dies at n = 2 (inner_index_nonpositive)\n"


@pytest.mark.parametrize("n", ["0", "-5"])
def test_verify_dense_needs_positive_n(n, capsys):
    code, out, err = run(["verify", "conolly", "--n", n], capsys)
    assert code == 2
    assert out == ""
    assert "--n must be at least 1" in err


def test_verify_sparse_at_huge_n(capsys):
    code, out, err = run(["verify", "order_one", "s=1", "j=3", "m=1", "--n", str(10**18),
                          "--sparse", "20", "--seed", "7"], capsys)
    assert code == 0
    assert "seed = 7" in err
    assert out == f"AGREE at 20 sampled n in (20, {10**18}]: recursion holds on closed-form cell counts\n"
    code, _, err = run(["verify", "kary", "k=3", "m=1", "p=2", "--n", "5000", "--sparse", "5"], capsys)
    assert code == 0
    assert err.startswith("seed = ")


def test_verify_c_sjk_grid(capsys):
    """c_sjk's tree TreeSpec(k, s, j, 1, 1, j) gives its recursion's values to n = 2000
    from its own ICs, and its single-point counts satisfy the recursion at seeded n
    up to 10^18, over k 2..5, s 0..4 and j 1..4."""
    for k in range(2, 6):
        for s in range(5):
            for j in range(1, 5):
                params = [f"s={s}", f"j={j}", f"k={k}"]
                code, out, err = run(["verify", "c_sjk", *params, "--n", "2000"], capsys)
                assert (code, out) == (0, "AGREE for n <= 2000: recursion matches cell counts\n"), params
                assert err == "note: tree found and checked, not proven\n"
                code, out, err = run(["verify", "c_sjk", *params, "--n", str(10**18),
                                      "--sparse", "5", "--seed", str(k * 100 + s * 10 + j)], capsys)
                assert code == 0 and out.startswith("AGREE at 5 sampled n"), params
                assert f"seed = {k * 100 + s * 10 + j}" in err


def test_verify_sparse_reports_divergence(capsys, monkeypatch):
    from nestrec import tree

    real = tree.cell_count
    monkeypatch.setattr(tree, "cell_count", lambda spec, n: real(spec, n) + (n > 700))
    code, out, _ = run(["verify", "conolly", "--n", "800", "--sparse", "400", "--seed", "3"], capsys)
    assert code == 1
    assert out.startswith("DIVERGE at n = 7")


def test_verify_sparse_usage_errors(capsys):
    code, _, err = run(["verify", "q_family", "s=1", "j=3", "q=1", "--n", "1000", "--sparse", "5"], capsys)
    assert code == 2
    assert "no tree" in err
    code, _, err = run(["verify", "order_one", "s=1", "j=3", "m=1", "--n", "20", "--sparse", "5"], capsys)
    assert code == 2
    code, out, err = run(["verify", "order_one", "s=1", "j=3", "m=1", "--n", "50", "--sparse", "-1"], capsys)
    assert code == 2
    assert out == "" and err == "error: --sparse needs a positive sample count\n"


def test_freq_csv_header(capsys):
    code, out, _ = run(["freq", "order_one", "s=1", "j=3", "m=1", "--vmax", "6"], capsys)
    assert code == 0
    assert out.splitlines()[0] == "v,phi"
    assert out.splitlines()[1] == "1,1"
    assert "6,5" in out


def test_freq_json_and_table(capsys):
    code, out, _ = run(["freq", "conolly", "--vmax", "4", "--format", "json"], capsys)
    assert code == 0
    assert out == '{"1": 1, "2": 2, "3": 1, "4": 3}\n'
    code, out, _ = run(["freq", "conolly", "--vmax", "10", "--format", "table"], capsys)
    assert code == 0
    assert out == "".join(f"{v:>2}  {phi}\n" for v, phi in enumerate([1, 2, 1, 3, 1, 2, 1, 4, 1, 2], 1))


def test_freq_empirical_too_short_is_usage_error(capsys):
    code, out, err = run(["freq", "conolly", "--vmax", "30", "--empirical", "10"], capsys)
    assert code == 2
    assert out == "" and err == "error: only 5 values complete within 10 labels; raise --empirical\n"


@pytest.mark.parametrize("argv,message", [
    (["--vmax", "0"], "--vmax needs a positive value"),
    (["--vmax", "-2", "--format", "json"], "--vmax needs a positive value"),
    (["--vmax", "5", "--empirical", "-5"], "--empirical needs a positive label count"),
])
def test_freq_nonpositive_bounds_are_usage_errors(argv, message, capsys):
    """An empty frequency table is refused, as eval, tree and ic refuse an empty sequence."""
    code, out, err = run(["freq", "conolly", *argv], capsys)
    assert code == 2
    assert out == "" and err == f"error: {message}\n"


def test_verify_refuses_spec(tmp_path, capsys):
    code, out, err = run(["verify", "--spec", write_spec(tmp_path, CONOLLY_DOC), "--n", "50"], capsys)
    assert code == 2
    assert out == "" and err == "error: verify needs a named family: both mechanisms must know it\n"


def test_freq_empirical_agrees(capsys):
    _, closed, _ = run(["freq", "conolly", "--vmax", "30"], capsys)
    _, emp, _ = run(["freq", "conolly", "--vmax", "30", "--empirical", "5000"], capsys)
    assert closed == emp


def test_ic_default_length(capsys):
    code, out, _ = run(["ic", "order_one", "s=1", "j=3", "m=1", "--format", "json"], capsys)
    assert code == 0
    values = json.loads(out)
    assert len(values) == 20
    assert values[:9] == [1, 2, 3, 3, 3, 4, 5, 6, 6]


def test_prune_identity_and_trace(capsys):
    code, out, _ = run(["prune", "order_one", "s=1", "j=3", "m=1", "--n", "31", "--trace"], capsys)
    assert code == 0
    assert "removed 16" in out
    assert "identity holds" in out
    payload = json.loads(out[out.index("{"):])
    assert payload["removed"] == 16
    assert any(step["step"] == "relabelling" for step in payload["steps"])


def test_prune_trace_golden(capsys):
    """The whole --trace stdout of the running example, byte for byte."""
    golden = Path(__file__).resolve().parent / "golden" / "prune_order_one_s1_j3_m1_n31_trace.txt"
    code, out, _ = run(["prune", "order_one", "s=1", "j=3", "m=1", "--n", "31", "--trace"], capsys)
    assert code == 0
    assert out == golden.read_text()


def test_prune_superposed_trace_golden(capsys):
    """The whole --trace stdout of a small in-range superposed point; it fixes the order of the passes."""
    golden = Path(__file__).resolve().parent / "golden" / "prune_superposed_s0_j1_m0_p2_n11_trace.txt"
    code, out, _ = run(["prune", "superposed", "s=0", "j=1", "m=0", "p=2", "--n", "11", "--trace"], capsys)
    assert code == 0
    assert out == golden.read_text()


@pytest.mark.parametrize("argv,name", [
    # deletion falls back to the parent (label 3 from node 5) and to a placeholder
    (["higher_order", "s=0", "j=1", "m=0", "p=2", "--n", "9"], "prune_higher_order_s0_j1_m0_p2_n9_trace.txt"),
    # leaves in reach of both passes give up two labels in one record
    (["kary", "k=3", "m=1", "p=2", "--n", "10"], "prune_kary_k3_m1_p2_n10_trace.txt"),
])
def test_prune_orderp_and_kary_trace_golden(argv, name, capsys):
    """The whole --trace stdout of small higher-order and k-ary points."""
    golden = Path(__file__).resolve().parent / "golden" / name
    code, out, _ = run(["prune", *argv, "--trace"], capsys)
    assert code == 0
    assert out == golden.read_text()


def test_prune_prints_anomalies(capsys):
    """An exploratory superposed point at its IC length: the identity fails and each anomaly gets a line."""
    code, out, err = run(["prune", "superposed", "s=0", "j=2", "m=-1", "p=2", "--n", "17"], capsys)
    assert code == 1
    assert out == ("removed 9 labels; result has 8\n"
                   "identity FAILS: pruned tree vs rebuilt prefix\n"
                   "first difference: node 1 (leaf 1): cells [[1, 2], [3, 4, 5]] vs [[1, 2], [3]]\n"
                   "anomaly: n = 17 is at or below the full-shape bound 17\n"
                   "anomaly: cell 2 of leaf 1 was already empty in pass 2\n"
                   "anomaly: cell 2 of leaf 2 was already empty in pass 2\n"
                   "anomaly: new leaf 1 holds 5 labels, over its capacity\n")
    assert err == "note: negative m: tree is defined but no recursion is proven\n"


def test_prune_check_prints_seed(capsys):
    code, out, err = run(["prune", "order_one", "s=0", "j=2", "m=1", "--n", "200",
                          "--check", "5", "--seed", "7"], capsys)
    assert code == 0
    assert "seed = 7" in err
    assert out.count("identity ok") == 5


def test_prune_mismatch_names_the_first_difference(monkeypatch, capsys):
    """A broken prune op: both prune and prune --check say where its result first differs from the rebuilt prefix."""
    real = pruning.prune_kary

    def broken(t, family):
        report = real(t, family)
        report.result.cells[-1] = (range(0),)
        return report

    monkeypatch.setattr(pruning, "prune_kary", broken)
    code, out, _ = run(["prune", "kary", "k=3", "m=0", "p=1", "--n", "40"], capsys)
    assert code == 1
    lines = out.splitlines()
    assert lines[1:3] == ["identity FAILS: pruned tree vs rebuilt prefix",
                          "first difference: node 16 (regular 1): cells [[]] vs [[13]]"]
    code, out, _ = run(["prune", "kary", "k=3", "m=0", "p=1", "--n", "40", "--check", "2", "--seed", "7"], capsys)
    assert code == 1
    lines = out.splitlines()
    assert len(lines) == 4 and all("identity MISMATCH" in line for line in lines[::2])
    assert all(line.startswith("first difference: node ") for line in lines[1::2])


def test_prune_check_negative_is_usage_error(capsys):
    code, out, err = run(["prune", "kary", "k=3", "m=0", "p=1", "--n", "400", "--check", "-3", "--seed", "7"], capsys)
    assert code == 2
    assert out == "" and "--check" in err


def test_exit_code_2_on_bad_params(capsys):
    code, _, err = run(["eval", "order_one", "s=1", "--n", "10"], capsys)
    assert code == 2
    assert "error" in err
    code, _, err = run(["eval", "order_one", "s=x", "--n", "10"], capsys)
    assert code == 2
    code, _, err = run(["eval", "no_such", "--n", "10"], capsys)
    assert code == 2
    code, out, err = run(["tree", "q_family", "s=1", "j=3", "q=1", "--n", "5"], capsys)
    assert code == 2
    assert out == "" and err.endswith("error: no tree construction for QFamily(s=1, j=3, q=1)\n")
    # a candidate has no IC length of its own
    code, out, err = run(["ic", "neg_gamma", "k=3", "gamma=-1", "delta=4"], capsys)
    assert code == 2
    assert out == "" and err.endswith("error: no tree construction for NegGammaCandidate(k=3, gamma=-1, delta=4)\n")


def test_spec_file_round_trip(tmp_path, capsys):
    f = fam.conolly()
    spec = fam.recursion_of(f)
    doc = {"arity": spec.arity, "order": spec.order, "a": list(spec.outer_offsets),
           "b": [list(row) for row in spec.inner_offsets], "ic": fam.standard_ics(f)}
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(doc))
    code, out, _ = run(["eval", "--spec", str(path), "--n", "8", "--format", "json"], capsys)
    assert code == 0
    assert json.loads(out) == [1, 2, 2, 3, 4, 4, 4, 5]


def test_export_is_byte_deterministic(tmp_path, capsys):
    a = tmp_path / "a.txt"
    b = tmp_path / "b.txt"
    for target in (a, b):
        code = cli.main(["eval", "conolly", "--n", "64", "--format", "bfile", "--out", str(target)])
        capsys.readouterr()
        assert code == 0
    assert a.read_bytes() == b.read_bytes()
    assert a.read_text().splitlines()[0] == "1 1"


def test_oeis_match(tmp_path, capsys, monkeypatch):
    snapshot = tmp_path / "stripped"
    snapshot.write_text(
        "# OEIS stripped snapshot\n"
        "A000001 ,1,2,2,3,4,4,4,5,6,6,7,8,8,8,8,9,\n"
        "A000002 ,1,1,2,2,3,3,4,4,5,5,6,6,7,7,\n"
        "A000003 ,0,0,0,0,0,0,0,0,0,0,\n"
    )
    monkeypatch.setenv("NESTREC_OEIS_STRIPPED", str(snapshot))
    code, out, _ = run(["oeis-match", "conolly", "--n", "12"], capsys)
    assert code == 0
    assert out.strip() == "A000001"
    code, out, _ = run(["oeis-match", "h", "--n", "12"], capsys)
    assert out.strip() == "A000002"
    code, out, err = run(["oeis-match", "conolly", "--n", "0", "--stripped", str(snapshot)], capsys)
    assert code == 2
    assert out == "" and err == "error: empty query sequence\n"


def test_oeis_match_requires_snapshot(capsys, monkeypatch):
    monkeypatch.delenv("NESTREC_OEIS_STRIPPED", raising=False)
    code, _, err = run(["oeis-match", "conolly", "--n", "8"], capsys)
    assert code == 2
    assert "snapshot" in err


def test_explore_emits_rows(capsys):
    code, out, _ = run(["explore", "order_one", "--grid", "s=0;j=2;m=-1..3", "--n", "500"], capsys)
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("family,s,j,m,valid")
    assert len(lines) == 6
    in_range = [line for line in lines[1:] if ",yes," in line]
    assert len(in_range) == 3
    for line in in_range:
        assert ",yes,yes" in line  # slow and frequency-matched


def test_explore_superposed_prune_column(capsys):
    code, out, _ = run(["explore", "superposed", "--grid", "s=0;j=4;m=-2;p=9",
                        "--n", "168", "--prune-check"], capsys)
    assert code == 0
    lines = out.strip().splitlines()
    assert "prune_identity" in lines[0]
    assert "no(n=168)" in lines[1]


def test_explore_neg_gamma(capsys):
    code, out, _ = run(["explore", "neg_gamma", "--grid", "k=3;gamma=-1;delta=4", "--n", "3000"], capsys)
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 2
    assert "candidate" in lines[1]
    # a candidate has no pruning operation, and --prune-check says so as it does for q_family
    code, out, _ = run(["explore", "neg_gamma", "--grid", "k=2..3;gamma=-1;delta=0..4", "--n", "300",
                        "--prune-check"], capsys)
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert [row["prune_identity"] for row in rows if row["valid"] == "candidate"] == [
        f"skipped(no tree construction for NegGammaCandidate(k={k}, gamma=-1, delta={delta}))"
        for k, delta in ((2, 3), (2, 4), (3, 4))
    ]
    assert {row["prune_identity"] for row in rows if row["valid"] == "no"} == {""}


def test_grid_parser():
    grid = cli.parse_grid("s=0,1;j=1..3;m=-2..2")
    assert grid == {"s": [0, 1], "j": [1, 2, 3], "m": [-2, -1, 0, 1, 2]}
    with pytest.raises(cli.UsageError):
        cli.parse_grid("j=a..b")
    with pytest.raises(cli.UsageError):
        cli.parse_grid("nonsense")


@pytest.mark.parametrize("grid,message", [
    ("s=0;s=1;j=1;m=0", "grid key 's' is given twice"),
    ("m=3..1", "grid range '3..1' is empty"),
    ("s=0;j=1;m=0,3..1", "grid range '3..1' is empty"),
])
def test_explore_grid_key_twice_or_empty_range_is_usage_error(grid, message, capsys):
    """A key given twice would silently drop its first values, and an empty range gives no points."""
    code, out, err = run(["explore", "order_one", "--grid", grid], capsys)
    assert code == 2
    assert out == "" and err == f"error: {message}\n"


@pytest.mark.parametrize("name,grid,reason", [
    ("kary", "k=1;m=0;p=1", "no adjacent tree"),
    ("order_one", "s=0;j=2", "parameters do not fit"),
])
def test_explore_hostile_points_give_rows(name, grid, reason, capsys):
    code, out, _ = run(["explore", name, "--grid", grid, "--n", "200"], capsys)
    assert code == 0
    header, *rows = out.strip().splitlines()
    assert len(rows) == 1
    row = dict(zip(header.split(","), rows[0].split(",")))
    assert row["valid"] == "no"
    assert row["dead_reason"].startswith(reason)


def test_explore_without_grid_runs_one_point(capsys):
    """A name with no parameters explores the point {}; a name that needs some gets a row saying so."""
    code, out, _ = run(["explore", "conolly", "--n", "500"], capsys)
    assert code == 0
    assert out.splitlines() == ["family,valid,survived_to,dead_reason,slow,freq_match", "conolly,yes,500,,yes,yes"]
    code, out, _ = run(["explore", "order_one"], capsys)
    assert code == 0
    [row] = csv.DictReader(io.StringIO(out))
    assert row["valid"] == "no"
    assert row["dead_reason"].startswith("parameters do not fit")


def test_explore_n_zero_gives_rows(capsys):
    """No values means no frequency evidence: an empty freq_match, not an error."""
    code, out, _ = run(["explore", "order_one", "--grid", "s=0;j=2;m=1", "--n", "0"], capsys)
    assert code == 0
    [row] = csv.DictReader(io.StringIO(out))
    assert (row["valid"], row["dead_reason"], row["slow"], row["freq_match"]) == ("yes", "", "yes", "")


def test_explore_negative_n_survives_to_zero(capsys):
    """A negative --n evaluates nothing, so the point survives to 0, not to --n."""
    code, out, _ = run(["explore", "order_one", "--grid", "s=0;j=2;m=1", "--n", "-2"], capsys)
    assert code == 0
    [row] = csv.DictReader(io.StringIO(out))
    assert (row["valid"], row["survived_to"], row["dead_reason"], row["slow"]) == ("yes", "0", "", "yes")


def test_explore_positional_params(capsys):
    """Positional key=value parameters are fixed in every point; a key given twice is a usage error."""
    code, out, _ = run(["explore", "order_one", "s=1", "j=3", "m=1", "--n", "50"], capsys)
    assert code == 0
    assert out.splitlines() == ["family,s,j,m,valid,survived_to,dead_reason,slow,freq_match",
                                "order_one,1,3,1,yes,50,,yes,yes"]
    code, out, _ = run(["explore", "order_one", "s=1", "j=3", "--grid", "m=0..1", "--n", "50"], capsys)
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert [(row["s"], row["j"], row["m"], row["valid"]) for row in rows] == [("1", "3", "0", "yes"), ("1", "3", "1", "yes")]
    code, out, err = run(["explore", "order_one", "s=1", "j=3", "m=1", "--grid", "m=0..1", "--n", "50"], capsys)
    assert code == 2
    assert out == "" and "'m'" in err


CATALOG_KEYS = sorted({key for build in fam.NAMED_FAMILIES.values()
                       for key in inspect.signature(build).parameters})


@st.composite
def explore_points(draw):
    """A catalog name and a grid point: its constructor's own keys half the time, any keys otherwise."""
    name = draw(st.sampled_from(sorted(fam.NAMED_FAMILIES)))
    own = list(inspect.signature(fam.NAMED_FAMILIES[name]).parameters)
    keys = own if draw(st.booleans()) else draw(st.lists(st.sampled_from(CATALOG_KEYS), unique=True, max_size=4))
    return name, {key: draw(st.integers(-4, 7)) for key in keys}


@settings(max_examples=300, deadline=None)
@given(explore_points(), st.integers(-3, 120), st.booleans())
@example(("order_one", {"s": 0, "j": 2, "m": 1}), -2, False)
def test_explore_rows_never_raise(case, n_max, prune_check):
    """Every catalog name and every point, in range or not, at any n, gives exactly one row."""
    name, point = case
    rows = cli.explore_rows(name, [point], n_max, prune_check=prune_check)
    assert len(rows) == 1
    row = rows[0]
    assert row["family"] == name and all(row[key] == v for key, v in point.items())
    assert row["valid"] in ("yes", "exploratory", "candidate", "no")
    if row["valid"] == "yes":
        # a frequency is observed once some value is followed by a larger one
        spec = fam.tree_of(fam.NAMED_FAMILIES[name](**point))
        freq_match = "yes" if n_max > 0 and tree.cell_count(spec, n_max) > 1 else ""
        assert (row["dead_reason"], row["slow"], row["freq_match"]) == ("", "yes", freq_match)
        assert row["survived_to"] == max(n_max, 0)
        assert not prune_check or row["prune_identity"].startswith("yes(")


def tuple_freq_match(spec, steps):
    """_freq_match's value-by-value path, kept as its reference: phi from the steps against the closed form."""
    empirical = freq.from_steps(steps)
    if empirical.vmax < 1:
        return ""
    closed = freq.closed_form_sequence(spec, empirical.vmax)
    report = freq.compare(empirical, closed, empirical.vmax)
    return "yes" if report.agree else f"no(v={report.first_diff})"


def flip(steps, at):
    return steps[:at] + bytes([1 - steps[at]]) + steps[at + 1:]


def nth_one(steps, v):
    """The index of the v-th 1 byte, which ends the run of v."""
    at = -1
    for _ in range(v):
        at = steps.index(1, at + 1)
    return at


RUNNING = tree.TreeSpec(2, 1, 3, 1, 2, 2)
RUNNING_PERIOD = 3 * 2 ** 9  # P = j*k^h, the first at least 1024
RUNNING_STEPS = tree.cell_starts(RUNNING, 3 * 10 ** 4)[1:]


def one_label_short(steps):
    """The last complete run closes one label early: its closing 1 moves onto the 0 before it."""
    last = steps.rindex(1)
    return steps[:last - 1] + b"\1\0" + steps[last + 1:]


FREQ_MATCH_CASES = {
    "first run": (flip(RUNNING_STEPS, 0), "no(v=1)"),
    "block end": (flip(RUNNING_STEPS, nth_one(RUNNING_STEPS, RUNNING_PERIOD)), f"no(v={RUNNING_PERIOD})"),
    "last run one label short": (one_label_short(RUNNING_STEPS[:60]), "no(v=30)"),
    "zeros after the last 1": (RUNNING_STEPS[:RUNNING_STEPS.rindex(1) + 1] + bytes(40), "yes"),
    "the tree's own steps": (RUNNING_STEPS, "yes"),
    "no 1 byte": (bytes(7), ""),
    "no step": (b"", ""),
}


@pytest.mark.parametrize("where", FREQ_MATCH_CASES)
def test_freq_match_byte_compare_equals_the_tuple_path(where):
    steps, want = FREQ_MATCH_CASES[where]
    assert cli._freq_match(RUNNING, steps) == tuple_freq_match(RUNNING, steps) == want


@settings(max_examples=200, deadline=None)
@given(st.integers(2, 5), st.integers(0, 3), st.integers(1, 4), st.integers(1, 3), st.integers(1, 4),
       st.integers(0, 4), st.integers(0, 6000), st.data())
def test_freq_match_equals_the_tuple_path_on_perturbed_steps(k, s, j, c, last, x, n, data):
    """A tree's steps, cut at n and sometimes perturbed, give the same freq_match text both ways."""
    spec = tree.TreeSpec(k, s, j, c, last, x)
    steps = tree.cell_starts(spec, n + 1)[1:]
    change = data.draw(st.sampled_from(["none", "flip", "short", "zeros"]), label="change")
    if change == "flip" and steps:
        steps = flip(steps, data.draw(st.integers(0, len(steps) - 1), label="at"))
    elif change == "short" and b"\0\1" in steps:
        steps = one_label_short(steps[:steps.rindex(b"\0\1") + 2])
    elif change == "zeros":
        steps += bytes(data.draw(st.integers(1, 50), label="zeros"))
    assert cli._freq_match(spec, steps) == tuple_freq_match(spec, steps)


FORMATS = ["table", "csv", "json", "bfile", "xml"]


@pytest.fixture(scope="module")
def argv_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("argv")


JSON_VALUES = st.recursive(st.none() | st.booleans() | st.integers(-2, 6) | st.sampled_from(["", "x", "1"]),
                           lambda inner: st.lists(inner, max_size=3), max_leaves=6)


def disguised(value, scalar):
    """value with each integer in it passed through scalar."""
    return [disguised(item, scalar) for item in value] if isinstance(value, list) else scalar(value)


def wrong_type(values):
    """Any JSON value, or a draw of values with its integers turned into digit strings, floats or booleans."""
    return JSON_VALUES | st.builds(disguised, values, st.sampled_from((str, float, bool)))


@st.composite
def spec_document(draw):
    """Random JSON for --spec: a list, string or number one time in four, else a recursion
    or tree document in range, whose fields are each of the wrong type one time in four
    and missing one in ten, and which rarely has an extra field.

    Integers stay small: a tree with huge label counts builds byte templates that size.
    """
    sometimes = st.sampled_from([False] * 3 + [True])
    rarely = st.sampled_from([False] * 9 + [True])
    if draw(sometimes):
        return draw(JSON_VALUES)
    if draw(st.booleans()):
        arity, order = draw(st.integers(1, 3)), draw(st.integers(1, 3))
        fields = {"arity": st.just(arity), "order": st.just(order),
                  "a": st.lists(st.integers(0, 4), min_size=arity, max_size=arity),
                  "b": st.lists(st.lists(st.integers(1, 5), min_size=order, max_size=order),
                                min_size=arity, max_size=arity),
                  "ic": st.lists(st.integers(1, 5), min_size=1, max_size=6)}
    else:
        fields = {"k": st.integers(2, 4), "s": st.integers(0, 3), "j": st.integers(1, 3),
                  "per_cell": st.integers(1, 3), "last_cell": st.integers(1, 3), "regular": st.integers(0, 3)}
    doc = {key: draw(wrong_type(values) if draw(sometimes) else values) for key, values in fields.items() if not draw(rarely)}
    if draw(rarely):
        doc["extra"] = draw(JSON_VALUES)
    return doc


@st.composite
def random_argv(draw, out_dir):
    """A subcommand, a catalog name or an unknown one, key=value tokens and options.

    Each subcommand's own options appear three times in four, required ones
    included; an option of another subcommand, rarely.  The four subcommands
    that read --spec get one three times in four, a file of random JSON, and
    then a family name only rarely.
    """
    keys = st.sampled_from(CATALOG_KEYS + ["x"])
    values = {
        "--n": st.integers(-3, 200).map(str),
        "--format": st.sampled_from(FORMATS),
        "--out": st.just(str(out_dir / "out.txt")),
        "--vmax": st.integers(-3, 60).map(str),
        "--empirical": st.integers(-3, 300).map(str),
        "--sparse": st.integers(-2, 5).map(str),
        "--check": st.integers(-2, 5).map(str),
        "--seed": st.integers(0, 99).map(str),
        "--grid": st.lists(st.builds("{}={}".format, keys, st.sampled_from(["0", "-1..2", "1,3", "a", ""])),
                           max_size=3).map(";".join),
        "--stripped": st.just(str(out_dir / "missing-snapshot")),
        "--trace": st.none(),
        "--prune-check": st.none(),
    }
    own = {
        "eval": ["--n", "--format", "--out"],
        "tree": ["--n", "--format", "--out"],
        "ic": ["--n", "--format", "--out"],
        "freq": ["--vmax", "--empirical", "--format", "--out"],
        "verify": ["--n", "--sparse", "--seed"],
        "prune": ["--n", "--check", "--seed", "--trace"],
        "explore": ["--grid", "--n", "--prune-check", "--out"],
        "oeis-match": ["--n", "--stripped"],
    }
    usually = st.sampled_from([True] * 3 + [False])
    rarely = st.sampled_from([False] * 9 + [True])
    command = draw(st.sampled_from(sorted(own)))
    argv = [command]
    spec = command in ("eval", "tree", "freq", "oeis-match") and draw(usually)
    if draw(rarely if spec else usually):
        name = draw(st.sampled_from(sorted(fam.NAMED_FAMILIES)))
        own_keys = list(inspect.signature(fam.NAMED_FAMILIES[name]).parameters)
        point_keys = own_keys if draw(usually) else draw(st.lists(keys, unique=True, max_size=4))
        small = st.integers(0, 4) if draw(usually) else st.integers(-4, 7)
        argv.append("no_such_family" if draw(rarely) else name)
        argv += [f"{key}={draw(small)}" for key in point_keys]
    if draw(rarely):
        argv.append(draw(st.builds("{}={}".format, keys, st.sampled_from(["1", "", "a", "1.5"])) | st.just("junk")))
    options = [option for option in own[command] if draw(usually)]
    if draw(rarely):
        options.append(draw(st.sampled_from(sorted(values))))
    for option in options:
        value = draw(values[option])
        argv += [option] if value is None else [option, value]
    if spec:
        doc = draw(spec_document())
        note(f"--spec document: {json.dumps(doc)}")
        argv += ["--spec", write_spec(out_dir, doc)]
    return argv


@settings(max_examples=400, deadline=None)
@given(st.data())
def test_main_never_raises_on_random_argv(argv_dir, data):
    """Any argv gives exit code 0, 1 or 2, or argparse's own exit 2; never a traceback."""
    argv = data.draw(random_argv(argv_dir))
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = cli.main(argv)
        except SystemExit as exit_:
            assert exit_.code == 2, argv
            return
    assert code in (0, 1, 2), argv


def main_output(argv):
    """Exit code, stdout and stderr of one in-process main call; argparse's usage exit gives its code."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exit_:
            code = exit_.code
    return code, out.getvalue(), err.getvalue()


def test_one_parser_per_process_answers_as_fresh_ones():
    """main builds its parser once; a usage error leaves nothing in it that changes the next command's output."""
    commands = [["verify", "order_one", "s=1", "--n"], ["verify", "order_one", "s=1", "j=3", "m=1", "--n", "500"]]
    fresh = []
    for argv in commands:
        cli.build_parser.cache_clear()
        fresh.append(main_output(argv))
    reused = [main_output(argv) for argv in commands]
    assert cli.build_parser.cache_info()[:2] == (2, 1)  # hits, misses: both reused calls shared one parser
    assert reused == fresh
    assert [code for code, _, _ in fresh] == [2, 0]
    assert fresh[0][2].startswith("usage: nestrec verify") and fresh[1][1].startswith("AGREE")
