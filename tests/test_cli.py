from __future__ import annotations

import contextlib
import csv
import inspect
import io
import json

import pytest
from hypothesis import given, settings, strategies as st

from nestrec import cli
from nestrec import families as fam


def run(argv, capsys):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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


def test_verify_agreement(capsys):
    code, out, _ = run(["verify", "order_one", "s=1", "j=3", "m=1", "--n", "10000"], capsys)
    assert code == 0
    assert "AGREE" in out


def test_verify_dense_reports_first_divergence(capsys, monkeypatch):
    from nestrec import families as fam
    from nestrec import tree

    real = tree.cell_count_sequence
    monkeypatch.setattr(tree, "cell_count_sequence",
                        lambda spec, n: [c + (i > 700) for i, c in enumerate(real(spec, n), 1)])
    r = real(fam.tree_of(fam.conolly()), 701)[-1]
    code, out, _ = run(["verify", "conolly", "--n", "800"], capsys)
    assert code == 1
    assert out == f"DIVERGE at n = 701: recursion {r}, tree {r + 1}\n"


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


def test_freq_csv_header(capsys):
    code, out, _ = run(["freq", "order_one", "s=1", "j=3", "m=1", "--vmax", "6"], capsys)
    assert code == 0
    assert out.splitlines()[0] == "v,phi"
    assert out.splitlines()[1] == "1,1"
    assert "6,5" in out


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


def test_prune_check_prints_seed(capsys):
    code, out, err = run(["prune", "order_one", "s=0", "j=2", "m=1", "--n", "200",
                          "--check", "5", "--seed", "7"], capsys)
    assert code == 0
    assert "seed = 7" in err
    assert out.count("identity ok") == 5


def test_exit_code_2_on_bad_params(capsys):
    code, _, err = run(["eval", "order_one", "s=1", "--n", "10"], capsys)
    assert code == 2
    assert "error" in err
    code, _, err = run(["eval", "order_one", "s=x", "--n", "10"], capsys)
    assert code == 2
    code, _, err = run(["eval", "no_such", "--n", "10"], capsys)
    assert code == 2


def test_spec_file_round_trip(tmp_path, capsys):
    from nestrec import families as fam
    from nestrec import recursion

    f = fam.conolly()
    doc = recursion.to_document(fam.recursion_of(f), fam.standard_ics(f))
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(doc))
    code, out, _ = run(["eval", "--spec", str(path), "--n", "8", "--format", "json"], capsys)
    assert code == 0
    assert json.loads(out) == [1, 2, 2, 3, 4, 4, 4, 5]


def test_export_is_byte_deterministic(tmp_path, capsys):
    a = tmp_path / "a.txt"
    b = tmp_path / "b.txt"
    for target in (a, b):
        code = cli.main(["export", "conolly", "--n", "64", "--out", str(target)])
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


def test_grid_parser():
    grid = cli.parse_grid("s=0,1;j=1..3;m=-2..2")
    assert grid == {"s": [0, 1], "j": [1, 2, 3], "m": [-2, -1, 0, 1, 2]}
    with pytest.raises(cli.UsageError):
        cli.parse_grid("j=a..b")
    with pytest.raises(cli.UsageError):
        cli.parse_grid("nonsense")


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
@given(explore_points(), st.booleans())
def test_explore_rows_never_raise(case, prune_check):
    """Every catalog name and every point, in range or not, gives exactly one row."""
    name, point = case
    rows = cli.explore_rows(name, [point], 120, prune_check=prune_check)
    assert len(rows) == 1
    row = rows[0]
    assert row["family"] == name and all(row[key] == v for key, v in point.items())
    assert row["valid"] in ("yes", "exploratory", "candidate", "no")
    if row["valid"] == "yes":
        assert (row["survived_to"], row["dead_reason"], row["slow"], row["freq_match"]) == (120, "", "yes", "yes")
        assert not prune_check or row["prune_identity"].startswith("yes(")


FORMATS = ["table", "csv", "json", "bfile", "xml"]


@pytest.fixture(scope="module")
def argv_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("argv")


@st.composite
def random_argv(draw, out_dir):
    """A subcommand, a catalog name or an unknown one, key=value tokens and options.

    Each subcommand's own options appear three times in four, required ones
    included; an option of another subcommand, rarely.
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
        "export": ["--n", "--format", "--out"],
        "oeis-match": ["--n", "--stripped"],
    }
    usually = st.sampled_from([True] * 3 + [False])
    rarely = st.sampled_from([False] * 9 + [True])
    command = draw(st.sampled_from(sorted(own)))
    argv = [command]
    if draw(usually):
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
