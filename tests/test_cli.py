import json
import subprocess
import sys

import pytest

from skelpot.cli import main

from conftest import subprocess_env

UNIT_EDGE = {
    "vertices": ["a", "b"],
    "edges": [{"id": "e", "u": "a", "v": "b", "len": "1"}],
    "boundary": ["a", "b"],
}

PATH3 = {
    "vertices": ["a", "b", "c"],
    "edges": [{"id": "e0", "u": "a", "v": "b", "len": "1"},
              {"id": "e1", "u": "b", "v": "c", "len": "1"}],
    "boundary": ["a", "c"],
}


def write_json(tmp_path, name, obj):
    p = tmp_path / name
    p.write_text(json.dumps(obj))
    return str(p)


def affine_function(tmp_path, name="f.json"):
    return write_json(tmp_path, name, {
        "graph": UNIT_EDGE,
        "profiles": {"e": [["0", "0"], ["1", "1"]]},
    })


def tent_function(tmp_path, sign="1", name="tent.json"):
    return write_json(tmp_path, name, {
        "graph": UNIT_EDGE,
        "profiles": {"e": [["0", "0"], ["1/2", sign], ["1", "0"]]},
    })


# ---------------------------------------------------------------------------
# ddc
# ---------------------------------------------------------------------------

def test_ddc_affine_edge(tmp_path, capsys):
    rc = main(["ddc", affine_function(tmp_path)])
    out = capsys.readouterr().out
    assert rc == 0
    masses = {json.dumps(e["at"], sort_keys=True): e["mass"]
              for e in json.loads(out)}
    assert masses == {'{"vertex": "a"}': "1", '{"vertex": "b"}': "-1"}


def test_ddc_output_reparses_as_measure(tmp_path, capsys):
    from skelpot import DiscreteMeasure
    main(["ddc", tent_function(tmp_path)])
    out = capsys.readouterr().out
    mu = DiscreteMeasure.from_json_list(json.loads(out))
    assert mu.total_mass() == 0
    assert mu.total_variation() == 8


# ---------------------------------------------------------------------------
# green / harmonic
# ---------------------------------------------------------------------------

def test_green_vertex_pole(tmp_path, capsys):
    g = write_json(tmp_path, "g.json", PATH3)
    rc = main(["green", "--graph", g, "--point", "b"])
    out = json.loads(capsys.readouterr().out)
    assert rc == 0
    assert out["pole"] == {"vertex": "b"}
    from skelpot import PAFunction
    gf = PAFunction.from_json_dict(out["function"])
    assert gf.vertex_value("b") == 0.5
    masses = {json.dumps(e["at"], sort_keys=True): e["mass"]
              for e in out["boundary_masses"]}
    assert masses == {'{"vertex": "a"}': "1/2", '{"vertex": "c"}': "1/2"}


def test_green_edge_point_pole(tmp_path, capsys):
    g = write_json(tmp_path, "g.json", UNIT_EDGE)
    rc = main(["green", "--graph", g, "--point", "e:1/4"])
    out = json.loads(capsys.readouterr().out)
    assert rc == 0
    from fractions import Fraction
    from skelpot import EdgePoint, PAFunction
    gf = PAFunction.from_json_dict(out["function"])
    assert gf.eval(EdgePoint("e", Fraction(1, 4))) == Fraction(3, 16)


def test_green_boundary_pole_is_input_error(tmp_path, capsys):
    g = write_json(tmp_path, "g.json", PATH3)
    rc = main(["green", "--graph", g, "--point", "a"])
    assert rc == 2
    assert "error:" in capsys.readouterr().err


def test_harmonic_star_mean(tmp_path, capsys):
    star = {
        "vertices": ["c", "l0", "l1", "l2"],
        "edges": [{"id": f"a{i}", "u": "c", "v": f"l{i}", "len": "1"}
                  for i in range(3)],
        "boundary": ["l0", "l1", "l2"],
    }
    g = write_json(tmp_path, "g.json", star)
    vals = write_json(tmp_path, "vals.json",
                      {"l0": "1", "l1": "5", "l2": "0"})
    rc = main(["harmonic", "--graph", g, "--values", vals])
    out = json.loads(capsys.readouterr().out)
    assert rc == 0
    from skelpot import PAFunction
    h = PAFunction.from_json_dict(out)
    assert h.vertex_value("c") == 2  # (1 + 5 + 0) / 3


# ---------------------------------------------------------------------------
# subharmonic
# ---------------------------------------------------------------------------

def test_subharmonic_tent_both_methods_agree(tmp_path, capsys):
    # Concave tent: not subharmonic; both oracles must say so with a
    # witness at the peak.
    rc = main(["subharmonic", tent_function(tmp_path), "--method", "both"])
    out = json.loads(capsys.readouterr().out)
    assert rc == 1
    assert out["subharmonic"] is False
    assert out["slope"]["subharmonic"] is False
    assert out["green"]["subharmonic"] is False
    slope_at = out["slope"]["witnesses"][0]["at"]
    green_at = out["green"]["witnesses"][0]["pole"]
    assert slope_at == green_at == {"edge": "e", "offset": "1/2"}


def test_subharmonic_valley_passes(tmp_path, capsys):
    rc = main(["subharmonic", tent_function(tmp_path, sign="-1"),
               "--method", "both"])
    out = json.loads(capsys.readouterr().out)
    assert rc == 0
    assert out["subharmonic"] is True
    assert out["slope"]["witnesses"] == []


# ---------------------------------------------------------------------------
# regularize
# ---------------------------------------------------------------------------

def test_regularize_csv_and_patches(tmp_path, capsys):
    f = tent_function(tmp_path, sign="-1")
    patches = tmp_path / "patches.json"
    rc = main(["regularize", f, "--k", "3", "--samples", "8",
               "--patches", str(patches)])
    out = capsys.readouterr().out
    assert rc == 0
    lines = out.strip().splitlines()
    assert lines[0] == "k,edge,offset,f_k,f,f_k_minus_f"
    # The peak at 1/2 becomes a vertex, so the working graph has 2 edges.
    assert len(lines) == 1 + 3 * 2 * 9
    # differences stay within 1.25 * eps_k of the target
    dump = json.loads(patches.read_text())
    assert len(dump["epsilons"]) == 3
    assert len(dump["patches"]) == 1
    assert dump["patches"][0]["mass"] == "4"
    from fractions import Fraction
    eps = [Fraction(e) for e in dump["epsilons"]]
    for row in lines[1:]:
        k, _edge, _off, _fk, _fv, diff = row.split(",")
        assert abs(float(diff)) <= 1.25 * float(eps[int(k)]) + 1e-12


def test_regularize_rejects_non_subharmonic(tmp_path, capsys):
    rc = main(["regularize", tent_function(tmp_path), "--k", "2"])
    assert rc == 2
    assert "error:" in capsys.readouterr().err


def test_regularize_unwritable_patches_is_exit_2(tmp_path, capsys):
    target = tmp_path / "missing" / "p.json"
    rc = main(["regularize", tent_function(tmp_path, sign="-1"),
               "--patches", str(target)])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    assert str(target) in captured.err


@pytest.mark.parametrize("flag, value", [("--samples", "0"), ("--k", "0"),
                                         ("--k", "-1")])
def test_regularize_counts_below_one_are_usage_errors(tmp_path, capsys,
                                                      flag, value):
    f = tent_function(tmp_path, sign="-1")
    with pytest.raises(SystemExit) as exc:
        main(["regularize", f, flag, value])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "usage:" in captured.err and ">= 1" in captured.err


# ---------------------------------------------------------------------------
# rationalize
# ---------------------------------------------------------------------------

def test_rationalize_exit_codes(tmp_path, capsys):
    f = write_json(tmp_path, "f.json", {
        "graph": PATH3,
        "profiles": {"e0": [["0", "0"], ["1", "1"]],
                     "e1": [["0", "1"], ["1", "0"]]},
    })
    g_good = write_json(tmp_path, "g.json", {
        "graph": PATH3,
        "profiles": {"e0": [["0", "0"], ["1", "0.4999999"]],
                     "e1": [["0", "0.4999999"], ["1", "0"]]},
    })
    rc = main(["rationalize", "--f", f, "--g", g_good, "--tol", "1/1000"])
    out = json.loads(capsys.readouterr().out)
    assert rc == 0
    assert out["ok"] is True
    assert out["pairing"] == "-1"

    # Valley f: pairing is positive, verdict negative -> exit 1.
    f_bad = write_json(tmp_path, "fbad.json", {
        "graph": PATH3,
        "profiles": {"e0": [["0", "0"], ["1", "-1"]],
                     "e1": [["0", "-1"], ["1", "0"]]},
    })
    rc = main(["rationalize", "--f", f_bad, "--g", g_good, "--tol", "1/1000"])
    out = json.loads(capsys.readouterr().out)
    assert rc == 1
    assert out["ok"] is False


# ---------------------------------------------------------------------------
# superform
# ---------------------------------------------------------------------------

def test_superform_dprime(capsys):
    rc = main(["superform", "x1^2", "--op", "dprime"])
    out = capsys.readouterr().out.strip()
    assert rc == 0
    assert out == "(2*x1) d'x1"


def test_superform_wedge_and_roundtrip(capsys):
    rc = main(["superform", "d'x1 ^ d''x1", "--op", "wedge",
               "--with", "d'x2 ^ d''x2"])
    out = capsys.readouterr().out.strip()
    assert rc == 0
    from skelpot.superforms import parse_form
    got = parse_form(out, 2)
    assert got == parse_form("d'x1 ^ d'x2 ^ d''x1 ^ d''x2", 2).scale(-1)


def test_superform_positivity_verdicts(capsys):
    rc = main(["superform", "x1^2 + x2^2", "--op", "positivity"])
    assert rc == 0
    assert capsys.readouterr().out.splitlines()[0] == "positive"
    rc = main(["superform", "x1^2 - x2^2", "--op", "positivity"])
    assert rc == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "not positive"
    assert any(line.startswith("violation at") for line in lines[1:])


def test_superform_parse_error(capsys):
    rc = main(["superform", "d'x", "--op", "dprime"])
    assert rc == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["x1 d'x9", "--op", "dprime", "--r", "2"],          # index out of range
    ["d'x1 + d''x1", "--op", "dprime"],                  # mixed bidegrees
    ["d'x1", "--op", "wedge", "--with", "d''x1 + d'x2"],
])
def test_superform_bidegree_error_is_exit_2(capsys, argv):
    rc = main(["superform", *argv])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    assert "error:" in captured.err


# ---------------------------------------------------------------------------
# input errors
# ---------------------------------------------------------------------------

def test_missing_file_is_exit_2(capsys):
    rc = main(["ddc", "/nonexistent/path.json"])
    assert rc == 2
    assert "error:" in capsys.readouterr().err


def test_malformed_json_reports_location(tmp_path, capsys):
    p = tmp_path / "bad.json"
    p.write_text('{"graph": \n  nope}')
    rc = main(["ddc", str(p)])
    err = capsys.readouterr().err
    assert rc == 2
    assert "line 2" in err and "column" in err


def test_invalid_graph_is_exit_2(tmp_path, capsys):
    p = tmp_path / "bad.json"
    p.write_text(json.dumps({
        "graph": {"vertices": ["a"], "edges": [
            {"id": "e", "u": "a", "v": "zz", "len": "1"}],
            "boundary": ["a"]},
        "profiles": {"e": [["0", "0"], ["1", "0"]]},
    }))
    rc = main(["ddc", str(p)])
    assert rc == 2


# ---------------------------------------------------------------------------
# selftest determinism (subprocess: the report must be byte-identical)
# ---------------------------------------------------------------------------

def _run_selftest(seed_args=(), env_extra=None):
    env = subprocess_env()
    env.pop("SKELPOT_SEED", None)
    if env_extra:
        env.update(env_extra)
    return subprocess.run(
        [sys.executable, "-m", "skelpot.cli", "selftest", *seed_args],
        capture_output=True, text=True, env=env)


def test_selftest_deterministic_and_passing():
    r1 = _run_selftest(["--seed", "42"])
    r2 = _run_selftest(["--seed", "42"])
    assert r1.returncode == 0
    assert r1.stdout == r2.stdout
    assert "result: PASS (9/9)" in r1.stdout
    assert "--seed 42" in r1.stdout


def test_selftest_env_seed_override():
    r_flag = _run_selftest(["--seed", "7"])
    r_env = _run_selftest(["--seed", "123"], env_extra={"SKELPOT_SEED": "7"})
    assert r_env.returncode == 0
    assert r_env.stdout == r_flag.stdout
