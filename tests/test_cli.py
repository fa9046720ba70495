"""The command-line front end: dispatch, exit codes, JSON round trips."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import fglforge
from fglforge import adams, cli, hopf
from fglforge.cli import (
    EXIT_BROKEN_PIPE,
    MAX_GRADED_PRECISION,
    MAX_K,
    fgl_from_spec,
    ring_from_spec,
    run_command,
    series_from_spec,
)
from fglforge.errors import RingMismatch
from fglforge.gradedpoly import lazard_base_ring
from fglforge.iojson import (
    fgl_from_json,
    fgl_to_json,
    ring_from_json,
    series1_from_json,
    series1_to_json,
    tower_from_json,
    twisted_from_json,
    twisted_to_json,
)
from fglforge.rings import (
    Integers,
    IntegersMod,
    LaurentExtension,
    PLocalIntegers,
    Rationals,
    quotient_by_element,
)
from fglforge.series import TruncatedSeries1, TruncatedSeries2

Z = Integers()


def run(capsys, *argv):
    code = run_command(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def result_of(out):
    envelope = json.loads(out)
    assert envelope["tool"] == "fgl-forge"
    return envelope["result"]


def test_ring_specs():
    assert ring_from_spec("Z") == Z
    assert ring_from_spec("Q") == Rationals()
    assert ring_from_spec("Z/8") == IntegersMod(8)
    assert ring_from_spec("F5") == IntegersMod(5)
    assert ring_from_spec("Z_(7)") == PLocalIntegers(7)
    assert ring_from_spec("Z[beta]") == LaurentExtension(Z, "beta", 1)
    assert ring_from_spec("Q[u]") == LaurentExtension(Rationals(), "u", 1)
    with pytest.raises(ValueError):
        ring_from_spec("GF(4)")


def test_fgl_specs():
    law = fgl_from_spec("multiplicative", 6)
    assert law.name == "multiplicative"
    law = fgl_from_spec("additive-over-Q", 6)
    assert law.ring == Rationals()
    with pytest.raises(ValueError):
        fgl_from_spec("nonexistent", 6)


def test_pseries_command(capsys):
    code, out, _ = run(
        capsys, "fgl", "pseries", "--name", "multiplicative", "--k", "2", "--precision", "8"
    )
    assert code == 0
    result = result_of(out)
    assert result["text"] == "2*x - beta*x^2"
    series = series1_from_json(result["series"])
    assert series.precision == 8


def test_axioms_command_exit_codes(capsys, tmp_path):
    code, out, _ = run(capsys, "fgl", "axioms", "--name", "additive-over-Z")
    assert code == 0 and result_of(out)["passed"]
    # a corrupted law: x + y + x^2 breaks unitality; loading reports the failure
    bad = {
        "ring": {"kind": "integers"},
        "precision": 5,
        "coefficients": [{"i": 2, "j": 2, "value": "1"}],
    }
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(bad))
    code, out, err = run(capsys, "fgl", "axioms", "--fgl", str(path))
    assert code in (1, 2)


def test_landweber_command(capsys):
    code, out, _ = run(
        capsys,
        "landweber",
        "check",
        "--fgl",
        "additive-over-Z",
        "--primes",
        "2",
        "--max-height",
        "2",
        "--precision",
        "4",
    )
    assert code == 1
    result = result_of(out)
    assert not result["exact"]
    assert result["per_prime"][0]["failed_stage"] == 1
    assert result["per_prime"][0]["witness"] == "1"

    code, out, _ = run(
        capsys,
        "landweber",
        "check",
        "--fgl",
        "multiplicative",
        "--primes",
        "2,3,5,7",
        "--max-height",
        "2",
        "--precision",
        "10",
    )
    assert code == 0
    result = result_of(out)
    assert result["exact"]
    assert [v["height"] for v in result["per_prime"]] == [1, 1, 1, 1]


def test_landweber_text_format(capsys):
    code, out, _ = run(
        capsys,
        "landweber",
        "check",
        "--fgl",
        "multiplicative",
        "--primes",
        "2",
        "--format",
        "text",
    )
    assert code == 0
    assert "exact in scope" in out
    assert "quotient_zero" in out


def test_landweber_cyclic_module(capsys):
    code, out, _ = run(
        capsys,
        "landweber",
        "check",
        "--fgl",
        "multiplicative",
        "--module",
        "2",
        "--primes",
        "2",
    )
    assert code == 1


def test_ops_compose_geometric(capsys):
    code, out, _ = run(
        capsys, "ops", "compose", "--lhs", "geom(-2)", "--rhs", "geom(-3)", "--precision", "16"
    )
    assert code == 0
    result = result_of(out)
    assert result["geometric"] == -6
    series = series1_from_json(result["series"])
    assert series == series_from_spec("geom(-6)", 16)


def test_ops_adams_and_idempotent(capsys):
    code, out, _ = run(capsys, "ops", "adams", "--k", "2", "--model", "sequence", "--window=-3:3")
    assert code == 0
    result = result_of(out)
    assert result["model"] == "sequence"
    assert result["terms"][0]["sequence"]["values"] == ["1/8", "1/4", "1/2", "1", "2", "4", "8"]

    code, out, _ = run(capsys, "ops", "adams", "--k", "2", "--model", "tower", "--depth", "2", "--precision", "6")
    assert code == 0
    result = result_of(out)
    assert result["terms"][0]["tower"]["depth"] == 2

    code, out, _ = run(capsys, "ops", "idempotent", "--n", "0", "--window=-2:2")
    assert code == 0
    result = result_of(out)
    assert result["terms"][0]["sequence"]["values"] == ["0", "0", "1", "0", "0"]


def test_ops_iso_round_trip(capsys, tmp_path):
    code, out, _ = run(capsys, "ops", "adams", "--k", "2", "--model", "tower", "--depth", "3", "--precision", "8")
    tower_json = json.dumps(json.loads(out)["result"])
    path = tmp_path / "psi2.json"
    path.write_text(tower_json)
    code, out, _ = run(capsys, "ops", "iso", "--input", str(path), "--direction", "mult2add")
    assert code == 0
    seq_result = result_of(out)
    assert seq_result["model"] == "sequence"
    assert seq_result["terms"][0]["sequence"]["window"] == [-3, 8]
    path2 = tmp_path / "psi2seq.json"
    path2.write_text(json.dumps(seq_result))
    code, out, _ = run(capsys, "ops", "iso", "--input", str(path2), "--direction", "add2mult")
    assert code == 0
    back = twisted_from_json(result_of(out))
    assert back == twisted_from_json(json.loads(tower_json))


def test_lazard_commands(capsys):
    code, out, _ = run(capsys, "lazard", "hq", "--max-degree", "4")
    assert code == 0
    result = result_of(out)
    assert [d["dimension"] for d in result["degrees"]] == [1, 2, 3, 5]

    code, out, _ = run(capsys, "lazard", "hopf", "--flavor", "groupoid", "--objects", "3")
    assert code == 0 and result_of(out)["passed"]

    code, out, _ = run(capsys, "lazard", "hopf", "--degree", "3")
    result = result_of(out)
    assert code == 0 and result["algebroid"]["flavor"] == "lazard_lb_rational"
    assert result["algebroid"]["gamma_basis_by_degree"]["2"] == ["b1^2", "b2"]


def test_input_errors_exit_2(capsys, tmp_path):
    code, _, err = run(capsys, "landweber", "check", "--fgl", "unknown-law")
    assert code == 2 and "error:" in err
    # --fgl and --name are one option, which every fgl subcommand requires
    for argv in (["pseries", "--k", "2"], ["axioms"], ["log"], ["classify", "--precision", "4"]):
        code, out, err = run(capsys, "fgl", *argv)
        assert code == 2 and "--fgl/--name" in err and not out, argv
    code, _, err = run(capsys, "fgl", "pseries", "--name", "additive", "--k", "2", "--precision", "900")
    assert code == 2
    code, _, err = run(capsys, "landweber", "check", "--fgl", "additive", "--primes", "101")
    assert code == 2
    code, _, err = run(capsys, "ops", "compose", "--lhs", "nope", "--rhs", "geom(1)")
    assert code == 2
    code, out, err = run(capsys, "ops", "adams", "--k", "2", "--window=5:-5")
    assert code == 2 and "error:" in err and not out
    # a window's output grows with the square of its width, so its bounds are capped
    for argv in (
        ["ops", "adams", "--k", "5", "--model", "sequence", "--window=-1000:1000"],
        ["ops", "idempotent", "--n", "0", "--window=-1000:1000"],
    ):
        code, out, err = run(capsys, *argv)
        assert code == 2 and "error:" in err and not out, argv
    code, out, err = run(capsys, "landweber", "check", "--fgl", "multiplicative", "--primes", "")
    assert code == 2 and "error:" in err and not out
    code, out, err = run(capsys, "landweber", "check", "--fgl", "multiplicative", "--primes", "2,2")
    assert code == 2 and "repeated prime" in err and not out
    code, out, err = run(capsys, "lazard", "hopf", "--degree", "11")
    assert code == 2 and "error:" in err and not out
    # an expression is refused by its weight before it is evaluated
    code, out, err = run(
        capsys, "landweber", "check", "--fgl", "multiplicative", "--module", "(1+2*beta)^4000", "--primes", "2"
    )
    assert code == 2 and "weight 4000 above 64" in err and not out
    # files obey the precision and depth caps of the flags
    files = {
        "law.json": {"ring": {"kind": "integers"}, "precision": 70, "coefficients": []},
        "series.json": {"ring": {"kind": "integers"}, "precision": 70, "coeffs": ["1", "-1"]},
        "tower.json": {"model": "tower", "terms": [{"beta": 0, "tower": {
            "ring": {"kind": "rationals"}, "precision": 70, "depth": 20, "levels": [[]] * 20 + [["1"]],
        }}]},
        "sequence.json": {"model": "sequence", "terms": [{"beta": 0, "sequence": {
            "window": [-20, 8], "values": ["1"] * 29,
        }}]},
        # JSON values of the wrong type are input errors, not tracebacks or misreadings
        "law-ring-string.json": {"ring": "Z", "precision": 4, "coefficients": []},
        "law-coefficients-object.json": {
            "ring": {"kind": "integers"}, "precision": 4, "coefficients": {"i": 1},
        },
        "law-list.json": [1, 2],
        "tower-string.json": {"model": "tower", "terms": [{"beta": 0, "tower": "x"}]},
        "series-coeffs-string.json": {"ring": {"kind": "integers"}, "precision": 4, "coeffs": "12"},
    }
    # the multiplicative law needs its Bott variable in degree 1
    ring = {"kind": "laurent", "base": {"kind": "integers"}, "variable": "beta", "degree": 2}
    (tmp_path / "ring.json").write_text(json.dumps(ring))
    code, out, err = run(
        capsys, "fgl", "pseries", "--fgl", f"multiplicative-over-{tmp_path / 'ring.json'}", "--k", "2"
    )
    assert code == 2 and "degree 1, not 2" in err and "axioms" not in err and not out
    for name, data in files.items():
        (tmp_path / name).write_text(json.dumps(data))
    law, series, tower, sequence, *mistyped = (str(tmp_path / name) for name in files)
    for argv in (
        ["fgl", "axioms", "--fgl", law],
        ["ops", "compose", "--lhs", series, "--rhs", series],
        ["ops", "iso", "--input", tower, "--direction", "mult2add"],
        ["ops", "iso", "--input", sequence, "--direction", "add2mult", "--depth", "20"],
        *(["fgl", "axioms", "--fgl", path] for path in mistyped[:3]),
        ["ops", "iso", "--input", mistyped[3], "--direction", "mult2add"],
        ["ops", "compose", "--lhs", mistyped[4], "--rhs", mistyped[4]],
    ):
        code, out, err = run(capsys, *argv)
        assert code == 2 and "error:" in err and not out, argv


def test_deep_expressions_exit_2_and_long_chains_run(capsys):
    # parentheses and unary minus nest at most 64 deep, and a chain of any
    # length evaluates
    for module in ("(" * 2000 + "1" + ")" * 2000, "-" * 3000 + "1"):
        code, out, err = run(
            capsys, "landweber", "check", "--fgl", "multiplicative", f"--module={module}", "--primes", "7"
        )
        assert code == 2 and "nested deeper than 64" in err and not out
    for module in ("+".join(["1"] * 3000), "*".join(["1"] * 3000)):
        code, out, err = run(
            capsys, "landweber", "check", "--fgl", "multiplicative", "--module", module, "--primes", "7"
        )
        assert code == 0 and not err and result_of(out)["exact"]


def test_file_caps_are_checked_before_anything_is_built(capsys, tmp_path, monkeypatch):
    # a file past a cap is refused from its parsed JSON: built first, a law,
    # series or tower costs time and memory in proportion to its declared
    # precision, and a tower one series for each of its levels
    built = []
    for cls in (TruncatedSeries1, TruncatedSeries2):
        def record(self, *args, _init=cls.__init__, **kwargs):
            _init(self, *args, **kwargs)
            built.append(self.precision)

        monkeypatch.setattr(cls, "__init__", record)

    def tower(precision, levels):
        return {"model": "tower", "terms": [{"beta": 0, "tower": {
            "ring": {"kind": "integers"}, "precision": precision, "depth": len(levels) - 1,
            "levels": levels,
        }}]}

    files = {
        "law.json": {"ring": {"kind": "integers"}, "precision": 65, "coefficients": []},
        "series.json": {"ring": {"kind": "integers"}, "precision": 65, "coeffs": ["1", "-1"]},
        "tower.json": tower(65, [["1"], ["1"]]),
        "deep.json": tower(8, [["1"]] * 18),
        "unit.json": tower(8, [["1"] * 9] * 3),
    }
    for name, data in files.items():
        (tmp_path / name).write_text(json.dumps(data))
    law, series, high, deep, unit = (str(tmp_path / name) for name in files)
    for argv in (
        ["fgl", "axioms", "--fgl", law],
        ["ops", "compose", "--lhs", series, "--rhs", "geom(1)", "--precision", "8"],
        ["ops", "compose", "--lhs", "geom(1)", "--rhs", series, "--precision", "8"],
        ["ops", "iso", "--input", high, "--direction", "mult2add"],
        ["ops", "iso", "--input", deep, "--direction", "mult2add"],
    ):
        built.clear()
        code, out, err = run(capsys, *argv)
        assert code == 2 and "error:" in err and not out, argv
        assert all(precision <= 64 for precision in built), (argv, built)
        if "iso" in argv:
            assert built == [], argv
    # the wrappers see what a file within the caps builds: the (1-x)^-1 tower
    built.clear()
    code, out, _ = run(capsys, "ops", "iso", "--input", unit, "--direction", "mult2add")
    assert code == 0 and built == [8, 8, 8]
    assert result_of(out)["terms"][0]["sequence"]["values"] == ["1"] * 11


def test_a_tower_over_another_ring_is_refused_when_loaded(capsys, tmp_path):
    # towers live over Z, Q and Z_(p); one over Z/5 is refused as the file is
    # read, even at depth 0, where no relation is checked
    data = {"model": "tower", "terms": [{"beta": 0, "tower": {
        "ring": {"kind": "integers_mod", "modulus": 5}, "precision": 4, "depth": 0,
        "levels": [["1"] * 5],
    }}]}
    with pytest.raises(RingMismatch, match="Z, Q or Z_\\(p\\)"):
        twisted_from_json(data)
    path = tmp_path / "tower-mod-5.json"
    path.write_text(json.dumps(data))
    code, out, err = run(capsys, "ops", "iso", "--input", str(path), "--direction", "mult2add")
    assert code == 2 and "Z, Q or Z_(p)" in err and not out


def test_a_tower_whose_depth_disagrees_with_its_levels_is_refused(capsys, tmp_path):
    # a declared depth is the number of levels less one; a file that says
    # otherwise is refused as it is read, not taken at its number of levels.
    # Both levels are (1 - x)^-1, which omega fixes
    def tower(depth):
        return {"ring": {"kind": "rationals"}, "precision": 4, "depth": depth, "levels": [["1"] * 5] * 2}

    assert tower_from_json(tower(1)).depth == 1
    for depth in (0, 2, 9):
        with pytest.raises(ValueError, match="depth does not match"):
            tower_from_json(tower(depth))
    path = tmp_path / "tower.json"
    path.write_text(json.dumps({"model": "tower", "terms": [{"beta": 0, "tower": tower(9)}]}))
    code, out, err = run(capsys, "ops", "iso", "--input", str(path), "--direction", "mult2add")
    assert code == 2 and "depth does not match" in err and not out


def test_k_is_capped_before_anything_is_built(capsys, monkeypatch):
    # |k| up to the cap runs; one past it is an argparse error, exit 2, before
    # any law or series is built
    built = []
    for cls in (TruncatedSeries1, TruncatedSeries2):
        def record(self, *args, _init=cls.__init__, **kwargs):
            _init(self, *args, **kwargs)
            built.append(self.precision)

        monkeypatch.setattr(cls, "__init__", record)

    def commands(k):
        return (
            ["fgl", "pseries", "--fgl", "multiplicative-over-Z[beta]", "--k", str(k), "--precision", "8"],
            ["ops", "adams", "--k", str(k), "--model", "tower", "--depth", "2", "--precision", "8"],
            ["ops", "adams", "--k", str(k), "--window=-2:2"],
        )

    for k in (MAX_K, -MAX_K):
        for argv in commands(k):
            code, out, err = run(capsys, *argv)
            assert code == 0 and not err, argv
            assert str(k) in out, argv
    for k in (MAX_K + 1, -MAX_K - 1, 10**300):
        for argv in commands(k):
            built.clear()
            code, out, err = run(capsys, *argv)
            assert code == 2 and f"|k| is capped at {MAX_K}" in err and not out, argv
            assert built == [], argv


def test_geom_is_capped_before_the_series_is_built(capsys, monkeypatch):
    # geom(n) takes the cap of --k: |n| up to it runs, one past it exits 2
    # before (1 - x)^-n is built; 70 digits used to fail only in printing
    for n in (MAX_K, -MAX_K):
        code, out, err = run(capsys, "ops", "compose", "--lhs", f"geom({n})", "--rhs", "geom(-1)")
        assert code == 0 and not err and result_of(out)["geometric"] == n
    built = []
    monkeypatch.setattr(adams, "geometric_power", lambda *args: built.append(args))
    for n in (MAX_K + 1, -MAX_K - 1, 10**70):
        for lhs, rhs in ((f"geom({n})", "geom(1)"), ("geom(1)", f"geom({n})")):
            code, out, err = run(capsys, "ops", "compose", "--lhs", lhs, "--rhs", rhs)
            assert code == 2 and f"|n| of geom(n) is capped at {MAX_K}" in err and not out
    assert all(abs(k) <= MAX_K for k, _ in built)


def test_graded_precision_is_capped_before_anything_is_built(capsys, tmp_path, monkeypatch):
    # the universal law and a law file over graded polynomials run at the cap;
    # one past it exits 2 before the law is built or the file is read as a law
    graded = lazard_base_ring(4).to_json()
    rings = {"graded": graded, "laurent": {"kind": "laurent", "base": graded}}

    def commands(precision):
        argv = [["fgl", "pseries", "--fgl", "universal_rational", "--k", "2", "--precision", str(precision)]]
        for name, ring in rings.items():
            path = tmp_path / f"{name}-{precision}.json"
            path.write_text(json.dumps({"ring": ring, "precision": precision, "coefficients": []}))
            argv.append(["fgl", "axioms", "--fgl", str(path)])
        return argv

    for argv in commands(MAX_GRADED_PRECISION):
        code, out, err = run(capsys, *argv)
        assert code == 0 and out and not err, argv

    def refuse(*args, **kwargs):
        raise AssertionError("built past the cap")

    monkeypatch.setattr(hopf, "universal_fgl_rational", refuse)
    monkeypatch.setattr(cli, "fgl_from_json", refuse)
    for argv in commands(MAX_GRADED_PRECISION + 1):
        code, out, err = run(capsys, *argv)
        assert code == 2 and f"capped at {MAX_GRADED_PRECISION}" in err and not out, argv


def test_ops_iso_refuses_an_empty_window(capsys, tmp_path):
    # the window [3, 2] holds no index: an input error, not an empty tower
    path = tmp_path / "empty.json"
    path.write_text(json.dumps({"model": "sequence", "terms": [
        {"beta": 0, "sequence": {"window": [3, 2], "values": []}},
    ]}))
    code, out, err = run(capsys, "ops", "iso", "--input", str(path), "--direction", "add2mult")
    assert code == 2 and "window [3, 2] is empty" in err and not out


# what every CLI process loads: the modules `fgl pseries` runs on
CLI_CORE = {"cli", "errors", "expressions", "fgl", "iojson", "rings", "series"}
LAZARD = CLI_CORE | {"gradedpoly", "hopf"}


def _child_env(**overrides):
    """The environment of a fresh interpreter that imports this fglforge."""
    path = [str(Path(fglforge.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    env.pop("FGLFORGE_PRECISION", None)
    env.pop("PYTHONUNBUFFERED", None)
    env.update(overrides)
    return env


def _modules_loaded(argv=None):
    """Import fglforge.cli in a fresh interpreter and run argv there.  Returns
    the exit code, the fglforge modules loaded, and whether the run added
    dataclasses to sys.modules (site may load it before any fglforge import)."""
    env = _child_env()
    probe = (
        "import json, sys; before = set(sys.modules); import fglforge.cli; "
        f"argv = {argv!r}; "
        "code = None if argv is None else fglforge.cli.run_command(argv); "
        "mods = sorted(m.split('.', 1)[1] for m in sys.modules if m.startswith('fglforge.')); "
        "added = 'dataclasses' in set(sys.modules) - before; "
        "print(json.dumps([code, mods, added]))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, env=env, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    code, modules, added = json.loads(proc.stdout.splitlines()[-1])
    return code, set(modules), added


def test_importing_the_cli_defers_adams_and_selftest():
    # every CLI process pays for what `import fglforge.cli` loads (and, with no
    # bytecode cache, compiles), so each subcommand imports what it runs
    assert _modules_loaded() == (None, CLI_CORE, False)


@pytest.mark.parametrize(
    "argv, code, modules",
    [
        (["fgl", "pseries", "--name", "multiplicative", "--k", "2"], 0, CLI_CORE),
        (["fgl", "axioms", "--fgl", "LAW_FILE"], 0, CLI_CORE),
        (["fgl", "log", "--fgl", "universal_rational", "--precision", "3"], 0, LAZARD),
        (["landweber", "check", "--fgl", "multiplicative"], 0, CLI_CORE | {"landweber"}),
        (["ops", "compose", "--lhs", "geom(2)", "--rhs", "geom(3)"], 0, CLI_CORE | {"adams"}),
        (["lazard", "hq", "--max-degree", "3"], 0, LAZARD),
        (["fgl", "pseries", "--name", "nosuch", "--k", "2"], 2, CLI_CORE),
    ],
    ids=["pseries", "axioms-file", "log-universal", "landweber", "compose", "hq", "malformed"],
)
def test_subcommands_load_only_what_they_run(tmp_path, argv, code, modules):
    law = tmp_path / "law.json"
    law.write_text(json.dumps(fgl_to_json(fgl_from_spec("multiplicative", 6))))
    argv = [str(law) if arg == "LAW_FILE" else arg for arg in argv]
    assert _modules_loaded(argv) == (code, modules, False)


@pytest.mark.parametrize("unbuffered", ["", "1"], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("fmt", ["json", "text"])
def test_closed_stdout_is_not_an_input_error(unbuffered, fmt):
    # the read end is closed before the process writes, as `| head` closes it
    # once it has read enough; buffered, the write comes at the last flush
    read_end, write_end = os.pipe()
    os.close(read_end)
    argv = ["landweber", "check", "--fgl", "additive-over-Z", "--primes", "2"]
    argv += ["--max-height", "2", "--precision", "4", "--format", fmt]
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "fglforge.cli", *argv],
            stdout=write_end,
            stderr=subprocess.PIPE,
            text=True,
            env=_child_env(PYTHONUNBUFFERED=unbuffered),
            timeout=120,
        )
    finally:
        os.close(write_end)
    assert proc.returncode == EXIT_BROKEN_PIPE == 141
    assert proc.stderr == ""


def test_env_var_sets_default_precision(capsys, monkeypatch):
    monkeypatch.setenv("FGLFORGE_PRECISION", "5")
    code, out, _ = run(capsys, "fgl", "pseries", "--name", "additive", "--k", "3")
    assert code == 0
    assert result_of(out)["series"]["precision"] == 5


@pytest.mark.parametrize("value", ["abc", "0", "65"])
def test_bad_env_precision_is_an_input_error(capsys, monkeypatch, value):
    monkeypatch.delenv("FGLFORGE_PRECISION", raising=False)
    _, hq_out, _ = run(capsys, "lazard", "hq", "--max-degree", "3")
    monkeypatch.setenv("FGLFORGE_PRECISION", value)
    code, out, err = run(capsys, "fgl", "pseries", "--name", "additive", "--k", "2")
    assert code == 2 and not out
    assert err.startswith("error: FGLFORGE_PRECISION") and value in err
    # the variable is read only in place of a missing --precision
    code, out, _ = run(capsys, "fgl", "pseries", "--name", "additive", "--k", "2", "--precision", "5")
    assert code == 0 and result_of(out)["series"]["precision"] == 5
    code, out, _ = run(capsys, "lazard", "hq", "--max-degree", "3")
    assert code == 0 and out == hq_out


def test_json_round_trips():
    from fglforge.adams import adams_operation_tower, adams_operation_sequence
    from fglforge.fgl import named_fgl
    from fglforge.series import TruncatedSeries1

    law = named_fgl("multiplicative", LaurentExtension(Z, "beta", 1), 8)
    assert fgl_from_json(fgl_to_json(law)).body == law.body

    series = TruncatedSeries1.from_ints(Z, [0, 1, -2, 3], 6)
    assert series1_from_json(series1_to_json(series)) == series

    psi = adams_operation_tower(2, 2, 6)
    assert twisted_from_json(twisted_to_json(psi)) == psi
    e = adams_operation_sequence(-3, (-4, 4))
    assert twisted_from_json(twisted_to_json(e)) == e


def _principal_quotient_of_qb():
    qb = LaurentExtension(Rationals(), "beta", 1)
    beta = qb.var()
    return quotient_by_element(qb, beta * beta - 3 * beta + 1)


# each descriptor is fixed: files written with it must keep reading back
RING_DESCRIPTORS = [
    (lambda: Z, '{"kind": "integers"}'),
    (Rationals, '{"kind": "rationals"}'),
    (lambda: IntegersMod(8), '{"kind": "integers_mod", "modulus": 8}'),
    (lambda: PLocalIntegers(5), '{"kind": "p_local", "prime": 5}'),
    (
        lambda: LaurentExtension(Z, "beta", 1),
        '{"base": {"kind": "integers"}, "degree": 1, "kind": "laurent", "variable": "beta"}',
    ),
    (
        lambda: LaurentExtension(IntegersMod(6), "beta", 2),
        '{"base": {"kind": "integers_mod", "modulus": 6}, "degree": 2, "kind": "laurent",'
        ' "variable": "beta"}',
    ),
    (
        _principal_quotient_of_qb,
        '{"base": {"base": {"kind": "rationals"}, "degree": 1, "kind": "laurent",'
        ' "variable": "beta"}, "generator": "1 - 3*beta + beta^2", "kind": "quotient"}',
    ),
    (
        lambda: lazard_base_ring(4),
        '{"generators": [{"degree": 1, "name": "m1"}, {"degree": 2, "name": "m2"},'
        ' {"degree": 3, "name": "m3"}, {"degree": 4, "name": "m4"}],'
        ' "kind": "graded_polynomial", "max_degree": 4}',
    ),
]


@pytest.mark.parametrize("make_ring, expected", RING_DESCRIPTORS)
def test_ring_json_round_trip(make_ring, expected):
    ring = make_ring()
    data = ring.to_json()
    assert json.dumps(data, sort_keys=True) == expected
    assert data["kind"] == json.loads(expected)["kind"] == ring.kind
    assert ring_from_json(data) == ring


def test_fgl_json_rejects_implicit_unit_entries(tmp_path, capsys):
    bad = {
        "ring": {"kind": "integers"},
        "precision": 4,
        "coefficients": [{"i": 1, "j": 0, "value": "1"}],
    }
    path = tmp_path / "law.json"
    path.write_text(json.dumps(bad))
    code, _, err = run(capsys, "fgl", "axioms", "--fgl", str(path))
    assert code == 2 and "must not appear" in err


def test_fgl_json_rejects_a_grading_of_no_generator(tmp_path, capsys):
    # gamma is no generator of Z[beta]; the degree check used to read beta's
    # default degree instead and pass
    law = {
        "ring": {"kind": "laurent", "base": {"kind": "integers"}, "variable": "beta", "degree": 1},
        "precision": 4,
        "coefficients": [{"i": 1, "j": 1, "value": "-beta"}],
        "grading": {"gamma": 7},
    }
    path = tmp_path / "law.json"
    path.write_text(json.dumps(law))
    code, out, err = run(capsys, "fgl", "axioms", "--fgl", str(path))
    assert code == 2 and "gamma" in err and not out
    law["grading"] = {"beta": 1}
    path.write_text(json.dumps(law))
    code, out, _ = run(capsys, "fgl", "axioms", "--fgl", str(path))
    assert code == 0 and result_of(out)["passed"]


def test_fgl_axioms_refuses_a_grading_of_a_quotient_ring(tmp_path, capsys):
    # beta^2 = -1 in F_5[beta^±1]/(beta^2 + 1), so no grading has |beta| = 1;
    # the check used to pass it
    f5 = {"kind": "integers_mod", "modulus": 5}
    laurent = {"kind": "laurent", "base": f5, "variable": "beta", "degree": 1}
    law = {
        "ring": {"kind": "quotient", "base": laurent, "generator": "beta^2 + 1"},
        "precision": 4,
        "coefficients": [{"i": 1, "j": 1, "value": "-beta"}],
        "grading": {"beta": 1},
    }
    path = tmp_path / "law.json"
    path.write_text(json.dumps(law))
    code, out, err = run(capsys, "fgl", "axioms", "--fgl", str(path))
    assert code == 2 and "no grading with |beta| = 1" in err and not out
    # with |beta| = 0 every element has degree 0, and -beta not the 1 it needs
    law["grading"] = {"beta": 0}
    path.write_text(json.dumps(law))
    code, out, err = run(capsys, "fgl", "axioms", "--fgl", str(path))
    assert code == 2 and "fails its axioms: grading" in err and not out


def test_fgl_json_rejects_a_coefficient_given_twice(tmp_path, capsys):
    # the second (1,1) entry used to replace the first, which made the law additive
    law = {
        "ring": {"kind": "integers"},
        "precision": 4,
        "coefficients": [{"i": 1, "j": 1, "value": "5"}, {"i": 1, "j": 1, "value": "0"}],
    }
    path = tmp_path / "law.json"
    path.write_text(json.dumps(law))
    code, out, err = run(capsys, "fgl", "pseries", "--fgl", str(path), "--k", "2")
    assert code == 2 and "(1,1)" in err and not out


def test_in_process_determinism(capsys):
    args = ("landweber", "check", "--fgl", "multiplicative", "--primes", "2,3")
    _, out1, _ = run(capsys, *args)
    _, out2, _ = run(capsys, *args)
    assert out1 == out2


def test_fgl_json_rejects_a_coefficient_above_its_precision(tmp_path, capsys):
    # the (3,3) entry used to be dropped by the truncation, so this file
    # loaded as the additive law and passed its axioms
    law = {
        "ring": {"kind": "integers"},
        "precision": 3,
        "coefficients": [{"i": 3, "j": 3, "value": "1"}],
    }
    path = tmp_path / "law.json"
    path.write_text(json.dumps(law))
    code, out, err = run(capsys, "fgl", "axioms", "--fgl", str(path))
    assert code == 2 and "(3,3)" in err and "precision 3" in err and not out
    # an entry of total degree equal to the precision is kept: x + y + xy
    law["precision"] = 2
    law["coefficients"] = [{"i": 1, "j": 1, "value": "1"}]
    path.write_text(json.dumps(law))
    code, out, _ = run(capsys, "fgl", "axioms", "--fgl", str(path))
    assert code == 0 and result_of(out)["passed"]
