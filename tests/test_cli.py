import inspect
import json
import math
import os
import shlex
import stat
from pathlib import Path

import pytest

jsonschema = pytest.importorskip("jsonschema")
from referencing import Registry, Resource

from randers_disc import (
    DomainError,
    PerturbationSpec,
    QuadratureGrid,
    RandersConfig,
    VerificationError,
    build_certificate,
    circle_closed_forms,
    cli,
    errors,
    isoperimetry,
)
from randers_disc.cli import main
from randers_disc.metric import check_metric

ROOT = Path(__file__).resolve().parents[1]
SCHEMA_DIR = ROOT / "docs" / "schemas"


def load_registry():
    registry = Registry()
    for path in SCHEMA_DIR.glob("*.schema.json"):
        resource = Resource.from_contents(json.loads(path.read_text()))
        registry = registry.with_resource(path.name, resource)
    return registry


def validate(doc, schema_name):
    schema = json.loads((SCHEMA_DIR / schema_name).read_text())
    jsonschema.validators.Draft7Validator(
        schema, registry=load_registry()
    ).validate(doc)


def run(argv, tmp_path, name="out"):
    out = tmp_path / name
    rc = main(argv + ["--output", str(out)])
    return rc, out


def replace_command(monkeypatch, command, fn):
    """Make the subcommand run fn, keeping its help and flags."""
    monkeypatch.setitem(cli._COMMANDS, command, (fn, *cli._COMMANDS[command][1:]))


# -- argument handling --------------------------------------------------------

def test_no_command_is_usage_error(capsys):
    assert main([]) == 2
    capsys.readouterr()


def test_unknown_form_rejected(capsys):
    assert main(["certificate", "--a", "0.5", "--form", "euclid"]) == 2
    assert "invalid choice" in capsys.readouterr().err


def test_invalid_drift_is_domain_error(capsys):
    rc = main(["certificate", "--a", "0.5", "--b", "1.2", "--form", "bh"])
    assert rc == 2
    err = capsys.readouterr().err
    assert "b" in err and "< 1" in err


def test_invalid_grid_size(capsys, tmp_path):
    rc, _ = run(
        ["deficit-sweep", "--b", "0.3", "--n", "1000"], tmp_path
    )
    assert rc == 2
    assert "power of two" in capsys.readouterr().err


def test_sweep_range_validation(capsys, tmp_path):
    rc, _ = run(
        ["deficit-sweep", "--a-min", "0.9", "--a-max", "0.1"], tmp_path
    )
    assert rc == 2
    capsys.readouterr()


CIRCLE = ["--a", "0.5", "--b", "0.3", "--form", "bh"]


@pytest.mark.parametrize(
    "argv",
    [
        # the certificate and the scan run at fixed sizes, so their size flags are gone
        ["certificate", *CIRCLE, "--probes", "50"],
        ["certificate", *CIRCLE, "--scan-points", "512"],
        ["certificate", *CIRCLE, "--scan-steps", "4096"],
        ["conjugate", *CIRCLE, "--scan-points", "512"],
        ["conjugate", *CIRCLE, "--scan-steps", "4096"],
        ["certificate", *CIRCLE, "--n", "1024"],
        ["certificate", *CIRCLE, "--seed", "-1"],
        ["perturb", *CIRCLE, "--seed", "-1"],
        # flags a subcommand would not read are not accepted
        ["conjugate", *CIRCLE, "--tol", "-5"],
        ["conjugate", *CIRCLE, "--n", "512"],
        ["perturb", *CIRCLE, "--tol", "1e-3"],
        ["check-metric", "--b", "0.5", "--tol", "1e300"],
        ["check-metric", "--b", "0.5", "--seed", "1"],
        ["deficit-sweep", "--b", "0.3", "--seed", "1"],
        ["deficit-sweep", "--b", "0.3", "--form", "max"],
        ["check-metric", "--b", "0.5", "--form", "max"],
        # the EL residual and the deficit are absolute values, so a negative
        # tolerance makes a verdict that could never pass
        ["certificate", *CIRCLE, "--tol", "-1"],
        ["deficit-sweep", "--b", "0.3", "--tol", "-1"],
    ],
    ids=[
        "certificate-probes-removed",
        "certificate-scan-points-removed",
        "certificate-scan-steps-removed",
        "conjugate-scan-points-removed",
        "conjugate-scan-steps-removed",
        "certificate-n-removed",
        "certificate-seed--1",
        "perturb-seed--1",
        "conjugate-tol",
        "conjugate-n",
        "perturb-tol",
        "check-metric-tol",
        "check-metric-seed",
        "deficit-sweep-seed",
        "deficit-sweep-form",
        "check-metric-form",
        "certificate-tol-negative",
        "deficit-sweep-tol-negative",
    ],
)
def test_vacuous_sizes_are_usage_errors(argv, capsys, tmp_path):
    rc, out = run(argv, tmp_path)
    assert rc == 2
    assert "error:" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["certificate", "--a", "0.5", "--form", "bh", "--tol", "nan"],
        ["certificate", "--a", "0.5", "--form", "bh", "--tol", "inf"],
        ["deficit-sweep", "--tol", "nan"],
        ["perturb", "--a", "0.5", "--form", "bh", "--epsilon", "nan"],
        ["perturb", "--a", "0.5", "--form", "bh", "--epsilon", "inf"],
    ],
    ids=["certificate-tol-nan", "certificate-tol-inf", "sweep-tol-nan", "epsilon-nan", "epsilon-inf"],
)
def test_non_finite_floats_are_usage_errors(argv, capsys, monkeypatch, tmp_path):
    def computed(cfg):
        raise AssertionError("the command ran")

    replace_command(monkeypatch, argv[0], computed)
    rc, out = run(argv, tmp_path)
    assert rc == 2
    assert "must be finite" in capsys.readouterr().err
    assert not out.exists()


def test_missing_output_directory_is_usage_error(capsys, monkeypatch, tmp_path):
    def computed(cfg):
        raise AssertionError("the command ran")

    replace_command(monkeypatch, "check-metric", computed)
    rc = main(["check-metric", "--b", "0.5", "--output", str(tmp_path / "no" / "such" / "m.json")])
    assert rc == 2
    assert capsys.readouterr().err.startswith("error: --output directory does not exist")
    assert not (tmp_path / "no").exists()


def test_output_naming_a_directory_is_usage_error(capsys, monkeypatch, tmp_path):
    def computed(cfg):
        raise AssertionError("the command ran")

    replace_command(monkeypatch, "check-metric", computed)
    rc = main(["check-metric", "--b", "0.5", "--output", str(tmp_path)])
    assert rc == 2
    assert capsys.readouterr().err == f"error: --output is a directory, not a file: {tmp_path}\n"
    assert list(tmp_path.iterdir()) == []


def parse_defaults(command):
    """The parsed flags of a subcommand given only its required --form."""
    required = ["--form", "bh"] if "form" in cli._COMMANDS[command][2] else []
    return cli.build_parser().parse_args([command, *required])


def test_run_config_defaults_are_the_library_defaults():
    cert = inspect.signature(build_certificate).parameters
    spec = PerturbationSpec()
    certificate, perturb, sweep = (parse_defaults(c) for c in ("certificate", "perturb", "deficit-sweep"))
    assert perturb.n == sweep.n == QuadratureGrid().n
    assert certificate.tol == sweep.tol == cert["tol"].default
    assert (perturb.trials, perturb.epsilon, perturb.harmonics) == (spec.count, spec.epsilon, spec.harmonics)
    assert certificate.seed == perturb.seed == spec.seed == cert["probe_seed"].default
    assert (certificate.a, certificate.b) == (perturb.a, perturb.b) == (0.5, 0.0)
    assert (sweep.a_min, sweep.a_max, sweep.a_count) == (0.1, 0.9, 9)


CONFIG_SCHEMA = json.loads((SCHEMA_DIR / "config.schema.json").read_text())


def schema_keys(command):
    """(allowed, required) echo keys of one subcommand in config.schema.json."""
    for rule in CONFIG_SCHEMA["allOf"]:
        if rule["if"]["properties"]["command"]["const"] == command:
            then = rule["then"]
            required = CONFIG_SCHEMA["required"] + then.get("required", [])
            return set(then["propertyNames"]["enum"]), set(required)
    raise AssertionError(f"config.schema.json has no rule for {command}")


@pytest.mark.parametrize(
    "command, keys", [(command, ["command", *flags]) for command, (_, _, flags) in cli._COMMANDS.items()]
)
def test_config_echo_holds_only_the_subcommands_flags(command, keys):
    assert keys[1:] == [name for name in cli._FLAGS if name in keys]  # in echo order
    echo = cli._echo(parse_defaults(command))
    assert list(echo) == keys
    # the table and the schema name the same keys, and every one is required
    assert schema_keys(command) == (set(keys), set(keys))
    validate(echo, "config.schema.json")
    extra = "n" if "n" not in keys else "a_count" if "a_count" not in keys else "seed"
    with pytest.raises(jsonschema.ValidationError):
        validate({**echo, extra: 1}, "config.schema.json")


ERROR_CLASSES = [
    cls for _, cls in inspect.getmembers(errors, inspect.isclass) if cls.__module__ == errors.__name__
]


@pytest.mark.parametrize("cls", ERROR_CLASSES, ids=lambda cls: cls.__name__)
def test_error_class_sets_exit_code(cls, capsys, monkeypatch):
    assert issubclass(cls, (DomainError, VerificationError))

    def raising(cfg):
        raise cls("injected")

    replace_command(monkeypatch, "check-metric", raising)
    assert main(["check-metric"]) == (2 if issubclass(cls, DomainError) else 1)
    assert capsys.readouterr().err == "error: injected\n"


def test_reports_are_written_with_the_umask_mode(tmp_path):
    replaced = tmp_path / "old.json"
    replaced.write_text("{}")
    replaced.chmod(0o600)
    umask = os.umask(0o022)
    try:
        for out in (tmp_path / "new.json", replaced):
            assert main(["check-metric", "--b", "0.5", "--output", str(out)]) == 0
    finally:
        os.umask(umask)
    for out in (tmp_path / "new.json", replaced):
        assert stat.S_IMODE(out.stat().st_mode) == 0o644


# -- the README commands --------------------------------------------------------

README_COMMANDS = [
    shlex.split(line)[1:]
    for block in (ROOT / "README.md").read_text().split("```sh\n")[1:]
    for line in block.split("```", 1)[0].splitlines()
    if line.startswith("randers-disc ")
]
DOCUMENT_SCHEMAS = {
    "certificate": "certificate.schema.json",
    "conjugate": "conjugate.schema.json",
    "check-metric": "check_metric.schema.json",
}


def test_readme_shows_every_subcommand():
    assert sorted(argv[0] for argv in README_COMMANDS) == sorted(cli._COMMANDS)


@pytest.mark.parametrize("argv", README_COMMANDS, ids=lambda argv: argv[0])
def test_readme_command_runs(argv, tmp_path):
    i = argv.index("--output")
    out = tmp_path / argv[i + 1]
    assert main([*argv[:i], "--output", str(out), *argv[i + 2:]]) == 0
    if argv[0] in DOCUMENT_SCHEMAS:
        validate(json.loads(out.read_text()), DOCUMENT_SCHEMAS[argv[0]])
    else:
        # CSV reports carry the config echo as their first line
        header = out.read_text().splitlines()[0]
        validate(json.loads(header.removeprefix("# config ")), "config.schema.json")


# -- certificate --------------------------------------------------------------

def test_certificate_json_passes_schema(tmp_path):
    rc, out = run(
        ["certificate", "--a", "0.5", "--b", "0.3", "--form", "bh"],
        tmp_path,
        "cert.json",
    )
    assert rc == 0
    doc = json.loads(out.read_text())
    validate(doc, "certificate.schema.json")
    assert doc["pass"] is True
    assert doc["config"]["a"] == 0.5
    assert "output" not in doc["config"]


def test_certificate_riemannian_multiplier(tmp_path):
    rc, out = run(
        ["certificate", "--a", "0.5", "--b", "0", "--form", "ht"],
        tmp_path,
        "cert.json",
    )
    assert rc == 0
    doc = json.loads(out.read_text())
    assert doc["lambda"] == pytest.approx(-0.8, abs=1e-12)


# -- perturb ------------------------------------------------------------------

def test_perturb_csv_shape_and_determinism(tmp_path):
    argv = [
        "perturb", "--a", "0.5", "--b", "0.3", "--form", "bh",
        "--trials", "10", "--seed", "5",
    ]
    rc, out1 = run(argv, tmp_path, "one.csv")
    assert rc == 0
    rc2, out2 = run(argv, tmp_path, "two.csv")
    assert rc2 == 0
    assert out1.read_bytes() == out2.read_bytes()

    lines = out1.read_text().splitlines()
    assert lines[0].startswith("# config ")
    json.loads(lines[0][len("# config "):])
    assert lines[1].split(",") == [
        "index", "a0_matched", "length", "area", "delta_area", "deficit", "ok",
    ]
    assert len(lines) == 2 + 10
    for row in lines[2:]:
        cells = row.split(",")
        assert cells[-1] == "1"
        assert float(cells[4]) < 0.0


def test_perturb_zero_epsilon_trivial_pass(tmp_path):
    rc, _ = run(
        ["perturb", "--a", "0.5", "--b", "0.3", "--form", "bh",
         "--trials", "3", "--epsilon", "0"],
        tmp_path,
    )
    assert rc == 0


def test_perturb_small_wiggles_near_the_rim_all_match(tmp_path):
    # at L ~ 625 no trial reaches the Newton tolerance; each still matches
    # within MATCH_TOL and loses area
    rc, out = run(
        ["perturb", "--a", "0.99", "--b", "0", "--form", "bh",
         "--epsilon", "0.002", "--trials", "20"],
        tmp_path,
    )
    assert rc == 0
    rows = out.read_text().splitlines()[2:]
    assert len(rows) == 20 and all(r.split(",")[-1] == "1" for r in rows)


def test_perturb_default_draws_near_the_rim_all_pass(tmp_path):
    rc, out = run(["perturb", "--a", "0.9", "--b", "0.3", "--form", "bh"], tmp_path)
    assert rc == 0
    rows = out.read_text().splitlines()[2:]
    assert len(rows) == PerturbationSpec().count and all(r.split(",")[-1] == "1" for r in rows)


@pytest.mark.parametrize("epsilon", ["0.05", "0"])
def test_perturb_radius_at_the_rim_names_the_circle(tmp_path, capsys, epsilon):
    # a valid radius within the admissibility margin of the rim: the circle
    # itself is inadmissible, which is reported before anything is drawn
    rc, out = run(["perturb", "--a", "0.9999999999", "--form", "bh", "--trials", "3", "--epsilon", epsilon],
                  tmp_path)
    assert rc == 1
    assert capsys.readouterr().err == (
        "error: curve Circle(a=0.9999999999) leaves the admissible polar-graph class\n")
    assert not out.exists()


def test_perturb_noise_floor_reports_failure(tmp_path):
    # at epsilon ~ 1e-9 the area change sits below the strict-decrease margin
    rc, out = run(
        ["perturb", "--a", "0.5", "--b", "0.3", "--form", "bh",
         "--trials", "12", "--epsilon", "1e-9", "--seed", "0"],
        tmp_path,
    )
    assert rc == 1
    rows = out.read_text().splitlines()[2:]
    assert any(r.split(",")[-1] == "0" for r in rows)


def test_perturb_reports_stalled_matching_as_failure(tmp_path, monkeypatch):
    # with one Newton step per row no trial reaches its target length
    monkeypatch.setattr(isoperimetry, "_MATCH_STEPS", 1)
    rc, out = run(["perturb", "--a", "0.5", "--b", "0.3", "--form", "bh", "--trials", "4"], tmp_path)
    assert rc == 1
    rows = [r.split(",") for r in out.read_text().splitlines()[2:]]
    assert len(rows) == 4
    for cells in rows:
        assert cells[-1] == "0" and all(math.isnan(float(x)) for x in cells[1:-1])


# -- check-metric -------------------------------------------------------------

def test_check_metric_schema_and_bounds(tmp_path):
    rc, out = run(["check-metric", "--b", "0.5"], tmp_path, "m.json")
    assert rc == 0
    doc = json.loads(out.read_text())
    validate(doc, "check_metric.schema.json")
    assert doc["pass"] is True
    assert doc["norm_deviation_max"] <= 1e-12
    assert doc["gradient_mismatch_max"] <= 1e-8
    assert doc["yasuda_shimada_max"] > 0.1


@pytest.mark.parametrize("b", [0.0, 0.5])
def test_check_metric_document_is_the_library_check(b, tmp_path):
    rc, out = run(["check-metric", "--b", str(b)], tmp_path, "m.json")
    doc = json.loads(out.read_text())
    check = check_metric(RandersConfig(b))
    assert rc == (0 if check["pass"] else 1)
    # the check depends only on b, so the report names no volume form
    assert doc == {"config": {"command": "check-metric", "b": b}, "b": b, **check}


def test_check_metric_riemannian_skips_curvature_check(tmp_path):
    rc, out = run(["check-metric", "--b", "0"], tmp_path, "m.json")
    assert rc == 0
    doc = json.loads(out.read_text())
    validate(doc, "check_metric.schema.json")
    assert doc["yasuda_shimada_max"] is None
    assert doc["yasuda_shimada_note"] == "skipped (Riemannian case)"
    assert doc["pass"] is True


# -- conjugate ----------------------------------------------------------------

def test_conjugate_schema(tmp_path):
    rc, out = run(
        ["conjugate", "--a", "0.5", "--b", "0.3", "--form", "bh"],
        tmp_path,
        "c.json",
    )
    assert rc == 0
    doc = json.loads(out.read_text())
    validate(doc, "conjugate.schema.json")
    assert doc["zero_crossing"] is False
    assert len(doc["c_values"]) == 512
    assert len(doc["D_values"]) == 512


def test_conjugate_near_rim_writes_finite_json(tmp_path):
    rc, out = run(
        ["conjugate", "--a", "0.99", "--b", "0", "--form", "bh"], tmp_path, "rim.json"
    )
    assert rc == 0

    def reject(token):
        raise AssertionError(f"non-finite token {token} in the document")

    doc = json.loads(out.read_text(), parse_constant=reject)
    validate(doc, "conjugate.schema.json")
    assert doc["zero_crossing"] is False


# -- deficit sweep ------------------------------------------------------------

def test_deficit_sweep_matches_closed_forms(tmp_path):
    rc, out = run(
        ["deficit-sweep", "--b", "0.3"], tmp_path, "s.csv"
    )
    assert rc == 0
    lines = out.read_text().splitlines()
    assert lines[1].split(",") == ["a", "L", "A_bh", "A_ht", "A_max", "A_min", "deficit"]
    rows = lines[2:]
    assert len(rows) == 9
    for row in rows:
        cells = [float(c) for c in row.split(",")]
        a = cells[0]
        closed = circle_closed_forms(a, RandersConfig(0.3))
        assert math.isclose(cells[1], closed["length"], rel_tol=1e-10)
        assert math.isclose(cells[2], closed["area"], rel_tol=1e-10)
        assert abs(cells[6]) <= 1e-8
