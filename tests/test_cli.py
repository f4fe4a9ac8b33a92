import hashlib
import random
from fractions import Fraction

import pytest

from nilgeo.cli import ConfigError, main, parse_config, run_suite
from nilgeo.models import all_models, build_model
from nilgeo.sampling import preset_connection, preset_names, sample_connection
from nilgeo.suites import SUITES, TrialResult


def test_minimal_config_gets_defaults():
    cfg = parse_config("model = heisenberg\nseed = 1\n")
    assert cfg.trials == 100
    assert cfg.suite == "all"
    assert cfg.connection == "random"
    assert cfg.mutation is False


def test_sections_and_comments_are_tolerated():
    cfg = parse_config(
        """
        [run]
        model = trivial_gauge   # the gauge groupoid
        structure_group = sl2
        seed = 9
        trials = 3
        """
    )
    assert cfg.model == "trivial_gauge"
    assert cfg.structure_group == "sl2"
    assert cfg.trials == 3


def test_rational_bound_is_parsed_exactly():
    cfg = parse_config("model = heisenberg\nseed = 1\ncoeff_bound = 3/2\n")
    assert cfg.coeff_bound == Fraction(3, 2)


@pytest.mark.parametrize("bound, status", [("1/4", 2), ("1/3", 0)])
def test_coeff_bound_has_a_floor_below_which_every_draw_is_zero(tmp_path, capsys, bound, status):
    # below 1 / max(DENOMINATORS) every sampled coefficient is 0, and the
    # mutation check's search for a nonzero bump never ends
    path = tmp_path / "run.cfg"
    path.write_text(
        "model = heisenberg\nseed = 1\ntrials = 1\nsuite = bianchi\n"
        f"mutation = true\ncoeff_bound = {bound}\n"
    )
    assert main(["--config", str(path)]) == status
    captured = capsys.readouterr()
    if status:
        assert captured.err == "error: coeff_bound must be at least 1/3\n"
    else:
        assert " fail=0 " in captured.out and "bianchi-mutation" in captured.out


def test_unknown_model_error_names_the_registry():
    with pytest.raises(ConfigError) as err:
        parse_config("model = nope\nseed = 1\n")
    message = str(err.value)
    for name in ("heisenberg", "direct_product", "trivial_gauge"):
        assert name in message


def test_parse_errors_carry_line_numbers():
    with pytest.raises(ConfigError, match="line 2"):
        parse_config("model = heisenberg\nwhatever\nseed = 1\n")
    with pytest.raises(ConfigError, match="line 3"):
        parse_config("model = heisenberg\nseed = 1\nbogus_key = 2\n")
    with pytest.raises(ConfigError, match="duplicate"):
        parse_config("model = heisenberg\nseed = 1\nseed = 2\n")


def test_seed_must_fit_in_64_bits():
    with pytest.raises(ConfigError, match="64 bits"):
        parse_config(f"model = heisenberg\nseed = {1 << 64}\n")
    with pytest.raises(ConfigError, match="64 bits"):
        parse_config("model = heisenberg\nseed = -1\n")


def test_structure_group_only_for_the_gauge_model():
    with pytest.raises(ConfigError):
        parse_config("model = heisenberg\nstructure_group = gl2\nseed = 1\n")


def test_unknown_preset_is_rejected():
    with pytest.raises(ConfigError, match="preset"):
        parse_config("model = heisenberg\nseed = 1\nconnection = preset:bogus\n")
    cfg = parse_config(
        "model = trivial_gauge\nseed = 1\nconnection = preset:x1dx2\ntrials = 1\n"
    )
    assert cfg.connection == "preset:x1dx2"


def test_reports_are_byte_identical_across_runs():
    cfg = parse_config(
        "model = trivial_gauge\nstructure_group = gl2\nseed = 42\ntrials = 2\n"
    )
    first = run_suite(cfg)
    second = run_suite(cfg)
    assert first == second
    assert "\n".join(first[1]) == "\n".join(second[1])


def test_all_run_covers_every_identifier():
    cfg = parse_config("model = heisenberg\nseed = 5\ntrials = 1\nmutation = true\n")
    status, lines = run_suite(cfg)
    assert status == 0
    text = "\n".join(lines)
    for ident in (
        "prop-1.1", "prop-1.2", "prop-1.3", "thm-1.4", "prop-1.5",
        "prop-3.1", "cor-3.2", "prop-3.3", "thm-3.4",
        "prop-4.1", "prop-4.2", "prop-4.3", "thm-4.4", "prop-4.5",
        "dnabla-form", "bianchi-abstract", "bianchi-classical", "face-curvature",
    ):
        assert ident in text, ident


def test_report_has_plan_and_summary():
    cfg = parse_config("model = direct_product\nseed = 2\ntrials = 1\n")
    status, lines = run_suite(cfg)
    assert lines[0] == f"1..{len(lines) - 2}"
    assert lines[-1].startswith("# pass=")
    assert status == 0


def test_mutation_reports_expected_failure_and_passes():
    cfg = parse_config(
        "model = heisenberg\nseed = 7\ntrials = 1\nsuite = bianchi\nmutation = true\n"
    )
    status, lines = run_suite(cfg)
    assert status == 0
    mutation_lines = [l for l in lines if "bianchi-mutation" in l]
    assert len(mutation_lines) == 1
    assert mutation_lines[0].startswith("ok")
    assert "expected failure" in mutation_lines[0]


def test_run_suite_flags_failures_with_exit_one(monkeypatch):
    def doomed(model, rng, trials, params):
        return [TrialResult("prop-1.1", False, "forced")]

    monkeypatch.setitem(SUITES, "tangent", (doomed,))
    cfg = parse_config("model = heisenberg\nseed = 1\ntrials = 1\nsuite = tangent\n")
    status, lines = run_suite(cfg)
    assert status == 1
    assert any(line.startswith("not ok") for line in lines)


def test_main_exit_codes_and_output(tmp_path, capsys):
    good = tmp_path / "good.cfg"
    good.write_text("model = heisenberg\nseed = 1\ntrials = 1\nsuite = algebra\n")
    assert main(["--config", str(good)]) == 0
    out = capsys.readouterr().out
    assert out.startswith("1..")
    assert "# pass=" in out

    bad = tmp_path / "bad.cfg"
    bad.write_text("model = mystery\nseed = 1\n")
    assert main(["--config", str(bad)]) == 2
    assert "registry" in capsys.readouterr().err

    assert main(["--config", str(tmp_path / "missing.cfg")]) == 2
    capsys.readouterr()

    assert main(["--list-models"]) == 0
    listing = capsys.readouterr().out
    assert "heisenberg" in listing and "structure_group=sl2" in listing


# SHA-256 of the report text for suite = all, trials = 1, mutation = true,
# recorded before the model registry replaced the per-model dispatch.  The
# listed presets give the same report as a random connection.  Seeding each
# trial on its own will change these digests once, on purpose.
REPORT_DIGESTS = {
    ("heisenberg", None, 1): "cb35e706b6a33f9ca09b1ecebf875604ade57874224b5f6c4c67290855dff5e7",
    ("heisenberg", None, 7): "2d91f4efd91ec5a50ccb0f135b0a327d877f65f665ee72be7938213285eccf2e",
    ("direct_product", None, 1): "06ae78a53d4ab945407fbe3a2add45f9857a24f336bf01b4f1a7dc846aed0845",
    ("direct_product", None, 7): "5dd7bacd179df1fdcc1dc99cf111567cd5feb9df23dd0506862d69c50419d877",
    ("trivial_gauge", "scalar", 1): "8776871c5364e768cd4be9cc97c360284c6e23f37499221423fe47b3b732733c",
    ("trivial_gauge", "scalar", 7): "cb8e7fd303382f98f498b4c35470ffbdfc476b87f68f130c2ecb881cf9d3ff79",
    ("trivial_gauge", "gl2", 1): "4bc409e1c48dbef899fd393e047b20bacad612ab2403c67bc6c5bd1cbd447cd2",
    ("trivial_gauge", "gl2", 7): "8a763de03b6aa71801004ddb3b02ecc83df771bfaa7094dd77fceafc8bf33f67",
    ("trivial_gauge", "sl2", 1): "46442f455aa0fc00e0fb8b18550009922620eb0d74cafb049ba23a4ef5dd0e29",
    ("trivial_gauge", "sl2", 7): "48713fc23b2329a1791efb8b4d05f827bb42efe9741b288add45f1ce246cf25f",
}

MODEL_LISTING = """\
heisenberg presets: standard
direct_product presets: standard
trivial_gauge structure_group=scalar presets: x1dx2
trivial_gauge structure_group=gl2 presets: standard
trivial_gauge structure_group=sl2 presets: standard
"""


def test_report_digests_are_pinned(capsys):
    for (name, group, seed), digest in REPORT_DIGESTS.items():
        model = build_model(name, group)
        presets = [f"preset:{preset}" for preset in preset_names(model)]
        for connection in ["random", *presets]:
            text = f"model = {name}\nseed = {seed}\ntrials = 1\nmutation = true\n"
            if group:
                text += f"structure_group = {group}\n"
            text += f"connection = {connection}\n"
            status, lines = run_suite(parse_config(text))
            report = "\n".join(lines) + "\n"
            assert status == 0
            assert hashlib.sha256(report.encode()).hexdigest() == digest, (
                name, group, seed, connection
            )
    assert main(["--list-models"]) == 0
    assert capsys.readouterr().out == MODEL_LISTING


def test_every_registered_model_is_reachable_everywhere(capsys):
    models = all_models()
    assert main(["--list-models"]) == 0
    listing = capsys.readouterr().out.splitlines()
    assert len(listing) == len(models)
    for model, line in zip(models, listing):
        assert build_model(model.family, model.structure) is model
        assert sample_connection(random.Random(0), model).model is model
        names = preset_names(model)
        assert names
        for name in names:
            assert preset_connection(model, name).model is model
        assert line.startswith(f"{model.family} ")
        assert line.endswith("presets: " + ", ".join(names))
        text = f"model = {model.family}\nseed = 1\n"
        if model.structure is not None:
            text += f"structure_group = {model.structure}\n"
        for dim in range(4):
            if dim == model.base_dim:
                assert parse_config(text + f"base_dim = {dim}\n").base_dim == dim
            else:
                with pytest.raises(ConfigError, match="base dimension"):
                    parse_config(text + f"base_dim = {dim}\n")


def test_main_overrides(tmp_path, capsys):
    path = tmp_path / "run.cfg"
    path.write_text("model = heisenberg\nseed = 1\ntrials = 5\nsuite = algebra\n")
    assert main(["--config", str(path), "--trials", "2", "--seed", "9", "--suite", "algebra"]) == 0
    out = capsys.readouterr().out
    assert "seed=9" in out
    assert out.startswith("1..2")


def test_main_rejects_a_config_that_is_not_utf8(tmp_path, capsys):
    path = tmp_path / "latin1.cfg"
    path.write_bytes(b"# caf\xff\nmodel = heisenberg\nseed = 1\n")
    assert main(["--config", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error:")
    assert captured.out == ""


@pytest.mark.parametrize(
    "override",
    (
        ["--seed", "-1"],
        ["--seed", str(1 << 64)],
        ["--trials", "0"],
        ["--suite", "nope"],
    ),
)
def test_main_rejects_bad_overrides(tmp_path, capsys, override):
    path = tmp_path / "run.cfg"
    path.write_text("model = heisenberg\nseed = 1\ntrials = 1\nsuite = algebra\n")
    assert main(["--config", str(path), *override]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error:")
    assert captured.out == ""
