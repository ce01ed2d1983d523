"""Scenario validation, run orchestration, exit codes, and plot extraction."""

import copy
import hashlib
import json
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from comovkit import cli
from comovkit.cli import emit_plotdata, main, run, validate
from comovkit.errors import ConfigInvalid
from comovkit.fields import HYPOTHESIS_SHAPE, check_theorem_hypotheses

SCENARIOS = Path(__file__).resolve().parents[1] / "scenarios"
GAUSS_SMALL = Path(__file__).with_name("gauss_small.json")


def write_scenario(tmp_path, doc, name="scenario.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def gaussian_doc(**overrides):
    """The small gaussian document, also pinned by tools/golden.py."""
    doc = json.loads(GAUSS_SMALL.read_text())
    doc.update(overrides)
    return doc


def plane_wave_doc(**overrides):
    doc = {
        "name": "plane-small",
        "seed": 5,
        "constants": {"hbar": 1.0, "mass": 1.0, "c": 1.0},
        "field": {"type": "plane_wave", "k": [0.75, 0.0, 0.0]},
        "chart": {"origin": [0.0, 0.0, 0.0, 0.0]},
        "classify": {"n_points": 6},
        "analyses": ["chart_diag", "classify"],
    }
    doc.update(overrides)
    return doc


def packet_doc(**overrides):
    doc = {
        "name": "packet-small",
        "constants": {"hbar": 1.0, "mass": 1.0, "c": 1.0},
        "field": {
            "type": "packet",
            "wavevectors": [[0.0, 0.0, 0.0], [0.05, 0.0, 0.0]],
            "weights": [2.0, 1.0],
            "domain": {"lo": [-1.0] * 4, "hi": [1.0] * 4},
        },
        "chart": {"origin": [0.0, 0.0, 0.0, 0.0]},
        "analyses": ["hypotheses"],
    }
    doc.update(overrides)
    return doc


def without(doc, *keys):
    for key in keys:
        del doc[key]
    return doc


ENERGY = {"box": {"lo": [-1.0] * 3, "hi": [1.0] * 3}}


# ---------------------------------------------------------------------------
# validation


def test_validate_shipped_scenarios():
    import pathlib

    root = pathlib.Path(__file__).resolve().parents[1] / "scenarios"
    names = sorted(p.name for p in root.glob("*.json"))
    assert len(names) == 5
    for name in names:
        scenario = validate(str(root / name))
        assert scenario.name


def test_validate_rejects_missing_required(tmp_path):
    path = write_scenario(tmp_path, {"name": "x"})
    with pytest.raises(ConfigInvalid) as err:
        validate(path)
    assert "/" in err.value.pointers
    assert "constants" in str(err.value)


def test_validate_rejects_unknown_analysis(tmp_path):
    doc = plane_wave_doc(analyses=["chart_diag", "frobnicate"])
    with pytest.raises(ConfigInvalid) as err:
        validate(write_scenario(tmp_path, doc))
    assert "/analyses/1" in err.value.pointers


def test_validate_rejects_short_horizon(tmp_path):
    doc = gaussian_doc()
    doc["diffusion"]["horizon"] = 0.01
    with pytest.raises(ConfigInvalid) as err:
        validate(write_scenario(tmp_path, doc))
    assert "/diffusion/dt" in err.value.pointers


def test_validate_rejects_bins_outside_field_box(tmp_path):
    doc = gaussian_doc()
    doc["diffusion"]["bins"]["hi"] = [9.0, 2.0, 2.0]
    with pytest.raises(ConfigInvalid) as err:
        validate(write_scenario(tmp_path, doc))
    assert "/diffusion/bins" in err.value.pointers
    # the message names both boxes so the fix is obvious
    assert "9.0" in str(err.value) and "4.0" in str(err.value)


def test_validate_rejects_estimate_without_simulate(tmp_path):
    doc = gaussian_doc(analyses=["estimate"])
    with pytest.raises(ConfigInvalid) as err:
        validate(write_scenario(tmp_path, doc))
    assert "/analyses" in err.value.pointers


def test_validate_rejects_wave_analyses_on_gaussian(tmp_path):
    doc = gaussian_doc(analyses=["classify", "simulate", "estimate"])
    with pytest.raises(ConfigInvalid) as err:
        validate(write_scenario(tmp_path, doc))
    assert "/analyses" in err.value.pointers


def test_validate_rejects_weight_count_mismatch(tmp_path):
    doc = {
        "name": "bad-packet",
        "constants": {"hbar": 1.0, "mass": 1.0, "c": 1.0},
        "field": {
            "type": "packet",
            "wavevectors": [[0.0, 0.0, 0.0], [0.05, 0.0, 0.0]],
            "weights": [2.0],
            "domain": {"lo": [-1, -1, -1, -1], "hi": [1, 1, 1, 1]},
        },
        "analyses": ["hypotheses"],
    }
    with pytest.raises(ConfigInvalid) as err:
        validate(write_scenario(tmp_path, doc))
    assert "/field/weights" in err.value.pointers


def test_validate_rejects_energy_without_section(tmp_path):
    doc = without(gaussian_doc(analyses=["simulate", "energy"]), "energy")
    with pytest.raises(ConfigInvalid) as err:
        validate(write_scenario(tmp_path, doc))
    assert "/analyses" in err.value.pointers


def test_validate_rejects_chart_analysis_without_chart(tmp_path):
    doc = plane_wave_doc(analyses=["chart_diag"])
    del doc["chart"]
    with pytest.raises(ConfigInvalid) as err:
        validate(write_scenario(tmp_path, doc))
    assert "/analyses" in err.value.pointers


# (document, pointer, a fragment the message must hold): one per rule that
# ties the analyses to the document's sections, field type and each other
CROSS_FIELD_RULES = {
    "energy_on_packet": (
        lambda: packet_doc(analyses=["energy"], energy=ENERGY),
        "/analyses", "energy"),
    "plane_wave_energy_without_chart": (
        lambda: without(plane_wave_doc(analyses=["energy"], energy=ENERGY),
                        "chart"),
        "/analyses", "energy"),
    "energy_without_section": (
        lambda: without(gaussian_doc(analyses=["energy"]), "energy"),
        "/analyses", "energy"),
    "nonrel_without_section": (
        lambda: plane_wave_doc(analyses=["nonrel"]), "/analyses", "nonrel"),
    "diffusion_without_section": (
        lambda: without(gaussian_doc(analyses=["simulate"]), "diffusion"),
        "/analyses", "simulate"),
    "simulate_on_wave_field": (
        lambda: plane_wave_doc(analyses=["simulate"],
                               diffusion=gaussian_doc()["diffusion"]),
        "/analyses", "simulate"),
    "wave_analysis_on_gaussian": (
        lambda: gaussian_doc(analyses=["classify"]), "/analyses", "classify"),
    "chart_analysis_without_chart": (
        lambda: without(plane_wave_doc(analyses=["geometry_diag"]), "chart"),
        "/analyses", "geometry_diag"),
    "specular_without_simulate": (
        lambda: gaussian_doc(analyses=["specular"]), "/analyses", "specular"),
    "missing_field": (
        lambda: without(plane_wave_doc(analyses=["hypotheses"]), "field"),
        "/analyses", "hypotheses"),
    "chart_origin_outside_domain": (
        lambda: packet_doc(chart={"origin": [0.0, 0.0, 1.5, 0.0]}),
        "/chart/origin", "[0.0, 0.0, 1.5, 0.0]"),
}


# (document with a box of no interior, its pointer): an inverted or
# zero-extent box would pass validate and fail in run with a traceback
EMPTY_BOXES = {
    "field_box": (lambda: gaussian_doc(field={
        "type": "gaussian", "sigma": 1.0,
        "box": {"lo": [-4.0, 0.0, -4.0], "hi": [4.0, 0.0, 4.0]}}),
        "/field/box"),
    "field_domain": (lambda: packet_doc(field={
        **packet_doc()["field"],
        "domain": {"lo": [-1.0, 1.0, -1.0, -1.0],
                   "hi": [1.0, -1.0, 1.0, 1.0]}}),
        "/field/domain"),
    "energy_box": (lambda: {
        **json.loads((SCENARIOS / "plane_wave_boost.json").read_text()),
        "energy": {"box": {"lo": [1.0, -1.0, -1.0], "hi": [-1.0, 1.0, 1.0]}}},
        "/energy/box"),
    "diffusion_bins": (lambda: gaussian_doc(diffusion={
        **gaussian_doc()["diffusion"],
        "bins": {"lo": [-2.0, 2.0, -2.0], "hi": [2.0, -2.0, 2.0],
                 "shape": [4, 4, 4]}}),
        "/diffusion/bins"),
}


@pytest.mark.parametrize("case", sorted(EMPTY_BOXES))
def test_validate_rejects_a_box_with_no_interior(case, tmp_path, capsys):
    make, pointer = EMPTY_BOXES[case]
    with pytest.raises(ConfigInvalid) as err:
        validate(make())
    assert err.value.pointers == [pointer]
    assert main(["validate", write_scenario(tmp_path, make())]) == 2
    assert f"{pointer}: box [" in capsys.readouterr().err


def test_validate_refuses_an_oversized_hypotheses_lattice(tmp_path, capsys):
    # 3.4e8 events would scan for minutes; the shipped lattices stay valid
    doc = json.loads((SCENARIOS / "near_standing_wave.json").read_text())
    doc["lattices"]["hypothesis_shape"] = [1e6, 7, 7, 7]
    assert main(["validate", write_scenario(tmp_path, doc)]) == 2
    assert ("/lattices/hypothesis_shape: lattice of 343000000 events "
            "exceeds the hypotheses scan's budget of 4194304 events"
            in capsys.readouterr().err)
    with pytest.raises(ConfigInvalid) as err:
        validate(doc)
    assert err.value.pointers == ["/lattices/hypothesis_shape"]
    doc["lattices"]["hypothesis_shape"] = [64, 64, 32, 32]  # the budget
    validate(doc)
    for name in ("near_standing_wave", "packet_9mode"):
        validate(SCENARIOS / f"{name}.json")


# the section path of each map size whose budget the schema states as its
# maximum: 25^3 lattice points and 2^16 samples each ran for about 3 s on
# packet_9mode
MAP_BUDGETS = {
    "/lattices/verification/n_per_axis": ("lattices", "verification",
                                          "n_per_axis"),
    "/chart/n_samples": ("chart", "n_samples"),
}


@pytest.mark.parametrize("pointer", sorted(MAP_BUDGETS))
def test_validate_refuses_a_map_size_above_its_budget(pointer, tmp_path,
                                                      capsys):
    *section, key = MAP_BUDGETS[pointer]
    doc = json.loads((SCENARIOS / "packet_9mode.json").read_text())
    leaf, rule = doc, cli.SCENARIO_SCHEMA
    for name in section:
        leaf, rule = leaf[name], rule["properties"][name]
    budget = rule["properties"][key]["maximum"]
    leaf[key] = budget
    validate(doc)
    leaf[key] = budget + 1
    with pytest.raises(ConfigInvalid) as err:
        validate(doc)
    assert err.value.pointers == [pointer]
    assert main(["validate", write_scenario(tmp_path, doc)]) == 2
    assert f"{pointer}: {budget + 1} " in capsys.readouterr().err


@pytest.mark.parametrize("rule", sorted(CROSS_FIELD_RULES))
def test_validate_rejects_each_cross_field_rule(rule):
    make, pointer, fragment = CROSS_FIELD_RULES[rule]
    with pytest.raises(ConfigInvalid) as err:
        validate(make())
    assert err.value.pointers == [pointer]
    assert fragment in str(err.value)


# the smallest valid content of each section an analysis can need
MINIMAL_SECTIONS = {
    "chart": {"origin": [0.0, 0.0, 0.0, 0.0]},
    "diffusion": {
        "dt": 0.01, "horizon": 1.0, "n_paths": 10,
        "bins": {"lo": [-1.0] * 3, "hi": [1.0] * 3, "shape": [2, 2, 2]},
    },
    "energy": ENERGY,
    "nonrel": {"epsilons": [0.1, 0.05]},
}
MINIMAL_FIELDS = {
    "plane_wave": plane_wave_doc()["field"],
    "packet": packet_doc()["field"],
    "gaussian": gaussian_doc()["field"],
}


@pytest.mark.parametrize("analysis, field_type", [
    (a.name, field_type)
    for a in cli._TABLE for field_type in a.fields or [None]])
def test_validate_accepts_each_analysis_with_its_declared_needs(analysis,
                                                                field_type):
    table = {a.name: a for a in cli._TABLE}
    names = [analysis, *table[analysis].consumes]
    doc = {"name": "minimal", "constants": {"hbar": 1.0, "mass": 1.0, "c": 1.0},
           "analyses": names}
    for section in {s for name in names for s in table[name].sections}:
        doc[section] = MINIMAL_FIELDS[field_type] if section == "field" \
            else MINIMAL_SECTIONS[section]
    if analysis == "energy" and field_type == "plane_wave":
        doc["chart"] = MINIMAL_SECTIONS["chart"]  # the one rule off the table
    assert validate(doc).analyses == [a for a in cli.ANALYSES if a in names]


def test_analysis_table_is_consistent():
    order = list(cli.ANALYSES)
    for analysis in cli._TABLE:
        # an analysis runs on field types exactly when it reads the field
        assert bool(analysis.fields) == ("field" in analysis.sections)
        for consumed in analysis.consumes:
            assert order.index(consumed) < order.index(analysis.name)
    assert cli.SCENARIO_SCHEMA["properties"]["analyses"]["items"]["enum"] \
        == order
    assert list(cli._RUNNERS) == order


def test_validate_rejects_non_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(ConfigInvalid):
        validate(str(path))


def test_validate_rejects_missing_file(tmp_path):
    with pytest.raises(ConfigInvalid):
        validate(str(tmp_path / "nope.json"))


def test_validate_cli_exit_codes(tmp_path, capsys):
    good = write_scenario(tmp_path, plane_wave_doc(), "good.json")
    assert main(["validate", good]) == 0
    bad = write_scenario(tmp_path, {"name": "x"}, "bad.json")
    assert main(["validate", bad]) == 2
    err = capsys.readouterr().err
    assert "invalid" in err


def test_validate_reports_each_broken_keyword_on_its_own():
    doc = plane_wave_doc(seed=-0.5)
    with pytest.raises(ConfigInvalid) as err:
        validate(doc)
    assert err.value.pointers == ["/seed", "/seed"]
    assert "-0.5 is not of type 'integer'" in str(err.value)
    assert "-0.5 is less than the minimum of 0" in str(err.value)
    assert validate(plane_wave_doc(seed=7.0)).seed == 7  # 7.0 is an integer


# ---------------------------------------------------------------------------
# the schema walker against jsonschema, which serves only as the oracle

# the documents the differential tests edit: the shipped scenarios and the
# builders' documents
SCHEMA_DOCS = [json.loads(p.read_text())
               for p in sorted(SCENARIOS.glob("*.json"))] \
    + [gaussian_doc(), plane_wave_doc(), packet_doc()]

# values the edits put in: every JSON type, numbers on both sides of each
# bound in the schema (1.0 is an integer, a boolean is no number), a const
# value, short and long arrays ([1, True] holds no repeat: a boolean equals
# only a boolean) and objects
VALUE_POOL = (None, True, False, 0, -1, 1.0, -0.5, 1e9, "", "packet", [],
              [1, True], [0.0, 0.0, 0.0], [0.5] * 40, {}, {"kind": "density"})


def _paths(value, path=()):
    """The path (tuple of keys and indices) of every value inside value."""
    if isinstance(value, dict):
        members = value.items()
    elif isinstance(value, list):
        members = enumerate(value)
    else:
        members = ()
    for key, member in members:
        yield path + (key,)
        yield from _paths(member, path + (key,))


def _edit(doc, path, kind, value):
    """doc after one edit at path, made in place: "replace" puts value
    there, "delete" removes the key or item, "add" gives an object an
    unknown key holding value or appends value to an array. At the root
    (path ()) only "add" on an object edits; anything else returns value."""
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    target = parent[path[-1]] if path else doc
    if kind == "add" and isinstance(target, dict):
        target["frobnicate"] = value
    elif kind == "add" and isinstance(target, list):
        target.append(value)
    elif not path:
        return value
    elif kind == "delete":
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    return doc


def _assert_walker_matches_oracle(doc):
    """The walker's errors are jsonschema's, pointers and messages, and
    validate raises their pointers sorted by path; returns how many."""
    import jsonschema

    want = [(tuple(e.absolute_path), e.message) for e in
            jsonschema.Draft7Validator(cli.SCENARIO_SCHEMA).iter_errors(doc)]
    got = cli._schema_errors(cli.SCENARIO_SCHEMA, doc)
    assert sorted((cli._pointer(at), msg) for at, msg in got) \
        == sorted((cli._pointer(at), msg) for at, msg in want), doc
    if want and isinstance(doc, dict):
        with pytest.raises(ConfigInvalid) as err:
            validate(doc)
        assert err.value.pointers == [
            cli._pointer(at) for at, _ in sorted(want, key=lambda e: e[0])]
    return len(want)


def test_schema_walker_matches_jsonschema_on_each_single_edit():
    # every place in the documents (array indices folded), in the first
    # document that has it, is replaced by each pool value, deleted, and
    # given an unknown key or an appended item (a repeated analysis)
    first = {}
    for doc in SCHEMA_DOCS:
        for path in _paths(doc):
            place = tuple("*" if isinstance(k, int) else k for k in path)
            first.setdefault(place, (doc, path))
    first[()] = (SCHEMA_DOCS[0], ())
    n_invalid = 0
    for doc, path in first.values():
        edits = [("replace", v) for v in VALUE_POOL] \
            + [("delete", None), ("add", "simulate")]
        for kind, value in edits:
            edited = _edit(copy.deepcopy(doc), path, kind,
                           copy.deepcopy(value))
            n_invalid += bool(_assert_walker_matches_oracle(edited))
    assert n_invalid > 1000


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_schema_walker_matches_jsonschema_on_edited_documents(data):
    doc = copy.deepcopy(data.draw(st.sampled_from(SCHEMA_DOCS)))
    for _ in range(data.draw(st.integers(1, 4))):
        path = data.draw(st.sampled_from([()] + list(_paths(doc))))
        kind = data.draw(st.sampled_from(("replace", "delete", "add")))
        target = doc
        for key in path:
            target = target[key]
        # an appended item may repeat one already there (uniqueItems)
        pool = VALUE_POOL + (tuple(target) if isinstance(target, list) else ())
        value = copy.deepcopy(data.draw(st.sampled_from(pool)))
        doc = _edit(doc, path, kind, value)
    _assert_walker_matches_oracle(doc)


def _schema_rules(schema):
    """(keyword, value) for every keyword of schema and of every schema
    nested in it, through properties and any schema-valued keyword."""
    for key, rule in schema.items():
        yield key, rule
        if key == "properties":
            subs = list(rule.values())
        elif key in ("const", "enum"):
            subs = []  # literal JSON values, not schemas
        elif isinstance(rule, dict):
            subs = [rule]
        elif isinstance(rule, list):
            subs = [sub for sub in rule if isinstance(sub, dict)]
        else:
            subs = []
        for sub in subs:
            yield from _schema_rules(sub)


def test_schema_walker_handles_every_keyword_the_schema_uses():
    rules = list(_schema_rules(cli.SCENARIO_SCHEMA))
    used = {key for key, _ in rules} - {"$schema"}
    assert used <= cli._SCHEMA_KEYWORDS, sorted(used - cli._SCHEMA_KEYWORDS)
    # and only in the forms it checks
    types = set(cli._SCHEMA_TYPES) | {"number", "integer"}
    for key, rule in rules:
        if key == "additionalProperties":
            assert rule is False
        elif key == "items":
            assert isinstance(rule, dict)
        elif key == "type":
            assert set([rule] if isinstance(rule, str) else rule) <= types


# documents that set every integer field of the schema between them, and
# the places of those fields ("*" for each array item)
INTEGER_DOCS = {
    "gaussian": (
        gaussian_doc(
            analyses=["simulate", "estimate", "specular", "energy"],
            energy={"box": {"lo": [-7.0] * 3, "hi": [7.0] * 3},
                    "order": 8, "time_order": 4}),
        [("seed",), ("diffusion", "n_paths"), ("diffusion", "n_snapshots"),
         ("diffusion", "chunk_size"), ("diffusion", "bins", "shape", "*"),
         ("diffusion", "min_count"), ("energy", "order"),
         ("energy", "time_order")]),
    "plane_wave": (
        plane_wave_doc(
            chart={"origin": [0.0] * 4, "n_samples": 4},
            lattices={"verification": {"n_per_axis": 2},
                      "hypothesis_shape": [3, 3, 3, 3]},
            classify={"n_points": 3},
            nonrel={"epsilons": [0.1, 0.05], "n_per_axis": 2},
            analyses=["hypotheses", "chart_diag", "geometry_diag",
                      "classify", "nonrel"]),
        [("chart", "n_samples"), ("lattices", "verification", "n_per_axis"),
         ("lattices", "hypothesis_shape", "*"), ("classify", "n_points"),
         ("nonrel", "n_per_axis")]),
}
INTEGER_DOCS["gaussian"][0]["diffusion"].update(
    n_paths=3000, horizon=0.5, chunk_size=1024)


def _floated(doc, places):
    """A copy of doc with the integer at each place written as x.0."""
    doc = copy.deepcopy(doc)
    for place in places:
        parent = doc
        for key in place[:-1]:
            parent = parent[key]
        keys = range(len(parent)) if place[-1] == "*" else [place[-1]]
        for key in keys:
            assert type(parent[key]) is int
            parent[key] = float(parent[key])
    return doc


def test_integer_places_cover_the_schema():
    places = [place for _, places in INTEGER_DOCS.values()
              for place in places]
    n_integer = sum(key == "type" and rule == "integer"
                    for key, rule in _schema_rules(cli.SCENARIO_SCHEMA))
    assert len(set(places)) == len(places) == n_integer


@pytest.mark.parametrize("name", sorted(INTEGER_DOCS))
def test_integer_fields_written_as_floats_run_the_same(tmp_path, name):
    # draft-07 counts 2048.0 as an integer: validate hands it back as 2048,
    # so the run, its report and its data files are those of 2048
    doc, places = INTEGER_DOCS[name]
    floated = _floated(doc, places)
    want = json.dumps(doc, sort_keys=True)
    # 2048.0 == 2048 in Python: documents and reports compare as JSON text
    assert json.dumps(floated, sort_keys=True) != want
    reports = []
    for tag, source in (("int", doc), ("float", floated)):
        scenario = validate(source)
        assert json.dumps(scenario.raw, sort_keys=True) == want
        report = run(scenario, out_dir=tmp_path / tag)
        assert report["error"] is None, report["error"]
        saved = json.loads((tmp_path / tag / "report.json").read_text())
        for key in ("started", "wall_clock_s", "analysis_wall_s"):
            del saved[key]
        reports.append(json.dumps(saved, sort_keys=True))
    assert reports[0] == reports[1]
    if name == "gaussian":  # the data files' digests are compared too
        assert '"sha256"' in reports[0]


# ---------------------------------------------------------------------------
# run orchestration


def test_run_plane_wave_passes(tmp_path):
    scenario = validate(write_scenario(tmp_path, plane_wave_doc()))
    report = run(scenario, out_dir=tmp_path / "out")
    assert report["pass"] is True
    assert report["error"] is None
    names = {row["name"] for row in report["properties"]}
    assert "round_trip_max" in names
    assert "classification_unanimous" in names
    # every property row carries its tolerance and comparator
    for row in report["properties"]:
        assert row["comparator"] in ("<=", ">=")
        assert isinstance(row["tolerance"], float)
    saved = json.loads((tmp_path / "out" / "report.json").read_text())
    assert saved["pass"] is True
    assert saved["versions"]["comovkit"]


def test_run_detuned_plane_wave_fails_only_the_modulus_rows(tmp_path):
    # field.frequency sets the plane wave's frequency off the mass shell:
    # omega = 1.5 for k = 0.75 leaves |J.J + (mcp)^2| / (mcp)^2 =
    # omega^2 - k^2 - kc^2 = 0.6875, and the classification follows the
    # failed identity; every other row of the scenario still passes
    doc = json.loads((SCENARIOS / "plane_wave_boost.json").read_text())
    doc["field"]["frequency"] = 1.5
    out = tmp_path / "out"
    assert main(["run", write_scenario(tmp_path, doc), "--out", str(out)]) == 1
    report = json.loads((out / "report.json").read_text())
    assert report["error"] is None
    failed = {(row["analysis"], row["name"]): row["value"]
              for row in report["properties"] if not row["pass"]}
    assert failed == {("classify", "classification_unanimous"): 1.0,
                      ("classify", "modulus_identity_max"): 0.6875}
    assert len(report["properties"]) > len(failed)


def test_run_packet_reports_flow_counters(tmp_path):
    scenario = validate(str(SCENARIOS / "packet_9mode.json"))
    run(scenario, out_dir=tmp_path / "out")
    saved = json.loads((tmp_path / "out" / "report.json").read_text())
    diag = saved["analyses"]["chart_diag"]
    steps = diag["flow_steps"]
    evaluations = diag["flow_rhs_evaluations"]
    estimate = diag["max_step_error_estimate"]
    assert all(np.isfinite([steps, evaluations, estimate]))
    assert 0 < steps < evaluations
    assert 0.0 <= estimate <= 1e-9
    # every flow row is accepted at its first attempt
    assert diag["flow_rejected_rows"] == 0
    assert diag["flow_attempts"] > 0


def test_run_exit_one_names_failed_hypothesis(tmp_path, capsys):
    doc = {
        "name": "standing-ish",
        "constants": {"hbar": 1.0, "mass": 1.0, "c": 1.0},
        "field": {
            "type": "packet",
            "wavevectors": [[0.75, 0.0, 0.0], [-0.9, 0.0, 0.0]],
            "weights": [1.0, 0.98],
            "domain": {
                "lo": [-0.3, -2.5, -0.1, -0.1],
                "hi": [0.3, 0.5, 0.1, 0.1],
            },
        },
        "lattices": {"hypothesis_shape": [3, 161, 3, 3]},
        "analyses": ["hypotheses"],
    }
    path = write_scenario(tmp_path, doc)
    code = main(["run", path, "--out", str(tmp_path / "out")])
    assert code == 1
    out = capsys.readouterr().out
    assert "FAIL" in out
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    violated = report["analyses"]["hypotheses"]["violated"]
    assert "(i)" in violated
    assert report["pass"] is False


def test_run_exit_two_on_invalid_scenario(tmp_path, capsys):
    doc = gaussian_doc()
    doc["diffusion"]["horizon"] = 0.001
    path = write_scenario(tmp_path, doc)
    assert main(["run", path]) == 2
    assert "/diffusion/dt" in capsys.readouterr().err


def test_run_exit_three_writes_partial_report(tmp_path, capsys):
    # equal-weight counterpropagating modes have modulus zeros, so the
    # bundle factory refuses the domain at runtime, after validation
    doc = {
        "name": "node-crash",
        "constants": {"hbar": 1.0, "mass": 1.0, "c": 1.0},
        "field": {
            "type": "packet",
            "wavevectors": [[0.75, 0.0, 0.0], [-0.75, 0.0, 0.0]],
            "weights": [1.0, 1.0],
            "domain": {
                "lo": [-1.0, -6.0, -0.1, -0.1],
                "hi": [1.0, 6.0, 0.1, 0.1],
            },
        },
        "analyses": ["hypotheses"],
    }
    path = write_scenario(tmp_path, doc)
    code = main(["run", path, "--out", str(tmp_path / "out")])
    assert code == 3
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["error"]["analysis"] == "hypotheses"
    assert report["error"]["type"] == "NodeInDomain"
    assert report["pass"] is False
    assert "error" in capsys.readouterr().err


def test_run_exit_three_on_failed_chart_hypotheses(tmp_path, capsys):
    # the shipped negative control with the chart analysis added: the
    # chart refuses the field with a typed error after the hypothesis scan
    doc = json.loads((SCENARIOS / "near_standing_wave.json").read_text())
    doc["analyses"].append("chart_diag")
    doc["chart"] = {"origin": [0.0, 0.0, 0.0, 0.0]}
    path = write_scenario(tmp_path, doc)
    code = main(["run", path, "--out", str(tmp_path / "out")])
    assert code == 3
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["error"]["analysis"] == "chart_diag"
    assert report["error"]["type"] == "HypothesesFailed"
    assert report["error"]["kind"] == "domain"
    assert "hypotheses" in report["analyses"]
    assert "chart_diag" in capsys.readouterr().err


def test_run_scans_each_hypotheses_lattice_once(tmp_path, monkeypatch):
    from comovkit import chart as chart_module

    scanned = []

    def counting(bundle, *args, **kwargs):
        report = check_theorem_hypotheses(bundle, *args, **kwargs)
        scanned.append(report.lattice_shape)
        return report

    monkeypatch.setattr(cli, "check_theorem_hypotheses", counting)
    monkeypatch.setattr(chart_module, "check_theorem_hypotheses", counting)

    # the hypotheses analysis and the chart read the same default lattice
    doc = packet_doc(analyses=["hypotheses", "chart_diag"],
                     chart={"origin": [0.0, 0.0, 0.0, 0.0], "n_samples": 4})
    report = run(validate(doc), out_dir=tmp_path / "packet")
    assert report["error"] is None
    assert scanned == [HYPOTHESIS_SHAPE]
    assert report["analyses"]["chart_diag"]["hypothesis_report"] \
        == report["analyses"]["hypotheses"]

    # the shipped negative control scans its own lattice only: that report
    # fails, which disproves the hypotheses, so the chart refuses with it
    # and ends the run with a typed error
    scanned.clear()
    doc = json.loads((SCENARIOS / "near_standing_wave.json").read_text())
    doc["analyses"].append("chart_diag")
    doc["chart"] = {"origin": [0.0, 0.0, 0.0, 0.0]}
    report = run(validate(doc), out_dir=tmp_path / "near")
    assert scanned == [tuple(doc["lattices"]["hypothesis_shape"])]
    assert report["error"]["analysis"] == "chart_diag"
    assert report["error"]["kind"] == "domain"
    assert report["error"]["type"] == "HypothesesFailed"
    assert report["error"]["message"] == \
        "field fails the chart hypotheses: (i), (iii)"
    assert (tmp_path / "near" / "report.json").is_file()


def test_run_exit_three_on_stalled_initial_sampler(tmp_path):
    # the gaussian weight underflows on the whole box: validation passes,
    # the rejection sampler gives up after its proposal budget
    doc = gaussian_doc(analyses=["simulate"])
    doc["field"]["box"] = {"lo": [20.0] * 3, "hi": [24.0] * 3}
    doc["diffusion"].update(n_paths=16, horizon=0.02, n_snapshots=2)
    doc["diffusion"]["bins"] = {"lo": [20.5] * 3, "hi": [23.5] * 3,
                                "shape": [2, 2, 2]}
    path = write_scenario(tmp_path, doc)
    assert main(["validate", path]) == 0
    start = time.perf_counter()
    code = main(["run", path, "--out", str(tmp_path / "out")])
    assert time.perf_counter() - start < 20.0
    assert code == 3
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["error"]["type"] == "SamplerStalled"
    assert "[20.0, 20.0, 20.0]" in report["error"]["message"]


def test_run_exit_three_on_too_few_paths_for_variance(tmp_path):
    # 20 paths in 32 path batches leave every batch with one path: the
    # variance has no standard error, which is a typed domain error, not
    # a passing z of 0 over an infinite SE
    doc = gaussian_doc(analyses=["simulate"])
    doc["diffusion"].update(n_paths=20, chunk_size=20, horizon=0.1)
    path = write_scenario(tmp_path, doc)
    assert main(["validate", path]) == 0
    code = main(["run", path, "--out", str(tmp_path / "out")])
    assert code == 3
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["error"]["analysis"] == "simulate"
    assert report["error"]["kind"] == "domain"
    assert report["error"]["type"] == "InsufficientSamples"
    assert report["properties"] == []
    assert "paths_pre" in report["data_files"]


def test_run_records_internal_error(tmp_path, monkeypatch, capsys):
    def broken(ctx):
        raise RuntimeError("injected fault")

    monkeypatch.setitem(cli._RUNNERS, "classify", broken)
    path = write_scenario(tmp_path, plane_wave_doc())
    code = main(["run", path, "--out", str(tmp_path / "out")])
    assert code == 3
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    error = report["error"]
    assert "injected fault" in error.pop("traceback")
    assert error == {
        "analysis": "classify", "kind": "internal",
        "type": "RuntimeError", "message": "injected fault",
    }
    assert "chart_diag" in report["analyses"]
    assert report["pass"] is False
    assert "injected fault" in capsys.readouterr().err


def test_run_records_analysis_wall_times(tmp_path, monkeypatch):
    calls = []

    def counted(bundle, x, **kwargs):
        calls.append(np.shape(x))
        return real(bundle, x, **kwargs)

    real = cli.four_current
    monkeypatch.setattr(cli, "four_current", counted)
    run(validate(plane_wave_doc()), out_dir=tmp_path / "ok")
    saved = json.loads((tmp_path / "ok" / "report.json").read_text())
    wall = saved["analysis_wall_s"]
    assert list(wall) == ["chart_diag", "classify"]
    assert all(t > 0.0 for t in wall.values())
    assert sum(wall.values()) <= saved["wall_clock_s"]
    # classify makes one current call on all of its events
    assert calls == [(6, 4)]

    def broken(ctx):
        raise RuntimeError("injected fault")

    # the failed analysis keeps its time
    monkeypatch.setitem(cli._RUNNERS, "classify", broken)
    report = run(validate(plane_wave_doc()), out_dir=tmp_path / "failed")
    assert list(report["analysis_wall_s"]) == ["chart_diag", "classify"]
    assert "classify" not in report["analyses"]


def test_report_writes_non_finite_numbers_as_strings():
    # numpy scalars and Python floats alike: a bare NaN token is not JSON
    text = cli._json_text({"a": np.float64("nan"), "b": np.float32("inf"),
                           "c": float("nan"), "d": [1.0, -np.inf]})
    assert json.loads(text, parse_constant=pytest.fail) == {
        "a": "nan", "b": "inf", "c": "nan", "d": [1.0, "-inf"]}


def _plain(obj):
    """The report value as json.dumps got it before the one-pass writer:
    numpy arrays and scalars as plain values, tuples as lists, keys as
    strings and non-finite floats as their repr."""
    if isinstance(obj, dict):
        return {str(k): _plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_plain(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return _plain(obj.tolist())
    if isinstance(obj, (np.floating, np.integer, np.bool_)):
        return _plain(obj.item())
    if isinstance(obj, float) and not np.isfinite(obj):
        return repr(obj)
    return obj


def _dumps(obj):
    return json.dumps(_plain(obj), indent=2, sort_keys=True)


@pytest.mark.parametrize("name", ["gauss_small", "near_standing_wave",
                                  "nonrel_family", "packet_9mode",
                                  "plane_wave_boost"])
def test_report_writer_matches_json_dumps(name, tmp_path):
    # the shipped fast documents (gauss_small stands in for the slow
    # gaussian_stationary, with the same analyses), report and file alike
    path = SCENARIOS / f"{name}.json"
    if name == "gauss_small":
        path = Path(__file__).parent / "gauss_small.json"
    report = run(validate(path), out_dir=tmp_path)
    assert cli._json_text(report) == _dumps(report)
    assert (tmp_path / "report.json").read_text() == \
        cli._json_text(report) + "\n"


@pytest.mark.parametrize("value", [
    float("nan"), float("inf"), -np.inf, np.float64("nan"),
    np.float32(0.1), np.float32("-inf"), np.bool_(True), np.bool_(False),
    np.int64(-7), (1, 2.5, "x"), (), {}, [], [[]], [{}], {1: 2.0, 0: "a"},
    {"b": [1.0, float("nan"), 3.0], "a": None, "c": True},
    "ascii and non-ASCII: \u00e9\u4e2d\U0001f600 \"quoted\" \\ \n",
    {"\u00e9": np.array([[1.5, np.nan], [np.inf, -0.0]])},
    np.array([], dtype=float), np.array([True, False]), np.arange(3),
    [1, 1.0, True, None, "1"], {"nested": {"deeper": {"x": [0.1, 0.2]}}},
    1e300, -1e-300, 10 ** 30, 0.0,
], ids=lambda v: type(v).__name__)
def test_report_writer_matches_json_dumps_on_edge_cases(value):
    assert cli._json_text(value) == _dumps(value)
    assert cli._json_text({"k": value, "l": [value]}) \
        == _dumps({"k": value, "l": [value]})


def test_report_writer_refuses_what_json_refuses():
    with pytest.raises(TypeError, match="not JSON serializable"):
        cli._json_text({"a": {1, 2}})


def test_run_gaussian_diffusion_properties(tmp_path):
    scenario = validate(write_scenario(tmp_path, gaussian_doc()))
    report = run(scenario, out_dir=tmp_path / "out", threads=2)
    assert report["error"] is None
    rows = {row["name"]: row for row in report["properties"]}
    assert rows["stationary_variance_z"]["pass"]
    assert rows["osmotic_identity_fraction"]["pass"]
    assert rows["drift_antisymmetry_fraction"]["pass"]
    assert rows["involution_exact"]["pass"]
    assert rows["specular_forward_drift_fraction"]["pass"]
    assert report["pass"] is True
    # data files recorded with digests
    for key in ("paths_times", "paths_pre", "paths_post",
                "estimate_density", "estimate_osmotic"):
        entry = report["data_files"][key]
        assert (tmp_path / "out" / entry["path"]).stat().st_size \
            == entry["bytes"]


def test_run_seed_determinism_across_threads(tmp_path):
    doc = gaussian_doc(analyses=["simulate"])
    doc["diffusion"]["n_paths"] = 5000
    doc["diffusion"]["horizon"] = 0.5
    doc["diffusion"]["chunk_size"] = 1024
    scenario = validate(write_scenario(tmp_path, doc))
    rep1 = run(scenario, out_dir=tmp_path / "a", threads=1)
    rep2 = run(scenario, out_dir=tmp_path / "b", threads=4)
    # the rejection sampler's counts, summed over the five chunks
    counts = rep1["analyses"]["simulate"]["initial_acceptance"]
    assert counts == rep2["analyses"]["simulate"]["initial_acceptance"]
    assert 5000 <= counts["accepted"] < counts["proposed"]
    for key in ("paths_times", "paths_pre", "paths_post"):
        a = (tmp_path / "a" / rep1["data_files"][key]["path"]).read_bytes()
        b = (tmp_path / "b" / rep2["data_files"][key]["path"]).read_bytes()
        assert a == b
        assert rep1["data_files"][key]["sha256"] \
            == rep2["data_files"][key]["sha256"]


def test_run_data_file_digests_match_disk(tmp_path):
    # digests are taken in blocks; paths_pre spans several of them
    doc = gaussian_doc(analyses=["simulate", "estimate"])
    doc["diffusion"]["horizon"] = 0.5
    scenario = validate(write_scenario(tmp_path, doc))
    report = run(scenario, out_dir=tmp_path / "out")
    assert report["error"] is None
    assert report["data_files"]["paths_pre"]["bytes"] > 2 << 20
    assert len(report["data_files"]) == 8
    for entry in report["data_files"].values():
        path = tmp_path / "out" / entry["path"]
        assert entry["sha256"] == hashlib.sha256(path.read_bytes()).hexdigest()
        assert entry["bytes"] == path.stat().st_size


def test_run_seed_override_changes_data(tmp_path):
    doc = gaussian_doc(analyses=["simulate"])
    doc["diffusion"]["n_paths"] = 2000
    doc["diffusion"]["horizon"] = 0.5
    scenario = validate(write_scenario(tmp_path, doc))
    rep1 = run(scenario, out_dir=tmp_path / "a")
    rep2 = run(scenario, out_dir=tmp_path / "b", seed=999)
    assert rep1["data_files"]["paths_pre"]["sha256"] \
        != rep2["data_files"]["paths_pre"]["sha256"]
    assert rep2["seed"] == 999


# ---------------------------------------------------------------------------
# plot data


def test_plotdata_nonrel_and_energy(tmp_path):
    report = {
        "analyses": {
            "nonrel": {
                "rows": [
                    {"eps_measured": 0.1, "discrepancy": 1e-2},
                    {"eps_measured": 0.05, "discrepancy": 2.5e-3},
                ],
                "slope": 2.01,
            },
            "energy": {
                "mu_direct": -0.4993,
                "mu_identity": -0.4993,
                "e_u2": 0.0014,
            },
        }
    }
    path = tmp_path / "report.json"
    path.write_text(json.dumps(report))
    written = emit_plotdata(str(path))
    names = sorted(p.name for p in written)
    assert names == ["energy.csv", "nonrel.csv"]
    nonrel = (tmp_path / "nonrel.csv").read_text().splitlines()
    assert nonrel[0] == "eps,residual,slope_fit"
    assert len(nonrel) == 3
    assert nonrel[1].startswith("0.1,0.01,")
    energy = (tmp_path / "energy.csv").read_text().splitlines()
    assert energy[0] == "mu_direct,mu_identity,e_u2"
    assert len(energy) == 2


def test_plotdata_empty_report_warns(tmp_path, capsys):
    path = tmp_path / "report.json"
    path.write_text(json.dumps({"analyses": {}}))
    written = emit_plotdata(str(path), out_dir=tmp_path)
    assert written == []
    assert "warning" in capsys.readouterr().err
    assert not list(tmp_path.glob("*.csv"))


def test_plotdata_cli_roundtrip(tmp_path, capsys):
    report = {"analyses": {"energy": {
        "mu_direct": -0.5, "mu_identity": -0.5, "e_u2": 0.0}}}
    path = tmp_path / "report.json"
    path.write_text(json.dumps(report))
    assert main(["plotdata", str(path), "--out", str(tmp_path / "figs")]) == 0
    out = capsys.readouterr().out
    assert "energy.csv" in out
    assert main(["plotdata", str(tmp_path / "missing.json")]) == 2


# ---------------------------------------------------------------------------
# unusable paths: one typed line and exit 2, never a traceback


def _assert_one_invalid_line(capsys, *fragments):
    err = capsys.readouterr().err
    assert err.startswith("invalid: ") and err.count("\n") == 1
    assert "Traceback" not in err
    for fragment in fragments:
        assert fragment in err


@pytest.mark.parametrize("command", ["validate", "run"])
def test_scenario_directory_exits_two(tmp_path, capsys, command):
    assert main([command, str(tmp_path)]) == 2
    _assert_one_invalid_line(capsys, "cannot read scenario", "directory")


@pytest.mark.parametrize("command", ["validate", "run"])
def test_non_utf8_scenario_exits_two(tmp_path, capsys, command):
    path = tmp_path / "latin1.json"
    path.write_bytes('{"name": "caf\xe9"}'.encode("latin-1"))
    assert main([command, str(path)]) == 2
    _assert_one_invalid_line(capsys, "cannot read scenario", "utf-8")


@pytest.mark.parametrize("command", ["validate", "run"])
def test_unreadable_scenario_exits_two(tmp_path, capsys, monkeypatch,
                                       command):
    # a permission-denied read, raised directly so the test also holds
    # for a user who may read any file
    path = tmp_path / "locked.json"
    path.write_text(json.dumps(gaussian_doc()))

    def denied(self, *args, **kwargs):
        raise PermissionError(13, "Permission denied", str(self))

    monkeypatch.setattr(Path, "read_text", denied)
    assert main([command, str(path)]) == 2
    _assert_one_invalid_line(capsys, "cannot read scenario",
                             "Permission denied")


def test_run_negative_seed_exits_two(tmp_path, capsys):
    out = tmp_path / "out"
    path = write_scenario(tmp_path, plane_wave_doc())
    assert main(["run", path, "--seed", "-5", "--out", str(out)]) == 2
    _assert_one_invalid_line(capsys, "seed -5")
    assert not out.exists()


@pytest.mark.parametrize("threads", ["0", "-3"])
def test_run_threads_below_one_exits_two(tmp_path, capsys, threads):
    out = tmp_path / "out"
    path = write_scenario(tmp_path, plane_wave_doc())
    assert main(["run", path, "--threads", threads, "--out", str(out)]) == 2
    _assert_one_invalid_line(capsys, "threads " + threads)
    assert not out.exists()


def test_run_out_existing_file_exits_two(tmp_path, capsys):
    out = tmp_path / "taken"
    out.write_text("not a directory")
    scenario = str(SCENARIOS / "plane_wave_boost.json")
    assert main(["run", scenario, "--out", str(out)]) == 2
    _assert_one_invalid_line(capsys, "cannot create output directory",
                             str(out))
    assert out.read_text() == "not a directory"


def test_plotdata_directory_exits_two(tmp_path, capsys):
    assert main(["plotdata", str(tmp_path)]) == 2
    _assert_one_invalid_line(capsys, "cannot read report", "directory")
    assert not list(tmp_path.iterdir())


def test_plotdata_out_existing_file_exits_two(tmp_path, capsys):
    path = tmp_path / "report.json"
    path.write_text(json.dumps({"analyses": {"energy": {
        "mu_direct": -0.5, "mu_identity": -0.5, "e_u2": 0.0}}}))
    out = tmp_path / "taken"
    out.write_text("not a directory")
    assert main(["plotdata", str(path), "--out", str(out)]) == 2
    _assert_one_invalid_line(capsys, "cannot create output directory")
    assert out.read_text() == "not a directory"
