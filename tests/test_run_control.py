"""Run control: read in one function, with one precedence, and never
part of a run's identity except where the cache key says so.

The cache key and the telemetry run id are identity: a refactor of how
run control is read must leave both byte-identical, so they are pinned
here (captured at e55a876, before ``run_control`` existed).

Re-pinned once, when the four loose recovery fields of
``ScenarioConfig`` (``rto_min_ns``, ``fixed_rto_ns``, ``tlp``,
``transport_overrides``) became the one ``recovery`` spec: the key
encodes the field set, so every key and run id moved together. The
shards, telemetry and checkpoint keys still equal the plain key.

Re-pinned a second time when seven config fields nothing set
(``fat_tree_k``, ``spine_rate_factors``, ``ecn_k_bytes``,
``dcqcn_kmin``, ``dcqcn_kmax``, ``dcqcn_pmax``, ``hard_cap_ns``) became
module constants, for the same reason. Old -> new: the plain key
``219d0e17…`` -> ``331565d4…``, audit ``78f3cfed…`` -> ``44cd5866…``,
faults ``1cea5551…`` -> ``f8efeb2a…``; run ids (``dctcp_tlt_s3_``)
plain and telemetry ``5ea857da`` -> ``0c525c9e``, shards ``ed54e40a``
-> ``fa2b84e1``, audit ``90dae87b`` -> ``c9677c26``, faults
``8ba5e2b3`` -> ``574d39cf``, checkpoint ``c87aec31`` -> ``e2ccb9e6``.
"""

import ast
import functools
import json
from pathlib import Path

import pytest

import repro
from repro.experiments import cache
from repro.experiments.parallel import Job
from repro.experiments.scale import TINY
from repro.experiments.scenarios import (
    RunControl,
    ScenarioConfig,
    run_control,
    scenario_run_id,
)

FAULTS = {"events": [{"time_ns": 1_000, "kind": "link_down", "target": "tor0:0"}]}

#: Shards, telemetry and a checkpoint are how a run is executed or
#: watched, not what it simulates: they share the plain run's key.
PLAIN_KEY = "331565d4c21b975e02d3d242c5fa1ccdee593a1eb49e6201bb1c54100e961fe4"

#: field values -> (Job.cache_key(), scenario_run_id()).
IDENTITY_PINS = {
    "plain": ({}, PLAIN_KEY, "dctcp_tlt_s3_0c525c9e"),
    "shards": ({"shards": 2}, PLAIN_KEY, "dctcp_tlt_s3_fa2b84e1"),
    "audit": (
        {"audit": True},
        "44cd5866d0d7d06da186600a0ed1a37c2b1ded55bcf129c762c64cabdd33f292",
        "dctcp_tlt_s3_c9677c26",
    ),
    "faults": (
        {"faults": FAULTS},
        "f8efeb2abb20ce1a5a32d7c42b76956f7172b032992ab5882779c054f1633935",
        "dctcp_tlt_s3_574d39cf",
    ),
    "telemetry": (
        {"telemetry": {"out_dir": "/tmp/tele", "interval_ns": 50_000}},
        PLAIN_KEY,
        "dctcp_tlt_s3_0c525c9e",
    ),
    "checkpoint": ({"checkpoint": "/tmp/ck"}, PLAIN_KEY, "dctcp_tlt_s3_e2ccb9e6"),
}


def _config(**fields):
    return ScenarioConfig(transport="dctcp", tlt=True, scale=TINY, seed=3, **fields)


@pytest.fixture
def pinned_code_version(monkeypatch):
    # The key mixes in the code version (git HEAD); fix it.
    monkeypatch.setattr(cache, "_code_version_memo", "pinned")


@pytest.mark.parametrize("name", sorted(IDENTITY_PINS))
def test_cache_key_and_telemetry_run_id_are_pinned(name, pinned_code_version):
    fields, cache_key, run_id = IDENTITY_PINS[name]
    config = _config(**fields)
    assert Job(0, config, config.seed).cache_key() == cache_key
    assert scenario_run_id(config) == run_id


def test_cache_key_folds_the_fault_file_of_the_environment(
        tmp_path, monkeypatch, pinned_code_version):
    path = tmp_path / "faults.json"
    path.write_text(json.dumps(FAULTS))
    monkeypatch.setenv("TLT_FAULTS", str(path))
    config = _config()
    # The spec, not the path: the same key as the explicit field.
    assert Job(0, config, config.seed).cache_key() == IDENTITY_PINS["faults"][1]
    # An observation does not name its files after how it was asked for.
    assert scenario_run_id(config) == IDENTITY_PINS["plain"][2]


# -- precedence: explicit config field > TLT_* variable > off --------------------

VARIABLES = ("TLT_SHARDS", "TLT_AUDIT", "TLT_AUDIT_DUMP", "TLT_FAULTS",
             "TLT_TELEMETRY", "TLT_CHECKPOINT")
FAULTS_FILE = "<a file holding FAULTS>"


def _out_dir(control):
    return control.telemetry and control.telemetry["out_dir"]


#: id, config fields, environment, what is read of the result, expected.
PRECEDENCE = [
    ("nothing-said", {}, {}, lambda c: c, RunControl()),
    ("shards-env", {}, {"TLT_SHARDS": "4"}, lambda c: c.shards, 4),
    ("shards-field-beats-env", {"shards": 2}, {"TLT_SHARDS": "4"}, lambda c: c.shards, 2),
    ("shards-env-malformed", {}, {"TLT_SHARDS": "many"}, lambda c: c.shards, ValueError),
    ("shards-env-empty", {}, {"TLT_SHARDS": ""}, lambda c: c.shards, 1),
    ("shards-at-least-one", {"shards": 0}, {}, lambda c: c.shards, 1),
    ("audit-env-1", {}, {"TLT_AUDIT": "1"}, lambda c: c.audit, True),
    ("audit-env-0", {}, {"TLT_AUDIT": "0"}, lambda c: c.audit, False),
    ("audit-env-empty", {}, {"TLT_AUDIT": ""}, lambda c: c.audit, False),
    ("audit-field-off-beats-env", {"audit": False}, {"TLT_AUDIT": "1"},
     lambda c: c.audit, False),
    ("audit-field-on", {"audit": True}, {}, lambda c: c.audit, True),
    ("audit-field-on-beats-env-0", {"audit": True}, {"TLT_AUDIT": "0"},
     lambda c: c.audit, True),
    ("audit-dump-env", {}, {"TLT_AUDIT_DUMP": "dump.json"},
     lambda c: (c.audit, c.audit_dump), (False, "dump.json")),
    ("audit-dump-env-empty", {}, {"TLT_AUDIT_DUMP": ""}, lambda c: c.audit_dump, None),
    ("faults-env-file", {}, {"TLT_FAULTS": FAULTS_FILE}, lambda c: c.faults, FAULTS),
    ("faults-field-canonicalized", {"faults": FAULTS["events"]}, {}, lambda c: c.faults, FAULTS),
    ("faults-field-beats-env", {"faults": {"events": []}}, {"TLT_FAULTS": FAULTS_FILE},
     lambda c: c.faults, {"events": []}),
    ("faults-env-empty", {}, {"TLT_FAULTS": ""}, lambda c: c.faults, None),
    ("telemetry-env-dir", {}, {"TLT_TELEMETRY": "/tmp/env"}, _out_dir, "/tmp/env"),
    ("telemetry-env-empty", {}, {"TLT_TELEMETRY": ""}, _out_dir, None),
    ("telemetry-field-string", {"telemetry": "/tmp/x"}, {}, _out_dir, "/tmp/x"),
    ("telemetry-field-dict-beats-env", {"telemetry": {"out_dir": "/tmp/x"}},
     {"TLT_TELEMETRY": "/tmp/env"}, _out_dir, "/tmp/x"),
    ("checkpoint-env-dir", {}, {"TLT_CHECKPOINT": "/tmp/env"}, lambda c: c.checkpoint,
     {"dir": "/tmp/env", "at_ns": None}),
    ("checkpoint-env-empty", {}, {"TLT_CHECKPOINT": ""}, lambda c: c.checkpoint, None),
    ("checkpoint-field-string", {"checkpoint": "/tmp/x"}, {}, lambda c: c.checkpoint,
     {"dir": "/tmp/x", "at_ns": None}),
    ("checkpoint-field-dict-beats-env", {"checkpoint": {"dir": "/tmp/x", "at_ns": 5}},
     {"TLT_CHECKPOINT": "/tmp/env"}, lambda c: c.checkpoint, {"dir": "/tmp/x", "at_ns": 5}),
    ("checkpoint-field-malformed", {"checkpoint": 7}, {}, lambda c: c.checkpoint, ValueError),
]


@pytest.mark.parametrize("fields, env, read, expected", [row[1:] for row in PRECEDENCE],
                         ids=[row[0] for row in PRECEDENCE])
def test_run_control_precedence(fields, env, read, expected, monkeypatch, tmp_path):
    faults_file = tmp_path / "faults.json"
    faults_file.write_text(json.dumps(FAULTS))
    for name in VARIABLES:
        monkeypatch.delenv(name, raising=False)
    for name, value in env.items():
        monkeypatch.setenv(name, str(faults_file) if value is FAULTS_FILE else value)
    config = _config(**fields)
    if expected is ValueError:
        with pytest.raises(ValueError):
            run_control(config)
        return
    assert read(run_control(config)) == expected


# -- one copy: a source guard ----------------------------------------------------

SRC = Path(repro.__file__).parent


@functools.lru_cache(maxsize=None)
def _trees():
    return [(path.relative_to(SRC).as_posix(), ast.parse(path.read_text()))
            for path in sorted(SRC.rglob("*.py"))]


def _functions_with(match):
    """``file:function`` of every innermost function under src/repro with
    a node ``match(node, file)`` accepts."""
    found = []
    for path, tree in _trees():
        def visit(node, function, path=path):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                function = node.name
            if match(node, path):
                found.append(f"{path}:{function}")
            for child in ast.iter_child_nodes(node):
                visit(child, function)

        visit(tree, "<module>")
    return found


def test_run_control_variables_are_read_in_one_function():
    written = set()

    def names_a_variable(node, path):
        # runner.py *sets* them for its workers: os.environ[NAME] = value.
        if isinstance(node, ast.Subscript) and isinstance(node.ctx, ast.Store):
            written.add((path, node.slice.lineno, node.slice.col_offset))
        return (isinstance(node, ast.Constant) and node.value in VARIABLES
                and (path, node.lineno, node.col_offset) not in written)

    assert set(_functions_with(names_a_variable)) == {"experiments/scenarios.py:run_control"}


@pytest.mark.parametrize("callee, package, where", [
    ("Auditor", "audit/", "experiments/scenarios.py:attach_auditor"),
    ("Telemetry", "telemetry/", "experiments/scenarios.py:attach_telemetry"),
    ("final_check", "audit/", "experiments/scenarios.py:finish_run"),
    ("interval_for_share", "workload/", "experiments/scenarios.py:schedule_traffic"),
])
def test_the_harness_is_one_copy(callee, package, where):
    def calls(node, path):
        if not isinstance(node, ast.Call) or path.startswith(package):
            return False
        function = node.func
        return getattr(function, "id", getattr(function, "attr", None)) == callee

    assert _functions_with(calls) == [where]


def test_experiments_assemble_runs_only_through_run_scenario():
    # A figure module hands its workload to run_scenario; it never wires
    # an observer, a fault or the end of a run itself.
    harness = {"attach_auditor", "install_faults", "attach_telemetry", "finish_run",
               "FaultInjector"}

    def names_the_harness(node, path):
        name = getattr(node, "id", None) or getattr(node, "attr", None) \
            or getattr(node, "name", None)
        return (path.startswith("experiments/") and path != "experiments/scenarios.py"
                and isinstance(node, (ast.Name, ast.Attribute, ast.alias))
                and name in harness)

    assert _functions_with(names_the_harness) == []


def test_experiments_reach_their_runs_only_through_the_job_runner():
    # A module hands run_grid its points, a workload of its own included;
    # ext-shard-scale, which times its runs, is the one that calls
    # run_scenario itself (the package re-exports it).
    def names_run_scenario(node, path):
        name = getattr(node, "id", None) or getattr(node, "attr", None) \
            or getattr(node, "name", None)
        return (path.startswith("experiments/") and name == "run_scenario"
                and isinstance(node, (ast.Name, ast.Attribute, ast.alias, ast.FunctionDef)))

    assert {found.partition(":")[0] for found in _functions_with(names_run_scenario)} == {
        "experiments/__init__.py", "experiments/scenarios.py", "experiments/parallel.py",
        "experiments/ext_shard_scale.py"}


def _calls(callee):
    def match(node, path):
        function = getattr(node, "func", None)
        return isinstance(node, ast.Call) and \
            getattr(function, "id", getattr(function, "attr", None)) == callee
    return match


def test_mode_conflicts_are_refused_only_by_the_table():
    # Which run modes combine is decided in one place; a harness that
    # refuses a mode itself, or a checkpoint refusal before the save,
    # would be a second copy of the table.
    assert _functions_with(_calls("UnsupportedModeError")) == [
        "experiments/scenarios.py:check_modes"]
    assert _functions_with(_calls("require_pure_engine")) == ["sim/checkpoint.py:save"]
    assert {found.partition(":")[0] for found in _functions_with(_calls("CheckpointError"))} \
        == {"sim/checkpoint.py"}
