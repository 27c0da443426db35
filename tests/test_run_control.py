"""Run control: read in one function, with one precedence, and never
part of a run's identity except where the cache key says so.

The cache key and the telemetry run id are identity: a refactor of how
run control is read must leave both byte-identical, so they are pinned
here (captured at e55a876, before ``run_control`` existed).
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
    _telemetry_run_id,
    run_control,
)

FAULTS = {"events": [{"time_ns": 1_000, "kind": "link_down", "target": "tor0:0"}]}

#: Shards, telemetry and a checkpoint are how a run is executed or
#: watched, not what it simulates: they share the plain run's key.
PLAIN_KEY = "38dc212b241a61a594e2e36d8a1c05811de3c28d2d9628b46ab19bec0fc17a07"

#: field values -> (Job.cache_key(), _telemetry_run_id()).
IDENTITY_PINS = {
    "plain": ({}, PLAIN_KEY, "dctcp_tlt_s3_dc03355b"),
    "shards": ({"shards": 2}, PLAIN_KEY, "dctcp_tlt_s3_7fed5311"),
    "audit": (
        {"audit": True},
        "efd9f657f792b8824878ba73b88dcb31b8b1cf320abe1e25f30255c77e6ed6fc",
        "dctcp_tlt_s3_59a934c5",
    ),
    "faults": (
        {"faults": FAULTS},
        "df3d998f58ffd7a6ea651b8a5c53073496c906cfc867e9bf28c858a8a509bf53",
        "dctcp_tlt_s3_b594ca36",
    ),
    "telemetry": (
        {"telemetry": {"out_dir": "/tmp/tele", "interval_ns": 50_000}},
        PLAIN_KEY,
        "dctcp_tlt_s3_dc03355b",
    ),
    "checkpoint": ({"checkpoint": "/tmp/ck"}, PLAIN_KEY, "dctcp_tlt_s3_434e7de1"),
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
    assert _telemetry_run_id(config) == run_id


def test_cache_key_folds_the_fault_file_of_the_environment(
        tmp_path, monkeypatch, pinned_code_version):
    path = tmp_path / "faults.json"
    path.write_text(json.dumps(FAULTS))
    monkeypatch.setenv("TLT_FAULTS", str(path))
    config = _config()
    # The spec, not the path: the same key as the explicit field.
    assert Job(0, config, config.seed).cache_key() == IDENTITY_PINS["faults"][1]
    # An observation does not name its files after how it was asked for.
    assert _telemetry_run_id(config) == IDENTITY_PINS["plain"][2]


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
    ("shards-env-malformed", {}, {"TLT_SHARDS": "many"}, lambda c: c.shards, 1),
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
