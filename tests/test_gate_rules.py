"""The gate's tables: each admission rule alone, the binding map, and the
equivalence of ``admit`` with the ``if`` chain the table replaced."""

from __future__ import annotations

import dataclasses

import pytest
from hypothesis import given, settings, strategies as st

from gatebench.demo import build_demo_release
from gatebench.drivers import DRIVER_TYPES, EVIDENCE_STATUSES
from gatebench.gate import (
    ADMISSION_RULES,
    BINDING_REASONS,
    REPORT_SCOPES,
    STRATA,
    GateError,
    admit,
    stratify,
)
from gatebench.manifest import (
    FREEZE_VERSION_FIELDS,
    FreezeRecord,
    ManifestStore,
    make_manifest,
    resolve_manifest,
    verify_binding,
)
from gatebench.runner import DriverSpec, execute_run
from gatebench.schema import SCHEMA_VERSION, SUPPORTED_SCHEMA_VERSIONS
from gatebench.simenv import CLEAN_LABEL, SETTING_LABELS, STRESSED_LABEL, clean_setting


@pytest.fixture(scope="module")
def bound(tmp_path_factory):
    """A fully admissible run and the release root it is bound to."""

    store = ManifestStore(tmp_path_factory.mktemp("gate-rules") / "root")
    build_demo_release(store)
    root = store.load_root()
    manifest = resolve_manifest("micro-001", root, store)
    spec = DriverSpec(name="anchor", driver_type="scripted", evidence_status="paper_facing")
    run, _ = execute_run(manifest, spec, clean_setting(), seed=3, budget=5, planned_episodes=2)
    return run, root


def _foreign_hash():
    return make_manifest("micro", "foreign-task", "foreign-root").manifest_hash()


# ---------------------------------------------------------------------------
# The admission chain as it stood before the table, kept as the reference.
# ---------------------------------------------------------------------------


def _reference_stratify(run):
    if run.driver.driver_type == "controller":
        return "decision_study"
    if run.driver.evidence_status in ("fixture_backed", "smoke_only"):
        return "non_paper_facing"
    if run.driver.driver_type == "llm":
        return "llm_driver"
    if (
        run.driver.driver_type in ("scripted", "calibration")
        and run.driver.evidence_status == "paper_facing"
    ):
        return "real_task_anchor"
    return "bounded_extension_or_diagnostic"


def _reference_admit(run, binding):
    """(verdict, reasons, stratum) as the ``if`` chain decided them."""

    reasons = []
    driver = run.driver
    if not run.manifest_resolved:
        reasons.append("unresolved_manifest")
    if not (driver.driver_id and driver.driver_version and driver.parser_version):
        reasons.append("missing_driver_metadata")
    elif (
        run.setting_label != CLEAN_LABEL
        and run.driver.evidence_status == "paper_facing"
        and run.driver.driver_type != "controller"
    ):
        reasons.append("missing_driver_metadata")
    if not run.trace_complete:
        reasons.append("incomplete_trace")
    if run.terminal is None:
        reasons.append("missing_terminal_outcome")
    if run.freeze is None:
        reasons.append("missing_replay_freeze")
    elif run.freeze.schema_version not in SUPPORTED_SCHEMA_VERSIONS:
        reasons.append("version_mismatch")

    if binding is None:
        reasons.append("missing_release_binding")
    for violation in binding or ():
        if violation == "snapshot_mismatch":
            reasons.append("snapshot_mismatch")
        elif violation == "missing_schema_version":
            reasons.append("version_mismatch")
        elif violation == "missing_replay_freeze":
            reasons.append("missing_replay_freeze")
        else:
            reasons.append("missing_release_binding")

    if run.driver.evidence_status == "fixture_backed":
        reasons.append("fixture_only_provenance")
    elif run.driver.evidence_status == "smoke_only":
        reasons.append("smoke_only")

    if run.invalid_sample:
        reasons.append("invalid_sample")
    if run.retry_count > run.retry_budget:
        reasons.append("retry_budget_violation")

    deduped = tuple(dict.fromkeys(reasons))
    if not deduped:
        verdict = "admitted"
    elif deduped == ("incomplete_trace",):
        verdict = "quarantined"
    else:
        verdict = "rejected"
    return verdict, deduped, _reference_stratify(run)


# ---------------------------------------------------------------------------
# Each row alone
# ---------------------------------------------------------------------------


def _edit(**fields):
    return lambda run, binding: (dataclasses.replace(run, **fields), binding)


def _edit_driver(**fields):
    return lambda run, binding: (
        dataclasses.replace(run, driver=dataclasses.replace(run.driver, **fields)), binding
    )


def _stress(run, binding):
    stressed = dataclasses.replace(run.driver, setting_label=STRESSED_LABEL)
    return dataclasses.replace(run, setting_label=STRESSED_LABEL, driver=stressed), binding


def _unsupported_version(run, binding):
    freeze = dataclasses.replace(run.freeze, schema_version="9.9.9")
    return dataclasses.replace(run, freeze=freeze), binding


def _over_budget(run, binding):
    return dataclasses.replace(run, retry_count=run.retry_budget + 1), binding


def _bind(binding):
    return lambda run, _: (run, binding)


# One flip per ADMISSION_RULES row, in its order: (the row's reason, the edit
# of the admissible run and its empty binding that fires that row alone).
_ROW_FLIPS = (
    ("unresolved_manifest", _edit(manifest_resolved=False)),
    ("missing_driver_metadata", _edit_driver(driver_id="")),
    ("missing_driver_metadata", _stress),
    ("incomplete_trace", _edit(trace_complete=False)),
    ("missing_terminal_outcome", _edit(terminal=None)),
    ("missing_replay_freeze", _edit(freeze=None)),
    ("version_mismatch", _unsupported_version),
    ("missing_release_binding", _bind(None)),
    *((reason, _bind((code,))) for code, reason in BINDING_REASONS.items()),
    ("fixture_only_provenance", _edit_driver(evidence_status="fixture_backed")),
    ("smoke_only", _edit_driver(evidence_status="smoke_only")),
    ("invalid_sample", _edit(invalid_sample=True)),
    ("retry_budget_violation", _over_budget),
)


def test_every_row_has_one_flip():
    assert [reason for reason, _ in _ROW_FLIPS] == [reason for reason, _ in ADMISSION_RULES]


@pytest.mark.parametrize(
    "index", range(len(ADMISSION_RULES)),
    ids=[f"{index}-{reason}" for index, (reason, _) in enumerate(ADMISSION_RULES)],
)
def test_admission_rule_alone_gives_its_reason_and_verdict(index, bound):
    run, _ = bound
    assert admit(run, ()).verdict == "admitted"
    reason, _ = ADMISSION_RULES[index]
    flipped, binding = _ROW_FLIPS[index][1](run, ())
    fired = [row for row, (_, rule) in enumerate(ADMISSION_RULES) if rule(flipped, binding)]
    assert fired == [index]
    decision = admit(flipped, binding)
    assert decision.reasons == (reason,)
    assert decision.verdict == ("quarantined" if reason == "incomplete_trace" else "rejected")


# ---------------------------------------------------------------------------
# The binding map
# ---------------------------------------------------------------------------


def test_every_code_verify_binding_returns_has_its_own_entry(bound):
    run, root = bound
    assert verify_binding(run, root) == ()
    freezes = [dataclasses.replace(run.freeze, manifest_hash=_foreign_hash())] + [
        dataclasses.replace(run.freeze, **{field.name: ""})
        for field in dataclasses.fields(FreezeRecord)
        if field.type in (str, "str")
    ]
    returned = {code for freeze in freezes for code in verify_binding(
        dataclasses.replace(run, freeze=freeze), root
    )}
    returned.update(verify_binding(dataclasses.replace(run, freeze=None), root))
    assert returned == set(BINDING_REASONS)
    for code, reason in BINDING_REASONS.items():
        firing = [row_reason for row_reason, rule in ADMISSION_RULES if rule(run, (code,))]
        assert firing == [reason], code


def test_binding_code_without_an_entry_is_an_error_not_a_default(bound):
    run, _ = bound
    with pytest.raises(GateError) as err:
        admit(run, ("missing_release_epoch",))
    assert err.value.code == "unknown_binding_code"


# ---------------------------------------------------------------------------
# admit equals the chain it replaced
# ---------------------------------------------------------------------------


_CODES = ("snapshot_mismatch", *(f"missing_{name}" for name in FREEZE_VERSION_FIELDS))

# A binding verify_binding can return, or "verify" for the run's own binding.
_bindings = (
    st.none()
    | st.just("verify")
    | st.just(("missing_replay_freeze",))
    | st.lists(st.booleans(), min_size=len(_CODES), max_size=len(_CODES)).map(
        lambda keep: tuple(code for code, kept in zip(_CODES, keep) if kept)
    )
)

_freezes = st.none() | st.fixed_dictionaries({
    "schema_version": st.sampled_from([SCHEMA_VERSION, "", "0.0.1"]),
    "foreign": st.booleans(),
    "blank": st.sets(st.sampled_from([n for n in FREEZE_VERSION_FIELDS if n != "schema_version"])),
})

_cases = st.fixed_dictionaries({
    "manifest_resolved": st.booleans(),
    "driver_id": st.sampled_from(["", "anchor"]),
    "driver_version": st.sampled_from(["", "1.0.0"]),
    "parser_version": st.sampled_from(["", "1.0.0"]),
    "driver_type": st.sampled_from(sorted(DRIVER_TYPES)),
    "evidence_status": st.sampled_from(sorted(EVIDENCE_STATUSES)),
    "setting_label": st.sampled_from(sorted(SETTING_LABELS)),
    "trace_complete": st.booleans(),
    "terminal": st.booleans(),
    "freeze": _freezes,
    "invalid_sample": st.booleans(),
    "retry_count": st.integers(0, 4),
    "binding": _bindings,
})


def _case_run(run, case):
    driver = dataclasses.replace(
        run.driver,
        driver_id=case["driver_id"],
        driver_version=case["driver_version"],
        parser_version=case["parser_version"],
        driver_type=case["driver_type"],
        evidence_status=case["evidence_status"],
        setting_label=case["setting_label"],
        model_family="sim",
        backend_engine="vllm",
    )
    freeze = None
    if case["freeze"] is not None:
        spec = case["freeze"]
        freeze = dataclasses.replace(
            run.freeze,
            schema_version=spec["schema_version"],
            **{name: "" for name in spec["blank"]},
        )
        if spec["foreign"]:
            freeze = dataclasses.replace(freeze, manifest_hash=_foreign_hash())
    return dataclasses.replace(
        run,
        manifest_resolved=case["manifest_resolved"],
        driver=driver,
        setting_label=case["setting_label"],
        trace_complete=case["trace_complete"],
        terminal=run.terminal if case["terminal"] else None,
        freeze=freeze,
        invalid_sample=case["invalid_sample"],
        retry_count=case["retry_count"],
    )


@settings(max_examples=400, deadline=None)
@given(_cases)
def test_admit_equals_the_chain_it_replaced(bound, case):
    run, root = bound
    varied = _case_run(run, case)
    binding = verify_binding(varied, root) if case["binding"] == "verify" else case["binding"]
    decision = admit(varied, binding)
    assert (decision.verdict, decision.reasons, decision.stratum) == _reference_admit(
        varied, binding
    )
    assert stratify(varied) == _reference_stratify(varied)


# ---------------------------------------------------------------------------
# Report scopes
# ---------------------------------------------------------------------------


def test_each_stratum_is_counted_by_exactly_one_scope():
    for stratum in STRATA:
        counting = [scope for scope, (counts, _) in REPORT_SCOPES.items() if counts(stratum)]
        assert len(counting) == 1, stratum
    for scope, (counts, planned) in REPORT_SCOPES.items():
        assert all(counts(stratum) for stratum in planned), scope
    assert not REPORT_SCOPES["canonical"][0]("decision_study")
