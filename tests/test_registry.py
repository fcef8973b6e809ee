"""Cross-reference integrity, packaging rules, and portfolio audits."""
import copy
import json
import pickle
import random
from decimal import Decimal

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from venturebank import registry as registry_module
from venturebank.contracts import DinState
from venturebank.errors import (
    DanglingReferenceError,
    DoubleLinkError,
    DuplicateIdError,
    InvalidParameterError,
    PackagingError,
    RegistryError,
)
from venturebank.money import money
from venturebank.registry import (
    ForwardPeriod,
    RandomN,
    Registry,
    SECONDARY,
    RegistryRecord,
    audit_attachment,
    audit_representativeness,
    build_package,
    export_records,
    import_records,
)


def rec(din_id, kind="primary", **kw) -> RegistryRecord:
    base = dict(
        din_id=din_id,
        kind=kind,
        underwriter_id="uw1",
        bank_id="bank1",
        investment_id=f"inv-{din_id}",
        principal="100",
        sector="deeptech",
        vintage_year=2024,
        terms_digest=f"terms-{din_id}",
    )
    base.update(kw)
    return RegistryRecord(**base)


def ramped_registry(n=48, underwriter="uw1", detached=()) -> Registry:
    """Primaries whose fund multiples ramp linearly from 0.1 upward; the
    notes named in `detached` were transferred without their investment."""
    registry = Registry()
    for i in range(n):
        registry.register(
            rec(
                f"p{i:03d}",
                underwriter_id=underwriter,
                vintage_year=2020 + (i % 5),
                expected_multiple=Decimal("0.1") * (i + 1),
                attached=f"p{i:03d}" not in detached,
            )
        )
    return registry


class TestCrossReferences:
    def test_link_is_mutual(self):
        registry = Registry()
        registry.register(rec("P"))
        registry.register(rec("S", kind="secondary"))
        registry.link_secondary("P", "S")
        assert registry.get("P").counterpart_ref == "S"
        assert registry.get("S").counterpart_ref == "P"

    def test_duplicate_id_refused(self):
        registry = Registry()
        registry.register(rec("P"))
        with pytest.raises(DuplicateIdError):
            registry.register(rec("P"))

    def test_dangling_reference_refused(self):
        registry = Registry()
        registry.register(rec("P"))
        with pytest.raises(DanglingReferenceError):
            registry.link_secondary("P", "missing")
        with pytest.raises(DanglingReferenceError):
            registry.link_secondary("missing", "P")

    def test_double_link_refused(self):
        registry = Registry()
        registry.register(rec("P"))
        registry.register(rec("S1", kind="secondary"))
        registry.register(rec("S2", kind="secondary"))
        registry.link_secondary("P", "S1")
        with pytest.raises(DoubleLinkError):
            registry.link_secondary("P", "S2")
        registry.register(rec("P2"))
        with pytest.raises(DoubleLinkError):
            registry.link_secondary("P2", "S1")

    def test_kind_mismatch_refused(self):
        registry = Registry()
        registry.register(rec("P1"))
        registry.register(rec("P2"))
        with pytest.raises(InvalidParameterError):
            registry.link_secondary("P1", "P2")

    def test_netting_of_secondaries(self):
        registry = Registry()
        registry.register(rec("P", principal="100"))
        assert registry.true_outstanding() == Decimal("100")
        registry.register(rec("S", kind="secondary", principal="100"))
        registry.link_secondary("P", "S")
        assert registry.true_outstanding() == Decimal("100")
        assert registry.gross_notional() == Decimal("200")

    def test_primaries_only_gross_equals_net(self):
        registry = Registry()
        for i in range(5):
            registry.register(rec(f"p{i}", principal="7"))
        assert registry.gross_notional() == registry.true_outstanding() == Decimal("35")

    def test_involution_under_random_linking(self):
        rng = random.Random(77)
        registry = Registry()
        primaries = [f"p{i}" for i in range(30)]
        secondaries = [f"s{i}" for i in range(30)]
        for p in primaries:
            registry.register(rec(p))
        for s in secondaries:
            registry.register(rec(s, kind="secondary"))
        order = primaries[:]
        rng.shuffle(order)
        linked = list(zip(order, rng.sample(secondaries, 18)))
        for p, s in linked:
            registry.link_secondary(p, s)
        for p, s in linked:
            assert registry.get(p).counterpart_ref == s
            assert registry.get(s).counterpart_ref == p
        # no orphan secondaries: every linked secondary's primary points back
        for r in registry.snapshot():
            if r.kind == "secondary" and r.counterpart_ref is not None:
                assert registry.get(r.counterpart_ref).counterpart_ref == r.din_id
        assert registry.gross_notional() >= registry.true_outstanding()


    def test_snapshot_stays_in_id_order(self):
        registry = Registry()

        def snapshot_ids() -> list[str]:
            snapshot = registry.snapshot()
            ids = [r.din_id for r in snapshot]
            assert snapshot == tuple(registry.get(din_id) for din_id in ids)
            return ids

        registry.register(rec("P2"))
        registry.register(rec("S1", kind="secondary"))
        assert snapshot_ids() == ["P2", "S1"]
        registry.register(rec("P1"))
        assert snapshot_ids() == ["P1", "P2", "S1"]
        registry.link_secondary("P2", "S1")
        assert snapshot_ids() == ["P1", "P2", "S1"]
        assert registry.snapshot()[1].counterpart_ref == "S1"
        registry.set_status("P1", DinState.VOID)
        assert registry.snapshot()[0].status is DinState.VOID
        registry.register(rec("P0"))
        assert snapshot_ids() == ["P0", "P1", "P2", "S1"]


class TestAttachmentAudit:
    def test_all_attached_clean(self):
        registry = ramped_registry(6)
        assert audit_attachment(registry) == []

    def test_detached_live_note_voided(self):
        registry = ramped_registry(6, detached={"p002"})
        violations = audit_attachment(registry)
        assert [v.din_id for v in violations] == ["p002"]
        assert registry.get("p002").status is DinState.VOID

    def test_detached_terminal_note_untouched(self):
        registry = ramped_registry(6, detached={"p003"})
        registry.set_status("p003", DinState.EXITED)
        assert audit_attachment(registry) == []
        assert registry.get("p003").status is DinState.EXITED

    def test_audit_is_idempotent(self):
        registry = ramped_registry(6, detached={"p001"})
        first = audit_attachment(registry)
        assert len(first) == 1
        assert audit_attachment(registry) == []


class TestPackaging:
    def test_public_ceiling_strict(self):
        registry = ramped_registry()
        with pytest.raises(PackagingError):
            build_package(registry, "uw1", RandomN(10, seed=1), "0.71")
        pkg = build_package(registry, "uw1", RandomN(10, seed=1), "0.70")
        assert pkg.retained_fraction == Decimal("0.30")

    def test_zero_public_fraction_allowed(self):
        registry = ramped_registry()
        pkg = build_package(registry, "uw1", RandomN(5, seed=3), "0")
        assert pkg.public_fraction == 0 and pkg.retained_fraction == 1

    def test_random_selection_reproducible(self):
        registry = ramped_registry()
        a = build_package(registry, "uw1", RandomN(12, seed=99), "0.5")
        b = build_package(registry, "uw1", RandomN(12, seed=99), "0.5")
        c = build_package(registry, "uw1", RandomN(12, seed=100), "0.5")
        assert a.din_ids == b.din_ids
        assert a.din_ids != c.din_ids

    def test_forward_period_membership(self):
        registry = ramped_registry()  # vintages cycle 2020..2024
        pkg = build_package(registry, "uw1", ForwardPeriod(2023), "0.5")
        got_vintages = {registry.get(d).vintage_year for d in pkg.din_ids}
        assert got_vintages == {2023, 2024}
        bounded = build_package(registry, "uw1", ForwardPeriod(2021, 2022), "0.5")
        assert {registry.get(d).vintage_year for d in bounded.din_ids} == {2021, 2022}

    def test_hand_picked_membership_rejected(self):
        registry = ramped_registry()
        with pytest.raises(PackagingError):
            build_package(registry, "uw1", ["p000", "p001"], "0.5")

    def test_oversized_sample_rejected(self):
        registry = ramped_registry(10)
        with pytest.raises(PackagingError):
            build_package(registry, "uw1", RandomN(11, seed=1), "0.5")

    def test_package_immutable(self):
        registry = ramped_registry()
        pkg = build_package(registry, "uw1", RandomN(5, seed=1), "0.5")
        with pytest.raises(AttributeError):
            pkg.din_ids = ()

    def test_dead_notes_not_packaged(self):
        registry = ramped_registry(10)
        registry.set_status("p000", DinState.VOID)
        pkg = build_package(registry, "uw1", ForwardPeriod(2000), "0.5")
        assert "p000" not in pkg.din_ids


class TestRepresentativeness:
    def test_whole_portfolio_passes(self):
        registry = ramped_registry()
        pkg = build_package(registry, "uw1", ForwardPeriod(2000), "0.5")
        report = audit_representativeness(pkg, registry)
        assert report.n_package == report.n_portfolio == 48
        assert not report.flagged

    def test_bottom_quartile_flagged(self):
        # vintages in blocks of 12, quality ramps with id: the 2020 block is
        # exactly the worst quartile, selectable by an honest forward period
        registry = Registry()
        for i in range(48):
            registry.register(
                rec(
                    f"p{i:03d}",
                    vintage_year=2020 + i // 12,
                    expected_multiple=Decimal("0.1") * (i + 1),
                )
            )
        pkg = build_package(registry, "uw1", ForwardPeriod(2020, 2020), "0.5")
        assert len(pkg.din_ids) == 12
        report = audit_representativeness(pkg, registry)
        assert report.flagged
        assert report.p_value < 0.05

    def test_random_half_mostly_passes(self):
        registry = ramped_registry()
        passes = 0
        for seed in range(40):
            pkg = build_package(registry, "uw1", RandomN(24, seed=seed), "0.5")
            if not audit_representativeness(pkg, registry).flagged:
                passes += 1
        assert passes >= 36  # >= 90% on this smaller sweep

    def test_report_csv_stable(self):
        registry = ramped_registry()
        pkg = build_package(registry, "uw1", RandomN(24, seed=5), "0.5")
        a = audit_representativeness(pkg, registry).to_csv()
        b = audit_representativeness(pkg, registry).to_csv()
        assert a == b
        assert a.splitlines()[0] == (
            "package_id,n_package,n_portfolio,statistic,p_value,threshold,flagged"
        )


class TestExpectedMultiple:
    @pytest.mark.parametrize(
        "multiple",
        ["NaN", "sNaN", "Infinity", "-Infinity", "-0.5", float("nan"),
         float("inf"), "abc"],
    )
    def test_refused_unless_finite_and_nonnegative(self, multiple):
        with pytest.raises(InvalidParameterError, match="expected_multiple"):
            rec("p", expected_multiple=multiple)

    @pytest.mark.parametrize("multiple", ["0", "1.25", 3, 0.5, Decimal("2.50")])
    def test_accepted_as_its_decimal(self, multiple):
        kept = rec("p", expected_multiple=multiple).expected_multiple
        assert str(kept) == str(Decimal(str(multiple)))


class TestRecordTypes:
    @pytest.mark.parametrize(
        "field, value",
        [
            ("attached", "false"),
            ("attached", 0),
            ("vintage_year", "2024"),
            ("vintage_year", 2024.0),
            ("vintage_year", True),
            ("status", "active"),
            ("din_id", 5),
            ("underwriter_id", None),
            ("bank_id", b"bank1"),
            ("investment_id", 1.5),
            ("sector", ["deeptech"]),
            ("terms_digest", None),
            ("counterpart_ref", 7),
        ],
    )
    def test_wrong_type_is_refused_by_name(self, field, value):
        with pytest.raises(InvalidParameterError, match=f"^{field} must be"):
            rec(**{"din_id": "p", field: value})

    def test_registry_updates_keep_the_type_rule(self):
        registry = ramped_registry(2)
        with pytest.raises(InvalidParameterError, match="^status must be"):
            registry.set_status("p000", "void")
        assert registry.snapshot() == ramped_registry(2).snapshot()

    def test_string_attached_line_is_refused(self):
        # Read as truthy, "false" would hide a detached note from the audit.
        text = export_records(ramped_registry(2)) + record_line(attached="false") + "\n"
        with pytest.raises(RegistryError) as info:
            import_records(text)
        assert str(info.value) == "registry line 3: attached must be a bool, got 'false'"

    def test_copies_are_equal_records(self):
        record = rec("p", expected_multiple="1.25", counterpart_ref="s")
        for clone in (pickle.loads(pickle.dumps(record)), copy.copy(record),
                      copy.deepcopy(record), record._replace()):
            assert type(clone) is RegistryRecord
            assert clone == record
        moved = record._replace(status=DinState.EXITED)
        assert moved.status is DinState.EXITED
        assert moved._replace(status=DinState.ACTIVE) == record

    def test_record_is_a_tuple_of_its_fields(self):
        record = rec("p", expected_multiple="1.25")
        assert RegistryRecord._make(tuple(record)) == record == tuple(record)

    def test_updates_do_not_check_the_record_again(self, monkeypatch):
        registry = Registry()
        registry.register(rec("p"))
        registry.register(rec("s", kind=SECONDARY))
        calls = []
        monkeypatch.setattr(registry_module, "money",
                            lambda value: calls.append(value) or money(value))
        registry.link_secondary("p", "s")
        registry.set_status("s", DinState.EXITED)
        assert calls == []
        assert registry.get("p").counterpart_ref == "s"


class TestExportImport:
    def test_roundtrip_preserves_everything(self):
        registry = ramped_registry(8, detached={"p001"})
        registry.register(rec("S", kind="secondary", principal="100"))
        registry.link_secondary("p000", "S")
        registry.set_status("p002", DinState.EXITED)

        text = export_records(registry)
        clone = import_records(text)
        assert clone.snapshot() == registry.snapshot()
        assert export_records(clone) == text

    @pytest.mark.parametrize(
        "line, reason",
        [
            ('{"din_id": "a"', "invalid JSON"),
            ('{"din_id": "a"}', "missing field 'kind'"),
            ("[1]", "not a JSON object"),
            ('{"din_id": "t", "kind": "tertiary", "underwriter_id": "uw1", '
             '"bank_id": "b", "investment_id": "i", "principal": "1", '
             '"sector": "s", "vintage_year": 2024}',
             "record kind must be primary/secondary"),
        ],
    )
    def test_malformed_line_is_named(self, line, reason):
        text = export_records(ramped_registry(2)) + line + "\n"
        with pytest.raises(RegistryError, match=f"registry line 3: {reason}"):
            import_records(text)

    @pytest.mark.parametrize("multiple", ['"NaN"', '"sNaN"', '"Infinity"', '"-1"', "NaN"])
    def test_bad_expected_multiple_line_is_named(self, multiple):
        line = ('{"din_id": "t", "kind": "primary", "underwriter_id": "uw1", '
                '"bank_id": "b", "investment_id": "i", "principal": "1", '
                '"sector": "s", "vintage_year": 2024, '
                f'"expected_multiple": {multiple}}}')
        text = export_records(ramped_registry(2)) + line + "\n"
        with pytest.raises(RegistryError,
                           match="registry line 3: expected_multiple must be"):
            import_records(text)


def record_line(**fields) -> str:
    """One registry line holding every field import_records requires."""
    base = dict(din_id="t", kind="primary", underwriter_id="uw1", bank_id="b",
                investment_id="i", principal="1", sector="s", vintage_year=2024)
    return json.dumps(base | fields)


GOOD = record_line(din_id="g")


class TestImportParity:
    """import_records' refusal of each failure class: the exception type and
    its whole message, line number included where the record names one."""

    @pytest.mark.parametrize(
        "lines, error, message",
        [
            ([GOOD, '{"din_id": "a"'], RegistryError,
             "registry line 2: invalid JSON, Expecting ',' delimiter (column 15)"),
            ([GOOD, '{"din_id": "a"} {}'], RegistryError,
             "registry line 2: invalid JSON, Extra data (column 17)"),
            (["\ufeff" + GOOD], RegistryError,
             "registry line 1: invalid JSON, Unexpected UTF-8 BOM "
             "(decode using utf-8-sig) (column 1)"),
            ([GOOD, "[1]"], RegistryError, "registry line 2: not a JSON object"),
            ([GOOD, '"x"'], RegistryError, "registry line 2: not a JSON object"),
            ([GOOD, '{"din_id": "a"}'], RegistryError,
             "registry line 2: missing field 'kind'"),
            ([GOOD, record_line(kind="tertiary")], RegistryError,
             "registry line 2: record kind must be primary/secondary, got 'tertiary'"),
            ([GOOD, record_line(status="zombie")], RegistryError,
             "registry line 2: 'zombie' is not a valid DinState"),
            ([GOOD, record_line(status=3)], RegistryError,
             "registry line 2: 3 is not a valid DinState"),
            ([GOOD, record_line(status=None)], RegistryError,
             "registry line 2: None is not a valid DinState"),
            ([GOOD, record_line(status=["active"])], RegistryError,
             "registry line 2: ['active'] is not a valid DinState"),
            ([GOOD, record_line(expected_multiple="NaN")], RegistryError,
             "registry line 2: expected_multiple must be a finite decimal, got 'NaN'"),
            ([GOOD, record_line(expected_multiple="-1")], RegistryError,
             "registry line 2: expected_multiple must be >= 0, got -1"),
            ([GOOD, record_line(principal="-1")], RegistryError,
             "registry line 2: principal must be >= 0"),
            # A line with several faults reports the first one checked.
            ([GOOD, '{"din_id": "a", "expected_multiple": "NaN"}'], RegistryError,
             "registry line 2: missing field 'kind'"),
            ([GOOD, record_line(kind="tertiary", status="zombie")], RegistryError,
             "registry line 2: 'zombie' is not a valid DinState"),
            ([GOOD, record_line(kind="tertiary", principal="-1",
                                expected_multiple="NaN")], RegistryError,
             "registry line 2: record kind must be primary/secondary, got 'tertiary'"),
            ([GOOD, record_line(principal="-1", expected_multiple="NaN")], RegistryError,
             "registry line 2: principal must be >= 0"),
            # Blank lines are skipped but still counted.
            ([GOOD, "", "  \t", record_line(principal="-1")], RegistryError,
             "registry line 4: principal must be >= 0"),
            ([GOOD, record_line(din_id="g")], DuplicateIdError,
             "din_id 'g' already registered"),
            ([GOOD, record_line(counterpart_ref="nope")], DanglingReferenceError,
             "no record 'nope'"),
            ([record_line(din_id="p1", counterpart_ref="s1"),
              record_line(din_id="s1", kind="secondary"),
              record_line(din_id="p2", counterpart_ref="s1")], DoubleLinkError,
             "'s1' already references a primary"),
            ([GOOD, record_line(counterpart_ref="g")], InvalidParameterError,
             "link must join a primary to a secondary"),
            # Links are installed after every line has been read, so a bad
            # record on a later line wins over a link error on an earlier one.
            ([record_line(din_id="p1", counterpart_ref="zz"),
              record_line(din_id="x", kind="bad")], RegistryError,
             "registry line 2: record kind must be primary/secondary, got 'bad'"),
            ([GOOD, record_line(principal=True)], RegistryError,
             "registry line 2: principal must be a finite decimal, got 'True'"),
        ],
    )
    def test_failure_class(self, lines, error, message):
        with pytest.raises(error) as info:
            import_records("\n".join(lines) + "\n")
        assert type(info.value) is error
        assert str(info.value) == message


@st.composite
def registries(draw) -> Registry:
    """Primaries and secondaries with random links, detachments, statuses,
    amounts and text fields."""
    registry = Registry()
    text = st.text(max_size=4)
    kinds = ["primary"] * draw(st.integers(0, 6)) + ["secondary"] * draw(st.integers(0, 6))
    for i, kind in enumerate(kinds):
        registry.register(RegistryRecord(
            din_id=f"{kind[0]}{i}-{draw(text)}",
            kind=kind,
            underwriter_id=draw(text),
            bank_id=draw(text),
            investment_id=draw(text),
            principal=draw(st.decimals(min_value=0, max_value=10**12, places=9)),
            sector=draw(text),
            vintage_year=draw(st.integers(1900, 2100)),
            terms_digest=draw(text),
            attached=draw(st.booleans()),
            status=draw(st.sampled_from(DinState)),
            expected_multiple=draw(
                st.none() | st.decimals(min_value=0, max_value=1000, places=3)),
        ))
    ids = [r.din_id for r in registry.snapshot()]
    primaries = [d for d in ids if d.startswith("p")]
    secondaries = draw(st.permutations([d for d in ids if d.startswith("s")]))
    for primary, secondary in zip(draw(st.permutations(primaries)), secondaries):
        if draw(st.booleans()):
            registry.link_secondary(primary, secondary)
    return registry


class TestRoundTrip:
    @settings(max_examples=60, deadline=None)
    @given(registries())
    def test_export_import_export(self, registry):
        text = export_records(registry)
        clone = import_records(text)
        assert export_records(clone) == text
        assert clone.snapshot() == registry.snapshot()
