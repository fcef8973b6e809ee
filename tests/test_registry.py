"""Cross-reference integrity, packaging rules, and portfolio audits."""
import copy
import json
import pickle
import random
from decimal import Decimal, localcontext
from pathlib import Path

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
    VentureBankError,
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

    def test_totals_do_not_depend_on_the_callers_context(self):
        registry = Registry()
        registry.register(rec("P", principal="1234567.123456789"))
        registry.register(rec("Q", principal="0.000000001"))
        with localcontext() as ctx:
            ctx.prec = 6
            assert str(registry.true_outstanding()) == "1234567.123456790"
            assert str(registry.gross_notional()) == "1234567.123456790"

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

    def test_snapshot_sorts_the_ids_again_only_after_a_register(self, monkeypatch):
        registry = Registry()
        registry.register(rec("P2"))
        registry.register(rec("S1", kind="secondary"))
        registry.register(rec("P1"))
        before = registry.snapshot()
        sorts = []
        monkeypatch.setattr(registry_module, "sorted",
                            lambda ids: sorts.append(ids) or sorted(ids), raising=False)
        registry.link_secondary("P2", "S1")
        registry.set_status("P1", DinState.VOID)
        after = registry.snapshot()
        assert sorts == []
        assert [r.din_id for r in after] == [r.din_id for r in before] == ["P1", "P2", "S1"]
        assert after[0].status is DinState.VOID and after[1].counterpart_ref == "S1"
        registry.register(rec("P0"))
        assert [r.din_id for r in registry.snapshot()] == ["P0", "P1", "P2", "S1"]
        assert len(sorts) == 1


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

    def test_an_open_forward_period_has_no_last_year(self):
        registry = Registry()
        for din_id, year in (("p000", 2020), ("p001", 2_000_000_000)):
            registry.register(rec(din_id, vintage_year=year))
        pkg = build_package(registry, "uw1", ForwardPeriod(2000), "0.5")
        assert pkg.din_ids == ("p000", "p001")

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

    def test_a_raw_line_separator_in_a_string_is_read(self):
        # JSON allows U+2028, U+2029 and U+0085 raw inside a string, and
        # json.dumps(..., ensure_ascii=False) writes them raw; lines split
        # on "\n" alone.
        sector = "a\u2028b\u2029c\x85d"
        text = record_text(sector=sector) + "\n"
        assert "\u2028" in text
        assert import_records(text).get("t").sector == sector

    def test_crlf_lines_are_read(self):
        text = export_records(ramped_registry(3))
        clone = import_records(text.replace("\n", "\r\n"))
        assert clone.snapshot() == ramped_registry(3).snapshot()

    def test_lines_split_by_lone_cr_are_refused(self):
        text = export_records(ramped_registry(2)).replace("\n", "\r")
        with pytest.raises(RegistryError, match="^registry line 1: invalid JSON, Extra data"):
            import_records(text)

    def test_export_form_is_read_without_money(self, monkeypatch):
        registry = linked_registry()
        text = export_records(registry)
        calls = []
        monkeypatch.setattr(registry_module, "money",
                            lambda value: calls.append(value) or money(value))
        assert import_records(text).snapshot() == registry.snapshot()
        assert calls == []


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
            ([GOOD, record_line(counterpart_ref=[1])], DanglingReferenceError,
             "no record [1]"),
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
            # A string amount is an ASCII decimal numeral, with no
            # whitespace or underscore, though Decimal() reads all of these.
            ([GOOD, record_line(principal="\u0661\u0662")], RegistryError,
             "registry line 2: principal must be written as an ASCII decimal numeral, "
             "got '\u0661\u0662'"),
            ([GOOD, record_line(principal=" 1_0 ")], RegistryError,
             "registry line 2: principal must be written as an ASCII decimal numeral, "
             "got ' 1_0 '"),
            ([GOOD, record_line(expected_multiple="1_0")], RegistryError,
             "registry line 2: expected_multiple must be written as an ASCII decimal "
             "numeral, got '1_0'"),
            ([GOOD, record_line(expected_multiple=" 2")], RegistryError,
             "registry line 2: expected_multiple must be written as an ASCII decimal "
             "numeral, got ' 2'"),
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
        # export_records' own text is read in one scan, not line by line.
        assert registry_module._read_export_form(text).snapshot() == clone.snapshot()


def outcome(read, text, prec=None):
    """What reading text gives: the registry's snapshot and export, or the
    refusal's type and message; under an ambient precision when given."""
    with localcontext() as ctx:
        if prec is not None:
            ctx.prec = prec
        try:
            registry = read(text)
        except VentureBankError as exc:
            return type(exc), str(exc)
    return registry.snapshot(), export_records(registry)


def linked_registry() -> Registry:
    registry = ramped_registry(6, detached={"p001"})
    registry.register(rec("S", kind="secondary"))
    registry.link_secondary("p000", "S")
    registry.set_status("p002", DinState.EXITED)
    return registry


def record_text(**fields) -> str:
    """record_line with non-ASCII characters written raw."""
    return json.dumps(json.loads(record_line(**fields)), ensure_ascii=False)


# Lines inserted among a registry's own: a fragment of an object that
# never closes, its close, and two objects on one line; blank and
# whitespace-only lines; a JSON integer past int's 4300-digit limit; deep
# nesting; raw line separators inside strings; amounts outside the export
# form; and references that are not strings.
INSERTED = [
    '{"a":[{}', "{}]}", "{},{}", "", "  \t", "\r",
    record_line(din_id="big")[:-1] + ', "terms_digest": ' + "9" * 4301 + "}",
    record_line(din_id="big2").replace('"vintage_year": 2024', '"vintage_year": ' + "9" * 4301),
    "[" * 3000 + "]" * 3000,
    '{"din_id": ' + "[" * 3000 + "]" * 3000 + "}",
    record_text(din_id="sep", sector="a\u2028b\u2029c\x85d"),
    record_line(din_id="num", principal=5),
    record_line(din_id="sp", principal=" 1_0 "),
    record_text(din_id="ar", principal="\u0661\u0662"),
    record_line(din_id="arm", expected_multiple="\u0661\u0662"),
    record_line(din_id="um", expected_multiple="1_0"),
    record_line(din_id="e2", principal="1e2", expected_multiple="1E+2"),
    record_line(din_id="ten", principal="10", expected_multiple="10"),
    record_line(din_id="neg0", principal="-0", expected_multiple="-0"),
    record_line(din_id="r7", counterpart_ref=7),
    record_line(din_id="rl", counterpart_ref=[1]),
    record_line(din_id="sd", kind="secondary", counterpart_ref={"a": 1}),
]


def mutated(lines, ops, end="\n", final=True, bom=False) -> str:
    """lines after each op, joined by end: ("insert", i, line) puts a line
    before line i; ("split", i) breaks line i after its first comma;
    ("indent", i) and ("trail", i) put a space before or after it; and
    ("copy", i) repeats it.  Positions wrap around the current lines."""
    lines = list(lines)
    for op, i, *line in ops:
        if op == "insert":
            lines.insert(i % (len(lines) + 1), *line)
        elif lines:
            i %= len(lines)
            if op == "split":
                lines[i] = lines[i].replace(",", ",\n", 1)
            elif op == "indent":
                lines[i] = " " + lines[i]
            elif op == "trail":
                lines[i] += " "
            elif op == "copy":
                lines.insert(i, lines[i])
    return ("\ufeff" if bom else "") + end.join(lines) + (end if final and lines else "")


LINES = export_records(linked_registry()).split("\n")[:-1]


def export_line(**fields) -> str:
    """The line export_records writes for one record, without its newline."""
    registry = Registry()
    registry.register(rec("x", expected_multiple="1.5", **fields))
    return export_records(registry)[:-1]


EXPORTED = export_line()
# Lines just outside the export form, which import_records reads line by
# line: keys in another order, an optional key missing and compact
# separators (each the record of EXPORTED); a year of -0 or of 19 digits;
# and an empty counterpart_ref, which names no record.
OTHER_FORMS = [
    json.dumps(dict(reversed(json.loads(EXPORTED).items()))),
    EXPORTED.replace('"attached": true, ', ""),
    json.dumps(json.loads(EXPORTED), sort_keys=True, separators=(",", ":")),
    EXPORTED.replace('"vintage_year": 2024}', '"vintage_year": -0}'),
    EXPORTED.replace('"vintage_year": 2024}', '"vintage_year": 1234567890123456789}'),
    EXPORTED.replace('"counterpart_ref": null', '"counterpart_ref": ""'),
]


def relinked(refs, extra=()) -> str:
    """LINES with each record named in refs given that counterpart_ref, then
    each (din_id, kind, ref) in extra as one more record, all in the export
    form."""
    rows = [json.loads(line) for line in LINES]
    rows += [dict(rows[0], din_id=din_id, kind=kind, counterpart_ref=ref)
             for din_id, kind, ref in extra]
    return "".join(json.dumps(row | ({"counterpart_ref": refs[row["din_id"]]}
                                     if row["din_id"] in refs else {}),
                              sort_keys=True) + "\n" for row in rows)


# Export-form texts whose refs do not pair up: a secondary's ref null while
# its primary names it; a secondary naming a primary that names another
# secondary; a primary naming a primary, alone or both ways; a record
# naming itself; and a ref naming no record, from a primary and from a
# secondary whose primary names it.
UNPAIRED = {
    "secondary-null": relinked({"S": None}),
    "secondary-names-a-primary-of-another": relinked(
        {"p000": "S2"}, [("S2", "secondary", "p000")]),
    "primary-names-a-primary": relinked({"p001": "p002"}),
    "primaries-name-each-other": relinked({"p001": "p002", "p002": "p001"}),
    "primary-names-itself": relinked({"p001": "p001"}),
    "secondary-names-itself": relinked({"S": "S"}),
    "primary-names-no-record": relinked({"p001": "nobody"}),
    "secondary-names-no-record": relinked({"S": "nobody"}),
}


class TestOneScanParity:
    """import_records reads export_records' text in one scan and anything
    else line by line; both readers give the same registry, or the same
    refusal, on the same text."""

    @pytest.mark.parametrize("prec", [None, 6])
    @pytest.mark.parametrize(
        "text",
        [mutated(LINES, ops, **joins) for ops, joins in [
            ([], {}),
            ([("insert", 2, line) for line in reversed(INSERTED[:3])], {}),
            ([("split", 3)], {}),
            ([("split", 3)], {"final": False}),
            ([("indent", 0)], {}),
            ([("trail", 5)], {}),
            ([("copy", 4)], {}),
            ([], {"end": "\r\n"}),
            ([], {"end": "\r"}),
            ([], {"final": False}),
            ([], {"bom": True}),
            # A link whose ids hold a raw line separator.
            ([("insert", 0, record_text(din_id="S\u2028", kind="secondary")),
              ("insert", 0, record_text(din_id="P\u2029", counterpart_ref="S\u2028"))], {}),
        ]]
        + [mutated(LINES, [("insert", 2, line)]) for line in INSERTED]
        + [mutated(LINES, [("insert", 2, line)]) for line in OTHER_FORMS]
        + ["", "\n"],
    )
    def test_cases(self, text, prec):
        assert outcome(import_records, text, prec) == outcome(
            registry_module._read_lines, text, prec)

    @pytest.mark.parametrize("text", UNPAIRED.values(), ids=UNPAIRED)
    def test_refs_that_do_not_pair_up_read_line_by_line(self, text):
        assert all(map(registry_module._LINE.fullmatch, text.splitlines(True)))
        assert registry_module._read_export_form(text) is None
        assert outcome(import_records, text) == outcome(registry_module._read_lines, text)

    @settings(max_examples=150, deadline=None)
    @given(
        registries(),
        st.lists(st.one_of(
            st.tuples(st.just("insert"), st.integers(0, 30), st.sampled_from(INSERTED)),
            st.tuples(st.sampled_from(["split", "indent", "trail", "copy"]),
                      st.integers(0, 30)),
        ), max_size=3),
        st.sampled_from(["\n", "\r\n", "\r"]),
        st.booleans(), st.booleans(), st.sampled_from([None, 6]),
    )
    def test_mutated_exports(self, registry, ops, end, final, bom, prec):
        lines = export_records(registry).split("\n")[:-1]
        text = mutated(lines, ops, end, final, bom)
        assert outcome(import_records, text, prec) == outcome(
            registry_module._read_lines, text, prec)


class TestExportForm:
    """The texts import_records reads in use take the one-pass reader: the
    committed sample registry, a registry written as the benchmark's
    generator writes one, and export_records' text whatever its strings
    hold.  Text just outside the export form reads line by line to the
    same registry."""

    def test_the_committed_registry(self):
        path = Path(__file__).resolve().parent.parent / "configs" / "registry.jsonl"
        text = path.read_text(encoding="utf-8")
        assert registry_module._read_export_form(text) is not None
        assert export_records(import_records(text)) == text

    def test_a_registry_written_by_json_dumps_with_sorted_keys(self):
        # One json.dumps(row, sort_keys=True) per row, every field given.
        primary = dict(
            din_id="din-000001", kind="primary", underwriter_id="uw-3", bank_id="bank-17",
            investment_id="fund-000001", principal="1234.560000000", sector="fintech",
            vintage_year=2019, terms_digest="", attached=True, status="triggered",
            counterpart_ref="din-sec-000001", expected_multiple="1.07")
        secondary = dict(primary, din_id="din-sec-000001", kind="secondary",
                         underwriter_id="uw-0", attached=False,
                         counterpart_ref="din-000001", expected_multiple=None)
        text = "".join(json.dumps(row, sort_keys=True) + "\n" for row in (primary, secondary))
        read = registry_module._read_export_form(text)
        assert read is not None
        assert read.snapshot() == registry_module._read_lines(text).snapshot()

    @pytest.mark.parametrize("value", ['a"b', "a\\b", "a\x00\x1f\tb", "crème € \U0001f600",
                                       "\ud800", "\\u0041/"])
    def test_escaped_strings(self, value):
        registry = Registry()
        registry.register(rec(value, sector=value, terms_digest=value,
                              expected_multiple="0.5"))
        registry.register(rec(value + "s", kind=SECONDARY, bank_id=value))
        registry.link_secondary(value, value + "s")
        text = export_records(registry)
        read = registry_module._read_export_form(text)
        assert read is not None
        assert read.snapshot() == registry.snapshot()

    def test_records_that_read_one_multiple_cell_hold_one_decimal(self):
        registry = Registry()
        for din_id in ("a", "b"):
            registry.register(rec(din_id, expected_multiple="1.50"))
        text = export_records(registry)
        read = registry_module._read_export_form(text)
        assert read is not None
        assert read.snapshot() == registry_module._read_lines(text).snapshot()
        a, b = (read.get(din_id).expected_multiple for din_id in ("a", "b"))
        assert a == b == Decimal("1.50")
        assert a.as_tuple() == b.as_tuple() == Decimal("1.50").as_tuple()

    @pytest.mark.parametrize("principal, multiple", [("10", "10"), ("1e2", "1E+2"),
                                                     ("+.5", "2."), ("-0", "0e-3")])
    def test_an_amount_in_any_numeral_spelling_reads_in_one_pass(self, principal, multiple):
        line = EXPORTED.replace('"principal": "100.000000000"', f'"principal": "{principal}"')
        line = line.replace('"expected_multiple": "1.5"', f'"expected_multiple": "{multiple}"')
        read = registry_module._read_export_form(line + "\n")
        assert read is not None
        assert read.snapshot() == registry_module._read_lines(line + "\n").snapshot()
        assert read.get("x")[5::7] == (money(Decimal(principal)), Decimal(multiple))

    @pytest.mark.parametrize("spelling", ["\u0661\u0662", "\uff11", " 1_0 ", "1_0", " 10",
                                          "10 ", "1.5\u00a0"])
    @pytest.mark.parametrize("name", ["principal", "expected_multiple"])
    def test_an_amount_in_another_spelling_is_refused_by_both_readers(self, name, spelling):
        # Decimal() reads each of these; neither reader takes it.
        line = json.dumps(json.loads(EXPORTED) | {name: spelling}, sort_keys=True,
                          ensure_ascii=False) + "\n"
        assert registry_module._read_export_form(line) is None
        message = (f"registry line 1: {name} must be written as an ASCII decimal "
                   f"numeral, got {spelling!r}")
        for read in (import_records, registry_module._read_lines):
            with pytest.raises(RegistryError) as err:
                read(line)
            assert str(err.value) == message

    @pytest.mark.parametrize("spelling", ["e5", "1e", ".", "-", "1-2", "+-1", "1.2.3", "1e+"])
    @pytest.mark.parametrize("name", ["principal", "expected_multiple"])
    def test_an_amount_the_line_pattern_takes_is_still_a_numeral(self, name, spelling):
        # The pattern takes any run of [0-9.eE+-]; Decimal() refuses these.
        line = json.dumps(json.loads(EXPORTED) | {name: spelling}, sort_keys=True) + "\n"
        assert registry_module._LINE.fullmatch(line)
        assert registry_module._read_export_form(line) is None
        message = f"registry line 1: {name} must be a finite decimal, got {spelling!r}"
        for read in (import_records, registry_module._read_lines):
            with pytest.raises(RegistryError) as err:
                read(line)
            assert str(err.value) == message

    @pytest.mark.parametrize("line", OTHER_FORMS[:3])
    def test_another_json_form_reads_line_by_line_to_the_same_record(self, line):
        assert line != EXPORTED
        assert registry_module._read_export_form(line + "\n") is None
        expected = import_records(EXPORTED + "\n").snapshot()
        assert import_records(line + "\n").snapshot() == expected
