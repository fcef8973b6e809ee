"""Cross-reference integrity, packaging rules, and portfolio audits."""
import random
from decimal import Decimal

import pytest

from venturebank.contracts import DinState
from venturebank.errors import (
    DanglingReferenceError,
    DoubleLinkError,
    DuplicateIdError,
    InvalidParameterError,
    PackagingError,
    RegistryError,
)
from venturebank.registry import (
    ForwardPeriod,
    RandomN,
    Registry,
    RegistryRecord,
    audit_attachment,
    audit_representativeness,
    build_package,
    export_records,
    import_records,
    make_terms_digest,
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
        terms_digest=make_terms_digest(din_id, "100"),
    )
    base.update(kw)
    return RegistryRecord(**base)


def ramped_registry(n=48, underwriter="uw1") -> Registry:
    """Primaries whose fund multiples ramp linearly from 0.1 upward."""
    registry = Registry()
    for i in range(n):
        registry.register(
            rec(
                f"p{i:03d}",
                underwriter_id=underwriter,
                vintage_year=2020 + (i % 5),
                expected_multiple=Decimal("0.1") * (i + 1),
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


class TestAttachmentAudit:
    def test_all_attached_clean(self):
        registry = ramped_registry(6)
        assert audit_attachment(registry) == []

    def test_detached_live_note_voided(self):
        registry = ramped_registry(6)
        registry.set_attached("p002", False)
        violations = audit_attachment(registry)
        assert [v.din_id for v in violations] == ["p002"]
        assert registry.get("p002").status is DinState.VOID

    def test_detached_terminal_note_untouched(self):
        registry = ramped_registry(6)
        registry.set_attached("p003", False)
        registry.set_status("p003", DinState.EXITED)
        assert audit_attachment(registry) == []
        assert registry.get("p003").status is DinState.EXITED

    def test_audit_is_idempotent(self):
        registry = ramped_registry(6)
        registry.set_attached("p001", False)
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


class TestExportImport:
    def test_roundtrip_preserves_everything(self):
        registry = ramped_registry(8)
        registry.register(rec("S", kind="secondary", principal="100"))
        registry.link_secondary("p000", "S")
        registry.set_attached("p001", False)
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
