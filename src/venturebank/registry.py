"""Note registry (primary/secondary cross-references) and portfolio audits."""
from __future__ import annotations

import json
import random
import re
from dataclasses import dataclass
from decimal import Decimal
from json.decoder import scanstring
from typing import NamedTuple

from scipy.stats import mannwhitneyu

from .contracts import LIVE_STATES, DinState
from .errors import (
    DanglingReferenceError,
    DoubleLinkError,
    DuplicateIdError,
    InvalidParameterError,
    PackagingError,
    RegistryError,
)
from .money import (
    DECIMAL_CONTEXT,
    MONEY_SCALE,
    csv_text,
    finite,
    in_money_context,
    money,
)

PRIMARY = "primary"
SECONDARY = "secondary"

MAX_PUBLIC_FRACTION = Decimal("0.70")
DEFAULT_SIGNIFICANCE = 0.05


class _RecordFields(NamedTuple):
    din_id: str
    kind: str
    underwriter_id: str
    bank_id: str
    investment_id: str
    principal: Decimal
    sector: str
    vintage_year: int
    terms_digest: str
    attached: bool
    status: DinState
    counterpart_ref: str | None
    expected_multiple: Decimal | None


# The str fields, in the order __new__ checks them; counterpart_ref may
# also be None.
_TEXT_FIELDS = ("din_id", "underwriter_id", "bank_id", "investment_id",
                "sector", "terms_digest", "counterpart_ref")


class RegistryRecord(_RecordFields):
    """One issued note, checked once when built.  A record is an immutable
    tuple: it compares equal to a plain tuple of the same fields and orders
    like one.  _make and _replace build a record without checking it
    (_replace copies one with the named fields changed), so the registry's
    own methods check what they change."""

    __slots__ = ()

    def __new__(cls, din_id, kind, underwriter_id, bank_id, investment_id,
                principal, sector, vintage_year, terms_digest="", attached=True,
                status=DinState.ACTIVE, counterpart_ref=None,
                expected_multiple=None):
        if kind not in (PRIMARY, SECONDARY):
            raise InvalidParameterError(f"record kind must be primary/secondary, got {kind!r}")
        if not (isinstance(din_id, str) and isinstance(underwriter_id, str)
                and isinstance(bank_id, str) and isinstance(investment_id, str)
                and isinstance(sector, str) and isinstance(terms_digest, str)
                and (counterpart_ref is None or isinstance(counterpart_ref, str))):
            named = zip(_TEXT_FIELDS, (
                din_id, underwriter_id, bank_id, investment_id, sector,
                terms_digest, "" if counterpart_ref is None else counterpart_ref))
            name, value = next((n, v) for n, v in named if not isinstance(v, str))
            raise InvalidParameterError(f"{name} must be a string, got {value!r}")
        if isinstance(vintage_year, bool) or not isinstance(vintage_year, int):
            raise InvalidParameterError(
                f"vintage_year must be an int, got {vintage_year!r}")
        if not isinstance(attached, bool):
            raise InvalidParameterError(f"attached must be a bool, got {attached!r}")
        _check_status(status)
        principal = money(finite(principal, "principal"))
        if principal < 0:
            raise InvalidParameterError("principal must be >= 0")
        if expected_multiple is not None:
            # A NaN multiple would rank as nothing and pass the
            # representativeness audit silently.
            expected_multiple = finite(expected_multiple, "expected_multiple")
            if expected_multiple < 0:
                raise InvalidParameterError(
                    f"expected_multiple must be >= 0, got {expected_multiple}")
        return tuple.__new__(cls, (
            din_id, kind, underwriter_id, bank_id, investment_id, principal,
            sector, vintage_year, terms_digest, attached, status,
            counterpart_ref, expected_multiple))


def _check_status(status) -> None:
    if not isinstance(status, DinState):
        raise InvalidParameterError(f"status must be a DinState, got {status!r}")


class Registry:
    """Single-writer record store.  Audits read snapshots; only the
    registry's own methods mutate record state."""

    def __init__(self) -> None:
        self._records: dict[str, RegistryRecord] = {}
        # The keys of _records in sorted order, or None until snapshot
        # sorts them: register clears it, and updates change no key.
        self._ids: list[str] | None = None

    def register(self, record: RegistryRecord) -> None:
        if record.din_id in self._records:
            raise DuplicateIdError(f"din_id {record.din_id!r} already registered")
        self._records[record.din_id] = record
        self._ids = None

    def get(self, din_id: str) -> RegistryRecord:
        try:
            return self._records[din_id]
        except (KeyError, TypeError):  # TypeError: a JSON list or object
            raise DanglingReferenceError(f"no record {din_id!r}") from None

    def snapshot(self) -> tuple[RegistryRecord, ...]:
        if self._ids is None:
            self._ids = sorted(self._records)
        return tuple(map(self._records.__getitem__, self._ids))

    def link_secondary(self, primary_id: str, secondary_id: str) -> None:
        """Install the mutual reference between a primary and its secondary.

        Both records are updated together or not at all.
        """
        primary = self.get(primary_id)
        secondary = self.get(secondary_id)
        if primary.kind != PRIMARY or secondary.kind != SECONDARY:
            raise InvalidParameterError("link must join a primary to a secondary")
        if primary.counterpart_ref is not None:
            raise DoubleLinkError(f"{primary_id!r} already has a secondary")
        if secondary.counterpart_ref is not None:
            raise DoubleLinkError(f"{secondary_id!r} already references a primary")
        # Copies with counterpart_ref (field 11) set, as _replace would make
        # them at about three times the cost.
        new = tuple.__new__
        self._records[primary_id] = new(RegistryRecord, (*primary[:11], secondary_id, primary[12]))
        self._records[secondary_id] = new(RegistryRecord,
                                          (*secondary[:11], primary_id, secondary[12]))

    def set_status(self, din_id: str, status: DinState) -> None:
        _check_status(status)
        record = self.get(din_id)  # status is field 10
        self._records[din_id] = tuple.__new__(RegistryRecord, (*record[:10], status, *record[11:]))

    @in_money_context
    def true_outstanding(self) -> Decimal:
        """Net notional: secondaries mirror their primaries, so only
        primary principal counts."""
        return sum(
            (r.principal for r in self._records.values() if r.kind == PRIMARY),
            Decimal("0"),
        )

    @in_money_context
    def gross_notional(self) -> Decimal:
        return sum((r.principal for r in self._records.values()), Decimal("0"))


@dataclass(frozen=True)
class AttachmentViolation:
    din_id: str
    status_before: DinState
    reason: str = "transferred without its note"


def audit_attachment(registry: Registry) -> list[AttachmentViolation]:
    """Flag live notes whose investment moved on without them and void them.

    Terminal notes are left alone; the audit reports, it never throws.
    """
    violations: list[AttachmentViolation] = []
    for record in registry.snapshot():
        if not record.attached and record.status in LIVE_STATES:
            violations.append(
                AttachmentViolation(din_id=record.din_id, status_before=record.status)
            )
            registry.set_status(record.din_id, DinState.VOID)
    return violations


@dataclass(frozen=True)
class ForwardPeriod:
    """Take every note issued in [from_year, to_year], decided up front."""

    from_year: int
    to_year: int | None = None


@dataclass(frozen=True)
class RandomN:
    """Take a seeded random sample of n notes, decided up front."""

    n: int
    seed: int


@dataclass(frozen=True)
class PortfolioPackage:
    package_id: str
    underwriter_id: str
    din_ids: tuple[str, ...]
    public_fraction: Decimal
    retained_fraction: Decimal
    selection_rule: ForwardPeriod | RandomN

    def __post_init__(self) -> None:
        object.__setattr__(self, "din_ids", tuple(self.din_ids))


def build_package(
    registry: Registry,
    underwriter_id: str,
    rule,
    public_fraction,
    package_id: str = "pkg",
) -> PortfolioPackage:
    """Assemble a public offering from an underwriter's live primaries.

    The selection rule object is the up-front declaration; hand-picked
    membership has no entry point.  At most 70% may be sold on, keeping a
    controlling 30% with the underwriter.
    """
    fraction = finite(public_fraction, "public_fraction")
    if fraction < 0:
        raise PackagingError("public_fraction must be >= 0")
    if fraction > MAX_PUBLIC_FRACTION:
        raise PackagingError(
            f"public_fraction {fraction} exceeds the 0.70 ceiling"
        )
    if not isinstance(rule, (ForwardPeriod, RandomN)):
        raise PackagingError(
            "selection must be declared as ForwardPeriod or RandomN before building"
        )

    candidates = [
        r
        for r in registry.snapshot()
        if r.underwriter_id == underwriter_id
        and r.kind == PRIMARY
        and r.status in LIVE_STATES
    ]
    if isinstance(rule, ForwardPeriod):
        chosen = [r for r in candidates if rule.from_year <= r.vintage_year
                  and (rule.to_year is None or r.vintage_year <= rule.to_year)]
    else:
        if rule.n < 0:
            raise PackagingError(f"random_n needs n >= 0, got {rule.n}")
        if rule.n > len(candidates):
            raise PackagingError(
                f"asked for {rule.n} notes, only {len(candidates)} available"
            )
        ids = sorted(r.din_id for r in candidates)
        picked = set(random.Random(rule.seed).sample(ids, rule.n))
        chosen = [r for r in candidates if r.din_id in picked]

    return PortfolioPackage(
        package_id=package_id,
        underwriter_id=underwriter_id,
        din_ids=tuple(sorted(r.din_id for r in chosen)),
        public_fraction=fraction,
        retained_fraction=Decimal("1") - fraction,
        selection_rule=rule,
    )


@dataclass(frozen=True)
class RepresentativenessReport:
    package_id: str
    n_package: int
    n_portfolio: int
    statistic: float
    p_value: float
    threshold: float
    flagged: bool

    def to_csv(self) -> str:
        return csv_text(
            ["package_id", "n_package", "n_portfolio", "statistic",
             "p_value", "threshold", "flagged"],
            [[self.package_id, self.n_package, self.n_portfolio,
              f"{self.statistic:.6f}", f"{self.p_value:.6f}",
              f"{self.threshold:.6f}", str(self.flagged).lower()]],
        )


def audit_representativeness(
    package: PortfolioPackage,
    registry: Registry,
    threshold: float = DEFAULT_SIGNIFICANCE,
) -> RepresentativenessReport:
    """Rank-sum check that the packaged notes are not the portfolio's dregs.

    Compares the package's fund multiples against the underwriter's whole
    book; flags when the package is stochastically dominated at the given
    significance level.
    """
    book = [
        r
        for r in registry.snapshot()
        if r.underwriter_id == package.underwriter_id
        and r.kind == PRIMARY
        and r.expected_multiple is not None
    ]
    inside = set(package.din_ids)
    package_multiples = [float(r.expected_multiple) for r in book if r.din_id in inside]
    portfolio_multiples = [float(r.expected_multiple) for r in book]

    if not package_multiples or not portfolio_multiples:
        return RepresentativenessReport(
            package.package_id, len(package_multiples), len(portfolio_multiples),
            float("nan"), 1.0, threshold, False,
        )

    result = mannwhitneyu(
        package_multiples,
        portfolio_multiples,
        alternative="less",
        method="asymptotic",
    )
    p = float(result.pvalue)
    return RepresentativenessReport(
        package_id=package.package_id,
        n_package=len(package_multiples),
        n_portfolio=len(portfolio_multiples),
        statistic=float(result.statistic),
        p_value=p,
        threshold=threshold,
        flagged=p < threshold,
    )


def export_records(registry: Registry) -> str:
    """Line-delimited export, one JSON object per record, key-sorted."""
    lines = []
    for r in registry.snapshot():
        lines.append(
            json.dumps(
                {
                    "din_id": r.din_id,
                    "kind": r.kind,
                    "underwriter_id": r.underwriter_id,
                    "bank_id": r.bank_id,
                    "investment_id": r.investment_id,
                    "principal": str(r.principal),
                    "sector": r.sector,
                    "vintage_year": r.vintage_year,
                    "terms_digest": r.terms_digest,
                    "attached": r.attached,
                    "status": r.status.value,
                    "counterpart_ref": r.counterpart_ref,
                    "expected_multiple": (
                        str(r.expected_multiple)
                        if r.expected_multiple is not None
                        else None
                    ),
                },
                sort_keys=True,
            )
        )
    return "\n".join(lines) + ("\n" if lines else "")


_STATES = {state.value: state for state in DinState}


def import_records(text: str) -> Registry:
    """Rebuild a registry from export_records' JSONL: one JSON object per
    line, lines split on "\n" alone.  A line that is not a JSON object,
    lacks a field or holds a record RegistryRecord refuses raises
    RegistryError naming the line.  Links are installed from the primaries'
    refs once every line has been read, so a bad line is reported before
    any link error.

    The export form, each line exactly as export_records writes it
    (json.dumps with sort_keys: every key, in sorted order, ", " and ": "
    between them), is read in one pass, each record's link read from the
    text and the links then checked to be an involution; any other JSON
    text, such as keys in another order, a missing optional key or compact
    separators, or export-form text whose refs do not pair up, is read line
    by line to the same registry or the same refusal."""
    registry = _read_export_form(text)
    return _read_lines(text) if registry is None else registry


# A JSON string's body, unrolled so that each step consumes a run of plain
# characters or one escape: a raw control character is not JSON.
_STRING = r'"([^"\\\x00-\x1f]*(?:\\(?:["\\/bfnrt]|u[0-9a-fA-F]{4})[^"\\\x00-\x1f]*)*)"'
_NULLABLE = f"(?:null|{_STRING})"
# An ASCII decimal numeral: an optional sign, digits, an optional point and
# an optional exponent, with no whitespace or underscore.  Both readers take a principal or an
# expected multiple written as a string only in this spelling.
_NUMERAL = r"[+-]?(?:[0-9]+\.?[0-9]*|\.[0-9]+)(?:[eE][+-]?[0-9]+)?"
_IS_NUMERAL = re.compile(_NUMERAL).fullmatch
# One line of the export form; each group is the raw text of one field,
# and a null field's group is None.  An amount is a run of [0-9.eE+-], with
# no whitespace, underscore, other digit or other letter: Decimal() refuses
# every such run that is not a _NUMERAL.  A year is at most 18 digits, far
# inside int's limit on digits read; a longer one, or -0, neither of which
# export_records writes, is left to _read_lines.
_LINE = re.compile(
    rf'\{{"attached": (true|false), "bank_id": {_STRING}, '
    rf'"counterpart_ref": {_NULLABLE}, "din_id": {_STRING}, '
    rf'"expected_multiple": (?:null|"([0-9.eE+-]+)"), "investment_id": {_STRING}, '
    rf'"kind": "(primary|secondary)", "principal": "([0-9.eE+-]+)", '
    rf'"sector": {_STRING}, "status": {_STRING}, "terms_digest": {_STRING}, '
    rf'"underwriter_id": {_STRING}, "vintage_year": (0|-?[1-9][0-9]{{0,17}})\}}\n')
# The groups of _LINE that hold a JSON string's body.
_STRING_GROUPS = (2, 3, 4, 6, 9, 10, 11, 12)


def _read_export_form(text: str) -> Registry | None:
    """import_records in one pass over text in the export form: each line
    matched by _LINE, its record built and checked as it is matched, its
    counterpart_ref as the text gives it.  The checks are RegistryRecord's,
    inline; the pattern already fixes every type.  Anything else returns
    None, for _read_lines to read or to refuse by line: a line _LINE does
    not match (another key order or spacing, a missing key, a field of
    another type, a principal or multiple spelled other than as a _NUMERAL,
    whitespace around the object, "\r\n"), a principal or multiple that is
    not a finite decimal >= 0, an unknown status, no final newline, a
    duplicate din_id, or refs that do not pair up.  They pair up when the
    refs are an involution: each names a record of the other kind whose own
    ref names it back, which is the registry link_secondary builds from the
    primaries' refs, so a link error is _read_lines' alone.  String fields
    are decoded as json decodes them only when text holds a backslash."""
    match, decimal, quantize, scale = _LINE.match, Decimal, DECIMAL_CONTEXT.quantize, MONEY_SCALE
    new, states = tuple.__new__, _STATES
    escaped = "\\" in text
    records: dict[str, RegistryRecord] = {}
    linked: list[RegistryRecord] = []
    at, size, lines = 0, len(text), 0
    try:
        while at < size:
            line = match(text, at)
            if line is None:
                return None
            at = line.end()
            lines += 1
            fields = line.groups()
            if escaped:
                fields = [scanstring(text, line.start(group))[0]
                          if group in _STRING_GROUPS and value is not None else value
                          for group, value in enumerate(fields, 1)]
            (attached, bank_id, ref, din_id, multiple, investment_id, kind,
             principal, sector, status, terms_digest, underwriter_id, year) = fields
            state = states.get(status)
            principal = quantize(decimal(principal), scale)
            if state is None or not principal.is_finite() or principal < 0:
                return None
            if multiple is not None:
                multiple = decimal(multiple)
                if not multiple.is_finite() or multiple < 0:
                    return None
            record = records[din_id] = new(RegistryRecord, (
                din_id, kind, underwriter_id, bank_id, investment_id, principal,
                sector, int(year), terms_digest, attached == "true", state, ref,
                multiple))
            if ref is not None:
                linked.append(record)
    except ArithmeticError:
        return None
    if len(records) != lines:
        return None
    get = records.get
    for record in linked:  # din_id is field 0, kind 1, counterpart_ref 11
        other = get(record[11])
        if other is None or other[1] == record[1] or other[11] != record[0]:
            return None
    registry = Registry()
    registry._records = records
    return registry


def _read_lines(text: str) -> Registry:
    """import_records a line at a time, through RegistryRecord: the
    reference reader, and the one that names a refused line."""
    registry = Registry()
    deferred_links: list[tuple[str, str]] = []
    for number, line in enumerate(text.split("\n"), start=1):
        if not line.strip():
            continue
        try:
            raw = json.loads(line)
            if not isinstance(raw, dict):
                raise TypeError("not a JSON object")
            status = raw.get("status", "active")
            state = _STATES.get(status) if isinstance(status, str) else None
            record = RegistryRecord(
                raw["din_id"], raw["kind"], raw["underwriter_id"], raw["bank_id"],
                raw["investment_id"], raw["principal"], raw["sector"],
                raw["vintage_year"], raw.get("terms_digest", ""),
                raw.get("attached", True),
                DinState(status) if state is None else state,
                None, raw.get("expected_multiple"),
            )
            for name in ("principal", "expected_multiple"):
                value = raw.get(name)
                if isinstance(value, str) and not _IS_NUMERAL(value):
                    raise ValueError(f"{name} must be written as an ASCII decimal numeral, "
                                     f"got {value!r}")
        except json.JSONDecodeError as exc:
            raise RegistryError(
                f"registry line {number}: invalid JSON, {exc.msg} (column {exc.colno})"
            ) from exc
        except KeyError as exc:
            raise RegistryError(f"registry line {number}: missing field {exc}") from exc
        except (TypeError, ValueError, ArithmeticError, RecursionError) as exc:
            raise RegistryError(f"registry line {number}: {exc}") from exc
        registry.register(record)
        ref = raw.get("counterpart_ref")
        if ref is not None and record.kind == PRIMARY:
            deferred_links.append((record.din_id, ref))
    for primary_id, secondary_id in deferred_links:
        registry.link_secondary(primary_id, secondary_id)
    return registry
