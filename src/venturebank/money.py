"""Fixed-point currency helpers.

All currency and limit arithmetic in this package runs on Decimal with an
explicit scale of 9 fractional digits. Binary floats are allowed only inside
the money-multiplier evaluators, which are pure ratios. Every outside value
becomes a Decimal through finite(), which reads a float through str() so
the value seen is the value stored, and refuses anything non-finite.

Results never depend on the caller's decimal context: the helpers here
compute in DECIMAL_CONTEXT, and the package's entry points are wrapped in
in_money_context, which runs them inside localcontext(DECIMAL_CONTEXT).
"""

import functools
from decimal import (
    Context,
    Decimal,
    DivisionByZero,
    InvalidOperation,
    Overflow,
    ROUND_FLOOR,
    ROUND_HALF_EVEN,
    localcontext,
)

from .errors import InvalidParameterError

MONEY_SCALE = Decimal("0.000000001")  # 9 fractional digits
MONEY_LIMIT = 10 ** 19  # 28 digits of precision less the 9 after the point

# Every field is spelled out: a Context() field left unset is copied from
# the process-wide, mutable decimal.DefaultContext.  The helpers below pass
# it explicitly, which only raises its signal flags; no result reads them.
DECIMAL_CONTEXT = Context(
    prec=28,
    rounding=ROUND_HALF_EVEN,
    Emin=-999999,
    Emax=999999,
    capitals=1,
    clamp=0,
    flags=[],
    traps=[InvalidOperation, DivisionByZero, Overflow],
)


def in_money_context(fn):
    """Run `fn` inside DECIMAL_CONTEXT, whatever the caller's context is."""
    @functools.wraps(fn)
    def pinned(*args, **kwargs):
        with localcontext(DECIMAL_CONTEXT):
            return fn(*args, **kwargs)
    return pinned


ZERO = Decimal(0)
ONE = Decimal(1)


def finite(value, name: str) -> Decimal:
    """The one gate from an outside value to a Decimal.

    A Decimal is returned as given, exponent and all; a str or an int is
    read exactly, and anything else goes through str(), so a float is read
    as it prints.  NaN, sNaN, infinities, text that is not a number and a
    bool (an int to Python, but JSON's true or false, not a number) raise
    InvalidParameterError naming `name`.
    """
    if isinstance(value, Decimal):
        if value.is_finite():
            return value
    elif not isinstance(value, bool):
        try:
            d = Decimal(value if isinstance(value, (str, int)) else str(value))
            if d.is_finite():
                return d
        except ArithmeticError:
            pass
    raise InvalidParameterError(f"{name} must be a finite decimal, got {str(value)!r}")


def fraction(value, name: str, open_low: bool = False) -> Decimal:
    """finite(value, name), held to [0, 1], or to (0, 1] when open_low."""
    d = finite(value, name)
    if (d <= ZERO if open_low else d < ZERO) or d > ONE:
        raise InvalidParameterError(
            f"{name} must be in {'(0, 1]' if open_low else '[0, 1]'}, got {d}")
    return d


def money(value) -> Decimal:
    """Coerce a finite int/str/float/Decimal to a money Decimal at the
    working scale; an amount that rounds to MONEY_LIMIT or more is refused
    as InvalidParameterError, as is anything finite() refuses."""
    if isinstance(value, Decimal) and value.is_finite():
        d = value
    else:
        d = finite(value, "amount")
    try:
        return d.quantize(MONEY_SCALE, rounding=ROUND_HALF_EVEN, context=DECIMAL_CONTEXT)
    except InvalidOperation:
        raise InvalidParameterError(
            f"{d} is past the money scale of 19 digits before the point"
        ) from None


def money_floor(value) -> Decimal:
    """Quantize toward negative infinity. Used for cap fills so a rounded
    booking can never exceed the cap it was computed from."""
    return finite(value, "amount").quantize(
        MONEY_SCALE, rounding=ROUND_FLOOR, context=DECIMAL_CONTEXT)


def compound(principal, rate, periods: int) -> Decimal:
    """principal * (1 + rate)^periods, quantized once at the end."""
    if periods < 0:
        raise ValueError("periods must be >= 0")
    rate = finite(rate, "rate")
    principal = finite(principal, "principal")
    try:
        return money(DECIMAL_CONTEXT.multiply(principal, _growth(rate, periods)))
    except Overflow:
        raise InvalidParameterError(
            f"rate {rate} over {periods} periods grows principal {principal} "
            f"past the decimal range") from None


@functools.lru_cache(maxsize=64, typed=True)
def _growth(rate: Decimal, periods: int) -> Decimal:
    """(1 + rate) ** periods in DECIMAL_CONTEXT.  Every lien and carrying
    cost of a run grows at one rate over one term, so the factor is
    computed once; equal keys are equal rates, which give equal factors."""
    ctx = DECIMAL_CONTEXT
    return ctx.power(ctx.add(ONE, rate), periods)


def fmt(value: Decimal) -> str:
    """Canonical string form used in every CSV cell holding money."""
    return str(money(value))
