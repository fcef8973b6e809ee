"""Fixed-point currency helpers.

All currency and limit arithmetic in this package runs on Decimal with an
explicit scale of 9 fractional digits. Binary floats are allowed only inside
the money-multiplier evaluators, which are pure ratios. Converting a float
into money goes through str() so the value seen is the value stored.

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


def money(value) -> Decimal:
    """Coerce int/str/float/Decimal to a money Decimal at the working scale.

    The scale keeps 9 of the context's 28 digits after the point, so an
    amount that rounds to 10**19 or more is refused as InvalidParameterError.
    """
    if isinstance(value, Decimal):
        d = value
    elif isinstance(value, float):
        d = Decimal(str(value))
    else:
        d = Decimal(value)
    try:
        return d.quantize(MONEY_SCALE, rounding=ROUND_HALF_EVEN, context=DECIMAL_CONTEXT)
    except InvalidOperation:
        raise InvalidParameterError(
            f"{d} is past the money scale of 19 digits before the point"
        ) from None


def money_floor(value) -> Decimal:
    """Quantize toward negative infinity. Used for cap fills so a rounded
    booking can never exceed the cap it was computed from."""
    if not isinstance(value, Decimal):
        value = Decimal(str(value))
    return value.quantize(MONEY_SCALE, rounding=ROUND_FLOOR, context=DECIMAL_CONTEXT)


def compound(principal, rate, periods: int) -> Decimal:
    """principal * (1 + rate)^periods, quantized once at the end."""
    if periods < 0:
        raise ValueError("periods must be >= 0")
    if not isinstance(principal, Decimal):
        principal = Decimal(str(principal))
    if not isinstance(rate, Decimal):
        rate = Decimal(str(rate))
    # A NaN is not a cache key: hashing an sNaN raises TypeError, and a
    # quiet NaN never equals itself.  Non-finite rates take the same
    # arithmetic uncached.
    if rate.is_finite():
        growth = _growth(rate, periods)
    else:
        growth = _growth.__wrapped__(rate, periods)
    return money(DECIMAL_CONTEXT.multiply(principal, growth))


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
