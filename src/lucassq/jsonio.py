"""JSON encoding for certificates and reports.

Schema: rationals as {"num": str, "den": str}; field elements as 4-arrays of
rationals plus a field tag; points as {"x":..., "y":...} or "infinity".
"""

from __future__ import annotations

import json
from fractions import Fraction


def encode_rational(q) -> dict:
    q = Fraction(q)
    return {"num": str(q.numerator), "den": str(q.denominator)}


def decode_rational(d) -> Fraction:
    return Fraction(int(d["num"]), int(d["den"]))


def encode_field_element(x) -> dict:
    return {"field": x.field.id,
            "coords": [encode_rational(c) for c in x.coords]}


def decode_field_element(d):
    from .fields import K1, K2, FieldElement
    fld = K1 if d["field"] == "K1" else K2
    return FieldElement(fld, tuple(decode_rational(c) for c in d["coords"]))


def encode_point(pt):
    if pt.at_infinity:
        return "infinity"
    return {"x": encode_field_element(pt.x), "y": encode_field_element(pt.y)}


def decode_point(d):
    from .curves import CurvePoint, INFINITY
    if d == "infinity":
        return INFINITY
    return CurvePoint(decode_field_element(d["x"]), decode_field_element(d["y"]))


def dump(obj, fh) -> None:
    """Write obj to the text stream fh as JSON with indent 1, chunk by
    chunk, never as one string."""
    json.dump(obj, fh, indent=1)
