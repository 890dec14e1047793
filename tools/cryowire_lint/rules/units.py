"""Rule ``units-boundary``: the typed-quantity boundary (DESIGN.md §4c).

src/tech and src/power (and the unit-bearing surfaces of src/exp and
src/util) exchange ``units::Kelvin``/``Metre``/``Hertz``/``Watt``
values whose dimensions the compiler checks. A *new* plain-``double``
parameter named like a physical quantity (``temp_k``, ``len_m``,
``freq_hz``, ``power_w``) in one of those headers erodes the boundary:
the next caller passes Celsius or millimetres and no one notices.

This ports the raw-double check from the retired regex lint script
onto the token stream, so string literals and comments can no longer
produce false positives.
"""

from __future__ import annotations

from ..model import Finding
from ..tokenizer import Kind
from . import Context

SUFFIX_TO_TYPE = {
    "_k": "units::Kelvin",
    "_m": "units::Metre",
    "_hz": "units::Hertz",
    "_w": "units::Watt",
}

TYPED_LAYERS = ("tech", "power", "exp", "util")


class UnitsBoundaryRule:
    name = "units-boundary"
    rationale = (
        "keep the compile-time dimensional-analysis boundary: no raw "
        "'double foo_k/_m/_hz/_w' parameters in typed-layer headers"
    )

    def check(self, ctx: Context):
        for f in ctx.src_files():
            if not f.is_header or f.layer_dir() not in TYPED_LAYERS:
                continue
            toks = f.code
            for i, tok in enumerate(toks):
                if tok.kind is not Kind.IDENT or tok.text != "double":
                    continue
                nxt = toks[i + 1] if i + 1 < len(toks) else None
                if nxt is None or nxt.kind is not Kind.IDENT:
                    continue
                suffix = next(
                    (s for s in SUFFIX_TO_TYPE if nxt.text.endswith(s)),
                    None,
                )
                if suffix is None:
                    continue
                yield Finding(
                    self.name,
                    f.rel,
                    nxt.line,
                    f"raw 'double {nxt.text}' in a typed layer; use "
                    f"{SUFFIX_TO_TYPE[suffix]} so the dimension is "
                    "compiler-checked",
                )
