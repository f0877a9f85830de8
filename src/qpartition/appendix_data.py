"""Golden reference expansions of P(m1, m2, m3, s; q) for small parameters.

Independently tabulated values, transcribed once by hand; the verify suite
recomputes each entry with the recursion, so a transcription slip shows up
as a localized diff instead of silently passing.

Layout: ``APPENDIX[(m1, m2, m3)]`` gives

* ``zero_upto``:  P = 0 for every s <= this bound,
* ``zero_from``:  P = 0 for every s >= this bound,
* ``polys``:      the nonzero expansions, descending-exponent strings.

Two reading notes, both recorded in ``TABLE_ERRATA`` and reported by the
verify suite rather than silently absorbed:

* the source table prints the (1,1,0) row entry ``q^11 + q^9`` with a
  duplicated left-hand side ``P(1,1,0,3)``; it is stored here as s = 4, the
  unique reading consistent with the neighbouring rows;
* the printed P(1,2,0,5) coefficient of q^16 is 1, but two weight-16 bases
  with one repeating and two consecutive pairs exist (1,2,2,3,4,4 and
  1,1,2,3,4,5), so the stored value carries 2q^16; the structural
  enumeration oracle confirms it independently of the recursion.
"""

from __future__ import annotations

import re

from .series import QPoly

_TERM = re.compile(r"^(\d*)(?:q(?:\^(\d+))?)?$")


def parse_qpoly(text: str) -> QPoly:
    """Parse ``q^30 + 2q^28 + ... + 3`` (descending or any order) exactly."""
    given, text = text, text.strip()
    if text == "0":
        return QPoly()
    terms = {}
    for raw in text.replace("-", "+-").split("+"):
        # spaces may pad a term and follow its sign, never split it
        tok = raw.strip()
        if not tok:
            continue
        neg = tok.startswith("-")
        if neg:
            tok = tok[1:].lstrip()
        m = _TERM.match(tok)
        if not m or (not m.group(1) and "q" not in tok):
            raise ValueError("cannot parse term %r in %r" % (raw, text))
        coeff = int(m.group(1)) if m.group(1) else 1
        if "q" not in tok:
            exp = 0
        else:
            exp = int(m.group(2)) if m.group(2) else 1
        terms[exp] = terms.get(exp, 0) + (-coeff if neg else coeff)
    if not terms:
        raise ValueError("cannot parse %r: no terms" % (given,))
    out = [0] * (max(terms) + 1)
    for e, c in terms.items():
        out[e] = c
    return QPoly(out)


APPENDIX: dict[tuple[int, int, int], dict] = {
    # ------------------------------------------------------------- m3 = 0
    (1, 1, 0): {
        "zero_upto": 2,
        "zero_from": 5,
        "polys": {
            3: "q^7",
            4: "q^11 + q^9",
        },
    },
    (1, 2, 0): {
        "zero_upto": 3,
        "zero_from": 7,
        "polys": {
            4: "q^14",
            5: "q^20 + q^18 + 2q^16",  # printed with q^16; see TABLE_ERRATA
            6: "q^22 + q^20",
        },
    },
    (2, 1, 0): {
        "zero_upto": 3,
        "zero_from": 7,
        "polys": {
            4: "q^13",
            5: "q^19 + 2q^17 + q^15",
            6: "q^23 + q^21 + q^19",
        },
    },
    (2, 2, 0): {
        "zero_upto": 4,
        "zero_from": 9,
        "polys": {
            5: "q^22",
            6: "q^30 + 2q^28 + 2q^26 + 2q^24",
            7: "q^36 + q^34 + 4q^32 + 2q^30 + 2q^28",
            8: "q^38 + q^36 + q^34",
        },
    },
    (3, 1, 0): {
        "zero_upto": 4,
        "zero_from": 9,
        "polys": {
            5: "q^21",
            6: "q^29 + 2q^27 + 2q^25 + q^23",
            7: "q^35 + 2q^33 + 3q^31 + 2q^29 + q^27",
            8: "q^39 + q^37 + q^35 + q^33",
        },
    },
    (3, 2, 0): {
        "zero_upto": 5,
        "zero_from": 11,
        "polys": {
            6: "q^32",
            7: "q^42 + 2q^40 + 3q^38 + 2q^36 + 2q^34",
            8: "q^50 + 2q^48 + 5q^46 + 5q^44 + 6q^42 + 3q^40 + 2q^38",
            9: "q^56 + q^54 + 4q^52 + 4q^50 + 5q^48 + 2q^46 + 2q^44",
            10: "q^58 + q^56 + q^54 + q^52",
        },
    },
    (4, 1, 0): {
        "zero_upto": 5,
        "zero_from": 11,
        "polys": {
            6: "q^31",
            7: "q^41 + 2q^39 + 2q^37 + 2q^35 + q^33",
            8: "q^49 + 2q^47 + 4q^45 + 4q^43 + 4q^41 + 2q^39 + q^37",
            9: "q^55 + 2q^53 + 3q^51 + 4q^49 + 3q^47 + 2q^45 + q^43",
            10: "q^59 + q^57 + q^55 + q^53 + q^51",
        },
    },
    (4, 2, 0): {
        "zero_upto": 6,
        "zero_from": 13,
        "polys": {
            7: "q^44",
            8: "q^56 + 2q^54 + 3q^52 + 3q^50 + 2q^48 + 2q^46",
            9: "q^66 + 2q^64 + 6q^62 + 6q^60 + 10q^58 + 7q^56 + 7q^54 + 3q^52 + 2q^50",
            10: "q^74 + 2q^72 + 5q^70 + 8q^68 + 10q^66 + 11q^64 + 9q^62 + 7q^60 + 3q^58 + 2q^56",
            11: "q^80 + q^78 + 4q^76 + 4q^74 + 7q^72 + 5q^70 + 5q^68 + 2q^66 + 2q^64",
            12: "q^82 + q^80 + q^78 + q^76 + q^74",
        },
    },
    (1, 3, 0): {
        "zero_upto": 4,
        "zero_from": 9,
        "polys": {
            5: "q^23",
            6: "q^31 + q^29 + 2q^27 + 2q^25",
            7: "q^35 + 2q^33 + 2q^31 + 2q^29",
            8: "q^37 + q^35",
        },
    },
    (1, 4, 0): {
        "zero_upto": 5,
        "zero_from": 11,
        "polys": {
            6: "q^34",
            7: "q^44 + q^42 + 2q^40 + 2q^38 + 2q^36",
            8: "q^50 + 2q^48 + 3q^46 + 4q^44 + 3q^42 + 2q^40",
            9: "q^54 + 2q^52 + 3q^50 + 2q^48 + 2q^46",
            10: "q^56 + q^54",
        },
    },
    (2, 3, 0): {
        "zero_upto": 5,
        "zero_from": 11,
        "polys": {
            6: "q^33",
            7: "q^43 + 2q^41 + 2q^39 + 3q^37 + 2q^35",
            8: "q^51 + q^49 + 4q^47 + 5q^45 + 6q^43 + 3q^41 + 3q^39",
            9: "q^55 + 2q^53 + 4q^51 + 4q^49 + 3q^47 + 2q^45",
            10: "q^57 + q^55 + q^53",
        },
    },
    (2, 4, 0): {
        "zero_upto": 6,
        "zero_from": 13,
        "polys": {
            7: "q^46",
            8: "q^58 + 2q^56 + 2q^54 + 3q^52 + 3q^50 + 2q^48",
            9: "q^68 + q^66 + 4q^64 + 5q^62 + 9q^60 + 7q^58 + 8q^56 + 4q^54 + 3q^52",
            10: "q^74 + 2q^72 + 5q^70 + 7q^68 + 10q^66 + 9q^64 + 8q^62 + 4q^60 + 3q^58",
            11: "q^78 + 2q^76 + 5q^74 + 4q^72 + 5q^70 + 3q^68 + 2q^66",
            12: "q^80 + q^78 + q^76",
        },
    },
    (3, 3, 0): {
        "zero_upto": 6,
        "zero_from": 13,
        "polys": {
            7: "q^45",
            8: "q^57 + 2q^55 + 3q^53 + 3q^51 + 3q^49 + 2q^47",
            9: "q^67 + 2q^65 + 5q^63 + 7q^61 + 10q^59 + 9q^57 + 8q^55 + 4q^53 + 3q^51",
            10: "q^75 + q^73 + 4q^71 + 8q^69 + 10q^67 + 11q^65 + 12q^63 + 8q^61 + 4q^59 + 3q^57",
            11: "q^79 + 2q^77 + 4q^75 + 6q^73 + 6q^71 + 5q^69 + 3q^67 + 2q^65",
            12: "q^81 + q^79 + q^77 + q^75",
        },
    },
    (3, 4, 0): {
        "zero_upto": 7,
        "zero_from": 15,
        "polys": {
            8: "q^60",
            9: "q^74 + 2q^72 + 3q^70 + 3q^68 + 4q^66 + 3q^64 + 2q^62",
            10: "q^86 + 2q^84 + 5q^82 + 7q^80 + 12q^78 + 13q^76 + 15q^74 + 11q^72 + 10q^70 + 5q^68 + 3q^66",
            11: "q^96 + q^94 + 4q^92 + 8q^90 + 14q^88 + 17q^86 + 25q^84 + 22q^82 + 23q^80 + 17q^78 + 12q^76 + 5q^74 + 4q^72",
            12: "q^102 + 2q^100 + 5q^98 + 10q^96 + 14q^94 + 18q^92 + 19q^90 + 19q^88 + 14q^86 + 10q^84 + 5q^82 + 3q^80",
            13: "q^106 + 2q^104 + 5q^102 + 6q^100 + 8q^98 + 6q^96 + 6q^94 + 3q^92 + 2q^90",
            14: "q^108 + q^106 + q^104 + q^102",
        },
    },
    # ------------------------------------------------------------- m3 = 1
    (0, 0, 1): {
        "zero_upto": 4,
        "zero_from": 6,
        "polys": {5: "q^13"},
    },
    (0, 1, 1): {
        "zero_upto": 5,
        "zero_from": 8,
        "polys": {6: "q^24 + q^21", 7: "q^26"},
    },
    (0, 2, 1): {
        "zero_upto": 6,
        "zero_from": 10,
        "polys": {
            7: "q^37 + q^34 + q^31",
            8: "q^41 + q^39 + q^38 + q^36",
            9: "q^43",
        },
    },
    (1, 0, 1): {
        "zero_upto": 5,
        "zero_from": 8,
        "polys": {6: "q^23 + q^20", 7: "q^27 + q^25"},
    },
    (1, 1, 1): {
        "zero_upto": 6,
        "zero_from": 10,
        "polys": {
            7: "q^36 + 2q^33 + q^30",
            8: "q^42 + 2q^40 + q^39 + q^38 + q^37 + 2q^35",
            9: "q^44 + q^42",
        },
    },
    (1, 2, 1): {
        "zero_upto": 7,
        "zero_from": 12,
        "polys": {
            8: "q^51 + 2q^48 + 2q^45 + q^42",
            9: "q^59 + 2q^57 + q^56 + q^55 + 2q^54 + 3q^53 + 3q^52 + q^51 + 2q^50 + 2q^49 + 2q^47",
            10: "q^63 + 3q^61 + q^60 + 2q^59 + 2q^58 + q^57 + 2q^56 + 2q^54",
            11: "q^65 + q^63",
        },
    },
    (2, 0, 1): {
        "zero_upto": 6,
        "zero_from": 10,
        "polys": {
            7: "q^35 + q^32 + q^29",
            8: "q^41 + q^39 + q^38 + q^37 + q^36 + q^34",
            9: "q^45 + q^43 + q^41",
        },
    },
    (2, 1, 1): {
        "zero_upto": 7,
        "zero_from": 12,
        "polys": {
            8: "q^50 + 2q^47 + 2q^44 + q^41",
            9: "q^58 + 2q^56 + 2q^55 + 2q^54 + 2q^53 + 2q^52 + 3q^51 + 2q^50 + 2q^49 + q^48 + 2q^46",
            10: "q^64 + 2q^62 + q^61 + 3q^60 + q^59 + 2q^58 + 3q^57 + q^56 + 2q^55 + 2q^53",
            11: "q^66 + q^64 + q^62",
        },
    },
    (2, 2, 1): {
        "zero_upto": 8,
        "zero_from": 14,
        "polys": {
            9: "q^67 + 2q^64 + 3q^61 + 2q^58 + q^55",
            10: "q^77 + 2q^75 + 2q^74 + 2q^73 + 3q^72 + 4q^71 + 4q^70 + 5q^69 + 4q^68 + 3q^67 + 5q^66 + 4q^65 + 2q^64 + 3q^63 + 2q^62 + 2q^60",
            11: "q^85 + 2q^83 + q^82 + 4q^81 + 2q^80 + 6q^79 + 5q^78 + 6q^77 + 6q^76 + 6q^75 + 7q^74 + 6q^73 + 4q^72 + 5q^71 + 2q^70 + 3q^69 + 3q^67",
            12: "q^89 + 3q^87 + q^86 + 4q^85 + 2q^84 + 4q^83 + 3q^82 + 2q^81 + 4q^80 + q^79 + 3q^78 + 2q^76",
            13: "q^91 + q^89 + q^87",
        },
    },
    # ------------------------------------------------------------- m3 = 2
    (0, 0, 2): {
        "zero_upto": 8,
        "zero_from": 10,
        "polys": {9: "q^46"},
    },
    (0, 1, 2): {
        "zero_upto": 9,
        "zero_from": 12,
        "polys": {10: "q^65 + q^62 + q^59", 11: "q^69 + q^67"},
    },
    (0, 2, 2): {
        "zero_upto": 10,
        "zero_from": 14,
        "polys": {
            11: "q^86 + q^83 + 2q^80 + q^77 + q^74",
            12: "q^92 + q^90 + q^89 + q^88 + q^87 + q^86 + q^85 + q^84 + q^82",
            13: "q^96 + q^94 + q^92",
        },
    },
    (1, 0, 2): {
        "zero_upto": 9,
        "zero_from": 12,
        "polys": {10: "q^64 + q^61 + q^58", 11: "q^70 + q^68 + q^66"},
    },
    (1, 1, 2): {
        "zero_upto": 10,
        "zero_from": 14,
        "polys": {
            11: "q^85 + 2q^82 + 3q^79 + 2q^76 + q^73",
            12: "q^93 + 2q^91 + q^90 + 2q^89 + 2q^88 + 2q^87 + q^86 + q^85 + 2q^84 + 2q^83 + 2q^81",
            13: "q^97 + 2q^95 + 2q^93 + q^91",
        },
    },
    (1, 2, 2): {
        "zero_upto": 11,
        "zero_from": 16,
        "polys": {
            12: "q^108 + 2q^105 + 4q^102 + 4q^99 + 4q^96 + 2q^93 + q^90",
            13: "q^118 + 2q^116 + q^115 + 2q^114 + 3q^113 + 3q^112 + 2q^111 + 6q^110 + 4q^109 + 4q^108 + 4q^107 + 6q^106 + 3q^105 + 5q^104 + 2q^103 + 2q^102 + 3q^101 + 2q^100 + 2q^98",
            14: "q^124 + 3q^122 + q^121 + 4q^120 + 3q^119 + 5q^118 + 3q^117 + 4q^116 + 4q^115 + 4q^114 + 2q^113 + 4q^112 + 2q^111 + 3q^110 + 2q^108",
            15: "q^128 + 2q^126 + 3q^124 + 2q^122 + q^120",
        },
    },
    (2, 0, 2): {
        "zero_upto": 10,
        "zero_from": 14,
        "polys": {
            11: "q^84 + q^81 + 2q^78 + q^75 + q^72",
            12: "q^92 + q^90 + q^89 + q^88 + q^87 + 2q^86 + q^85 + q^84 + q^83 + q^82 + q^80",
            13: "q^98 + q^96 + 2q^94 + q^92 + q^90",
        },
    },
    (2, 1, 2): {
        "zero_upto": 11,
        "zero_from": 16,
        "polys": {
            12: "q^107 + 2q^104 + 4q^101 + 4q^98 + 4q^95 + 2q^92 + q^89",
            13: "q^117 + 2q^115 + 2q^114 + 2q^113 + 3q^112 + 5q^111 + 2q^110 + 5q^109 + 5q^108 + 5q^107 + 4q^106 + 5q^105 + 3q^104 + 6q^103 + 2q^102 + q^101 + 3q^100 + 2q^99 + 2q^97",
            14: "q^125 + 2q^123 + q^122 + 4q^121 + 2q^120 + 5q^119 + 3q^118 + 5q^117 + 4q^116 + 5q^115 + 4q^114 + 5q^113 + 2q^112 + 4q^111 + 2q^110 + 3q^109 + 2q^107",
            15: "q^129 + 2q^127 + 3q^125 + 3q^123 + 2q^121 + q^119",
        },
    },
    (2, 2, 2): {
        "zero_upto": 12,
        "zero_from": 18,
        "polys": {
            13: "q^132 + 2q^129 + 5q^126 + 6q^123 + 8q^120 + 6q^117 + 5q^114 + 2q^111 + q^108",
            14: "q^144 + 2q^142 + 2q^141 + 2q^140 + 4q^139 + 6q^138 + 3q^137 + 9q^136 + 8q^135 + 9q^134 + 9q^133 + 11q^132 + 11q^131 + 13q^130 + 8q^129 + 13q^128 + 11q^127 + 8q^126 + 9q^125 + 9q^124 + 4q^123 + 9q^122 + 3q^121 + 2q^120 + 4q^119 + 2q^118 + 2q^116",
            15: "q^154 + 2q^152 + q^151 + 5q^150 + 3q^149 + 7q^148 + 6q^147 + 12q^146 + 8q^145 + 15q^144 + 12q^143 + 18q^142 + 13q^141 + 20q^140 + 13q^139 + 21q^138 + 14q^137 + 17q^136 + 10q^135 + 14q^134 + 8q^133 + 11q^132 + 4q^131 + 6q^130 + 4q^129 + 4q^128 + 3q^126",
            16: "q^160 + 3q^158 + q^157 + 6q^156 + 3q^155 + 9q^154 + 5q^153 + 11q^152 + 7q^151 + 11q^150 + 8q^149 + 11q^148 + 7q^147 + 10q^146 + 6q^145 + 9q^144 + 3q^143 + 7q^142 + 2q^141 + 4q^140 + 2q^138",
            17: "q^164 + 2q^162 + 4q^160 + 4q^158 + 4q^156 + 2q^154 + q^152",
        },
    },
}


TABLE_ERRATA: list[dict] = [
    {
        "key": (1, 1, 0, 4),
        "printed": "tabulated under the duplicated header P(1,1,0,3)",
        "stored": "q^11 + q^9 at s = 4",
        "reason": "the row already lists P(1,1,0,3) = q^7 and declares zero from s = 5",
    },
    {
        "key": (1, 2, 0, 5),
        "printed": "q^20 + q^18 + q^16",
        "stored": "q^20 + q^18 + 2q^16",
        "reason": "two weight-16 bases carry one repeating and two consecutive "
        "pairs with largest pair index 4: 1,2,2,3,4,4 and 1,1,2,3,4,5; the "
        "structural enumeration oracle confirms the coefficient 2",
    },
]


def golden_entries():
    """Yield (m1, m2, m3, s, QPoly) over everything the tables pin down.

    Includes the zero assertions: s from 1 to zero_upto and a few values at
    and beyond zero_from map to the zero polynomial.
    """
    for (m1, m2, m3), entry in sorted(APPENDIX.items()):
        for s in range(1, entry["zero_upto"] + 1):
            yield m1, m2, m3, s, QPoly()
        for s, text in sorted(entry["polys"].items()):
            yield m1, m2, m3, s, parse_qpoly(text)
        for s in range(entry["zero_from"], entry["zero_from"] + 3):
            yield m1, m2, m3, s, QPoly()
