"""The reference reader of the algebra text format: a recursive reader that
walks the text one character at a time, kept apart from the package's
regular-expression reader, so the fuzz tests can hold the two to the same
values and the same InputError text.  It reads the grammar of
``lamconn.algebra`` and nothing more:

    element := ["-"] term (sep term)*             sep  := " + " | " - "
    term    := coeff ["*" mono] | mono | "(" lamsum ")" ["*" mono]
    mono    := "a" [pow] ["*b" [pow]] | "b" [pow]
    lamsum  := ["-"] lamterm (sep lamterm)*
    lamterm := coeff ["*lam" [zpow]] | "lam" [zpow]
    coeff   := nat ["/" nat]    pow := "^" nat    zpow := "^" ["-"] nat    nat := [0-9]+

and reports faults by the leftmost rule: terms are read from the left, each
as far as the grammar lets it go, and the first term that fails decides.
A term that is not there is unexpected from its separator on; a term that
is there fails at its leftmost literal that is a zero denominator or too
long for int().  The package prints polynomials but reads none, so the
polynomial tests read the printed text back with ``read_poly``, a lamsum in
the polynomial's variable.
"""

from lamconn.errors import InputError

DIGITS = "0123456789"


def _nat(text, pos):
    """The end of the run of ASCII digits at pos, or None when none is there."""
    end = pos
    while end < len(text) and text[end] in DIGITS:
        end += 1
    return end if end > pos else None


def _coeff(text, pos):
    """(end, numerator digits, denominator digits or None) of "p[/q]" at pos, or None."""
    end = _nat(text, pos)
    if end is None:
        return None
    if text.startswith("/", end):
        stop = _nat(text, end + 1)
        if stop is not None:
            return stop, text[pos:end], text[end + 1 : stop]
    return end, text[pos:end], None


def _power(text, pos, signed):
    """(end, exponent digits) of "^n", or "^-n" when signed, at pos; (pos, None) when none is there."""
    if text.startswith("^", pos):
        start = pos + 1 + (signed and text.startswith("-", pos + 1))
        end = _nat(text, start)
        if end is not None:
            return end, text[pos + 1 : end]
    return pos, None


def _lam_term(text, pos, var):
    """(end, (numerator, denominator, exponent) as text) of a lamterm in var at pos, or None."""
    got = _coeff(text, pos)
    if got is not None:
        end, p, q = got
        if text.startswith("*" + var, end):
            stop, e = _power(text, end + 1 + len(var), True)
            return stop, (p, q, e or "1")
        return end, (p, q, "0")
    if text.startswith(var, pos):
        end, e = _power(text, pos + len(var), True)
        return end, ("1", None, e or "1")
    return None


def _separator(text, pos):
    """Whether a sep stands at pos, and whether it is " - "."""
    chunk = text[pos : pos + 3]
    return chunk in (" + ", " - "), chunk == " - "


def _lam_sum(text, pos, var):
    """(end, [(negative, numerator, denominator, exponent)]) of the lamsum in var at pos, or None."""
    negative = text.startswith("-", pos)
    got = _lam_term(text, pos + negative, var)
    if got is None:
        return None
    end, term = got
    terms = [(negative, *term)]
    while True:
        found, negative = _separator(text, end)
        got = _lam_term(text, end + 3, var) if found else None
        if got is None:
            return end, terms
        end, term = got
        terms.append((negative, *term))


def _mono(text, pos):
    """(end, a power, b power) as digits of the mono at pos, or None."""
    if text.startswith("a", pos):
        end, i = _power(text, pos + 1, False)
        if text.startswith("*b", end):
            stop, j = _power(text, end + 2, False)
            return stop, i or "1", j or "1"
        return end, i or "1", "0"
    if text.startswith("b", pos):
        end, j = _power(text, pos + 1, False)
        return end, "0", j or "1"
    return None


def _term(text, pos):
    """(end, coefficient lamterms, a power, b power) of the term at pos, all literals as text, or None."""
    got = _coeff(text, pos)
    if got is not None:
        end, p, q = got
        coefficient = [(False, p, q, "0")]
    elif text.startswith("(", pos):
        got = _lam_sum(text, pos + 1, "lam")
        if got is None or not text.startswith(")", got[0]):
            return None
        end, coefficient = got[0] + 1, got[1]
    else:
        mono = _mono(text, pos)
        return None if mono is None else (mono[0], [(False, "1", None, "0")], *mono[1:])
    mono = _mono(text, end + 1) if text.startswith("*", end) else None
    return (end, coefficient, "0", "0") if mono is None else (mono[0], coefficient, *mono[1:])


def _int(digits):
    try:
        return int(digits)
    except ValueError:
        raise InputError(f"integer literal of {len(digits.lstrip('-'))} digits is too long") from None


def _values(lam_terms, negative):
    """(exponent, numerator, denominator) of each lamterm, literals converted left to right."""
    out = []
    for minus, p, q, e in lam_terms:
        num = _int(p)
        den = 1 if q is None else _int(q)
        if den == 0:
            raise InputError(f"zero denominator: {p + '/' + q!r}")
        out.append((_int(e), -num if minus != negative else num, den))
    return out


def read_element(text):
    """Read an algebra element into one (lam terms, i, j) per term, lam terms as
    (exponent, num, den) with the term's sign in num, nothing reduced or merged."""
    terms = []
    pos = 0
    while True:
        if pos == 0:
            found, negative = True, text.startswith("-")
            start = negative
        else:
            found, negative = _separator(text, pos)
            start = pos + 3
        got = _term(text, start) if found else None
        if got is None:
            raise InputError(f"unexpected {text[pos : pos + 20]!r} in algebra element: {text!r}"
                             if text else "empty algebra element")
        end, coefficient, i, j = got
        lam_terms = _values(coefficient, negative)
        terms.append((lam_terms, _int(i), _int(j)))
        pos = end
        if pos == len(text):
            return terms


def read_poly(text, var):
    """(exponent, num, den) per term of the printed polynomial text in var, like exponents not merged."""
    got = _lam_sum(text, 0, var)
    if got is None or got[0] != len(text):
        raise InputError(f"not a polynomial in {var}: {text!r}")
    return _values(got[1], False)
