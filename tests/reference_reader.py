"""The reference reader of the term grammar: a recursive reader kept apart from
the package's one-pass reader, so the fuzz tests can hold the two to the
same values and the same InputError text.  The package prints polynomials
but reads none, so the polynomial tests read the printed text back with
``read_poly``.

``read_terms`` matches one token at a time, and a parenthesized group is one
token whose inside it reads again with itself, as a polynomial in the
variable of the sum it stands in (``read_poly``).  A group's faults are therefore reported when its token is
read; a syntax fault anywhere beats a name fault, and a text whose group
does not close before the next "(" fails at that group's "(".
"""

import re

from lamconn.errors import InputError
from lamconn.exact import parse_int

# One token after optional whitespace: an operator, p[/q], name[^int] or a
# parenthesized group without parentheses inside.
TOKEN_RE = re.compile(r"\s*(?:([-+*])|((\d+)(?:/(\d+))?)|([^\W\d]\w*)(?:\^(-?\d+))?|\(([^()]*)\))")


def read_terms(text, what, var):
    """Read a sum in the term grammar into one ((num, den), powers, groups) per term.

    num/den is the signed product of the term's rational factors, not
    reduced; powers lists its name^int factors as (name, power) in text
    order; groups holds each of its parentheses, read as a polynomial in
    var into its (exponent, num, den) terms.  what names the expected value
    in error messages.
    """
    if not text.strip():
        raise InputError(f"empty {what}")
    terms = []
    num, den, powers, groups = 1, 1, [], []
    want_factor = True
    match = TOKEN_RE.match
    pos, end = 0, len(text.rstrip())
    try:
        while pos < end:
            m = match(text, pos)
            if m is None or (m[1] == "*" if want_factor else m[1] is None):
                raise InputError(f"unexpected {text[pos:end].lstrip()[:20]!r} in {what}: {text!r}")
            pos = m.end()
            op, rat, p, q, name, power, group = m.groups()
            if op is None:
                want_factor = False
                if rat is not None:
                    num *= int(p)
                    if q:
                        den *= int(q)
                        if den == 0:
                            raise InputError(f"zero denominator: {rat!r}")
                elif name is not None:
                    powers.append((name, int(power) if power else 1))
                else:
                    groups.append(read_poly(group, var))
            elif op == "*":
                want_factor = True
            elif not want_factor:
                terms.append(((num, den), powers, groups))
                num, den, powers, groups = 1 if op == "+" else -1, 1, [], []
                want_factor = True
            elif op == "-":
                num = -num
    except InputError:
        raise
    except ValueError:
        # int() refused a literal past the conversion limit: parse_int names the first one
        for literal in (p, q, power):
            if literal:
                parse_int(literal)
        raise
    if want_factor:
        raise InputError(f"dangling operator in {what}: {text!r}")
    terms.append(((num, den), powers, groups))
    return terms


def read_poly(text, var):
    """(exponent, num, den) per term of a polynomial in var, like-exponent terms not merged."""
    what = f"polynomial in {var}"
    terms = []
    for (n, d), powers, groups in read_terms(text, what, var):
        e = 0
        for name, power in powers:
            if name != var:
                break
            e += power
        else:
            if not groups:
                terms.append((e, n, d))
                continue
        raise InputError(f"only rationals and powers of {var} may form a {what}: {text!r}")
    return terms
