"""Closure-search references for the word layer.

``normal_form_closure`` computes the normal form by explicit search over
the shuffle closure, and ``shuffle_closure`` lists that closure; the
package's piling pass (``raagham.words.normal_form``) must agree
with both.
"""

from raagham.words import (
    DEFAULT_CLOSURE_CAP,
    NormalForm,
    ResourceCapExceeded,
    Word,
    _alphabet,
)


def _shuffle_closure_ids(graph, ids):
    commute = _alphabet(graph)[1]
    seen = {ids}
    stack = [ids]
    while stack:
        cur = stack.pop()
        for i in range(len(cur) - 1):
            a, b = cur[i], cur[i + 1]
            if commute[a][b]:
                nxt = cur[:i] + (b, a) + cur[i + 2 :]
                if nxt not in seen:
                    if len(seen) >= DEFAULT_CLOSURE_CAP:
                        raise ResourceCapExceeded(f"shuffle closure exceeded {len(seen)} words")
                    seen.add(nxt)
                    stack.append(nxt)
    return seen


def shuffle_closure(w: Word):
    """Every word reachable from w by swapping adjacent commuting letters."""
    return {Word._trusted(w.graph, ids) for ids in _shuffle_closure_ids(w.graph, w._ids)}


def _first_cancellation(ids):
    for i in range(len(ids) - 1):
        if ids[i] ^ 1 == ids[i + 1]:
            return ids[:i] + ids[i + 2 :]
    return None


def normal_form_closure(w: Word) -> NormalForm:
    """Reference normal form by explicit closure search.

    Repeatedly computes the full shuffle closure, cancels the first
    cancelling pair found in any member (scanning members in sorted order for
    determinism) and restarts; once no member cancels, the shortlex-least
    member is the answer.  Exponential in the worst case; the piling route
    must agree with this one.
    """
    current = w._ids
    while True:
        closure = _shuffle_closure_ids(w.graph, current)
        reduced = None
        for ids in sorted(closure):
            shorter = _first_cancellation(ids)
            if shorter is not None:
                reduced = shorter
                break
        if reduced is None:
            return NormalForm(word=Word._trusted(w.graph, min(closure)))
        current = reduced
