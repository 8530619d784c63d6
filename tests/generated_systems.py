"""Generated system files: constant-length substitutions with theta = q.

Every letter is a unit interval, and its rule is a word of q letters
placed at offsets 0, 1, ..., q - 1, so every such file validates: the
children tile [0, q], which is the prototile dilated by q.  Draws cover
periodic words, non-primitive rules and letters that are no child.
"""


def constant_length_system(q: int, words: dict, name: str = "generated") -> dict:
    """The system dict of theta = q with one unit-interval prototile per
    key of `words`, whose rule is its word, one letter per unit."""
    return {
        "name": name,
        "dimension": 1,
        "theta": {"minpoly": [-q, 1], "approx": str(q)},
        "prototiles": [
            {"id": a, "support": {"type": "interval", "length": ["1"]}} for a in words
        ],
        "rules": {
            a: [{"tile": b, "offset": [[str(k)]]} for k, b in enumerate(word)]
            for a, word in words.items()
        },
    }


def draw_constant_length(rng) -> dict:
    """A system dict drawn with the random.Random `rng`: q from 2 to 5,
    one to four letters, and each letter's word any q of them."""
    q = rng.randint(2, 5)
    letters = "abcd"[: rng.randint(1, 4)]
    words = {a: "".join(rng.choice(letters) for _ in range(q)) for a in letters}
    return constant_length_system(q, words)
