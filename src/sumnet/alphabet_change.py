"""Re-using a GF(3) sum code on GF(2) blocks: a two-source demonstration.

A two-source, one-terminal network summing over GF(3) is extended to carry
GF(2) message blocks: bits embed into ternary symbols (0 -> 0, 1 -> 1), the
GF(3) code runs unchanged, and a completion of the inverse map sends
ternary symbols back to bits.  The completion must assign something to the
symbol 2, and that choice is arbitrary.  On the all-ones inputs the GF(3)
sum is all 2s while the GF(2) sum is all zeros, so the completion that maps
2 to 1 decodes wrongly.  A terminal that wants a single message instead of
a function of messages never sees a 2, which is why per-message demands
survive alphabet changes while sum demands do not.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product


class InvalidGammaError(ValueError):
    """The block-size exponent must be at least 2."""


class TooLargeError(ValueError):
    """Exhaustive enumeration over the requested block size is infeasible."""


@dataclass(frozen=True)
class ExtensionParams:
    """Block sizes for the alphabet change, driven by the exponent gamma.

    ``t`` = 2^gamma ternary symbols per edge use; ``nprime`` is the smallest
    binary block length with 3^nprime >= 2^t; messages carry ``kprime`` =
    nprime - 1 bits, giving one bit of rate back to the conversion.
    """

    gamma: int
    t: int
    nprime: int
    kprime: int


# the blocks are tuples of 2^gamma symbols: 65,536 at the cap
_MAX_GAMMA = 16


def extension_params(gamma: int) -> ExtensionParams:
    if not isinstance(gamma, int) or gamma < 2:
        raise InvalidGammaError(f"gamma must be an integer >= 2, got {gamma!r}")
    if gamma > _MAX_GAMMA:
        raise TooLargeError(
            f"gamma={gamma} too large: blocks of 2^gamma symbols stop at gamma={_MAX_GAMMA}"
        )
    t = 2**gamma
    # the float estimate of t*log3(2) can be off by one either way; exact
    # integer comparisons settle the smallest n with 3^n >= 2^t
    nprime = max(1, math.ceil(t * math.log(2) / math.log(3)))
    while nprime > 1 and 3 ** (nprime - 1) >= 2**t:
        nprime -= 1
    while 3**nprime < 2**t:
        nprime += 1
    return ExtensionParams(gamma=gamma, t=t, nprime=nprime, kprime=nprime - 1)


def embed_block(bits: tuple[int, ...], t: int) -> tuple[int, ...]:
    """Componentwise embedding of a bit block into t ternary symbols,
    zero-padded on the right."""
    if any(b not in (0, 1) for b in bits):
        raise ValueError(f"not a bit block: {bits!r}")
    return tuple(bits) + (0,) * (t - len(bits))


def project_block(symbols: tuple[int, ...], kprime: int, two_maps_to: int) -> tuple[int, ...]:
    """Componentwise inverse of the embedding on the first kprime symbols.

    0 and 1 map back to themselves; the symbol 2 has no preimage, so the
    completion ``two_maps_to`` (0 or 1) decides its image.
    """
    if two_maps_to not in (0, 1):
        raise ValueError(f"two_maps_to must be 0 or 1, got {two_maps_to!r}")
    table = {0: 0, 1: 1, 2: two_maps_to}
    return tuple(table[s] for s in symbols[:kprime])


def decode_sum(
    x1: tuple[int, ...], x2: tuple[int, ...], params: ExtensionParams, two_maps_to: int
) -> tuple[int, ...]:
    """Run the extended code: embed both blocks, sum over GF(3), project back."""
    a1 = embed_block(x1, params.t)
    a2 = embed_block(x2, params.t)
    total = tuple((u + v) % 3 for u, v in zip(a1, a2))
    return project_block(total, params.kprime, two_maps_to)


def true_sum(x1: tuple[int, ...], x2: tuple[int, ...]) -> tuple[int, ...]:
    return tuple((u + v) % 2 for u, v in zip(x1, x2))


def decode_unicast(x1: tuple[int, ...], params: ExtensionParams, two_maps_to: int) -> tuple[int, ...]:
    """The control case: the terminal demands the first message itself.

    The edge carries the embedded block unchanged, so only symbols 0 and 1
    ever reach the projection and every completion decodes correctly.
    """
    return project_block(embed_block(x1, params.t), params.kprime, two_maps_to)


@dataclass(frozen=True)
class CompletionOutcome:
    two_maps_to: int
    x1: tuple[int, ...] | None
    x2: tuple[int, ...] | None
    decoded: tuple[int, ...] | None
    expected: tuple[int, ...] | None
    fails: bool
    exhausted: bool = False  # search scanned every input pair without a witness


@dataclass(frozen=True)
class CounterexampleReport:
    params: ExtensionParams
    mode: str  # "fixed-input" or "exhaustive-search"
    outcomes: tuple[CompletionOutcome, ...]

    @property
    def any_failure(self) -> bool:
        return any(outcome.fails for outcome in self.outcomes)

    def to_dict(self) -> dict:
        return {
            "schema": "sumnet.counterexample/1",
            "gamma": self.params.gamma,
            "t": self.params.t,
            "nprime": self.params.nprime,
            "kprime": self.params.kprime,
            "mode": self.mode,
            "any_failure": self.any_failure,
            "outcomes": [
                {
                    "two_maps_to": o.two_maps_to,
                    "x1": list(o.x1) if o.x1 is not None else None,
                    "x2": list(o.x2) if o.x2 is not None else None,
                    "decoded": list(o.decoded) if o.decoded is not None else None,
                    "expected": list(o.expected) if o.expected is not None else None,
                    "fails": o.fails,
                    "exhausted": o.exhausted,
                }
                for o in self.outcomes
            ],
        }


def run_counterexample(gamma: int) -> CounterexampleReport:
    """Evaluate the extended code on the all-ones inputs for both completions.

    Every coordinate sums to 2 over GF(3) while the GF(2) sum is all zeros,
    so the completion sending 2 to 1 decodes the wrong block.  The
    completion sending 2 to 0 happens to match on this input; the point is
    that an arbitrary completion is not entitled to.
    """
    params = extension_params(gamma)
    ones = (1,) * params.kprime
    expected = true_sum(ones, ones)
    outcomes = []
    for two_maps_to in (0, 1):
        decoded = decode_sum(ones, ones, params, two_maps_to)
        outcomes.append(
            CompletionOutcome(
                two_maps_to=two_maps_to,
                x1=ones,
                x2=ones,
                decoded=decoded,
                expected=expected,
                fails=decoded != expected,
            )
        )
    return CounterexampleReport(params=params, mode="fixed-input", outcomes=tuple(outcomes))


def exhaustive_failure_search(gamma: int) -> CounterexampleReport:
    """Scan all input pairs for each completion, reporting the first witness
    where the extended code missums, or an honest exhaustion.

    The completion sending 2 to 0 agrees with GF(2) addition coordinate by
    coordinate (1+1 = 2 -> 0), so for it the scan finds nothing and says so;
    no witness is fabricated.
    """
    params = extension_params(gamma)
    if params.kprime > 10:
        raise TooLargeError(f"kprime={params.kprime} too large to enumerate 4^kprime pairs")
    blocks = list(product((0, 1), repeat=params.kprime))
    outcomes = []
    for two_maps_to in (0, 1):
        outcome = CompletionOutcome(two_maps_to, None, None, None, None, fails=False, exhausted=True)
        for x1, x2 in product(blocks, repeat=2):
            decoded, expected = decode_sum(x1, x2, params, two_maps_to), true_sum(x1, x2)
            if decoded != expected:
                outcome = CompletionOutcome(two_maps_to, x1, x2, decoded, expected, fails=True)
                break
        outcomes.append(outcome)
    return CounterexampleReport(
        params=params, mode="exhaustive-search", outcomes=tuple(outcomes)
    )


def unicast_control_holds(gamma: int) -> bool:
    """Exhaustively confirm the control case: single-message demands decode
    correctly under both completions on every input."""
    params = extension_params(gamma)
    if params.kprime > 10:
        raise TooLargeError(f"kprime={params.kprime} too large to enumerate")
    for two_maps_to in (0, 1):
        for x1 in product((0, 1), repeat=params.kprime):
            if decode_unicast(x1, params, two_maps_to) != x1:
                return False
    return True
